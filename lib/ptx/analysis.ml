(** Static per-thread cost analysis of a kernel.

    Straight-line streaming kernels execute (at most) every instruction once
    per thread, so static counts are the dynamic counts; these numbers feed
    the device timing model and the flop/byte figures of Table II. *)

open Types

type t = {
  load_bytes : int;  (** global-memory bytes read per thread *)
  store_bytes : int;  (** global-memory bytes written per thread *)
  flops : int;  (** floating-point operations (fma counts 2) *)
  int_ops : int;
  instructions : int;
  calls : int;  (** math subroutine calls *)
  f16_bytes : int;
  f32_bytes : int;
  f64_bytes : int;
      (** the float portion of [load_bytes + store_bytes] split by storage
          precision; integer index traffic is counted in the totals only *)
}

let zero =
  {
    load_bytes = 0;
    store_bytes = 0;
    flops = 0;
    int_ops = 0;
    instructions = 0;
    calls = 0;
    f16_bytes = 0;
    f32_bytes = 0;
    f64_bytes = 0;
  }

let float_bytes acc = function
  | F32 -> { acc with f32_bytes = acc.f32_bytes + 4 }
  | F64 -> { acc with f64_bytes = acc.f64_bytes + 8 }
  | S32 | U32 | S64 | U64 | Pred -> acc

let kernel (k : kernel) =
  List.fold_left
    (fun acc i ->
      let acc = { acc with instructions = acc.instructions + 1 } in
      match i with
      | Ld_global { dtype; _ } ->
          float_bytes { acc with load_bytes = acc.load_bytes + dtype_bytes dtype } dtype
      | St_global { dtype; _ } ->
          float_bytes { acc with store_bytes = acc.store_bytes + dtype_bytes dtype } dtype
      | Ld_global_f16 _ ->
          { acc with load_bytes = acc.load_bytes + 2; f16_bytes = acc.f16_bytes + 2 }
      | St_global_f16 _ ->
          { acc with store_bytes = acc.store_bytes + 2; f16_bytes = acc.f16_bytes + 2 }
      | Add { dtype; _ } | Sub { dtype; _ } | Mul { dtype; _ } ->
          if is_float dtype then { acc with flops = acc.flops + 1 }
          else { acc with int_ops = acc.int_ops + 1 }
      | Neg _ ->
          (* Negation is an operand modifier on the hardware: free.  Keeping
             it free also makes the generated kernels' flop counts line up
             with the standard LQCD conventions behind Table II. *)
          acc
      | Div { dtype; _ } ->
          (* A float divide costs far more than one flop on real hardware;
             count the conventional 1 flop here, the timing model applies
             its own weight. *)
          if is_float dtype then { acc with flops = acc.flops + 1 }
          else { acc with int_ops = acc.int_ops + 1 }
      | Fma { dtype; _ } ->
          if is_float dtype then { acc with flops = acc.flops + 2 }
          else { acc with int_ops = acc.int_ops + 2 }
      | Shl _ -> { acc with int_ops = acc.int_ops + 1 }
      | Call _ -> { acc with calls = acc.calls + 1 }
      | Ld_param _ | Mov _ | Mov_sreg _ | Cvt _ | Setp _ | Bra _ | Label _ | Ret -> acc)
    zero k.body

let flop_per_byte a =
  let bytes = a.load_bytes + a.store_bytes in
  if bytes = 0 then 0.0 else float_of_int a.flops /. float_of_int bytes
