(** Static per-thread cost analysis of a kernel.

    Straight-line streaming kernels execute (at most) every instruction
    once per thread, so static counts are the dynamic counts; these
    numbers feed the device timing model and the flop/byte figures of
    Table II (convention: fma = 2 flops, negation is a free operand
    modifier). *)

type t = {
  load_bytes : int;  (** global-memory bytes read per thread *)
  store_bytes : int;
  flops : int;
  int_ops : int;
  instructions : int;
  calls : int;  (** math subroutine calls *)
  f16_bytes : int;
  f32_bytes : int;
  f64_bytes : int;
      (** the float portion of [load_bytes + store_bytes] split by storage
          precision; integer index traffic is counted in the totals only *)
}

val zero : t
val kernel : Types.kernel -> t
val flop_per_byte : t -> float
