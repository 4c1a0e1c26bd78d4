(** The code-generating scalar: the {!Linalg.Scalar.S} instance whose
    "arithmetic" emits PTX.

    A value is either a compile-time constant or a typed virtual register —
    the "JIT values" of Sec. III-A, reified here as an OCaml variant.
    Constants fold: 0 and 1 products, zero additions and constant
    subexpressions never reach the instruction stream, which is how dense
    gamma-matrix algebra written at the QDP++ level compiles into the lean
    stencil kernels the paper measures.  Mixed-precision operands are
    reconciled by silently issuing [cvt] instructions — the implicit type
    promotion of Sec. III-D. *)

open Ptx.Types

type t = Const of float | Vreg of reg

(* The emitter the scalar operations write into; the code generator binds
   it for the duration of one kernel build (exclusive, like the CUDA
   driver context it models).  Builds issued from concurrent domains —
   Multi's parallel rank sweep compiling each rank's kernels — serialize
   on [build_lock].  Never nested: the single call site builds one kernel
   at a time. *)
let current : Emitter.t option ref = ref None
let build_lock = Mutex.create ()

let with_emitter e f =
  Mutex.protect build_lock (fun () ->
      current := Some e;
      Fun.protect ~finally:(fun () -> current := None) f)

let emitter () =
  match !current with
  | Some e -> e
  | None -> failwith "Jit_scalar: no emitter bound (codegen misuse)"

let const x = Const x

(* Precision of an operation: the widest register involved; pure-constant
   cases fold before this is ever asked. *)
let promote a b =
  match (a, b) with
  | Vreg { rtype = F64; _ }, _ | _, Vreg { rtype = F64; _ } -> F64
  | Vreg { rtype = F32; _ }, _ | _, Vreg { rtype = F32; _ } -> F32
  | _ -> F64

let operand dtype v =
  match v with
  | Const x -> Imm_float x
  | Vreg r when r.rtype = dtype -> Reg r
  | Vreg r ->
      (* Implicit promotion: convert into the operation's precision. *)
      let e = emitter () in
      let dst = Emitter.fresh e dtype in
      Emitter.emit e (Cvt { dst; src = r });
      Reg dst

(* The operand in its native register type, no implicit convert: f16
   stores round their source directly whatever its width, so a Cvt here
   would double-round f64 values. *)
let operand_native = function Const x -> Imm_float x | Vreg r -> Reg r

let is_zero = function Const 0.0 -> true | Const _ | Vreg _ -> false
let is_one = function Const 1.0 -> true | Const _ | Vreg _ -> false
let is_minus_one = function Const x -> x = -1.0 | Vreg _ -> false

let emit_binop make a b =
  let e = emitter () in
  let dtype = promote a b in
  let dst = Emitter.fresh e dtype in
  Emitter.emit e (make dtype dst (operand dtype a) (operand dtype b));
  Vreg dst

let neg = function
  | Const x -> Const (-.x)
  | Vreg r ->
      let e = emitter () in
      let dst = Emitter.fresh e r.rtype in
      Emitter.emit e (Neg { dtype = r.rtype; dst; a = Reg r });
      Vreg dst

let add a b =
  match (a, b) with
  | Const x, Const y -> Const (x +. y)
  | a, b when is_zero a -> b
  | a, b when is_zero b -> a
  | _ -> emit_binop (fun dtype dst x y -> Add { dtype; dst; a = x; b = y }) a b

let sub a b =
  match (a, b) with
  | Const x, Const y -> Const (x -. y)
  | a, b when is_zero b -> a
  | a, b when is_zero a -> neg b
  | _ -> emit_binop (fun dtype dst x y -> Sub { dtype; dst; a = x; b = y }) a b

let mul a b =
  match (a, b) with
  | Const x, Const y -> Const (x *. y)
  | a, b when is_zero a || is_zero b -> Const 0.0
  | a, b when is_one a -> b
  | a, b when is_one b -> a
  | a, b when is_minus_one a -> neg b
  | a, b when is_minus_one b -> neg a
  | _ -> emit_binop (fun dtype dst x y -> Mul { dtype; dst; a = x; b = y }) a b

let fma a b c =
  if is_zero a || is_zero b then c
  else if is_zero c then mul a b
  else
    match (a, b) with
    | Const x, Const y -> add (Const (x *. y)) c
    | _ ->
        let e = emitter () in
        let dtype =
          (* widest register type among the three operands *)
          let regs = List.filter_map (function Vreg r -> Some r.rtype | Const _ -> None) [ a; b; c ] in
          if List.mem F64 regs then F64 else F32
        in
        let dst = Emitter.fresh e dtype in
        Emitter.emit e
          (Fma { dtype; dst; a = operand dtype a; b = operand dtype b; c = operand dtype c });
        Vreg dst

(* Math subroutine call (the pre-generated PTX subroutines of Sec. III-D). *)
let call_math name v ~prec =
  let e = emitter () in
  let arg =
    match operand prec v with
    | Reg r -> r
    | Imm_float x ->
        let r = Emitter.fresh e prec in
        Emitter.emit e (Mov { dst = r; src = Imm_float x });
        r
    | Imm_int _ -> assert false
  in
  let ret = Emitter.fresh e prec in
  let suffix = match prec with F32 -> "f32" | _ -> "f64" in
  Emitter.emit e (Call { func = Printf.sprintf "qdpjit_%s_%s" name suffix; ret; arg });
  Vreg ret
