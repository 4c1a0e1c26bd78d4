(** Data-parallel expressions — the abstract syntax trees of Fig. 3.

    QDP++ builds these with expression templates (PETE proxy objects nested
    by the C++ compiler); here they are a plain variant.  Smart
    constructors type-check shapes eagerly, mirroring the C++ template
    instantiation errors, so an ill-typed expression never reaches an
    evaluator.  Leaves refer to fields; [Shift] is the map/stencil node
    displacing its subtree by one site along a dimension (Sec. II-C). *)

module Shape = Layout.Shape

type unop =
  | Neg
  | Conj
  | Adj
  | Transpose
  | Times_i
  | Trace_color
  | Trace_spin
  | Real
  | Imag
  | Norm2_local
      (** per-site |.|^2 (internal: powers the norm2 reduction) *)
  | Compress  (** SU(3) -> 2-row compressed gauge storage *)
  | Reconstruct  (** compressed -> full SU(3) via conj cross product *)

type binop = Add | Sub | Mul | Outer_color | Inner_local

type t =
  | Leaf of Field.t
  | Const of Shape.t * float array
      (** compile-time element (e.g. gamma matrices): folded into the
          generated code, part of the kernel-cache key *)
  | Param of Shape.t * float array
      (** runtime scalar leaf (solver coefficients): becomes a kernel
          parameter, so kernels are reused across values *)
  | Unary of unop * t * Shape.t  (** the last field is the node's result shape *)
  | Binary of binop * t * t * Shape.t
  | Shift of t * int * int  (** subtree, dimension, direction (+-1) *)
  | Clover of t * t * t  (** diag, tri, fermion (Sec. VI-A) *)

(* A composite node's result shape from its children's shapes: the type
   rules, applied once per node by the smart constructors. *)
let unop_shape op s =
  match op with
  | Neg | Conj -> s
  | Times_i -> Linalg.Algebra.times_i_shape s
  | Adj -> Linalg.Algebra.adj_shape s
  | Transpose -> Linalg.Algebra.transpose_shape s
  | Trace_color -> Linalg.Algebra.trace_color_shape s
  | Trace_spin -> Linalg.Algebra.trace_spin_shape s
  | Real | Imag -> Linalg.Algebra.real_shape s
  | Norm2_local -> Shape.real_scalar s.Shape.prec
  | Compress -> Linalg.Algebra.compress_shape s
  | Reconstruct -> Linalg.Algebra.reconstruct_shape s

let binop_shape op sa sb =
  match op with
  | Add | Sub -> Linalg.Algebra.add_shape sa sb
  | Mul -> Linalg.Algebra.mul_shape sa sb
  | Outer_color -> Linalg.Algebra.outer_color_shape sa sb
  | Inner_local ->
      if not (Shape.equal_modulo_prec sa sb) then
        raise (Linalg.Algebra.Type_error "inner_local: shape mismatch");
      Shape.complex_scalar (Shape.promote_prec sa.Shape.prec sb.Shape.prec)

(* Composite nodes carry the shape their constructor computed, so this
   reads it back instead of re-checking the subtree. *)
let rec shape = function
  | Leaf f -> f.Field.shape
  | Const (s, _) | Param (s, _) | Unary (_, _, s) | Binary (_, _, _, s) -> s
  | Shift (e, _, _) -> shape e
  | Clover (diag, tri, psi) ->
      Linalg.Algebra.clover_shapes ~diag:(shape diag) ~tri:(shape tri) ~psi:(shape psi)

let field f = Leaf f
let const s v =
  if Array.length v <> Shape.dof s then invalid_arg "Expr.const: component count mismatch";
  Const (s, Array.copy v)

let const_real ?(prec = Shape.F64) x = Param (Shape.real_scalar prec, [| x |])
let const_complex ?(prec = Shape.F64) re im = Param (Shape.complex_scalar prec, [| re; im |])

let embedded_real ?(prec = Shape.F64) x = Const (Shape.real_scalar prec, [| x |])

(* Smart constructors: each checks only its own node, against the shapes
   its children already carry — one O(1) check per node. *)
let unary op e = Unary (op, e, unop_shape op (shape e))
let binary op a b = Binary (op, a, b, binop_shape op (shape a) (shape b))

let add a b = binary Add a b
let sub a b = binary Sub a b
let mul a b = binary Mul a b
let outer_color a b = binary Outer_color a b
let neg e = unary Neg e
let conj e = unary Conj e
let adj e = unary Adj e
let transpose e = unary Transpose e
let times_i e = unary Times_i e
let trace_color e = unary Trace_color e
let trace_spin e = unary Trace_spin e
let real e = unary Real e
let imag e = unary Imag e
let norm2_local e = unary Norm2_local e
let compress e = unary Compress e
let reconstruct e = unary Reconstruct e
let inner_local a b = binary Inner_local a b

let shift e ~dim ~dir =
  if dir <> 1 && dir <> -1 then invalid_arg "Expr.shift: dir must be +-1";
  if dim < 0 then invalid_arg "Expr.shift: negative dimension";
  Shift (e, dim, dir)

let clover ~diag ~tri psi =
  ignore (Linalg.Algebra.clover_shapes ~diag:(shape diag) ~tri:(shape tri) ~psi:(shape psi));
  Clover (diag, tri, psi)

(* Operators for expression-heavy call sites (the QDP++ infix style). *)
module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( ~- ) = neg
  let ( !! ) = field
end

(* All distinct leaf fields, in first-visit order: the references the memory
   cache must make device-resident before a launch (Sec. IV). *)
let leaves e =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let rec go = function
    | Leaf f ->
        if not (Hashtbl.mem seen f.Field.id) then begin
          Hashtbl.replace seen f.Field.id ();
          out := f :: !out
        end
    | Const _ | Param _ -> ()
    | Unary (_, e, _) -> go e
    | Binary (_, a, b, _) ->
        go a;
        go b
    | Shift (e, _, _) -> go e
    | Clover (a, b, c) ->
        go a;
        go b;
        go c
  in
  go e;
  List.rev !out

(* Runtime scalar parameters in deterministic traversal order; the engine
   binds their current values in this same order at launch time. *)
let params e =
  let out = ref [] in
  let rec go = function
    | Leaf _ | Const _ -> ()
    | Param (s, v) -> out := (s, v) :: !out
    | Unary (_, e, _) -> go e
    | Binary (_, a, b, _) ->
        go a;
        go b
    | Shift (e, _, _) -> go e
    | Clover (a, b, c) ->
        go a;
        go b;
        go c
  in
  go e;
  List.rev !out

(* Shift (dim, dir) pairs used anywhere in the expression: the neighbour
   tables a kernel will need. *)
let shift_dirs e =
  let seen = Hashtbl.create 8 in
  let rec go = function
    | Leaf _ | Const _ | Param _ -> ()
    | Unary (_, e, _) -> go e
    | Binary (_, a, b, _) ->
        go a;
        go b
    | Shift (e, dim, dir) ->
        Hashtbl.replace seen (dim, dir) ();
        go e
    | Clover (a, b, c) ->
        go a;
        go b;
        go c
  in
  go e;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

let has_shift e = shift_dirs e <> []

let unop_name = function
  | Neg -> "neg"
  | Conj -> "conj"
  | Adj -> "adj"
  | Transpose -> "transpose"
  | Times_i -> "timesI"
  | Trace_color -> "traceColor"
  | Trace_spin -> "traceSpin"
  | Real -> "real"
  | Imag -> "imag"
  | Norm2_local -> "localNorm2"
  | Compress -> "compress"
  | Reconstruct -> "reconstruct12"

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Outer_color -> "outerColor"
  | Inner_local -> "localInnerProduct"

(* Structural key for the kernel cache: field *identities* are erased (a
   leaf contributes its shape and its positional slot in the deduplicated
   leaf list), so the same kernel is reused for any fields of matching
   structure.  The slot matters: the generated kernel binds one pointer per
   *distinct* field, so `b + D b` and `b + D x` need different kernels even
   though their trees look alike.

   The key is a prefix-free byte string built without any printing: every
   node starts with a tag byte, integers are zigzag varints, shapes and
   operators are fixed codes, and a constant is its length followed by
   each component's IEEE bits.  NaNs collapse to one pattern per sign,
   the distinction the earlier printed ("%h") keys drew; every other value
   keeps its exact bits, so -0.0 and 0.0 stay apart. *)
let key_version = 1

(* Integers as zigzag varints: prefix-free, one byte for |n| < 64, and
   the 7-bit groups are taken unsigned so every int has one encoding. *)
let add_key_int buf n =
  let rec go u =
    if u land lnot 0x7f = 0 then Buffer.add_uint8 buf u
    else begin
      Buffer.add_uint8 buf (0x80 lor (u land 0x7f));
      go (u lsr 7)
    end
  in
  go ((n lsl 1) lxor (n asr 62))

let add_shape buf (s : Shape.t) =
  (match s.spin with
  | Spin_scalar -> Buffer.add_uint8 buf 0
  | Spin_vector n -> Buffer.add_uint8 buf 1; add_key_int buf n
  | Spin_matrix n -> Buffer.add_uint8 buf 2; add_key_int buf n
  | Spin_block n -> Buffer.add_uint8 buf 3; add_key_int buf n);
  (match s.color with
  | Color_scalar -> Buffer.add_uint8 buf 0
  | Color_vector n -> Buffer.add_uint8 buf 1; add_key_int buf n
  | Color_matrix n -> Buffer.add_uint8 buf 2; add_key_int buf n
  | Color_diag n -> Buffer.add_uint8 buf 3; add_key_int buf n
  | Color_tri n -> Buffer.add_uint8 buf 4; add_key_int buf n
  | Color_rows n -> Buffer.add_uint8 buf 5; add_key_int buf n);
  Buffer.add_uint8 buf
    ((match s.reality with Real -> 0 | Cplx -> 3)
    + match s.prec with F16 -> 0 | F32 -> 1 | F64 -> 2)

let unop_code = function
  | Neg -> 0
  | Conj -> 1
  | Adj -> 2
  | Transpose -> 3
  | Times_i -> 4
  | Trace_color -> 5
  | Trace_spin -> 6
  | Real -> 7
  | Imag -> 8
  | Norm2_local -> 9
  | Compress -> 10
  | Reconstruct -> 11

let binop_code = function Add -> 0 | Sub -> 1 | Mul -> 2 | Outer_color -> 3 | Inner_local -> 4

let nan_bits = Int64.bits_of_float Float.nan
let neg_nan_bits = Int64.bits_of_float (-.Float.nan)

let key_and_leaves ~dest_shape e =
  let buf = Buffer.create 64 in
  (* Distinct leaves in first-visit order, the order {!leaves} returns:
     the walk below visits children left to right, as [leaves] does. *)
  let slots = ref [] and rev_leaves = ref [] and nleaves = ref 0 in
  let slot_of (f : Field.t) =
    match List.assq_opt f.Field.id !slots with
    | Some s -> s
    | None ->
        let s = !nleaves in
        incr nleaves;
        slots := (f.Field.id, s) :: !slots;
        rev_leaves := f :: !rev_leaves;
        s
  in
  let rec go = function
    | Leaf f ->
        Buffer.add_char buf 'L';
        add_key_int buf (slot_of f);
        add_shape buf f.Field.shape
    | Const (s, v) ->
        Buffer.add_char buf 'K';
        add_shape buf s;
        add_key_int buf (Array.length v);
        Array.iter
          (fun x ->
            Buffer.add_int64_le buf
              (if Float.is_nan x then if Float.sign_bit x then neg_nan_bits else nan_bits
               else Int64.bits_of_float x))
          v
    | Param (s, _) ->
        Buffer.add_char buf 'P';
        add_shape buf s
    | Unary (op, e, _) ->
        Buffer.add_char buf 'U';
        Buffer.add_uint8 buf (unop_code op);
        go e
    | Binary (op, a, b, _) ->
        Buffer.add_char buf 'B';
        Buffer.add_uint8 buf (binop_code op);
        go a;
        go b
    | Shift (e, dim, dir) ->
        Buffer.add_char buf 'S';
        add_key_int buf dim;
        add_key_int buf dir;
        go e
    | Clover (a, b, c) ->
        Buffer.add_char buf 'C';
        go a;
        go b;
        go c
  in
  add_shape buf dest_shape;
  go e;
  (Buffer.contents buf, List.rev !rev_leaves)

let structure_key ~dest_shape e = fst (key_and_leaves ~dest_shape e)

(* Human-readable AST rendering (the Fig. 3 tree), for the quickstart
   example and debugging. *)
let rec render ?(indent = 0) e =
  let pad = String.make (2 * indent) ' ' in
  match e with
  | Leaf f -> Printf.sprintf "%sLattice %s : %s\n" pad f.Field.name (Shape.to_string f.Field.shape)
  | Const (s, _) -> Printf.sprintf "%sConst : %s\n" pad (Shape.to_string s)
  | Param (s, _) -> Printf.sprintf "%sScalarParam : %s\n" pad (Shape.to_string s)
  | Unary (op, e, _) -> Printf.sprintf "%sUnaryNode (%s)\n%s" pad (unop_name op) (render ~indent:(indent + 1) e)
  | Binary (op, a, b, _) ->
      Printf.sprintf "%sBinaryNode (%s)\n%s%s" pad (binop_name op)
        (render ~indent:(indent + 1) a)
        (render ~indent:(indent + 1) b)
  | Shift (e, dim, dir) ->
      Printf.sprintf "%sUnaryNode (Map: shift dim=%d dir=%+d)\n%s" pad dim dir
        (render ~indent:(indent + 1) e)
  | Clover (a, b, c) ->
      Printf.sprintf "%sCloverNode\n%s%s%s" pad
        (render ~indent:(indent + 1) a)
        (render ~indent:(indent + 1) b)
        (render ~indent:(indent + 1) c)
