(** Data-parallel expressions — the abstract syntax trees of the paper's
    Fig. 3.

    QDP++ builds these with expression templates (PETE proxy objects
    nested by the C++ compiler); here they are a plain variant.  Smart
    constructors type-check shapes eagerly, mirroring the C++ template
    instantiation errors, so an ill-typed expression never reaches an
    evaluator.  Leaves refer to fields; [Shift] is the stencil node
    displacing its subtree by one site along a dimension (Sec. II-C). *)

module Shape = Layout.Shape

type unop =
  | Neg
  | Conj
  | Adj  (** Hermitian conjugate (matrix structure only) *)
  | Transpose
  | Times_i
  | Trace_color
  | Trace_spin
  | Real
  | Imag
  | Norm2_local  (** per-site |.|^2 (powers the norm2 reduction) *)
  | Compress  (** SU(3) -> 2-row compressed gauge storage (Sec. VIII-C) *)
  | Reconstruct  (** compressed -> full SU(3) via conjugate cross product *)

type binop =
  | Add
  | Sub
  | Mul  (** shape-directed: the spin and color levels contract independently *)
  | Outer_color  (** traceSpin(outerProduct(a, adj b)) — force terms *)
  | Inner_local  (** per-site <a,b> (powers the innerProduct reduction) *)

type t =
  | Leaf of Field.t
  | Const of Shape.t * float array
      (** compile-time element (e.g. gamma matrices): folded into the
          generated code, part of the kernel-cache key *)
  | Param of Shape.t * float array
      (** runtime scalar leaf (solver coefficients): becomes a kernel
          parameter, so kernels are reused across values *)
  | Unary of unop * t * Shape.t  (** operand, then the node's result shape *)
  | Binary of binop * t * t * Shape.t
  | Shift of t * int * int  (** subtree, dimension, direction (+-1) *)
  | Clover of t * t * t  (** diag, tri, fermion (the Sec. VI-A custom op) *)

val shape : t -> Shape.t
(** Result shape, as the smart constructors computed it: a [Unary] or
    [Binary] node returns the shape it carries, a [Shift] its subtree's,
    a [Clover] the rule applied to its three children's.  It re-checks
    nothing, so code building [Unary] or [Binary] nodes with the raw
    constructors must supply the correct shape (a rewrite that keeps a
    node's meaning copies the source node's). *)

(** {2 Smart constructors}

    Each checks its own node against the shapes its children carry, once
    and in O(1), raising {!Linalg.Algebra.Type_error} when ill-typed: a
    tree of n nodes costs O(n) to build. *)

val field : Field.t -> t
val const : Shape.t -> float array -> t
val const_real : ?prec:Shape.precision -> float -> t
(** Runtime scalar parameter (kernel reuse across values). *)

val const_complex : ?prec:Shape.precision -> float -> float -> t
val embedded_real : ?prec:Shape.precision -> float -> t
(** Compile-time scalar, folded into the kernel (and its cache key). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val outer_color : t -> t -> t
val neg : t -> t
val conj : t -> t
val adj : t -> t
val transpose : t -> t
val times_i : t -> t
val trace_color : t -> t
val trace_spin : t -> t
val real : t -> t
val imag : t -> t
val norm2_local : t -> t
val compress : t -> t
val reconstruct : t -> t
val inner_local : t -> t -> t
val shift : t -> dim:int -> dir:int -> t
(** [shift e ~dim ~dir] at x evaluates [e] at [x + dir * mu_dim]
    (periodic); QDP++'s [shift(e, FORWARD/BACKWARD, dim)]. *)

val clover : diag:t -> tri:t -> t -> t

(** QDP++-style infix operators. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( !! ) : Field.t -> t
end

val leaves : t -> Field.t list
(** Distinct referenced fields in first-visit order: what the memory cache
    must make device-resident before a launch (Sec. IV). *)

val params : t -> (Shape.t * float array) list
(** Runtime scalar parameters in traversal order; the engine binds their
    current values in the same order at launch time. *)

val shift_dirs : t -> (int * int) list
(** The (dim, dir) pairs used by shifts anywhere in the expression —
    the neighbour tables the kernel needs. *)

val has_shift : t -> bool

val structure_key : dest_shape:Shape.t -> t -> string
(** Kernel-cache key: field identities are erased (a leaf contributes its
    shape and its slot in the deduplicated leaf list — the slot matters,
    since the kernel binds one pointer per distinct field), and runtime
    scalar values are erased; embedded constants and the whole tree shape
    are included.  The key is a prefix-free binary string (tag bytes,
    varints, fixed shape and operator codes, constants as raw IEEE bits
    with NaNs canonicalised per sign), built without any printing. *)

val key_and_leaves : dest_shape:Shape.t -> t -> string * Field.t list
(** [structure_key] and {!leaves} from one walk of the tree. *)

val add_key_int : Buffer.t -> int -> unit
(** The keys' integer writer (a zigzag varint, so prefix-free), for
    callers that build composite keys in the same style. *)

val key_version : int
(** Version of the {!structure_key} encoding; persistent cache keys embed
    it, so a format change re-keys every stored kernel. *)

val render : ?indent:int -> t -> string
(** Human-readable AST (the Fig. 3 tree). *)

val unop_name : unop -> string
val binop_name : binop -> string
