(** Shape rules of the QDP++ operator algebra.

    QDP++ encodes these rules in C++ template specializations resolved at
    compile time; here they are dynamic checks performed when an expression
    is built.  Spin and color levels multiply independently (the element
    algebra is a tensor product), so each level contributes a contraction
    pattern and the element multiply is the product of the two. *)

module Shape = Layout.Shape

exception Type_error of string

val add_shape : Shape.t -> Shape.t -> Shape.t
(** Result shape of addition/subtraction: operands must agree up to
    precision; precision promotes. *)

val mul_shape : Shape.t -> Shape.t -> Shape.t
(** Result shape of multiplication.  Raises {!Type_error} for undefined
    combinations (e.g. vector * vector, or any clover Diag/Tri operand). *)

val adj_shape : Shape.t -> Shape.t
(** Hermitian adjoint: defined for scalar/matrix structure at both levels. *)

val transpose_shape : Shape.t -> Shape.t

val trace_color_shape : Shape.t -> Shape.t
(** Color trace: color matrix becomes color scalar. *)

val trace_spin_shape : Shape.t -> Shape.t

val real_shape : Shape.t -> Shape.t
(** Componentwise real part: reality becomes [Real]. *)

val times_i_shape : Shape.t -> Shape.t
(** Multiplication by i: defined for complex operands only, shape kept. *)

val outer_color_shape : Shape.t -> Shape.t -> Shape.t
(** [traceSpin(outerProduct(a, adj b))]: two fermions give a color matrix. *)

val compress_shape : Shape.t -> Shape.t
(** SU(3) color matrix -> 2-row compressed form (the QUDA 12-real trick). *)

val reconstruct_shape : Shape.t -> Shape.t

val clover_shapes : diag:Shape.t -> tri:Shape.t -> psi:Shape.t -> Shape.t
(** Validates the packed clover application [A * psi] (Sec. VI-A) and
    returns the result shape (that of [psi], with promoted precision). *)

(** {2 Contraction patterns}

    For an output component index at one level, the list of (left index,
    right index) pairs whose products are summed. *)

type contraction = { out_extent : int; pairs : (int * int) list array }

val spin_contraction : Shape.spin -> Shape.spin -> Shape.spin * contraction
val color_contraction : Shape.color -> Shape.color -> Shape.color * contraction
