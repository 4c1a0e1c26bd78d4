(** Dirac gamma matrices (DeGrand–Rossi basis) as expression constants.

    A gamma matrix is a [LatticeSpinMatrix]-shaped constant; multiplying a
    fermion expression by it goes through the ordinary spin-matrix x
    spin-vector contraction.  Because the code-generating scalar folds
    constant zeros and unit factors, the dense 4x4 multiplication compiles
    to the usual sparse gamma application — no flops are spent on
    structural zeros. *)

type cmat = (float * float) array array
(** 4x4 complex entries (re, im). *)

val zero4 : unit -> cmat
val identity4 : unit -> cmat
val cmat_mul : cmat -> cmat -> cmat
val cmat_add : cmat -> cmat -> cmat
val cmat_scale : float -> cmat -> cmat

val gamma5_mat : unit -> cmat
(** gamma0 gamma1 gamma2 gamma3 = diag(1,1,-1,-1) in this basis. *)

val sigma_mat : int -> int -> cmat
(** sigma_munu = (i/2)[gamma_mu, gamma_nu] — block diagonal in chirality,
    the property the packed clover storage relies on. *)

val spin_matrix_const : ?prec:Layout.Shape.precision -> cmat -> Qdp.Expr.t
val gamma5 : ?prec:Layout.Shape.precision -> unit -> Qdp.Expr.t

val proj_minus : ?prec:Layout.Shape.precision -> int -> Qdp.Expr.t
(** (1 - gamma_mu), the forward Wilson projector. *)

val proj_plus : ?prec:Layout.Shape.precision -> int -> Qdp.Expr.t

val matrices : unit -> cmat array
(** The four gamma matrices, for tests (Clifford algebra checks). *)
