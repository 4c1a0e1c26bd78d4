(** Double-double arithmetic (~32 significant digits).

    The Remez exchange for RHMC rational approximations needs to resolve an
    equioscillation level around 1e-6..1e-10 out of linear systems whose
    conditioning exhausts plain doubles (the reference tool, AlgRemez, runs
    at 40+ decimal digits for the same reason).  A value is represented as
    an unevaluated sum [hi + lo] with [|lo| <= ulp(hi)/2]. *)

type t = { hi : float; lo : float }

val of_float : float -> t
val to_float : t -> float
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t

val solve_float : float array array -> float array -> float array
(** Promote a double system, solve it by Gaussian elimination with partial
    pivoting in double-double, demote.  Raises [Linsolve.Singular] on a
    vanishing pivot. *)
