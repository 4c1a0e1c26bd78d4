(** Zolotarev's closed-form optimal rational approximation of [x^(-1/2)].

    For the inverse square root the minimax problem has an explicit solution
    in terms of Jacobi elliptic functions (Zolotarev 1877); this is the
    production path for the RHMC force term, valid for arbitrary spectral
    ranges where the double-precision Remez exchange cannot be stabilised.
    The relative error decays like [exp(-c n / log(hi/lo))]. *)

val inv_sqrt : degree:int -> lo:float -> hi:float -> Ratfun.t
(** Degree-(n,n) rational approximation to [x^(-1/2)] on [lo,hi] in
    partial-fraction form, with all poles real negative.  Requires
    [degree >= 1] and [0 < lo < hi]. *)

val sqrt_ : degree:int -> lo:float -> hi:float -> Ratfun.t
(** Approximation to [x^(+1/2)]: [x * inv_sqrt x] folded back into
    partial-fraction form. *)

val theoretical_error : degree:int -> lo:float -> hi:float -> float
(** Measured maximum relative error of [inv_sqrt] on a fine grid (the
    approximation is optimal, so this is also the minimax error for the
    given degree and range). *)

(** Jacobi elliptic functions, exposed for testing. *)
module Elliptic : sig

  val complete_k : float -> float
  (** Complete elliptic integral K(k), with modulus [0 <= k < 1]. *)

  val sn_cn_dn : u:float -> k:float -> float * float * float
  (** Jacobi sn, cn, dn at argument [u] with modulus [k] (via the
      descending-Landen / AGM algorithm). *)
end
