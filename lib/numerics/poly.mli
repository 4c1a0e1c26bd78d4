(** Real polynomials in coefficient form: [c.(0) + c.(1) x + ... + c.(n) x^n].
    Complex root finding (Durand–Kerner) is provided because partial-fraction
    decomposition of RHMC rational approximations needs the poles of the
    denominator. *)

type t = float array
(** Coefficient array, lowest degree first.  [[|c0|]] is the constant c0. *)

val eval : t -> float -> float
(** Horner evaluation. *)

val derivative : t -> t

val of_roots : float array -> t
(** Monic polynomial with the given real roots. *)

val roots : ?max_iter:int -> ?tol:float -> t -> Complex.t array
(** All complex roots via Durand–Kerner iteration.  Suitable for the modest
    degrees (< 30) used here.  Raises [Failure] if the iteration does not
    converge, which for the well-separated real spectra produced by Remez
    indicates a genuinely ill-conditioned input. *)

val real_roots : ?tol_imag:float -> t -> float array
(** The real roots ([|Im| <= tol_imag * max(1,|Re|)]), sorted ascending. *)
