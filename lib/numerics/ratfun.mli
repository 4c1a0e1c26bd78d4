(** Rational functions in partial-fraction form,

      r(x) = a0 + sum_i alpha_i / (x + beta_i),

    the form consumed by the multi-shift CG solver in RHMC: applying
    [r(M^dag M)] to a vector costs one multi-shift solve with shifts
    [beta_i].  Also provides the integral-representation generator for
    [x^-sigma] and [x^+sigma], RHMC's heatbath approximation. *)

type t = { a0 : float; terms : (float * float) array }
(** [terms] holds [(alpha_i, beta_i)] pairs. *)

val eval : t -> float -> float

val x_times : t -> t
(** [x_times r] is the partial-fraction form of [x * r(x)].  Requires
    [r.a0 = 0] (the product would otherwise contain a linear term that the
    representation cannot hold); raises [Invalid_argument] otherwise. *)

val of_quadrature : sigma:float -> points:int -> lo:float -> hi:float -> t
(** Rational approximation to [x^-sigma] (0 < sigma < 1) on [lo,hi] from the
    integral representation
    [x^-s = sin(pi s)/pi * int_0^inf t^-s/(t+x) dt]
    discretized by the trapezoid rule after the substitution [t = e^u].
    Convergence is geometric in [points]; [points = 120] reaches ~1e-6
    relative error over ratios [hi/lo <= 1e4].  All coefficients
    [alpha_i] are positive, all shifts [beta_i] positive. *)

val of_quadrature_pow : sigma:float -> points:int -> lo:float -> hi:float -> t
(** Same mechanism for the positive power [x^+sigma] (0 < sigma < 1), built
    as [x * x^(sigma-1)]. *)

val max_rel_error : t -> exponent:float -> lo:float -> hi:float -> samples:int -> float
(** Maximum of [|r(x)/x^exponent - 1|] over a log-spaced sample grid. *)
