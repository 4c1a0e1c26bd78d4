(** One-flavor rational HMC monomial (the paper's Ref. 14: exact 2+1
    flavour RHMC) for the strange quark:

      S = phi^dag r(M^dag M) phi,        r(x) ~ x^(-1/2)
      heatbath: phi = r4(M^dag M) eta,   r4(x) ~ x^(+1/4)

    Both rational functions are applied through their partial-fraction
    expansions with one multi-shift CG per application; the force reuses
    the shifted solutions directly. *)

type approx = {
  inv_sqrt : Numerics.Ratfun.t;  (** ~ x^(-1/2): action and force *)
  fourth_root : Numerics.Ratfun.t;  (** ~ x^(+1/4): heatbath *)
  lo : float;
  hi : float;
}

val make_approx : ?degree:int -> ?heatbath_points:int -> lo:float -> hi:float -> unit -> approx
(** Zolotarev (optimal) for the inverse square root; integral-representation
    quadrature for the heatbath quarter root (arbitrarily accurate; the
    extra partial fractions are cheap since heatbath runs once per
    trajectory). *)

val power_iteration_max : Context.t -> kappa:float -> ?iters:int -> unit -> float
(** Crude largest-eigenvalue estimate of M^dag M, to pick/validate the
    approximation interval. *)

val create : Context.t -> kappa:float -> approx:approx -> ?tol:float -> unit -> Monomial.t
