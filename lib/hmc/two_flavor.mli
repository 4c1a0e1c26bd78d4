(** Two-flavor Wilson pseudofermion monomials.

    {!create} gives the plain term S = phi^dag (M^dag M)^-1 phi (heatbath
    phi = M^dag eta).  {!create_ratio} gives the Hasenbusch
    mass-preconditioned ratio (the paper's Ref. 13)

      S = phi^dag W (M^dag M)^-1 W^dag phi,   W = M(kappa_heavy),

    whose force is milder, allowing coarser step sizes for the expensive
    light-quark piece. *)

val make_normal_op :
  Context.t -> kappa:float -> Solvers.Ops.t * Solvers.Ops.linop
(** The gamma5-trick normal operator M^dag M for this context's links. *)

val create : Context.t -> kappa:float -> ?tol:float -> ?max_iter:int -> unit -> Monomial.t

val create_ratio :
  Context.t ->
  kappa_light:float ->
  kappa_heavy:float ->
  ?tol:float ->
  ?max_iter:int ->
  unit ->
  Monomial.t
(** Requires [kappa_heavy < kappa_light] (the preconditioner is heavier). *)
