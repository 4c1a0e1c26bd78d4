(** The gauge-generation driver: Hybrid Monte Carlo trajectories with
    momentum/pseudofermion heatbath, molecular dynamics and a Metropolis
    accept/reject step — the program whose Blue Waters deployment the
    paper's Fig. 7 measures. *)

type params = {
  steps : int;  (** MD steps per trajectory *)
  dt : float;  (** step size; trajectory length tau = steps * dt *)
  scheme : Integrator.scheme;
}

type trajectory_result = {
  h_initial : float;
  h_final : float;
  delta_h : float;
  accepted : bool;
  plaquette : float;  (** mean plaquette of the (possibly restored) links *)
  solver_iterations : int;  (** Krylov iterations spent in this trajectory *)
}

val run_trajectory :
  ?forced_accept:bool -> Context.t -> Monomial.t list -> params -> trajectory_result
(** One HMC trajectory: heatbaths, MD integration, reunitarisation,
    Metropolis (links restored on rejection).  [forced_accept] skips the
    accept/reject decision (integrator studies). *)

val run_trajectory_multiscale :
  ?forced_accept:bool ->
  Context.t ->
  (Monomial.t list * int * Integrator.scheme) list ->
  tau:float ->
  trajectory_result
(** Sexton–Weingarten multiple time scales: levels ordered outermost
    (most expensive forces, fewest evaluations) to innermost; each level
    performs its [steps] per parent position update. *)

val reversibility_drift : Context.t -> Monomial.t list -> params -> float
(** Integrate forward, flip momenta, integrate back; RMS link distance
    from the start (rounding-level for a symplectic integrator). *)
