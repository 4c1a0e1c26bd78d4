(** The gauge-generation driver: Hybrid Monte Carlo trajectories with
    momentum/pseudofermion heatbath, molecular dynamics and a Metropolis
    accept/reject step — the program whose Blue Waters deployment Fig. 7
    measures. *)

module Field = Qdp.Field
module Geometry = Layout.Geometry

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
  plaquette : float;
  solver_iterations : int;  (** Krylov iterations spent in this trajectory *)
}

let hamiltonian (ctx : Context.t) (monomials : Monomial.t list) =
  Context.kinetic_energy ctx
  +. List.fold_left (fun acc (m : Monomial.t) -> acc +. m.Monomial.action ()) 0.0 monomials

let save_links (ctx : Context.t) =
  Array.map
    (fun (uf : Field.t) ->
      let copy = Field.create uf.Field.shape uf.Field.geom in
      Field.copy_from ~dst:copy ~src:uf;
      copy)
    ctx.Context.u

let restore_links (ctx : Context.t) saved =
  Array.iteri (fun mu saved_mu -> Field.copy_from ~dst:ctx.Context.u.(mu) ~src:saved_mu) saved

(* One momentum update from the forces of [monomials]. *)
let force_step (ctx : Context.t) forces (monomials : Monomial.t list) ~eps =
  Context.clear_forces ctx forces;
  List.iter (fun (m : Monomial.t) -> m.Monomial.add_force forces) monomials;
  Context.update_momenta ctx ~eps forces;
  ctx.Context.md_steps_taken <- ctx.Context.md_steps_taken + 1

let md_system (ctx : Context.t) (monomials : Monomial.t list) =
  let forces = Context.fresh_forces ctx in
  {
    Integrator.update_p = force_step ctx forces monomials;
    Integrator.update_u = (fun ~eps -> Context.update_links ctx ~eps);
  }

(* The trajectory around the molecular dynamics: heatbaths, [integrate],
   reunitarisation, Metropolis (links restored on rejection). *)
let trajectory ~forced_accept (ctx : Context.t) (monomials : Monomial.t list) integrate =
  let iters_before = ctx.Context.solver_iterations in
  let saved = save_links ctx in
  Context.refresh_momenta ctx;
  List.iter (fun (m : Monomial.t) -> m.Monomial.refresh ()) monomials;
  let h0 = hamiltonian ctx monomials in
  integrate ();
  Lqcd.Gauge.reunitarize ctx.Context.u;
  let h1 = hamiltonian ctx monomials in
  let dh = h1 -. h0 in
  let accepted = forced_accept || dh <= 0.0 || Prng.float01 ctx.Context.rng < exp (-.dh) in
  if not accepted then restore_links ctx saved;
  let plaquette =
    Lqcd.Gauge.mean_plaquette ~sum_real:ctx.Context.backend.Context.sum_real ctx.Context.u
  in
  {
    h_initial = h0;
    h_final = h1;
    delta_h = dh;
    accepted;
    plaquette;
    solver_iterations = ctx.Context.solver_iterations - iters_before;
  }

let run_trajectory ?(forced_accept = false) (ctx : Context.t) (monomials : Monomial.t list)
    (p : params) =
  trajectory ~forced_accept ctx monomials (fun () ->
      Integrator.run p.scheme (md_system ctx monomials) ~steps:p.steps ~dt:p.dt)

(* A trajectory with the monomials split over integrator time scales:
   [levels] is ordered outermost (fewest force evaluations, most expensive
   forces) to innermost (cheapest forces, finest grid). *)
let run_trajectory_multiscale ?(forced_accept = false) (ctx : Context.t)
    (levels : (Monomial.t list * int * Integrator.scheme) list) ~tau =
  if levels = [] then invalid_arg "run_trajectory_multiscale: no levels";
  let monomials = List.concat_map (fun (ms, _, _) -> ms) levels in
  trajectory ~forced_accept ctx monomials (fun () ->
      let forces = Context.fresh_forces ctx in
      let make_level (ms, steps, scheme) =
        {
          Integrator.update_p_level = force_step ctx forces ms;
          steps_per_parent = steps;
          level_scheme = scheme;
        }
      in
      Integrator.run_multiscale
        ~update_u:(fun ~eps -> Context.update_links ctx ~eps)
        (List.map make_level levels) ~tau)

(* Reversibility check: integrate forward, flip momenta, integrate back;
   returns the link-field distance from the start (tests expect rounding
   level). *)
let reversibility_drift (ctx : Context.t) (monomials : Monomial.t list) (p : params) =
  let saved = save_links ctx in
  Context.refresh_momenta ctx;
  List.iter (fun (m : Monomial.t) -> m.Monomial.refresh ()) monomials;
  let sys = md_system ctx monomials in
  Integrator.run p.scheme sys ~steps:p.steps ~dt:p.dt;
  (* Flip momenta. *)
  Array.iter
    (fun pf ->
      ctx.Context.backend.Context.eval pf
        (Qdp.Expr.neg (Qdp.Expr.field pf)))
    ctx.Context.p;
  Integrator.run p.scheme sys ~steps:p.steps ~dt:p.dt;
  let drift = ref 0.0 in
  Array.iteri
    (fun mu (uf : Field.t) ->
      let diff =
        ctx.Context.backend.Context.norm2
          (Qdp.Expr.sub (Qdp.Expr.field uf) (Qdp.Expr.field saved.(mu)))
      in
      drift := !drift +. diff;
      ignore mu)
    ctx.Context.u;
  restore_links ctx saved;
  sqrt (!drift /. float_of_int (Geometry.volume ctx.Context.geom))
