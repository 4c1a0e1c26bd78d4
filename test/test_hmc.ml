(* Gauge generation: the finite-difference force checks are the decisive
   correctness tests (any sign or factor error in a force shows up
   immediately), backed by reversibility, integrator-order and
   full-trajectory checks. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Su3 = Linalg.Su3

let geom = Geometry.create [| 2; 2; 2; 2 |]

let fresh_ctx ?(seed = 5L) () =
  let ctx = Hmc.Context.create ~backend:Hmc.Context.cpu_backend ~seed geom in
  Lqcd.Gauge.random_gauge ~epsilon:0.4 ctx.Hmc.Context.u (Prng.create ~seed:3L);
  ctx

(* Re tr(a b) for 3x3 complex flats. *)
let re_tr_prod a b =
  let acc = ref 0.0 in
  for i = 0 to 2 do
    for j = 0 to 2 do
      let ar = a.(2 * ((3 * i) + j)) and ai = a.((2 * ((3 * i) + j)) + 1) in
      let br = b.(2 * ((3 * j) + i)) and bi = b.((2 * ((3 * j) + i)) + 1) in
      acc := !acc +. ((ar *. br) -. (ai *. bi))
    done
  done;
  !acc

(* dS/deps along a random Hermitian direction at one link, centered
   difference vs 2 Re tr(delta F). *)
let fd_force_check ?(tol = 2e-3) (ctx : Hmc.Context.t) (m : Hmc.Monomial.t) =
  let rng = Prng.create ~seed:99L in
  let mu = 1 and site = 7 in
  let delta = Su3.gaussian_hermitian rng in
  let u0 = Field.get_site ctx.Hmc.Context.u.(mu) ~site in
  let eps = 1e-5 in
  let perturb e =
    let rot = Su3.expm (Su3.scale ~re:0.0 ~im:e delta) in
    Field.set_site ctx.Hmc.Context.u.(mu) ~site (Su3.mul rot u0)
  in
  perturb eps;
  let sp = m.Hmc.Monomial.action () in
  perturb (-.eps);
  let sm = m.Hmc.Monomial.action () in
  Field.set_site ctx.Hmc.Context.u.(mu) ~site u0;
  let fd = (sp -. sm) /. (2.0 *. eps) in
  let forces = Hmc.Context.fresh_forces ctx in
  Hmc.Context.clear_forces ctx forces;
  m.Hmc.Monomial.add_force forces;
  let analytic = 2.0 *. re_tr_prod delta (Field.get_site forces.(mu) ~site) in
  let scale = Float.max (abs_float fd) 1e-8 in
  if abs_float (analytic -. fd) /. scale > tol then
    Alcotest.failf "%s force mismatch: FD %.8g vs analytic %.8g" m.Hmc.Monomial.name fd analytic

let test_gauge_force () =
  let ctx = fresh_ctx () in
  fd_force_check ctx (Hmc.Gauge_monomial.create ctx ~beta:5.5 ())

let test_gauge_force_anisotropic () =
  let ctx = fresh_ctx () in
  fd_force_check ctx (Hmc.Gauge_monomial.create ctx ~beta:5.5 ~aniso:2.5 ())

let test_two_flavor_force () =
  let ctx = fresh_ctx () in
  let m = Hmc.Two_flavor.create ctx ~kappa:0.11 () in
  m.Hmc.Monomial.refresh ();
  fd_force_check ctx m

let test_hasenbusch_force () =
  let ctx = fresh_ctx () in
  let m = Hmc.Two_flavor.create_ratio ctx ~kappa_light:0.115 ~kappa_heavy:0.10 () in
  m.Hmc.Monomial.refresh ();
  fd_force_check ~tol:5e-3 ctx m

let test_rhmc_force () =
  let ctx = fresh_ctx () in
  let approx = Hmc.Rhmc_monomial.make_approx ~lo:0.05 ~hi:8.0 () in
  let m = Hmc.Rhmc_monomial.create ctx ~kappa:0.10 ~approx () in
  m.Hmc.Monomial.refresh ();
  fd_force_check ctx m

let test_rational_approx_quality () =
  let approx = Hmc.Rhmc_monomial.make_approx ~lo:0.05 ~hi:8.0 () in
  let e1 =
    Numerics.Ratfun.max_rel_error approx.Hmc.Rhmc_monomial.inv_sqrt ~exponent:(-0.5) ~lo:0.05
      ~hi:8.0 ~samples:500
  in
  let e2 =
    Numerics.Ratfun.max_rel_error approx.Hmc.Rhmc_monomial.fourth_root ~exponent:0.25 ~lo:0.05
      ~hi:8.0 ~samples:500
  in
  Alcotest.(check bool) "inv sqrt tight" true (e1 < 1e-8);
  Alcotest.(check bool) "fourth root tight" true (e2 < 1e-7)

let test_spectral_bounds_inside_approx_range () =
  let ctx = fresh_ctx () in
  let lambda_max = Hmc.Rhmc_monomial.power_iteration_max ctx ~kappa:0.10 () in
  Alcotest.(check bool) "within [0.05, 8]" true (lambda_max > 0.05 && lambda_max < 8.0)

let test_momenta_stats () =
  let ctx = fresh_ctx () in
  Hmc.Context.refresh_momenta ctx;
  (* T = sum tr P^2 over 4*V links; each link contributes ~4 on average
     (8 generators * 1/2). *)
  let t = Hmc.Context.kinetic_energy ctx in
  let links = float_of_int (4 * Geometry.volume geom) in
  Alcotest.(check bool) "kinetic energy scale" true
    (t > 2.0 *. links && t < 6.0 *. links)

let test_link_update_stays_su3 () =
  let ctx = fresh_ctx () in
  Hmc.Context.refresh_momenta ctx;
  Hmc.Context.update_links ctx ~eps:0.1;
  Array.iter
    (fun uf ->
      for site = 0 to Geometry.volume geom - 1 do
        if not (Su3.is_special_unitary ~tol:1e-8 (Field.get_site uf ~site)) then
          Alcotest.fail "link left SU(3)"
      done)
    ctx.Hmc.Context.u

let test_reversibility () =
  let ctx = fresh_ctx () in
  let gm = Hmc.Gauge_monomial.create ctx ~beta:5.5 () in
  let p = { Hmc.Driver.steps = 8; dt = 0.05; scheme = Hmc.Integrator.Omelyan } in
  let drift = Hmc.Driver.reversibility_drift ctx [ gm ] p in
  Alcotest.(check bool) (Printf.sprintf "drift %.2e" drift) true (drift < 1e-10)

let test_dh_scaling_leapfrog () =
  (* Integrate the *same* trajectory (same links, same momentum draw via a
     fresh identically-seeded context) at dt and dt/2: |dH| must drop by
     ~4x for a second-order integrator. *)
  let dh steps dt =
    let ctx = fresh_ctx ~seed:5L () in
    let gm = Hmc.Gauge_monomial.create ctx ~beta:5.5 () in
    let r =
      Hmc.Driver.run_trajectory ~forced_accept:true ctx [ gm ]
        { Hmc.Driver.steps; dt; scheme = Hmc.Integrator.Leapfrog }
    in
    abs_float r.Hmc.Driver.delta_h
  in
  let coarse = dh 5 0.1 in
  let fine = dh 10 0.05 in
  let ratio = coarse /. fine in
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f in [3, 5.5]" ratio) true
    (ratio > 3.0 && ratio < 5.5)

let test_omelyan_beats_leapfrog () =
  (* Same trajectory start for both schemes. *)
  let dh scheme =
    let ctx = fresh_ctx ~seed:5L () in
    let gm = Hmc.Gauge_monomial.create ctx ~beta:5.5 () in
    let r =
      Hmc.Driver.run_trajectory ~forced_accept:true ctx [ gm ]
        { Hmc.Driver.steps = 8; dt = 0.08; scheme }
    in
    abs_float r.Hmc.Driver.delta_h
  in
  let lf = dh Hmc.Integrator.Leapfrog and om = dh Hmc.Integrator.Omelyan in
  Alcotest.(check bool) (Printf.sprintf "omelyan %.2e < leapfrog %.2e" om lf) true (om < lf)

let test_pure_gauge_trajectories () =
  let ctx = fresh_ctx () in
  let gm = Hmc.Gauge_monomial.create ctx ~beta:5.5 () in
  let p = { Hmc.Driver.steps = 10; dt = 0.05; scheme = Hmc.Integrator.Omelyan } in
  let accepted = ref 0 in
  for _ = 1 to 5 do
    let r = Hmc.Driver.run_trajectory ctx [ gm ] p in
    if r.Hmc.Driver.accepted then incr accepted;
    Alcotest.(check bool) "dH small" true (abs_float r.Hmc.Driver.delta_h < 1.0);
    Alcotest.(check bool) "plaquette sane" true
      (r.Hmc.Driver.plaquette > 0.0 && r.Hmc.Driver.plaquette <= 1.0)
  done;
  Alcotest.(check bool) "acceptance healthy" true (!accepted >= 3)

let test_rejection_restores_links () =
  let ctx = fresh_ctx () in
  let gm = Hmc.Gauge_monomial.create ctx ~beta:5.5 () in
  (* A huge step size guarantees rejection. *)
  let p = { Hmc.Driver.steps = 3; dt = 2.0; scheme = Hmc.Integrator.Leapfrog } in
  let before = Array.map (fun uf -> Field.get_site uf ~site:5) ctx.Hmc.Context.u in
  let rec reject tries =
    if tries = 0 then Alcotest.fail "could not provoke a rejection"
    else begin
      let r = Hmc.Driver.run_trajectory ctx [ gm ] p in
      if r.Hmc.Driver.accepted then reject (tries - 1)
    end
  in
  reject 10;
  Array.iteri
    (fun mu uf ->
      if Field.get_site uf ~site:5 <> before.(mu) then Alcotest.fail "links not restored")
    ctx.Hmc.Context.u

let test_full_2p1_trajectory () =
  let ctx = fresh_ctx () in
  let gm = Hmc.Gauge_monomial.create ctx ~beta:5.5 () in
  let tf = Hmc.Two_flavor.create ctx ~kappa:0.10 () in
  let approx = Hmc.Rhmc_monomial.make_approx ~lo:0.05 ~hi:8.0 () in
  let rh = Hmc.Rhmc_monomial.create ctx ~kappa:0.09 ~approx () in
  let p = { Hmc.Driver.steps = 6; dt = 0.06; scheme = Hmc.Integrator.Omelyan } in
  let r = Hmc.Driver.run_trajectory ctx [ gm; tf; rh ] p in
  Alcotest.(check bool) (Printf.sprintf "dH = %.4f" r.Hmc.Driver.delta_h) true
    (abs_float r.Hmc.Driver.delta_h < 0.5);
  Alcotest.(check bool) "solver iterations recorded" true (r.Hmc.Driver.solver_iterations > 0)

let test_multiscale_trajectory () =
  (* Gauge on the fine scale, fermions on the coarse scale. *)
  let ctx = fresh_ctx () in
  let gm = Hmc.Gauge_monomial.create ctx ~beta:5.5 () in
  let tf = Hmc.Two_flavor.create ctx ~kappa:0.10 () in
  let levels =
    [ ([ (tf : Hmc.Monomial.t) ], 4, Hmc.Integrator.Omelyan); ([ gm ], 4, Hmc.Integrator.Omelyan) ]
  in
  let r = Hmc.Driver.run_trajectory_multiscale ~forced_accept:true ctx levels ~tau:0.5 in
  Alcotest.(check bool) (Printf.sprintf "dH = %.4f" r.Hmc.Driver.delta_h) true
    (abs_float r.Hmc.Driver.delta_h < 0.5)

let test_multiscale_matches_single_scale () =
  (* With one level the multiscale driver reduces to the plain one (same
     seed => same trajectory => same dH). *)
  let run f =
    let ctx = fresh_ctx ~seed:5L () in
    let gm = Hmc.Gauge_monomial.create ctx ~beta:5.5 () in
    f ctx gm
  in
  let r1 =
    run (fun ctx gm ->
        Hmc.Driver.run_trajectory ~forced_accept:true ctx [ gm ]
          { Hmc.Driver.steps = 6; dt = 0.5 /. 6.0; scheme = Hmc.Integrator.Omelyan })
  in
  let r2 =
    run (fun ctx gm ->
        Hmc.Driver.run_trajectory_multiscale ~forced_accept:true ctx
          [ ([ (gm : Hmc.Monomial.t) ], 6, Hmc.Integrator.Omelyan) ]
          ~tau:0.5)
  in
  Alcotest.(check (float 1e-10)) "same dH" r1.Hmc.Driver.delta_h r2.Hmc.Driver.delta_h

let test_multiscale_fewer_expensive_forces () =
  (* The outer level evaluates its force far less often than the inner. *)
  let ctx = fresh_ctx () in
  let outer_count = ref 0 and inner_count = ref 0 in
  let counting name counter =
    {
      Hmc.Monomial.name;
      refresh = (fun () -> ());
      action = (fun () -> 0.0);
      add_force = (fun _ -> incr counter);
    }
  in
  let levels =
    [
      ([ counting "outer" outer_count ], 2, Hmc.Integrator.Leapfrog);
      ([ counting "inner" inner_count ], 8, Hmc.Integrator.Leapfrog);
    ]
  in
  ignore (Hmc.Driver.run_trajectory_multiscale ~forced_accept:true ctx levels ~tau:0.2);
  Alcotest.(check bool)
    (Printf.sprintf "outer %d << inner %d" !outer_count !inner_count)
    true
    (!inner_count > 4 * !outer_count)

let test_op_trace_counters () =
  let ctx = fresh_ctx () in
  let gm = Hmc.Gauge_monomial.create ctx ~beta:5.5 () in
  let before = ctx.Hmc.Context.md_steps_taken in
  let p = { Hmc.Driver.steps = 4; dt = 0.05; scheme = Hmc.Integrator.Leapfrog } in
  ignore (Hmc.Driver.run_trajectory ctx [ gm ] p);
  (* leapfrog with 4 steps does 5 momentum updates *)
  Alcotest.(check int) "momentum updates traced" (before + 5) ctx.Hmc.Context.md_steps_taken

(* Twenty JIT-backend trajectories on one engine, with a full
   collection between them.  Every temporary a trajectory creates is
   garbage by the next one, and the memory cache holds its fields
   weakly, so once the first trajectory has built the long-lived state
   the cache's entries and the device bytes in use stay flat, and each
   trajectory frees as many device buffers as it allocates. *)
let test_dead_fields_released () =
  let eng = Qdpjit.Engine.create ~vm_domains:1 () in
  let ctx = Hmc.Context.create ~backend:(Hmc.Context.jit_backend eng) ~seed:7L geom in
  Lqcd.Gauge.random_gauge ~epsilon:0.25 ctx.Hmc.Context.u (Prng.create ~seed:17L);
  let ms = [ Hmc.Gauge_monomial.create ctx ~beta:5.6 (); Hmc.Two_flavor.create ctx ~kappa:0.10 () ] in
  let p = { Hmc.Driver.steps = 1; dt = 0.05; scheme = Hmc.Integrator.Omelyan } in
  let mc = Qdpjit.Engine.memcache eng and dev = Qdpjit.Engine.device eng in
  let trajectory () =
    let st = Gpusim.Device.stats dev in
    let allocs0 = st.Gpusim.Device.allocs and frees0 = st.Gpusim.Device.frees in
    ignore (Hmc.Driver.run_trajectory ctx ms p);
    ignore (Qdpjit.Engine.synchronize eng);
    Gc.full_major ();
    Memcache.reclaim mc;
    ( Memcache.resident_count mc,
      Gpusim.Device.used_bytes dev,
      st.Gpusim.Device.allocs - allocs0,
      st.Gpusim.Device.frees - frees0 )
  in
  ignore (trajectory ());
  let resident, used, allocs, _ = trajectory () in
  Alcotest.(check bool) "a trajectory allocates device buffers" true (allocs > 0);
  for i = 3 to 20 do
    let r, u, a, f = trajectory () in
    let at what = Printf.sprintf "trajectory %d: %s" i what in
    Alcotest.(check int) (at "resident entries") resident r;
    Alcotest.(check int) (at "device bytes in use") used u;
    Alcotest.(check int) (at "frees = allocs") a f
  done

let () =
  Alcotest.run "hmc"
    [
      ( "forces (finite difference)",
        [
          Alcotest.test_case "gauge" `Quick test_gauge_force;
          Alcotest.test_case "gauge anisotropic" `Quick test_gauge_force_anisotropic;
          Alcotest.test_case "two flavor" `Quick test_two_flavor_force;
          Alcotest.test_case "hasenbusch ratio" `Quick test_hasenbusch_force;
          Alcotest.test_case "rhmc rational" `Quick test_rhmc_force;
        ] );
      ( "rational",
        [
          Alcotest.test_case "approximation quality" `Quick test_rational_approx_quality;
          Alcotest.test_case "spectral bounds" `Quick test_spectral_bounds_inside_approx_range;
        ] );
      ( "molecular dynamics",
        [
          Alcotest.test_case "momenta stats" `Quick test_momenta_stats;
          Alcotest.test_case "links stay SU(3)" `Quick test_link_update_stays_su3;
          Alcotest.test_case "reversibility" `Quick test_reversibility;
          Alcotest.test_case "dH ~ dt^2" `Quick test_dh_scaling_leapfrog;
          Alcotest.test_case "omelyan beats leapfrog" `Quick test_omelyan_beats_leapfrog;
        ] );
      ( "trajectories",
        [
          Alcotest.test_case "pure gauge" `Quick test_pure_gauge_trajectories;
          Alcotest.test_case "rejection restores" `Quick test_rejection_restores_links;
          Alcotest.test_case "2+1 flavors" `Slow test_full_2p1_trajectory;
          Alcotest.test_case "multiscale" `Quick test_multiscale_trajectory;
          Alcotest.test_case "multiscale = single at 1 level" `Quick
            test_multiscale_matches_single_scale;
          Alcotest.test_case "multiscale force counts" `Quick
            test_multiscale_fewer_expensive_forces;
          Alcotest.test_case "op trace" `Quick test_op_trace_counters;
          Alcotest.test_case "20 on one engine: dead fields freed" `Quick
            test_dead_fields_released;
        ] );
    ]
