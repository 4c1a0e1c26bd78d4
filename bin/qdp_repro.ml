(* Command-line driver for the QDP-JIT/PTX reproduction.

     qdp_repro info                      system inventory
     qdp_repro ptx --test upsi           dump a generated kernel
     qdp_repro plaquette -l 8 -b jit     measure the mean plaquette
     qdp_repro hmc -l 2 -n 4 -b cpu      run RHMC trajectories
     qdp_repro scaling                   Fig. 7/8 trajectory-time model

   Figures and tables are regenerated by `dune exec bench/main.exe`. *)

open Cmdliner

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr

(* ------------------------------ common ------------------------------- *)

let backend_arg =
  let doc = "Evaluation backend: 'cpu' (reference) or 'jit' (simulated GPU)." in
  Arg.(value & opt (enum [ ("cpu", `Cpu); ("jit", `Jit) ]) `Jit & info [ "b"; "backend" ] ~doc)

let lattice_arg default =
  let doc = "Lattice extent L (the lattice is L^4)." in
  Arg.(value & opt int default & info [ "l"; "lattice" ] ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~doc)

(* ------------------------------- info -------------------------------- *)

let info_cmd =
  let run () =
    Printf.printf "QDP-JIT/PTX reproduction (OCaml)\n";
    Printf.printf "paper: 'A Framework for Lattice QCD Calculations on GPUs', Winter et al.\n\n";
    Printf.printf "simulated devices:\n";
    List.iter
      (fun (m : Gpusim.Machine.t) ->
        Printf.printf "  %-12s %2d SMs, %.0f GB/s peak (%.0f%% achievable), %.2f/%.2f TFlops SP/DP\n"
          m.Gpusim.Machine.name m.Gpusim.Machine.sm_count
          (m.Gpusim.Machine.peak_bw /. 1e9)
          (m.Gpusim.Machine.bw_efficiency *. 100.0)
          (m.Gpusim.Machine.peak_flops_sp /. 1e12)
          (m.Gpusim.Machine.peak_flops_dp /. 1e12))
      [ Gpusim.Machine.k20x_ecc_off; Gpusim.Machine.k20m_ecc_on ];
    Printf.printf "\ninterconnects: %s, %s\n" Comms.Network.infiniband_qdr.Comms.Network.name
      Comms.Network.cray_gemini.Comms.Network.name;
    Printf.printf "\nlattice data types (Table I):\n";
    List.iter
      (fun (name, shape) ->
        Printf.printf "  %-8s %-14s %3d dof/site\n" name (Shape.to_string shape) (Shape.dof shape))
      [
        ("psi", Shape.lattice_fermion Shape.F64);
        ("U", Shape.lattice_color_matrix Shape.F64);
        ("Gamma", Shape.lattice_spin_matrix Shape.F64);
        ("Adiag", Shape.clover_diag Shape.F64);
        ("Atria", Shape.clover_tri Shape.F64);
      ];
    0
  in
  Cmd.v (Cmd.info "info" ~doc:"Print the system inventory") Term.(const run $ const ())

(* -------------------------------- ptx -------------------------------- *)

let ptx_cmd =
  let test_arg =
    let doc = "Which kernel to dump: lcm, upsi, spmat, matvec, clover, dslash, deriv." in
    Arg.(value & opt string "deriv" & info [ "t"; "test" ] ~doc)
  in
  let run test l =
    let geom = Geometry.create [| l; l; l; l |] in
    let cm = Shape.lattice_color_matrix Shape.F64 and fm = Shape.lattice_fermion Shape.F64 in
    let u = Field.create ~name:"u" cm geom and u2 = Field.create ~name:"u2" cm geom in
    let psi = Field.create ~name:"psi" fm geom and phi = Field.create ~name:"phi" fm geom in
    let g1 = Field.create (Shape.lattice_spin_matrix Shape.F64) geom in
    let g2 = Field.create (Shape.lattice_spin_matrix Shape.F64) geom in
    let ad = Field.create (Shape.clover_diag Shape.F64) geom in
    let at = Field.create (Shape.clover_tri Shape.F64) geom in
    let f = Expr.field in
    let expr =
      match test with
      | "lcm" -> Expr.mul (f u) (f u2)
      | "upsi" -> Expr.mul (f u) (f psi)
      | "spmat" -> Expr.mul (f g1) (f g2)
      | "matvec" -> Expr.add (Expr.mul (f u) (f psi)) (Expr.mul (f u) (f phi))
      | "clover" -> Expr.clover ~diag:(f ad) ~tri:(f at) (f psi)
      | "dslash" -> Lqcd.Wilson.hopping_expr [| u; u; u; u |] psi
      | "deriv" ->
          Expr.add
            (Expr.mul (f u) (Expr.shift (f psi) ~dim:0 ~dir:1))
            (Expr.shift (Expr.mul (Expr.adj (f u)) (f psi)) ~dim:0 ~dir:(-1))
      | other -> failwith ("unknown test function: " ^ other)
    in
    let built =
      Qdpjit.Codegen.build ~kname:("dump_" ^ test) ~dest_shape:(Expr.shape expr) ~expr
        ~nsites:(Geometry.volume geom) ~use_sitelist:false ()
    in
    print_string (Ptx.Print.kernel built.Qdpjit.Codegen.kernel);
    let a = Ptx.Analysis.kernel built.Qdpjit.Codegen.kernel in
    Printf.eprintf "// %d instructions, %d flops, %d bytes/site, flop/byte %.3f\n"
      a.Ptx.Analysis.instructions a.Ptx.Analysis.flops
      (a.Ptx.Analysis.load_bytes + a.Ptx.Analysis.store_bytes)
      (Ptx.Analysis.flop_per_byte a);
    0
  in
  Cmd.v
    (Cmd.info "ptx" ~doc:"Generate and dump the PTX of a test-function kernel")
    Term.(const run $ test_arg $ lattice_arg 4)

(* ----------------------------- plaquette ----------------------------- *)

let plaquette_cmd =
  let run backend l seed =
    let geom = Geometry.create [| l; l; l; l |] in
    let rng = Prng.create ~seed:(Int64.of_int seed) in
    let u = Lqcd.Gauge.create_links geom in
    Lqcd.Gauge.random_gauge ~epsilon:0.4 u rng;
    let sum_real =
      match backend with
      | `Cpu -> fun e -> (Qdp.Eval_cpu.sum_components e).(0)
      | `Jit ->
          let eng = Qdpjit.Engine.create () in
          fun e -> Qdpjit.Engine.sum_real eng e
    in
    Printf.printf "mean plaquette on %d^4 (warm start): %.8f\n" l
      (Lqcd.Gauge.mean_plaquette ~sum_real u);
    0
  in
  Cmd.v
    (Cmd.info "plaquette" ~doc:"Measure the mean plaquette of a warm gauge configuration")
    Term.(const run $ backend_arg $ lattice_arg 8 $ seed_arg)

(* -------------------------------- hmc -------------------------------- *)

let hmc_cmd =
  let traj_arg =
    let doc = "Number of trajectories." in
    Arg.(value & opt int 4 & info [ "n"; "trajectories" ] ~doc)
  in
  let steps_arg =
    let doc = "Molecular-dynamics steps per trajectory." in
    Arg.(value & opt int 8 & info [ "steps" ] ~doc)
  in
  let dt_arg =
    let doc = "MD step size." in
    Arg.(value & opt float 0.0625 & info [ "dt" ] ~doc)
  in
  let beta_arg =
    let doc = "Gauge coupling beta." in
    Arg.(value & opt float 5.6 & info [ "beta" ] ~doc)
  in
  let full_arg =
    let doc = "Include the 2+1 fermion monomials (Hasenbusch + RHMC); pure gauge otherwise." in
    Arg.(value & flag & info [ "full" ] ~doc)
  in
  let run backend l n steps dt beta full seed =
    let geom = Geometry.create [| l; l; l; l |] in
    let backend_impl =
      match backend with
      | `Cpu -> Hmc.Context.cpu_backend
      | `Jit -> Hmc.Context.jit_backend (Qdpjit.Engine.create ())
    in
    let ctx = Hmc.Context.create ~backend:backend_impl ~seed:(Int64.of_int seed) geom in
    Lqcd.Gauge.random_gauge ~epsilon:0.25 ctx.Hmc.Context.u (Prng.create ~seed:17L);
    let monomials =
      let gauge = Hmc.Gauge_monomial.create ctx ~beta () in
      if full then begin
        let heavy = Hmc.Two_flavor.create ctx ~kappa:0.10 () in
        let ratio = Hmc.Two_flavor.create_ratio ctx ~kappa_light:0.115 ~kappa_heavy:0.10 () in
        let approx = Hmc.Rhmc_monomial.make_approx ~lo:0.05 ~hi:8.0 () in
        let strange = Hmc.Rhmc_monomial.create ctx ~kappa:0.09 ~approx () in
        [ gauge; heavy; ratio; strange ]
      end
      else [ gauge ]
    in
    let params = { Hmc.Driver.steps; dt; scheme = Hmc.Integrator.Omelyan } in
    let accepted = ref 0 in
    for i = 1 to n do
      let r = Hmc.Driver.run_trajectory ctx monomials params in
      if r.Hmc.Driver.accepted then incr accepted;
      Printf.printf "traj %2d: dH = %+9.5f  %s  plaq = %.5f  iters = %d\n" i r.Hmc.Driver.delta_h
        (if r.Hmc.Driver.accepted then "ACCEPT" else "reject")
        r.Hmc.Driver.plaquette r.Hmc.Driver.solver_iterations
    done;
    Printf.printf "acceptance %d/%d\n" !accepted n;
    0
  in
  Cmd.v
    (Cmd.info "hmc" ~doc:"Run HMC gauge generation (pure gauge, or 2+1 flavors with --full)")
    Term.(
      const run $ backend_arg $ lattice_arg 2 $ traj_arg $ steps_arg $ dt_arg $ beta_arg
      $ full_arg $ seed_arg)

(* ------------------------------ scaling ------------------------------ *)

let scaling_cmd =
  let run () =
    let w = Perfmodel.Workload.production () in
    let bw = Perfmodel.Nodes.blue_waters_xk in
    Printf.printf "%-6s %12s %12s %12s\n" "N" "CPU-only" "CPU+QUDA" "JIT+QUDA";
    List.iter
      (fun n ->
        let t c = Perfmodel.Scaling.trajectory_time ~machine:bw ~config:c w ~nodes:n in
        Printf.printf "%-6d %12.0f %12.0f %12.0f\n" n
          (t Perfmodel.Scaling.Cpu_only) (t Perfmodel.Scaling.Cpu_quda)
          (t Perfmodel.Scaling.Qdpjit_quda))
      [ 128; 256; 400; 512; 800; 1600 ];
    0
  in
  Cmd.v
    (Cmd.info "scaling" ~doc:"Print the Fig. 7 trajectory-time model")
    Term.(const run $ const ())

let () =
  let doc = "QDP-JIT/PTX reproduction driver" in
  exit (Cmd.eval' (Cmd.group (Cmd.info "qdp_repro" ~doc) [ info_cmd; ptx_cmd; plaquette_cmd; hmc_cmd; scaling_cmd ]))
