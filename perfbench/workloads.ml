(* The three workloads of the end-to-end benchmark, their reference
   oracles, and the metrics taken from their units.

   A unit is one request a user makes: one Wilson CG solve (wilson_cg),
   one RHMC trajectory (rhmc_traj), or one closed batch of tenant solve
   tasks on a fresh server (serve_tenants, whose requests are the tasks).
   Units replay identical work, so every unit must reproduce the first
   unit's results bit for bit and its structural counters exactly.

   Tracing wraps only closures this file hands to the library: the
   [Solvers.Ops] record, the [Hmc.Context.backend] record, each
   [Serve.submit] task and [Engine.synchronize].  Untraced units run the
   same closures with the recorder switched off (one pointer test per
   call), so both kinds of unit see the same engine state. *)

module Engine = Qdpjit.Engine
module Device = Gpusim.Device
module Geometry = Layout.Geometry
module Shape = Layout.Shape
module Field = Qdp.Field
module Expr = Qdp.Expr
module H = Perfbench.Harness

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;  (** scratch directory for JIT caches and the trace *)
}

let now = Unix.gettimeofday

(* VM workers of every engine the benchmark creates.  One worker per
   engine keeps the process on one core of the host: with a worker per
   core, any other load on the machine stalls the whole batched sweep,
   and run-to-run spread grows past what a regression bound can use. *)
let vm_domains = 1

(* Independent input streams split off the benchmark seed. *)
let derive seed k = Prng.bits64 (Prng.split (Prng.create ~seed:(Int64.of_int seed)) ~index:k)

(* wilson_cg and rhmc_traj start from a fixed gauge configuration, the
   benchmark's ensemble, and draw only the source or the trajectory's
   random stream from the seed.  A gauge field of its own per seed would
   change the solver's iteration count, and with it the work, by up to
   12 % from seed to seed. *)
let ensemble_seed = 0

(* ------------------------------------------------------------------ *)
(* Tracing switch and the wrapped closures *)

let tracer : H.recorder option ref = ref None
let traced name f = match !tracer with None -> f () | Some r -> H.span r name f

let traced_ops (ops : Solvers.Ops.t) =
  {
    ops with
    Solvers.Ops.assign =
      (fun ?subset dest e -> traced "qdpjit.eval" (fun () -> ops.Solvers.Ops.assign ?subset dest e));
    norm2 = (fun ?subset e -> traced "qdpjit.reduce" (fun () -> ops.Solvers.Ops.norm2 ?subset e));
    inner =
      (fun ?subset a b -> traced "qdpjit.reduce" (fun () -> ops.Solvers.Ops.inner ?subset a b));
  }

let traced_backend (b : Hmc.Context.backend) =
  {
    b with
    Hmc.Context.eval =
      (fun ?subset dest e -> traced "qdpjit.eval" (fun () -> b.Hmc.Context.eval ?subset dest e));
    sum_real = (fun e -> traced "qdpjit.reduce" (fun () -> b.Hmc.Context.sum_real e));
    norm2 = (fun ?subset e -> traced "qdpjit.reduce" (fun () -> b.Hmc.Context.norm2 ?subset e));
    inner =
      (fun ?subset x y -> traced "qdpjit.reduce" (fun () -> b.Hmc.Context.inner ?subset x y));
  }

let synchronize eng = traced "qdpjit.sync" (fun () -> ignore (Engine.synchronize eng))

(* ------------------------------------------------------------------ *)
(* Counters *)

(* Read around every span.  None of these reads flushes the engine's
   deferred queue, so taking them inside a unit cannot change fusion. *)
let live_names =
  [|
    "gpusim.launches"; "gpusim.launch_failures"; "gpusim.kernel_ns"; "gpusim.h2d_bytes";
    "gpusim.d2h_bytes"; "gpusim.transfer_ns"; "gpusim.allocs"; "gpusim.frees"; "memcache.hits";
    "memcache.uploads"; "memcache.pageouts"; "memcache.spills"; "memcache.inflight_skips";
    "jitcache.hits"; "jitcache.misses"; "jitcache.stores"; "jitcache.corrupt"; "jitcache.evictions";
  |]

let live eng =
  let d = Device.stats (Engine.device eng) and m = Memcache.stats (Engine.memcache eng) in
  let f = float_of_int in
  let jit =
    match Engine.jit_cache_stats eng with
    | Some j ->
        Jitcache.[| f j.hits; f j.misses; f j.stores; f j.corrupt; f j.evictions |]
    | None -> Array.make 5 0.0
  in
  Array.append
    Device.
      [|
        f d.launches; f d.launch_failures; d.kernel_ns; f d.h2d_bytes; f d.d2h_bytes;
        d.transfer_ns; f d.allocs; f d.frees;
      |]
    (Array.append
       Memcache.[| f m.hits; f m.uploads; f m.pageouts; f m.spills; f m.inflight_skips |]
       jit)

let live_zero () = Array.make (Array.length live_names) 0.0

(* Engine reads that flush the deferred queue ([fusion_stats],
   [kernels_built], [jit_seconds], [kernel_bytes_*]) and the O(spans)
   [Streams.span_count].  They are taken only at unit boundaries: every
   unit ends in a synchronize, so the queue is already empty there. *)
let boundary_names =
  Array.append live_names
    [|
      "qdpjit.flushes"; "qdpjit.fused_groups"; "qdpjit.launches_saved"; "qdpjit.fallbacks";
      "qdpjit.kernels_built"; "qdpjit.jit_model_s"; "gpusim.kernel_bytes"; "gpusim.kernel_bytes_f16";
      "gpusim.kernel_bytes_f32"; "gpusim.kernel_bytes_f64"; "streams.spans"; "streams.horizon_ns";
    |]

let boundary eng =
  let fs = Engine.fusion_stats eng in
  let f16, f32, f64 = Engine.kernel_bytes_by_prec eng in
  let ctx = Engine.streams eng in
  let f = float_of_int in
  Array.append (live eng)
    Engine.
      [|
        f fs.flushes; f fs.fused_groups; f fs.launches_saved; f fs.fallbacks;
        f (kernels_built eng); jit_seconds eng; f (kernel_bytes_moved eng); f f16; f f32; f f64;
        f (Streams.span_count ctx); Streams.horizon ctx;
      |]

let col name =
  let rec go i =
    if i = Array.length boundary_names then invalid_arg ("unknown counter " ^ name)
    else if boundary_names.(i) = name then i
    else go (i + 1)
  in
  go 0

let get d name = d.(col name)

(* Units start from an empty stream timeline: the span log stays bounded
   and every replay sees the same modeled clock. *)
let reset_timeline eng =
  Streams.reset (Engine.streams eng);
  Memcache.settle (Engine.memcache eng)

(* ------------------------------------------------------------------ *)
(* Units, instances and workloads *)

type unit_run = {
  wall : float;  (** unit wall time, s *)
  busy : float;  (** wall time spent serving the unit's requests, s *)
  requests : (float * float) list;  (** per request: (queue wait, latency), s *)
  iters : int;  (** Krylov iterations *)
  d : float array;  (** counter deltas over the unit, indexed like [boundary_names] *)
  spans : H.span list;  (** traced units only *)
  md_steps : int;
  accepted : int;
  verdict : (unit, string) result;
}

type instance = {
  run : unit -> unit_run;
  counters : unit -> float array;  (** live counters of the engine the unit is using *)
  streams : unit -> Streams.t option;
  cleanup : unit -> unit;
}

type workload = {
  name : string;
  setups : int;  (** cold set-ups per untraced run; setup_s is their median *)
  min_units : int;  (** steady untraced units a run needs at least *)
  aliases : (string * string) list;
      (** design-note name of a catalogue metric on this workload *)
  prepare : config -> unit -> instance;
      (** builds the inputs and the reference (untimed) and returns the
          set-up: engine or server creation, timed with the first unit *)
}

let shape = Shape.lattice_fermion Shape.F64

let checksum fld =
  let h = ref 0xcbf29ce484222325L in
  for site = 0 to Field.volume fld - 1 do
    Array.iter
      (fun v -> h := Int64.mul (Int64.logxor !h (Int64.bits_of_float v)) 0x100000001b3L)
      (Field.get_site fld ~site)
  done;
  !h

let copy_links geom src =
  let u = Lqcd.Gauge.create_links geom in
  Array.iteri (fun mu f -> Field.copy_from ~dst:f ~src:src.(mu)) u;
  u

let copy_field src =
  let f = Field.create src.Field.shape src.Field.geom in
  Field.copy_from ~dst:f ~src;
  f

(* The independent check of a JIT solve: the true relative residual
   |b - A x| / |b| of the normal equations A = M^dag M, evaluated on the
   CPU reference evaluator.  A full CPU solve of the wilson_cg problem
   takes longer than a whole run, so the CPU checks the answer rather
   than repeating the solve. *)
let true_residual ~geom ~kappa ~u ~b ~x =
  let ops = Solvers.Ops.cpu shape geom in
  let nop = Solvers.Ops.normal_op ops ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa u) in
  let ax = ops.Solvers.Ops.fresh () in
  nop.Solvers.Ops.apply ax (copy_field x);
  sqrt
    (ops.Solvers.Ops.norm2 (Expr.sub (Expr.field b) (Expr.field ax))
    /. ops.Solvers.Ops.norm2 (Expr.field b))

(* CG stops on its recursive residual; the true one may sit slightly
   above it. *)
let residual_slack = 10.0

let check_residual ~tol res =
  if res <= residual_slack *. tol then Ok ()
  else Error (Printf.sprintf "true residual %.3e above %.1e" res (residual_slack *. tol))

(* Every later unit must reproduce the first one exactly. *)
let same_as_first first (iters, ck) check =
  match !first with
  | None ->
      first := Some (iters, ck);
      check ()
  | Some (i, _) when i <> iters -> Error "iteration count differs from the first unit"
  | Some (_, c) when c <> ck -> Error "solution differs from the first unit"
  | Some _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* wilson_cg: one steady-state Wilson normal-operator CG on 8x4x4x4 with
   the default engine (fusion + reduction fusion).  The VM executor and
   the batched sweep carry its time; memcache and the compile path idle
   once the first solve has run.  The lattice is a quarter of 8x8x8x4 so
   a run holds enough solves for a steady median, and every field of a
   solve fits in one core's L2. *)

let wilson_cg =
  let dims = [| 8; 4; 4; 4 |] and kappa = 0.115 and tol = 1e-8 in
  let prepare cfg =
    let geom = Geometry.create dims in
    let u0 = Lqcd.Gauge.create_links geom in
    Lqcd.Gauge.random_gauge ~epsilon:0.3 u0 (Prng.create ~seed:(derive ensemble_seed 1));
    let b0 = Field.create shape geom in
    Field.fill_gaussian b0 (Prng.create ~seed:(derive cfg.seed 2));
    let first = ref None in
    fun () ->
      let eng = Engine.create ~vm_domains () in
      let u = copy_links geom u0 and b = copy_field b0 in
      (* Fields a solve creates are dropped after its unit, so device and
         host memory stay flat however many units a run makes. *)
      let temps = ref [] in
      let fresh () =
        let f = Field.create shape geom in
        temps := f :: !temps;
        f
      in
      let ops = traced_ops { (Solvers.Ops.jit eng shape geom) with Solvers.Ops.fresh } in
      let nop = Solvers.Ops.normal_op ops ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa u) in
      temps := [];
      let run () =
        reset_timeline eng;
        let s0 = boundary eng in
        let x = fresh () in
        let t0 = now () in
        let r =
          traced "solvers.cg" (fun () ->
              let r = Solvers.Cg.solve ops nop ~b ~x ~tol () in
              synchronize eng;
              r)
        in
        let wall = now () -. t0 in
        let d = Array.map2 ( -. ) (boundary eng) s0 in
        let verdict =
          if not r.Solvers.Cg.converged then Error "CG did not converge"
          else
            same_as_first first (r.Solvers.Cg.iterations, checksum x) (fun () ->
                check_residual ~tol (true_residual ~geom ~kappa ~u:u0 ~b:b0 ~x))
        in
        List.iter (Memcache.drop (Engine.memcache eng)) !temps;
        temps := [];
        {
          wall;
          busy = wall;
          requests = [ (0.0, wall) ];
          iters = r.Solvers.Cg.iterations;
          d;
          spans = [];
          md_steps = 0;
          accepted = 0;
          verdict;
        }
      in
      {
        run;
        counters = (fun () -> live eng);
        streams = (fun () -> Some (Engine.streams eng));
        cleanup = ignore;
      }
  in
  {
    name = "wilson_cg";
    setups = 2;
    min_units = 4;
    aliases = [ ("solve_s", "latency_p50_s") ];
    prepare;
  }

(* ------------------------------------------------------------------ *)
(* rhmc_traj: the examples/hmc_demo.ml program on the JIT backend — Wilson
   gauge action, Hasenbusch-split Wilson pair and a rational strange
   flavour — on 2^4 with one VM worker.  Every unit replays the same
   trajectory from the same links and random stream, so the CPU backend
   run of that trajectory is the reference for all of them.  Between MD
   steps the host updates the links, which pages fields out and back in. *)

let rhmc_steps = 2
let rhmc_dt = 0.0625

let rhmc_traj =
  let dims = [| 2; 2; 2; 2 |] in
  let params = { Hmc.Driver.steps = rhmc_steps; dt = rhmc_dt; scheme = Hmc.Integrator.Omelyan } in
  let prepare cfg =
    let geom = Geometry.create dims in
    let start = Lqcd.Gauge.create_links geom in
    Lqcd.Gauge.random_gauge ~epsilon:0.25 start (Prng.create ~seed:(derive ensemble_seed 3));
    let traj_seed = derive cfg.seed 4 in
    let approx = Hmc.Rhmc_monomial.make_approx ~degree:10 ~lo:0.05 ~hi:8.0 () in
    (* Rewind [base] to the start of the trajectory: its links, a fresh
       copy of the random stream, and monomials bound to that stream. *)
    let rewind (base : Hmc.Context.t) =
      Array.iteri (fun mu f -> Field.copy_from ~dst:base.Hmc.Context.u.(mu) ~src:f) start;
      let ctx =
        {
          base with
          Hmc.Context.rng = Prng.create ~seed:traj_seed;
          md_steps_taken = 0;
          solver_iterations = 0;
        }
      in
      let monomials =
        [
          Hmc.Gauge_monomial.create ctx ~beta:5.6 ~aniso:1.0 ();
          Hmc.Two_flavor.create ctx ~kappa:0.10 ();
          Hmc.Two_flavor.create_ratio ctx ~kappa_light:0.115 ~kappa_heavy:0.10 ();
          Hmc.Rhmc_monomial.create ctx ~kappa:0.09 ~approx ();
        ]
      in
      (ctx, monomials)
    in
    let reference =
      let ctx, ms =
        rewind (Hmc.Context.create ~backend:Hmc.Context.cpu_backend ~seed:traj_seed geom)
      in
      let r = Hmc.Driver.run_trajectory ctx ms params in
      (r, ctx.Hmc.Context.md_steps_taken)
    in
    let check (r : Hmc.Driver.trajectory_result) md =
      let rr, rmd = reference in
      let bits = Int64.bits_of_float in
      if bits r.delta_h <> bits rr.Hmc.Driver.delta_h then Error "dH differs from the CPU backend"
      else if bits r.plaquette <> bits rr.Hmc.Driver.plaquette then
        Error "plaquette differs from the CPU backend"
      else if r.accepted <> rr.Hmc.Driver.accepted then Error "accept differs from the CPU backend"
      else if r.solver_iterations <> rr.Hmc.Driver.solver_iterations || md <> rmd then
        Error "solver iterations differ from the CPU backend"
      else Ok ()
    in
    fun () ->
      let eng = Engine.create ~vm_domains () in
      let backend = traced_backend (Hmc.Context.jit_backend eng) in
      let base = Hmc.Context.create ~backend ~seed:traj_seed geom in
      let run () =
        let ctx, monomials = rewind base in
        reset_timeline eng;
        let s0 = boundary eng in
        let t0 = now () in
        let r =
          traced "hmc.trajectory" (fun () ->
              let r = Hmc.Driver.run_trajectory ctx monomials params in
              synchronize eng;
              r)
        in
        let wall = now () -. t0 in
        let d = Array.map2 ( -. ) (boundary eng) s0 in
        let md = ctx.Hmc.Context.md_steps_taken in
        {
          wall;
          busy = wall;
          requests = [ (0.0, wall) ];
          iters = r.Hmc.Driver.solver_iterations;
          d;
          spans = [];
          md_steps = md;
          accepted = (if r.Hmc.Driver.accepted then 1 else 0);
          verdict = check r md;
        }
      in
      {
        run;
        counters = (fun () -> live eng);
        streams = (fun () -> Some (Engine.streams eng));
        cleanup = ignore;
      }
  in
  {
    name = "rhmc_traj";
    setups = 1;
    min_units = 4;
    aliases = [ ("traj_s", "latency_p50_s") ];
    prepare;
  }

(* ------------------------------------------------------------------ *)
(* serve_tenants: a closed batch — every task submitted before the first
   runs — of Wilson CG solves from 8 tenants on one fresh Serve.t with one
   VM worker.  Each batch starts from the persistent JIT cache the set-up
   filled, so every kernel comes from disk, and device memory holds half
   the tenants' combined working set, so memcache spills and re-uploads.
   Kernels are tiny: per-launch host work dominates. *)

let serve_tenants =
  let dims = [| 4; 4; 4; 2 |] and kappa = 0.10 and tol = 1e-8 in
  let tenants = 8 and tasks = 2 in
  let prepare cfg =
    let geom = Geometry.create dims in
    let links =
      Array.init tenants (fun i ->
          let u = Lqcd.Gauge.create_links geom in
          Lqcd.Gauge.random_gauge ~epsilon:0.3 u (Prng.create ~seed:(derive cfg.seed (100 + i)));
          u)
    in
    let rhs =
      Array.init tenants (fun i ->
          Array.init tasks (fun j ->
              let b = Field.create shape geom in
              Field.fill_gaussian b (Prng.create ~seed:(derive cfg.seed (1000 + (i * tasks) + j)));
              b))
    in
    (* Per tenant: 4 links, the normal operator's 3 temporaries, and per
       task the rhs, the solution and CG's 3 work vectors.  Every batch
       checks this against the fields its tenants really created. *)
    let fermion_bytes = Field.bytes rhs.(0).(0) in
    let tenant_bytes =
      Array.fold_left (fun acc f -> acc + Field.bytes f) 0 links.(0)
      + ((3 + (5 * tasks)) * fermion_bytes)
    in
    let working_set = tenants * tenant_bytes in
    let machine = { Gpusim.Machine.k20x_ecc_off with memory_bytes = working_set / 2 } in
    (* The reference: every task solved alone on a dedicated engine with
       unlimited device memory.  Serving must reproduce each task's
       iterations and solution bit for bit. *)
    let reference =
      let eng = Engine.create ~vm_domains () in
      let ops = Solvers.Ops.jit eng shape geom in
      Array.init tenants (fun i ->
          let nop =
            Solvers.Ops.normal_op ops
              ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa (copy_links geom links.(i)))
          in
          Array.map
            (fun b0 ->
              let x = ops.Solvers.Ops.fresh () in
              let r = Solvers.Cg.solve ops nop ~b:(copy_field b0) ~x ~tol () in
              (r.Solvers.Cg.iterations, checksum x))
            rhs.(i))
    in
    let dirs = ref 0 in
    fun () ->
      incr dirs;
      let dir =
        Filename.concat cfg.out_dir (Printf.sprintf "jitcache-%d-%d" (Unix.getpid ()) !dirs)
      in
      let cache = Jitcache.create dir in
      Jitcache.clear cache;
      let current = ref None in
      let run () =
        current := None;
        let created_bytes = ref 0 in
        let results = Array.make_matrix tenants tasks None in
        let busy = ref 0.0 in
        let t0 = now () in
        let srv =
          traced "serve.batch" (fun () ->
              let srv =
                Serve.create ~machine ~vm_domains ~jit_cache:(Jitcache.create dir) ()
              in
              let eng = Serve.engine srv in
              current := Some eng;
              let own sess f =
                created_bytes := !created_bytes + Field.bytes f;
                Serve.adopt_field sess f;
                f
              in
              let sessions =
                Array.init tenants (fun i ->
                    let sess = Serve.open_session ~name:(Printf.sprintf "tenant%d" i) srv in
                    let fresh () = own sess (Field.create shape geom) in
                    let ops = traced_ops { (Solvers.Ops.jit eng shape geom) with Solvers.Ops.fresh } in
                    let u = Array.map (own sess) (copy_links geom links.(i)) in
                    let nop = Solvers.Ops.normal_op ops ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa u) in
                    let bs = Array.map (fun b0 -> own sess (copy_field b0)) rhs.(i) in
                    (sess, ops, nop, bs))
              in
              Array.iteri
                (fun i (sess, ops, nop, bs) ->
                  Array.iteri
                    (fun j b ->
                      let submitted = now () in
                      Serve.submit ~label:(Printf.sprintf "solve%d" j) sess (fun () ->
                          let started = now () in
                          let x = ops.Solvers.Ops.fresh () in
                          let r =
                            traced "solvers.cg" (fun () -> Solvers.Cg.solve ops nop ~b ~x ~tol ())
                          in
                          traced "qdpjit.sync" (fun () -> Engine.flush eng);
                          let finished = now () in
                          results.(i).(j) <-
                            Some (r, x, started -. submitted, finished -. submitted)))
                    bs)
                sessions;
              let t_run = now () in
              ignore (traced "serve.run" (fun () -> Serve.run srv));
              busy := now () -. t_run;
              traced "serve.close" (fun () ->
                  Array.iter (fun (sess, _, _, _) -> Serve.close_session sess) sessions);
              srv)
        in
        let wall = now () -. t0 in
        let eng = Serve.engine srv in
        let d = boundary eng in
        let resident = Memcache.resident_count (Engine.memcache eng) in
        let requests = ref [] and iters = ref 0 and verdict = ref (Ok ()) in
        let fail why = if !verdict = Ok () then verdict := Error why in
        if resident <> 0 then fail (Printf.sprintf "%d fields resident after close" resident);
        if !created_bytes <> working_set then fail "tenants' working set differs from the sizing";
        Array.iteri
          (fun i row ->
            Array.iteri
              (fun j res ->
                match res with
                | None -> fail "task did not run"
                | Some (r, x, wait, latency) ->
                    requests := (wait, latency) :: !requests;
                    iters := !iters + r.Solvers.Cg.iterations;
                    let ref_iters, ref_sum = reference.(i).(j) in
                    if not r.Solvers.Cg.converged then fail "CG did not converge"
                    else if r.Solvers.Cg.iterations <> ref_iters then
                      fail "iteration count differs from the dedicated engine"
                    else if checksum x <> ref_sum then
                      fail "solution differs from the dedicated engine")
              row)
          results;
        {
          wall;
          busy = !busy;
          requests = List.rev !requests;
          iters = !iters;
          d;
          spans = [];
          md_steps = 0;
          accepted = 0;
          verdict = !verdict;
        }
      in
      let cleanup () =
        Jitcache.clear cache;
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      in
      {
        run;
        counters = (fun () -> match !current with Some e -> live e | None -> live_zero ());
        streams = (fun () -> Option.map Engine.streams !current);
        cleanup;
      }
  in
  (* A batch holds 16 tasks; four give the 50 samples a p80 needs. *)
  {
    name = "serve_tenants";
    setups = 2;
    min_units = 4;
    aliases = [ ("task_latency_p50_s", "latency_p50_s"); ("solves_per_s", "requests_per_s") ];
    prepare;
  }

let all = [ wilson_cg; rhmc_traj; serve_tenants ]
