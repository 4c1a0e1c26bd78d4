(* Benchmark harness: regenerates every table and figure of the paper.

   Each [fig*] / [table*] function prints the series the paper plots, and
   the [micro] section runs Bechamel wall-clock benchmarks of the real
   pipeline stages (code generation, driver JIT, VM execution, CPU
   reference).  Run everything with [dune exec bench/main.exe], or a single
   section with e.g. [dune exec bench/main.exe -- fig4]. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr

let section name = Printf.printf "\n===== %s =====\n%!" name

(* ------------------------------------------------------------------ *)
(* Table I: the QDP++ type system *)

let table1 () =
  section "Table I: QDP++ data types (incl. clover types)";
  let show name shape alias =
    Printf.printf "  %-8s %-14s dof/site=%3d bytes/site(DP)=%4d  %s\n" name
      (Shape.to_string shape) (Shape.dof shape) (Shape.bytes_per_site shape) alias
  in
  show "psi" (Shape.lattice_fermion Shape.F64) "LatticeFermion";
  show "U" (Shape.lattice_color_matrix Shape.F64) "LatticeColorMatrix";
  show "Gamma" (Shape.lattice_spin_matrix Shape.F64) "LatticeSpinMatrix";
  show "Adiag" (Shape.clover_diag Shape.F64) "(clover diagonal)";
  show "Atria" (Shape.clover_tri Shape.F64) "(clover triangular)"

(* ------------------------------------------------------------------ *)
(* Table II: test functions and their flop/byte *)

let test_functions geom prec =
  let cm = Shape.lattice_color_matrix prec in
  let fm = Shape.lattice_fermion prec in
  let sm = Shape.lattice_spin_matrix prec in
  let u1 = Field.create cm geom
  and u2 = Field.create cm geom
  and u3 = Field.create cm geom in
  let p0 = Field.create fm geom and p1 = Field.create fm geom and p2 = Field.create fm geom in
  let g1 = Field.create sm geom and g2 = Field.create sm geom and g3 = Field.create sm geom in
  let ad = Field.create (Shape.clover_diag prec) geom in
  let at = Field.create (Shape.clover_tri prec) geom in
  let f = Expr.field in
  [
    ("lcm", Expr.mul (f u2) (f u3), u1);
    ("upsi", Expr.mul (f u1) (f p2), p1);
    ("spmat", Expr.mul (f g2) (f g3), g1);
    ("matvec", Expr.add (Expr.mul (f u1) (f p1)) (Expr.mul (f u1) (f p2)), p0);
    ("clover", Expr.clover ~diag:(f ad) ~tri:(f at) (f p1), p0);
  ]

let table2 () =
  section "Table II: test functions, flop/byte (DP), from generated kernels";
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let paper = [ ("lcm", 0.458); ("upsi", 0.5); ("spmat", 0.62); ("matvec", 0.64); ("clover", 0.525) ] in
  Printf.printf "  %-8s %8s %8s %10s %10s\n" "test" "flops" "bytes" "flop/byte" "paper";
  List.iter
    (fun (name, expr, dest) ->
      let b =
        Qdpjit.Codegen.build ~kname:("t2_" ^ name) ~dest_shape:dest.Field.shape ~expr
          ~nsites:(Geometry.volume geom) ~use_sitelist:false ()
      in
      let a = Ptx.Analysis.kernel b.Qdpjit.Codegen.kernel in
      Printf.printf "  %-8s %8d %8d %10.3f %10.3f\n" name a.Ptx.Analysis.flops
        (a.Ptx.Analysis.load_bytes + a.Ptx.Analysis.store_bytes)
        (Ptx.Analysis.flop_per_byte a) (List.assoc name paper))
    (test_functions geom Shape.F64)

(* ------------------------------------------------------------------ *)
(* Figures 4 and 5: sustained bandwidth vs volume (model-mode sweeps) *)

let bandwidth_sweep prec =
  let name =
    match prec with Shape.F16 -> "half" | Shape.F32 -> "single" | Shape.F64 -> "double"
  in
  section
    (Printf.sprintf "Fig %s: K20x (ECC off) sustained GB/s vs V=L^4, %s precision"
       (match prec with Shape.F32 -> "4" | _ -> "5")
       name);
  let ls = [ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20; 22; 24; 26; 28 ] in
  Printf.printf "  %-4s" "L";
  List.iter
    (fun (n, _, _) -> Printf.printf " %8s" n)
    (test_functions (Geometry.create [| 2; 2; 2; 2 |]) prec);
  Printf.printf "\n";
  List.iter
    (fun l ->
      let geom = Geometry.create [| l; l; l; l |] in
      let eng = Qdpjit.Engine.create ~mode:Gpusim.Device.Model_only ~fuse:false () in
      Printf.printf "  %-4d" l;
      List.iter
        (fun (name, expr, dest) ->
          for _ = 1 to 12 do
            Qdpjit.Engine.eval eng dest expr
          done;
          let dev = Qdpjit.Engine.device eng in
          let before = Gpusim.Device.clock_ns dev in
          Qdpjit.Engine.eval eng dest expr;
          let ns = Gpusim.Device.clock_ns dev -. before in
          (* Bytes the kernel actually moves (matvec re-reads U, which the
             paper's sustained-bandwidth metric counts). *)
          let built =
            Qdpjit.Codegen.build ~kname:("bw_" ^ name) ~dest_shape:dest.Field.shape ~expr
              ~nsites:(Geometry.volume geom) ~use_sitelist:false ()
          in
          let a = Ptx.Analysis.kernel built.Qdpjit.Codegen.kernel in
          let bytes =
            Geometry.volume geom * (a.Ptx.Analysis.load_bytes + a.Ptx.Analysis.store_bytes)
          in
          Printf.printf " %8.1f" (float_of_int bytes /. ns))
        (test_functions geom prec);
      Printf.printf "\n%!")
    ls;
  Printf.printf "  (paper: rise to a shoulder near L=16 (SP) / L=12 (DP), plateau ~197 GB/s = 79%% of peak)\n"

(* ------------------------------------------------------------------ *)
(* Figure 6: Dslash with/without communication overlap, 2 GPUs *)

let fig6 () =
  section "Fig 6: Wilson Dslash GFLOPS vs V, 2x K20m (ECC on), IB, overlap on/off";
  Printf.printf "  %-4s %12s %12s %12s %12s\n" "L" "SP-overlap" "SP-nonovl" "DP-overlap" "DP-nonovl";
  List.iter
    (fun l ->
      let global_dims = [| l; l; l; l |] in
      let gflops prec overlap =
        let m =
          Qdpjit.Multi.create ~machine:Gpusim.Machine.k20m_ecc_on ~mode:Gpusim.Device.Model_only
            ~network:Comms.Network.infiniband_qdr ~global_dims ~rank_dims:[| 1; 1; 1; 2 |] ()
        in
        Qdpjit.Multi.set_overlap m overlap;
        let u =
          Array.init 4 (fun _ -> Qdpjit.Multi.create_field m (Shape.lattice_color_matrix prec))
        in
        let psi = Qdpjit.Multi.create_field m (Shape.lattice_fermion prec) in
        let out = Qdpjit.Multi.create_field m (Shape.lattice_fermion prec) in
        let mk rank =
          let ul = Array.map (fun (df : Qdpjit.Multi.dfield) -> df.Qdpjit.Multi.locals.(rank)) u in
          Lqcd.Wilson.hopping_expr ul psi.Qdpjit.Multi.locals.(rank)
        in
        (* Warm the tuner, then time one application. *)
        for _ = 1 to 8 do
          ignore (Qdpjit.Multi.eval m out mk)
        done;
        Qdpjit.Multi.reset_clocks m;
        let t = Qdpjit.Multi.eval m out mk in
        let v = Array.fold_left ( * ) 1 global_dims in
        let gf = float_of_int (Lqcd.Wilson.dslash_flops_per_site * v) /. t.Qdpjit.Multi.total_ns in
        (* Release this configuration's Bigarray-backed fields before the
           next one: the GC's heuristics underestimate Bigarray memory. *)
        Gc.compact ();
        gf
      in
      Printf.printf "  %-4d %12.1f %12.1f %12.1f %12.1f\n%!" l (gflops Shape.F32 true)
        (gflops Shape.F32 false) (gflops Shape.F64 true) (gflops Shape.F64 false))
    [ 8; 12; 16; 20; 24; 28; 32; 36; 40 ];
  Printf.printf "  (paper: overlap gains ~11%% SP / ~7%% DP at the largest volume)\n"

(* ------------------------------------------------------------------ *)
(* Streams: the Fig. 6 workload through the stream/event engine, with the
   rank timelines exported as a Chrome trace *)

let streams_bench () =
  section "Streams: sync vs overlapped Dslash timeline, Chrome trace export";
  let l = 32 in
  let global_dims = [| l; l; l; l |] in
  let run overlap =
    let m =
      Qdpjit.Multi.create ~machine:Gpusim.Machine.k20m_ecc_on ~mode:Gpusim.Device.Model_only
        ~network:Comms.Network.infiniband_qdr ~global_dims ~rank_dims:[| 1; 1; 1; 2 |] ()
    in
    Qdpjit.Multi.set_overlap m overlap;
    let u =
      Array.init 4 (fun _ -> Qdpjit.Multi.create_field m (Shape.lattice_color_matrix Shape.F32))
    in
    let psi = Qdpjit.Multi.create_field m (Shape.lattice_fermion Shape.F32) in
    let out = Qdpjit.Multi.create_field m (Shape.lattice_fermion Shape.F32) in
    let mk rank =
      let ul = Array.map (fun (df : Qdpjit.Multi.dfield) -> df.Qdpjit.Multi.locals.(rank)) u in
      Lqcd.Wilson.hopping_expr ul psi.Qdpjit.Multi.locals.(rank)
    in
    for _ = 1 to 8 do
      ignore (Qdpjit.Multi.eval m out mk)
    done;
    Qdpjit.Multi.reset_clocks m;
    let t = Qdpjit.Multi.eval m out mk in
    (m, t.Qdpjit.Multi.total_ns)
  in
  let m_on, t_on = run true in
  let _, t_off = run false in
  Printf.printf "  SP Dslash %d^4, 2 ranks: overlapped %.0f ns, synchronous %.0f ns (%.1f%% saved)\n"
    l t_on t_off
    (100.0 *. (t_off -. t_on) /. t_off);
  (* Export the overlapped run's timelines (one process per rank, one
     thread per stream). *)
  let trace_path = "trace_streams.json" in
  let ctxs =
    List.init (Qdpjit.Multi.nranks m_on) (fun r ->
        (Printf.sprintf "rank%d" r, Qdpjit.Engine.streams (Qdpjit.Multi.engine m_on r)))
  in
  Streams.Trace.write_file trace_path ctxs;
  let trace_bytes = (Unix.stat trace_path).Unix.st_size in
  let streams_used =
    let ctx = Qdpjit.Engine.streams (Qdpjit.Multi.engine m_on 0) in
    List.length
      (List.sort_uniq compare (List.map (fun sp -> sp.Streams.span_sid) (Streams.spans ctx)))
  in
  Printf.printf "  wrote %s: %d bytes, rank0 spans on %d streams\n" trace_path trace_bytes
    streams_used;
  if trace_bytes < 256 then failwith "trace file suspiciously small";
  if streams_used < 2 then failwith "expected spans on at least two streams";
  let oc = open_out "BENCH_streams.json" in
  Printf.fprintf oc
    "{\n  \"workload\": \"wilson_dslash_sp_%d^4_2ranks\",\n  \"sync_ns\": %.1f,\n  \"overlap_ns\": %.1f,\n  \"saved_fraction\": %.4f,\n  \"trace_file\": \"%s\",\n  \"trace_bytes\": %d,\n  \"rank0_streams_with_spans\": %d\n}\n"
    l t_off t_on
    ((t_off -. t_on) /. t_off)
    trace_path trace_bytes streams_used;
  close_out oc;
  Printf.printf "  wrote BENCH_streams.json\n"

(* ------------------------------------------------------------------ *)
(* Sec VIII-C: QUDA comparison *)

let quda_compare () =
  section "Sec VIII-C: QUDA vs generated Dslash (same work, overlapping comms)";
  let row prec vol ours =
    Printf.printf "  %-3s V=%d^4: QUDA %.0f GFLOPS, generated %.0f GFLOPS (headroom %.2fx)\n"
      (match prec with Solvers.Quda_like.Sp -> "SP" | Solvers.Quda_like.Dp -> "DP")
      vol
      (Solvers.Quda_like.dslash_gflops_measured prec)
      ours
      (Solvers.Quda_like.dslash_gflops_measured prec /. ours)
  in
  row Solvers.Quda_like.Sp 40 (Solvers.Quda_like.generated_dslash_gflops Solvers.Quda_like.Sp);
  row Solvers.Quda_like.Dp 32 (Solvers.Quda_like.generated_dslash_gflops Solvers.Quda_like.Dp);
  Printf.printf "  (paper: 346 vs 197 = 1.76x SP; 171 vs 90 = 1.9x DP)\n"

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: HMC strong scaling *)

let fig7 () =
  section "Fig 7: HMC strong scaling on Blue Waters (V=40^3x256, 2+1 aniso clover)";
  let w = Perfmodel.Workload.production () in
  let bw = Perfmodel.Nodes.blue_waters_xk in
  let t c n = Perfmodel.Scaling.trajectory_time ~machine:bw ~config:c w ~nodes:n in
  Printf.printf "  %-6s %12s %12s %12s %10s %10s\n" "N" "CPU-only" "CPU+QUDA" "JIT+QUDA" "spd(CQ)"
    "spd(JQ)";
  List.iter
    (fun n ->
      Printf.printf "  %-6d %12.0f %12.0f %12.0f %10.2f %10.2f\n" n
        (t Perfmodel.Scaling.Cpu_only n) (t Perfmodel.Scaling.Cpu_quda n)
        (t Perfmodel.Scaling.Qdpjit_quda n)
        (Perfmodel.Scaling.speedup ~machine:bw w ~config:Perfmodel.Scaling.Cpu_quda ~nodes:n)
        (Perfmodel.Scaling.speedup ~machine:bw w ~config:Perfmodel.Scaling.Qdpjit_quda ~nodes:n))
    [ 128; 256; 400; 512; 800; 1600 ];
  Printf.printf "  node-hours at 128: CPU+QUDA %.0f vs QDP-JIT+QUDA %.0f (paper: 258 vs 52, ~5x)\n"
    (Perfmodel.Scaling.node_hours ~machine:bw ~config:Perfmodel.Scaling.Cpu_quda w ~nodes:128)
    (Perfmodel.Scaling.node_hours ~machine:bw ~config:Perfmodel.Scaling.Qdpjit_quda w ~nodes:128);
  Printf.printf "  (paper: speedups ~2.2x/1.8x CPU+QUDA, ~11.0x/3.7x QDP-JIT+QUDA at 128/800)\n"

let fig8 () =
  section "Fig 8: Blue Waters vs Titan (QDP-JIT+QUDA)";
  let w = Perfmodel.Workload.production () in
  Printf.printf "  %-6s %14s %14s\n" "GPUs" "Blue Waters" "Titan";
  List.iter
    (fun n ->
      Printf.printf "  %-6d %14.0f %14.0f\n" n
        (Perfmodel.Scaling.trajectory_time ~machine:Perfmodel.Nodes.blue_waters_xk
           ~config:Perfmodel.Scaling.Qdpjit_quda w ~nodes:n)
        (Perfmodel.Scaling.trajectory_time ~machine:Perfmodel.Nodes.titan
           ~config:Perfmodel.Scaling.Qdpjit_quda w ~nodes:n))
    [ 128; 256; 400; 512; 800 ];
  Printf.printf "  (paper: the two systems are hardly distinguishable)\n"

(* ------------------------------------------------------------------ *)
(* Sec III-D: JIT compilation overhead *)

let jit_overhead () =
  section "Sec III-D: driver JIT compile overhead per kernel";
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let kernels =
    List.map
      (fun (name, expr, dest) ->
        ( name,
          Qdpjit.Codegen.build ~kname:("jo_" ^ name) ~dest_shape:dest.Field.shape ~expr
            ~nsites:(Geometry.volume geom) ~use_sitelist:false () ))
      (test_functions geom Shape.F64)
  in
  (* Add a dslash kernel, the largest in a trajectory. *)
  let u = Lqcd.Gauge.create_links geom in
  let psi = Field.create (Shape.lattice_fermion Shape.F64) geom in
  let dslash =
    Qdpjit.Codegen.build ~kname:"jo_dslash" ~dest_shape:psi.Field.shape
      ~expr:(Lqcd.Wilson.hopping_expr u psi) ~nsites:(Geometry.volume geom) ~use_sitelist:false ()
  in
  let all = kernels @ [ ("dslash", dslash) ] in
  Printf.printf "  %-8s %8s %14s %16s\n" "kernel" "instrs" "model compile" "measured (this)";
  let total = ref 0.0 in
  List.iter
    (fun (name, built) ->
      let t0 = Unix.gettimeofday () in
      let compiled = Gpusim.Jit.compile built.Qdpjit.Codegen.text in
      let wall = Unix.gettimeofday () -. t0 in
      total := !total +. compiled.Gpusim.Jit.compile_time;
      Printf.printf "  %-8s %8d %12.3f s %14.6f s\n" name
        compiled.Gpusim.Jit.analysis.Ptx.Analysis.instructions compiled.Gpusim.Jit.compile_time
        wall)
    all;
  Printf.printf "  (paper: 0.05-0.22 s per kernel; ~200 kernels/trajectory => 10-30 s total)\n";
  Printf.printf "  modeled total for 200 kernels of this mix: %.0f s\n"
    (!total /. float_of_int (List.length all) *. 200.0);
  (* Middle-end scorecards of the same builds.  Register counts are the
     uncapped allocator demand: the occupancy model's estimate saturates
     at 64 on large kernels, which would hide the savings. *)
  Printf.printf "\n  middle-end per-kernel stats (raw -> optimized):\n";
  Printf.printf "  %-10s %13s %13s %15s  passes\n" "kernel" "instrs" "regs(demand)" "load B/thread";
  List.iter
    (fun (name, (b : Qdpjit.Codegen.built)) ->
      let raw = b.Qdpjit.Codegen.raw and opt = b.Qdpjit.Codegen.kernel in
      let loads k = (Ptx.Analysis.kernel k).Ptx.Analysis.load_bytes in
      Printf.printf "  %-10s %5d ->%5d %5d ->%5d %6d ->%6d  %s\n" name
        (List.length raw.Ptx.Types.body) (List.length opt.Ptx.Types.body)
        (Ptx.Dataflow.register_demand raw) (Ptx.Dataflow.register_demand opt) (loads raw)
        (loads opt)
        (String.concat ","
           (List.map
              (fun (r : Ptx.Passes.report) ->
                Printf.sprintf "%s(%d->%d)" r.Ptx.Passes.pass r.Ptx.Passes.before
                  r.Ptx.Passes.after)
              b.Qdpjit.Codegen.passes)))
    all

(* ------------------------------------------------------------------ *)
(* Middle-end: raw vs optimized Table II kernels, with a JSON artifact *)

let jitopt () =
  section "JIT middle-end: raw vs optimized Table II kernels (+ dslash)";
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let cases =
    let u = Lqcd.Gauge.create_links geom in
    let fm = Shape.lattice_fermion Shape.F64 in
    let psi = Field.create fm geom in
    test_functions geom Shape.F64
    @ [ ("dslash", Lqcd.Wilson.hopping_expr u psi, Field.create fm geom) ]
  in
  let rows =
    List.map
      (fun (name, expr, dest) ->
        let b =
          Qdpjit.Codegen.build ~kname:("opt_" ^ name) ~dest_shape:dest.Field.shape ~expr
            ~nsites:(Geometry.volume geom) ~use_sitelist:false ()
        in
        let raw = b.Qdpjit.Codegen.raw and opt = b.Qdpjit.Codegen.kernel in
        let raw_a = Ptx.Analysis.kernel raw and opt_a = Ptx.Analysis.kernel opt in
        ( name,
          List.length raw.Ptx.Types.body,
          List.length opt.Ptx.Types.body,
          Ptx.Dataflow.register_demand raw,
          Ptx.Dataflow.register_demand opt,
          raw_a.Ptx.Analysis.load_bytes,
          opt_a.Ptx.Analysis.load_bytes,
          b.Qdpjit.Codegen.passes ))
      cases
  in
  Printf.printf "  %-8s %14s %14s %16s  passes\n" "kernel" "instructions" "regs(demand)"
    "load bytes/thr";
  List.iter
    (fun (name, ri, oi, rr, orr, rb, ob, passes) ->
      Printf.printf "  %-8s %6d ->%6d %6d ->%6d %7d ->%7d  %s\n" name ri oi rr orr rb ob
        (String.concat ","
           (List.sort_uniq compare (List.map (fun (r : Ptx.Passes.report) -> r.Ptx.Passes.pass) passes)));
      if oi > ri then failwith (name ^ ": optimized instruction count exceeds raw");
      if orr > rr then failwith (name ^ ": optimized register demand exceeds raw");
      if ob > rb then failwith (name ^ ": optimized load bytes exceed raw"))
    rows;
  let oc = open_out "BENCH_jitopt.json" in
  Printf.fprintf oc "{\n  \"kernels\": [\n";
  List.iteri
    (fun i (name, ri, oi, rr, orr, rb, ob, _) ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"raw_instructions\": %d, \"opt_instructions\": %d, \"raw_registers\": %d, \"opt_registers\": %d, \"raw_load_bytes\": %d, \"opt_load_bytes\": %d}%s\n"
        name ri oi rr orr rb ob
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "  wrote BENCH_jitopt.json\n"

(* ------------------------------------------------------------------ *)
(* Sec VII: auto-tuning trace *)

let autotune () =
  section "Sec VII: block-size auto-tuning on payload launches";
  let geom = Geometry.create [| 16; 16; 16; 16 |] in
  let eng = Qdpjit.Engine.create ~mode:Gpusim.Device.Model_only ~fuse:false () in
  let cases = test_functions geom Shape.F32 in
  let name, expr, dest = List.nth cases 1 in
  Printf.printf "  tuning kernel %s at V=16^4:\n" name;
  for i = 1 to 10 do
    let dev = Qdpjit.Engine.device eng in
    let before = Gpusim.Device.clock_ns dev in
    Qdpjit.Engine.eval eng dest expr;
    let ns = Gpusim.Device.clock_ns dev -. before in
    Printf.printf "    launch %2d: %8.1f us\n" i (ns /. 1000.0)
  done;
  Printf.printf "  (failed launches halve the block; probes stop on a 33%% slowdown)\n"

(* ------------------------------------------------------------------ *)
(* Ablations: design choices the paper discusses *)

let ablation () =
  section "Ablations: gauge compression (Sec VIII-C) and auto-tuning (Sec VII)";
  (* 1. Gauge compression: dslash bandwidth saved by 12-real links. *)
  let l = 24 in
  let geom = Geometry.create [| l; l; l; l |] in
  let psi = Field.create (Shape.lattice_fermion Shape.F64) geom in
  let links = Array.init 4 (fun _ -> Field.create (Shape.lattice_color_matrix Shape.F64) geom) in
  let packed =
    Array.map (fun _ -> Field.create (Shape.compressed_color_matrix Shape.F64) geom) links
  in
  let time expr =
    let eng = Qdpjit.Engine.create ~mode:Gpusim.Device.Model_only ~fuse:false () in
    let out = Field.create (Shape.lattice_fermion Shape.F64) geom in
    for _ = 1 to 10 do
      Qdpjit.Engine.eval eng out expr
    done;
    let dev = Qdpjit.Engine.device eng in
    let before = Gpusim.Device.clock_ns dev in
    Qdpjit.Engine.eval eng out expr;
    Gpusim.Device.clock_ns dev -. before
  in
  let t_full = time (Lqcd.Wilson.hopping_expr links psi) in
  let t_comp = time (Lqcd.Wilson.hopping_expr_compressed packed psi) in
  let v = float_of_int (Geometry.volume geom) in
  Printf.printf "  dslash %d^4 DP: full gauge %.0f GFLOPS, 12-real %.0f GFLOPS (%.2fx)
" l
    (1320.0 *. v /. t_full) (1320.0 *. v /. t_comp) (t_full /. t_comp);
  Printf.printf "  (the flops-for-bandwidth trade behind part of QUDA's headroom)
";
  (* 2. Auto-tuning vs a fixed maximal block: pick a register-heavy kernel
     at a mid volume and compare the settled time against block = 1024. *)
  let geom16 = Geometry.create [| 16; 16; 16; 16 |] in
  let u1 = Field.create (Shape.lattice_color_matrix Shape.F64) geom16 in
  let u2 = Field.create (Shape.lattice_color_matrix Shape.F64) geom16 in
  let expr = Expr.mul (Expr.field u1) (Expr.field u2) in
  let built =
    Qdpjit.Codegen.build ~kname:"abl_tune" ~dest_shape:u1.Field.shape ~expr
      ~nsites:(Geometry.volume geom16) ~use_sitelist:false ()
  in
  let compiled = Gpusim.Jit.compile built.Qdpjit.Codegen.text in
  let machine = Gpusim.Machine.k20x_ecc_off in
  let nthreads = Geometry.volume geom16 in
  let t_at block =
    Gpusim.Timing.kernel_time_ns machine ~analysis:compiled.Gpusim.Jit.analysis
      ~regs_per_thread:compiled.Gpusim.Jit.regs_per_thread ~prec:compiled.Gpusim.Jit.prec
      ~nthreads ~block
  in
  let best_block =
    List.fold_left
      (fun acc b -> if t_at b < t_at acc then b else acc)
      1024 [ 512; 256; 128; 64; 32 ]
  in
  Printf.printf "  lcm at 16^4: fixed block 1024 -> %.1f us; tuned block %d -> %.1f us (%.2fx)
"
    (t_at 1024 /. 1e3) best_block (t_at best_block /. 1e3)
    (t_at 1024 /. t_at best_block);
  Printf.printf "  (weak block dependence above ~64 threads, as the paper observes)
"

(* ------------------------------------------------------------------ *)
(* Cross-eval kernel fusion: launches and global traffic of a CG solve *)

let assert_bit_identical what a b =
  if Field.volume a <> Field.volume b then failwith (what ^ ": volumes differ");
  for site = 0 to Field.volume a - 1 do
    let va = Field.get_site a ~site and vb = Field.get_site b ~site in
    Array.iteri
      (fun i v ->
        if Int64.bits_of_float v <> Int64.bits_of_float vb.(i) then
          failwith (what ^ ": solutions not bit-identical"))
      va
  done

let engine_config = function
  | `Unfused -> Qdpjit.Engine.create ~fuse:false ()
  | `Fused -> Qdpjit.Engine.create ~fuse:true ~fuse_reductions:false ()
  | `Fused_reduction -> Qdpjit.Engine.create ~fuse:true ~fuse_reductions:true ()

(* Wall-clock samples per compared side in the fusion section.  A
   shared host's noise comes in bursts, so the samples of the compared
   sides are interleaved and each side keeps its minimum. *)
let fusion_rounds = 10

let fusion_bench () =
  section "Kernel fusion: Wilson CG, deferred queue + body splicing vs eval-at-a-time";
  let geom = Geometry.create [| 4; 4; 4; 2 |] in
  let shape = Shape.lattice_fermion Shape.F64 in
  let kappa = 0.115 in
  let minimum = List.fold_left min infinity in
  (* One engine per configuration, past its cold solve and one measured
     steady solve.  The first solve pays every one-time cost — building,
     optimizing and autotuning each kernel, including the large spliced
     fused bodies.  The second is the steady-state solve whose device
     counter deltas are reported (compile cost is reported apart from
     execution, as in the paper). *)
  let setup config =
    let eng = engine_config config in
    let st = Gpusim.Device.stats (Qdpjit.Engine.device eng) in
    let mc = Memcache.stats (Qdpjit.Engine.memcache eng) in
    (* Count the solver's global sums, and the reduction readbacks on the
       device timeline: each reduction must cost exactly one. *)
    let reductions = ref 0 in
    let readbacks () =
      List.length
        (List.filter
           (fun (s : Streams.span) -> s.Streams.span_name = "reduce readback")
           (Streams.spans (Qdpjit.Engine.streams eng)))
    in
    let ops =
      let o = Solvers.Ops.jit eng shape geom in
      {
        o with
        Solvers.Ops.norm2 =
          (fun ?subset e ->
            incr reductions;
            o.Solvers.Ops.norm2 ?subset e);
        inner =
          (fun ?subset a b ->
            incr reductions;
            o.Solvers.Ops.inner ?subset a b);
      }
    in
    let u = Lqcd.Gauge.create_links geom in
    Lqcd.Gauge.random_gauge ~epsilon:0.3 u (Prng.create ~seed:31L);
    let nop = Solvers.Ops.normal_op ops ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa u) in
    let b = Field.create shape geom in
    Field.fill_gaussian b (Prng.create ~seed:32L);
    let solve () =
      let x = Field.create shape geom in
      (* Collect first, so no sample pays for the previous one's garbage. *)
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      let r = Solvers.Cg.solve ops nop ~b ~x ~tol:1e-8 () in
      ignore (Qdpjit.Engine.synchronize eng);
      (r, x, Unix.gettimeofday () -. t0)
    in
    let _, _, cold = solve () in
    (* Rewind the planner/scorecard counters so the reported fusion stats
       cover exactly the measured steady-state solves, not the cold one. *)
    Qdpjit.Engine.reset_stats eng;
    let l0 = st.Gpusim.Device.launches and ns0 = st.Gpusim.Device.kernel_ns in
    let b0 = Qdpjit.Engine.kernel_bytes_moved eng in
    let red0 = !reductions and rb0 = readbacks () and po0 = mc.Memcache.pageouts in
    let r, x, _ = solve () in
    let launches = st.Gpusim.Device.launches - l0 in
    let bytes = Qdpjit.Engine.kernel_bytes_moved eng - b0 in
    let sim_ms = (st.Gpusim.Device.kernel_ns -. ns0) /. 1e6 in
    let reds = (!reductions - red0, readbacks () - rb0, mc.Memcache.pageouts - po0) in
    (eng, solve, (r, x, launches, bytes, cold, sim_ms, reds))
  in
  let engines = List.map setup [ `Fused_reduction; `Fused; `Unfused ] in
  (* Steady wall time: [fusion_rounds] more solves per engine, taken
     round-robin across the three, so a burst of host noise hits every
     configuration alike.  The fused+reduction planner stats are read
     after two steady solves. *)
  let walls = List.map (fun _ -> ref []) engines in
  let planner = ref None in
  for round = 1 to fusion_rounds do
    List.iter2
      (fun (_, solve, _) samples ->
        let _, _, w = solve () in
        samples := w :: !samples)
      engines walls;
    let eng, _, _ = List.hd engines in
    if round = 1 then planner := Some (Qdpjit.Engine.fusion_stats eng)
  done;
  let sr = Option.get !planner in
  let result i =
    let _, _, (r, x, l, b, c, m, reds) = List.nth engines i in
    (r, x, l, b, minimum !(List.nth walls i), c, m, reds)
  in
  let rr, xr, lr, br, wr, cr, mr, (nr, rbr, por) = result 0 in
  let rf, xf, lf, bf, wf, cf, mf, (nf, rbf, pof) = result 1 in
  let ru, xu, lu, bu, wu, cu, mu, (nu, rbu, pou) = result 2 in
  if not (rr.Solvers.Cg.converged && rf.Solvers.Cg.converged && ru.Solvers.Cg.converged) then
    failwith "fusion: CG diverged";
  if rr.Solvers.Cg.iterations <> ru.Solvers.Cg.iterations
     || rf.Solvers.Cg.iterations <> ru.Solvers.Cg.iterations
  then failwith "fusion: iteration counts differ";
  assert_bit_identical "fusion(fused)" xf xu;
  assert_bit_identical "fusion(fused_reduction)" xr xu;
  if lf >= lu then failwith "fusion: no launch reduction";
  if lr >= lf then failwith "fusion: reduction fusion saved no launches";
  if bf >= bu then failwith "fusion: no global-traffic reduction";
  if br > bf then failwith "fusion: reduction fusion increased global traffic";
  let iters = float_of_int rr.Solvers.Cg.iterations in
  Printf.printf "  Wilson CG %s, %d iterations, solutions bit-identical across all 3 configs\n"
    (String.concat "x" (Array.to_list (Array.map string_of_int (Geometry.dims geom))))
    rr.Solvers.Cg.iterations;
  Printf.printf "  %-16s %10s %12s %16s %10s %10s %10s %11s %10s\n" "" "launches"
    "launch/iter" "kernel bytes" "sim ms" "wall s" "cold s" "reductions" "readbacks";
  Printf.printf "  %-16s %10d %12.1f %16d %10.3f %10.2f %10.2f %11d %10d\n" "eval-at-a-time" lu
    (float_of_int lu /. iters) bu mu wu cu nu rbu;
  Printf.printf "  %-16s %10d %12.1f %16d %10.3f %10.2f %10.2f %11d %10d\n" "fused" lf
    (float_of_int lf /. iters) bf mf wf cf nf rbf;
  Printf.printf "  %-16s %10d %12.1f %16d %10.3f %10.2f %10.2f %11d %10d\n" "fused+reduction" lr
    (float_of_int lr /. iters) br mr wr cr nr rbr;
  Printf.printf "  page-outs per steady solve: %d / %d / %d\n" pou pof por;
  Printf.printf
    "  planner: %d groups fused, %d launches saved, %d load B + %d store B eliminated, %d fallbacks\n"
    sr.Qdpjit.Engine.fused_groups sr.Qdpjit.Engine.launches_saved
    sr.Qdpjit.Engine.eliminated_load_bytes sr.Qdpjit.Engine.eliminated_store_bytes
    sr.Qdpjit.Engine.fallbacks;
  (* Persistent JIT cache: the fused+reduction solve again, cache-cold
     (fresh dir, this engine populates it) then cache-warm (engines on
     the same dir replay every kernel without running the emitter,
     middle-end or driver JIT) — the second-process startup story.
     REPRO_JIT_CACHE overrides the directory, which is how CI's
     cache-reuse smoke job persists it across bench invocations. *)
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qdpjit-fusion-cache-%d" (Unix.getpid ()))
  in
  let cached_engine () =
    let eng =
      Qdpjit.Engine.create ~fuse:true ~fuse_reductions:true
        ~jit_cache:(Jitcache.create cache_dir) ()
    in
    let ops = Solvers.Ops.jit eng shape geom in
    let u = Lqcd.Gauge.create_links geom in
    Lqcd.Gauge.random_gauge ~epsilon:0.3 u (Prng.create ~seed:31L);
    let nop = Solvers.Ops.normal_op ops ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa u) in
    let b = Field.create shape geom in
    Field.fill_gaussian b (Prng.create ~seed:32L);
    let solve () =
      let x = Field.create shape geom in
      (* Collect first, so no sample pays for the previous one's garbage. *)
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      let r = Solvers.Cg.solve ops nop ~b ~x ~tol:1e-8 () in
      ignore (Qdpjit.Engine.synchronize eng);
      if not r.Solvers.Cg.converged then failwith "fusion: cached CG diverged";
      (x, Unix.gettimeofday () -. t0)
    in
    (eng, solve)
  in
  let cc_eng, cc_solve = cached_engine () in
  let x_cc, cold_cc = cc_solve () in
  let steadies_cc = List.init 2 (fun _ -> snd (cc_solve ())) in
  let cache_json =
    match Qdpjit.Engine.jit_cache_stats cc_eng with
    | None ->
        Printf.printf "  persistent JIT cache disabled (REPRO_JIT_CACHE=off); skipping\n";
        "null"
    | Some cs_cc ->
        assert_bit_identical "fusion(cache-cold)" x_cc xu;
        let built_cc = Qdpjit.Engine.kernels_built cc_eng in
        let hits_cc = cs_cc.Jitcache.hits and stores_cc = cs_cc.Jitcache.stores in
        (* Wall clock on shared CI machines is noisy, so the first solve of
           a fresh warm-cache engine is compared min-of-N against
           min-of-N steady solves, the two sampled alternately: the
           minima converge to the same value unless warm startup really
           does extra work (compiles). *)
        let warm_engine () =
          let eng, solve = cached_engine () in
          let x, first = solve () in
          assert_bit_identical "fusion(cache-warm)" x xu;
          (eng, solve, first)
        in
        let steady_eng, steady_solve, _ = warm_engine () in
        let samples =
          List.init fusion_rounds (fun _ ->
              let eng, _, first = warm_engine () in
              let _, steady = steady_solve () in
              (eng, first, steady))
        in
        let warm_engines = steady_eng :: List.map (fun (e, _, _) -> e) samples in
        let cold_cw = minimum (List.map (fun (_, c, _) -> c) samples) in
        let warm_cw = minimum (List.map (fun (_, _, s) -> s) samples) in
        let hits_cw = ref 0 and misses_cw = ref 0 and stores_cw = ref 0 in
        List.iteri
          (fun i eng ->
            let cs = Option.get (Qdpjit.Engine.jit_cache_stats eng) in
            if cs.Jitcache.hits = 0 then
              failwith (Printf.sprintf "fusion: warm engine %d hit nothing in the cache" i);
            let built = Qdpjit.Engine.kernels_built eng in
            if built <> 0 then
              failwith
                (Printf.sprintf "fusion: warm engine %d compiled %d kernels (want 0)" i built);
            hits_cw := !hits_cw + cs.Jitcache.hits;
            misses_cw := !misses_cw + cs.Jitcache.misses;
            stores_cw := !stores_cw + cs.Jitcache.stores)
          warm_engines;
        Printf.printf "  persistent JIT cache:\n";
        Printf.printf
          "    cache-cold: first solve %.2f s, steady %.2f s, %d kernels built, %d stores\n"
          cold_cc (minimum steadies_cc) built_cc stores_cc;
        Printf.printf
          "    cache-warm: first solve %.2f s (min of %d engines), steady %.2f s (min of %d, \
           alternating), 0 kernels built, %d hits\n"
          cold_cw fusion_rounds warm_cw fusion_rounds !hits_cw;
        Printf.sprintf
          "{\n\
          \    \"cache_cold\": {\"cold_s\": %.3f, \"warm_s\": %.3f, \"kernels_built\": %d, \
           \"hits\": %d, \"misses\": %d, \"stores\": %d},\n\
          \    \"cache_warm\": {\"cold_s\": %.3f, \"warm_s\": %.3f, \"kernels_built\": 0, \
           \"hits\": %d, \"misses\": %d, \"stores\": %d}}"
          cold_cc (minimum steadies_cc) built_cc hits_cc cs_cc.Jitcache.misses stores_cc
          cold_cw warm_cw !hits_cw !misses_cw !stores_cw
  in
  let oc = open_out "BENCH_fusion.json" in
  Printf.fprintf oc
    "{\n\
    \  \"cg\": {\"iterations\": %d, \"bit_identical\": true,\n\
    \    \"unfused\": {\"launches\": %d, \"kernel_bytes\": %d, \"sim_ms\": %.6f, \"wall_s\": \
     %.3f, \"cold_s\": %.3f, \"reductions\": %d, \"readbacks\": %d, \"pageouts\": %d},\n\
    \    \"fused\": {\"launches\": %d, \"kernel_bytes\": %d, \"sim_ms\": %.6f, \"wall_s\": \
     %.3f, \"cold_s\": %.3f, \"reductions\": %d, \"readbacks\": %d, \"pageouts\": %d},\n\
    \    \"fused_reduction\": {\"launches\": %d, \"kernel_bytes\": %d, \"sim_ms\": %.6f, \
     \"wall_s\": %.3f, \"cold_s\": %.3f, \"reductions\": %d, \"readbacks\": %d, \
     \"pageouts\": %d}},\n\
    \  \"planner\": {\"fused_groups\": %d, \"launches_saved\": %d,\n\
    \    \"eliminated_load_bytes\": %d, \"eliminated_store_bytes\": %d, \"fallbacks\": %d},\n\
    \  \"jit_cache\": %s\n\
     }\n"
    rr.Solvers.Cg.iterations lu bu mu wu cu nu rbu pou lf bf mf wf cf nf rbf pof lr br mr wr cr
    nr rbr por
    sr.Qdpjit.Engine.fused_groups
    sr.Qdpjit.Engine.launches_saved sr.Qdpjit.Engine.eliminated_load_bytes
    sr.Qdpjit.Engine.eliminated_store_bytes sr.Qdpjit.Engine.fallbacks cache_json;
  close_out oc;
  Printf.printf "  wrote BENCH_fusion.json\n"

(* ------------------------------------------------------------------ *)
(* Cross-subset fusion: the even-odd preconditioned solve interleaves
   even and odd assignments; grouping per (subset, geometry) run keeps
   those fusing inside their own checkerboard. *)

let fusion_eo_bench () =
  section "Kernel fusion (--eo): even-odd Wilson solve, cross-subset grouping";
  let geom = Geometry.create [| 4; 4; 4; 2 |] in
  let shape = Shape.lattice_fermion Shape.F64 in
  let kappa = 0.115 in
  let run config =
    let eng = engine_config config in
    let ops = Solvers.Ops.jit eng shape geom in
    let u = Lqcd.Gauge.create_links geom in
    Lqcd.Gauge.random_gauge ~epsilon:0.3 u (Prng.create ~seed:41L);
    let b = Field.create shape geom in
    Field.fill_gaussian b (Prng.create ~seed:42L);
    let x = Field.create shape geom in
    let r = Solvers.Eo_wilson.solve ops ~kappa u ~b ~x ~tol:1e-8 () in
    ignore (Qdpjit.Engine.synchronize eng);
    let launches = (Gpusim.Device.stats (Qdpjit.Engine.device eng)).Gpusim.Device.launches in
    (r, x, launches, Qdpjit.Engine.fusion_stats eng)
  in
  let rr, xr, lr, sr = run `Fused_reduction in
  let ru, xu, lu, _ = run `Unfused in
  if not (rr.Solvers.Eo_wilson.converged && ru.Solvers.Eo_wilson.converged) then
    failwith "fusion-eo: solve diverged";
  if rr.Solvers.Eo_wilson.iterations <> ru.Solvers.Eo_wilson.iterations then
    failwith "fusion-eo: iteration counts differ";
  assert_bit_identical "fusion-eo" xr xu;
  if lr >= lu then failwith "fusion-eo: no launch reduction";
  let groups = sr.Qdpjit.Engine.fused_groups and saved = sr.Qdpjit.Engine.launches_saved in
  if groups = 0 then failwith "fusion-eo: no fused groups in the checkerboarded solve";
  let avg_members = float_of_int (groups + saved) /. float_of_int groups in
  if avg_members <= 1.0 then failwith "fusion-eo: fused groups have a single member";
  Printf.printf
    "  eo Wilson solve %s: %d CG iterations on the even checkerboard, bit-identical\n"
    (String.concat "x" (Array.to_list (Array.map string_of_int (Geometry.dims geom))))
    rr.Solvers.Eo_wilson.iterations;
  Printf.printf "  launches: eval-at-a-time %d, fused+reduction %d\n" lu lr;
  Printf.printf "  planner: %d fused groups, %d launches saved, %.2f members/group\n" groups
    saved avg_members;
  let oc = open_out "BENCH_fusion_eo.json" in
  Printf.fprintf oc
    "{\n\
    \  \"eo\": {\"iterations\": %d, \"bit_identical\": true,\n\
    \    \"unfused\": {\"launches\": %d},\n\
    \    \"fused_reduction\": {\"launches\": %d}},\n\
    \  \"planner\": {\"fused_groups\": %d, \"launches_saved\": %d,\n\
    \    \"avg_members_per_fused_group\": %.4f, \"fallbacks\": %d}\n\
     }\n"
    rr.Solvers.Eo_wilson.iterations lu lr groups saved avg_members
    sr.Qdpjit.Engine.fallbacks;
  close_out oc;
  Printf.printf "  wrote BENCH_fusion_eo.json\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the real pipeline *)

let micro () =
  section "Bechamel: wall-clock of the pipeline stages (this machine)";
  let open Bechamel in
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let cases = test_functions geom Shape.F64 in
  let _, lcm_expr, lcm_dest = List.hd cases in
  let built () =
    Qdpjit.Codegen.build ~kname:"bench_lcm" ~dest_shape:lcm_dest.Field.shape ~expr:lcm_expr
      ~nsites:(Geometry.volume geom) ~use_sitelist:false ()
  in
  let b = built () in
  let eng = Qdpjit.Engine.create ~fuse:false () in
  let cpu_dest = Field.create lcm_dest.Field.shape geom in
  let tests =
    [
      Test.make ~name:"codegen(lcm)" (Staged.stage (fun () -> ignore (built ())));
      Test.make ~name:"driver-jit(lcm)"
        (Staged.stage (fun () -> ignore (Gpusim.Jit.compile b.Qdpjit.Codegen.text)));
      Test.make ~name:"jit-eval(lcm,4^4)"
        (Staged.stage (fun () -> Qdpjit.Engine.eval eng lcm_dest lcm_expr));
      Test.make ~name:"cpu-eval(lcm,4^4)"
        (Staged.stage (fun () -> Qdp.Eval_cpu.eval cpu_dest lcm_expr));
      Test.make ~name:"zolotarev(deg10)"
        (Staged.stage (fun () -> ignore (Numerics.Zolotarev.inv_sqrt ~degree:10 ~lo:1e-4 ~hi:10.0)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
      let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-24s %14.1f ns/run\n" name est
          | _ -> Printf.printf "  %-24s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Parallel VM: worker-domain sweep over the Table II kernels and the
   fused Wilson CG solve.  Results must be bit-identical at every worker
   count; wall time is the steady-state launch cost (kernels prebuilt). *)

let field_checksum fld =
  let h = ref 0xcbf29ce484222325L in
  for site = 0 to Field.volume fld - 1 do
    Array.iter
      (fun v -> h := Int64.mul (Int64.logxor !h (Int64.bits_of_float v)) 0x100000001b3L)
      (Field.get_site fld ~site)
  done;
  !h

let vmperf () =
  section "VM worker sweep: pre-decoded interpreter across 1..N domains";
  let geom = Geometry.create [| 8; 8; 8; 4 |] in
  let avail = Gpusim.Vm_backend.available_domains () in
  let workers = List.sort_uniq compare [ 1; 2; 4; avail ] in
  (* A sweep that asks for more workers than the host has domains still
     runs (and stays bit-identical), but its multicore timings are
     meaningless: the extra workers serialize on the same cores.  Say so
     loudly and stamp the JSON so downstream gates skip the speedup
     assertions instead of failing on them. *)
  let wmax = List.fold_left max 1 workers in
  let degraded = avail < wmax in
  if degraded then
    Printf.eprintf
      "vmperf: WARNING: only %d domain(s) available but sweeping up to %d workers;\n\
       vmperf: multicore timings on this host are DEGRADED (excess workers serialize)\n\
       vmperf: and scaling/speedup numbers from this run must not be gated on.\n\
       %!"
      avail wmax;
  let prec = Shape.F64 in
  let mk shape seed =
    let x = Field.create shape geom in
    Field.fill_gaussian x (Prng.create ~seed);
    x
  in
  let u = Lqcd.Gauge.create_links geom in
  Lqcd.Gauge.random_gauge ~epsilon:0.3 u (Prng.create ~seed:51L);
  let cm = Shape.lattice_color_matrix prec
  and fm = Shape.lattice_fermion prec
  and sm = Shape.lattice_spin_matrix prec in
  let u1 = mk cm 52L and u2 = mk cm 53L and u3 = mk cm 54L in
  let p1 = mk fm 55L and p2 = mk fm 56L in
  let g2 = mk sm 57L and g3 = mk sm 58L in
  let ad = mk (Shape.clover_diag prec) 59L and at = mk (Shape.clover_tri prec) 60L in
  let f = Expr.field in
  let cases =
    [
      ("lcm", Expr.mul (f u2) (f u3), cm);
      ("upsi", Expr.mul (f u1) (f p2), fm);
      ("spmat", Expr.mul (f g2) (f g3), sm);
      ("matvec", Expr.add (Expr.mul (f u1) (f p1)) (Expr.mul (f u1) (f p2)), fm);
      ("clover", Expr.clover ~diag:(f ad) ~tri:(f at) (f p1), fm);
      ("dslash", Lqcd.Wilson.hopping_expr u p1, fm);
    ]
  in
  let reps = 4 in
  let run_kernels w =
    let eng = Qdpjit.Engine.create ~vm_domains:w ~fuse:false () in
    List.map
      (fun (name, expr, shape) ->
        let dest = Field.create shape geom in
        (* Warm evals build the kernel and let the block autotuner settle
           before the timed repetitions. *)
        for _ = 1 to 6 do
          Qdpjit.Engine.eval eng dest expr
        done;
        ignore (Qdpjit.Engine.synchronize eng);
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          Qdpjit.Engine.eval eng dest expr
        done;
        ignore (Qdpjit.Engine.synchronize eng);
        let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 /. float_of_int reps in
        (name, wall_ms, field_checksum dest))
      cases
  in
  let max_iter = 20 in
  let run_cg ?(mode = Gpusim.Device.Functional) w =
    let eng = Qdpjit.Engine.create ~mode ~vm_domains:w () in
    let ops = Solvers.Ops.jit eng fm geom in
    let nop = Solvers.Ops.normal_op ops ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa:0.115 u) in
    let b = mk fm 61L in
    let solve () =
      let x = Field.create fm geom in
      let t0 = Unix.gettimeofday () in
      let r = Solvers.Cg.solve ops nop ~b ~x ~tol:1e-8 ~max_iter () in
      ignore (Qdpjit.Engine.synchronize eng);
      (r, x, Unix.gettimeofday () -. t0)
    in
    ignore (solve ());
    let r, x, wall = solve () in
    (r.Solvers.Cg.iterations, field_checksum x, wall)
  in
  let results = List.map (fun w -> (w, run_kernels w, run_cg w)) workers in
  (* Reference A/B: re-time each kernel single-worker on a runtime
     engine and on a [Reference] engine (the scalar interpreter), both
     warmed alike, in interleaved best-of-three timed blocks so host
     noise hits both sides alike — these are the numbers the
     --min-dslash-speedup CI gate holds, independent of the sweep
     timings above.  The two engines' checksums must bit-match each
     other and the sweep. *)
  let ab_blocks = 3 in
  let scalar_k, soa_k =
    let both =
      List.map
        (fun (name, expr, shape) ->
          let warmed mode =
            let eng = Qdpjit.Engine.create ~mode ~vm_domains:1 ~fuse:false () in
            let dest = Field.create shape geom in
            for _ = 1 to 6 do
              Qdpjit.Engine.eval eng dest expr
            done;
            ignore (Qdpjit.Engine.synchronize eng);
            (eng, dest)
          in
          let soa = warmed Gpusim.Device.Functional and sc = warmed Gpusim.Device.Reference in
          let time_block (eng, dest) =
            let t0 = Unix.gettimeofday () in
            for _ = 1 to reps do
              Qdpjit.Engine.eval eng dest expr
            done;
            ignore (Qdpjit.Engine.synchronize eng);
            (Unix.gettimeofday () -. t0) *. 1e3 /. float_of_int reps
          in
          let soa_ms = ref infinity and sc_ms = ref infinity in
          for _ = 1 to ab_blocks do
            soa_ms := min !soa_ms (time_block soa);
            sc_ms := min !sc_ms (time_block sc)
          done;
          ((name, !sc_ms, field_checksum (snd sc)), (name, !soa_ms, field_checksum (snd soa))))
        cases
    in
    (List.map fst both, List.map snd both)
  in
  let scalar_it, scalar_ck, scalar_cg_wall = run_cg ~mode:Gpusim.Device.Reference 1 in
  (* Decode-time superinstruction plans for the same six kernels: how
     much of each body lives in fused spans, and the per-cta dispatch
     units per scalar per-item dispatch. *)
  let soa_stats =
    List.map
      (fun (name, expr, shape) ->
        let dest = Field.create shape geom in
        let b =
          Qdpjit.Codegen.build ~kname:("vp_" ^ name) ~dest_shape:dest.Field.shape ~expr
            ~nsites:(Geometry.volume geom) ~use_sitelist:false ()
        in
        let c = Gpusim.Jit.compile b.Qdpjit.Codegen.text in
        (name, Gpusim.Vm.superinsn_stats c.Gpusim.Jit.program))
      cases
  in
  (* The reduction path's plans: a standalone norm2 payload, the largest
     fused reduction group a short CG solve builds, and the fold kernel
     that solve launches. *)
  let red_stats =
    let stats_of k = Gpusim.Vm.superinsn_stats (Gpusim.Vm.compile k) in
    let payload =
      let expr = Expr.norm2_local (f p1) in
      Qdpjit.Codegen.build ~reduction:true ~kname:"vp_red_payload"
        ~dest_shape:{ (Expr.shape expr) with Shape.prec = Shape.F64 }
        ~expr ~nsites:(Geometry.volume geom) ~use_sitelist:false ()
    in
    let eng = Qdpjit.Engine.create ~vm_domains:1 () in
    let ops = Solvers.Ops.jit eng fm geom in
    let nop = Solvers.Ops.normal_op ops ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa:0.115 u) in
    ignore (Solvers.Cg.solve ops nop ~b:(mk fm 61L) ~x:(Field.create fm geom) ~max_iter:2 ());
    let kernels = List.map Ptx.Parse.kernel (Qdpjit.Engine.kernel_texts eng) in
    let named prefix (k : Ptx.Types.kernel) = String.starts_with ~prefix k.Ptx.Types.kname in
    (* A fused group with a spliced reduction payload binds the
       payload's block-partial parameter. *)
    let groups =
      List.filter
        (fun (k : Ptx.Types.kernel) ->
          named "qdpjit_fused_" k
          && List.exists
               (fun (p : Ptx.Types.param) ->
                 String.starts_with ~prefix:"blockpart" p.Ptx.Types.pname)
               k.Ptx.Types.params)
        kernels
      |> List.map stats_of
    in
    let group =
      List.fold_left
        (fun best (s : Gpusim.Vm.soa_stats) ->
          if s.Gpusim.Vm.total > best.Gpusim.Vm.total then s else best)
        (List.hd groups) groups
    in
    let fold = List.find (named "qdpjit_reduce8_f64") kernels in
    [
      ("red_payload", stats_of payload.Qdpjit.Codegen.kernel);
      ("red_group", group);
      ("reduce8", stats_of fold);
    ]
  in
  let dispatch_ratio (s : Gpusim.Vm.soa_stats) =
    if s.Gpusim.Vm.total = 0 then 1.0
    else
      float_of_int (s.Gpusim.Vm.units + (s.Gpusim.Vm.total - s.Gpusim.Vm.covered))
      /. float_of_int s.Gpusim.Vm.total
  in
  let _, base_k, (base_it, base_ck, _) = List.hd results in
  let kernels_identical =
    List.map
      (fun (name, _, ck0) ->
        ( name,
          List.for_all
            (fun (_, ks, _) ->
              List.exists (fun (n, _, ck) -> n = name && ck = ck0) ks)
            results ))
      base_k
  in
  let cg_identical =
    List.for_all (fun (_, _, (it, ck, _)) -> it = base_it && ck = base_ck) results
  in
  let scalar_identical =
    List.map
      (fun (name, _, ck0) ->
        ( name,
          List.exists (fun (n, _, ck) -> n = name && ck = ck0) scalar_k
          && List.exists (fun (n, _, ck) -> n = name && ck = ck0) soa_k ))
      base_k
  in
  let cg_scalar_identical = scalar_it = base_it && scalar_ck = base_ck in
  Printf.printf "  %s back-end, %d domain(s) available; workers swept: %s\n"
    Gpusim.Vm_backend.runtime avail
    (String.concat " " (List.map string_of_int workers));
  Printf.printf "  %-10s" "kernel";
  List.iter (fun w -> Printf.printf " %7s" (Printf.sprintf "w=%d ms" w)) workers;
  Printf.printf "  identical\n";
  List.iter
    (fun (name, _, _) ->
      Printf.printf "  %-10s" name;
      List.iter
        (fun (_, ks, _) ->
          let _, ms, _ = List.find (fun (n, _, _) -> n = name) ks in
          Printf.printf " %7.2f" ms)
        results;
      Printf.printf "  %b\n" (List.assoc name kernels_identical))
    base_k;
  Printf.printf "  %-10s" (Printf.sprintf "cg(%d it)" base_it);
  List.iter (fun (_, _, (_, _, wall)) -> Printf.printf " %7.0f" (wall *. 1e3)) results;
  Printf.printf "  %b\n" cg_identical;
  Printf.printf "\n  w=1 A/B: runtime (SoA executor) vs Reference engine (scalar interpreter)\n";
  Printf.printf "  %-11s %9s %9s %8s %7s %7s %10s %13s  identical\n" "kernel" "soa ms"
    "scalar ms" "speedup" "spans" "units" "disp.ratio" "rows/virtual";
  let rows (st : Gpusim.Vm.soa_stats) =
    Printf.sprintf "%d/%d" st.Gpusim.Vm.rows st.Gpusim.Vm.virtual_rows
  in
  List.iter
    (fun (name, _, _) ->
      let _, soa_ms, _ = List.find (fun (n, _, _) -> n = name) soa_k in
      let _, sc_ms, _ = List.find (fun (n, _, _) -> n = name) scalar_k in
      let st = List.assoc name soa_stats in
      Printf.printf "  %-11s %9.2f %9.2f %7.2fx %7d %7d %10.4f %13s  %b\n" name soa_ms sc_ms
        (sc_ms /. soa_ms) st.Gpusim.Vm.spans st.Gpusim.Vm.units (dispatch_ratio st) (rows st)
        (List.assoc name scalar_identical))
    base_k;
  List.iter
    (fun (name, st) ->
      Printf.printf "  %-11s %9s %9s %8s %7d %7d %10.4f %13s\n" name "-" "-" "-"
        st.Gpusim.Vm.spans st.Gpusim.Vm.units (dispatch_ratio st) (rows st))
    red_stats;
  Printf.printf "  %-10s %9.0f %9.0f %7.2fx %36b\n"
    (Printf.sprintf "cg(%d it)" base_it)
    (let _, _, (_, _, wall) = List.hd results in
     wall *. 1e3)
    (scalar_cg_wall *. 1e3)
    (let _, _, (_, _, wall) = List.hd results in
     scalar_cg_wall /. wall)
    cg_scalar_identical;
  if not (cg_identical && List.for_all snd kernels_identical) then
    failwith "vmperf: results not bit-identical across worker counts";
  if not (cg_scalar_identical && List.for_all snd scalar_identical) then
    failwith "vmperf: runtime results not bit-identical to the Reference engine";
  let oc = open_out "BENCH_vmperf.json" in
  let flist fmt xs = String.concat ", " (List.map (Printf.sprintf fmt) xs) in
  Printf.fprintf oc
    "{\n\
    \  \"runtime\": \"%s\", \"available_domains\": %d, \"degraded\": %b, \"geometry\": \"%s\",\n\
    \  \"workers\": [%s],\n\
    \  \"kernels\": [\n"
    Gpusim.Vm_backend.runtime avail degraded
    (String.concat "x" (Array.to_list (Array.map string_of_int (Geometry.dims geom))))
    (flist "%d" (List.map (fun (w, _, _) -> w) results));
  List.iteri
    (fun i (name, _, _) ->
      let walls =
        List.map
          (fun (_, ks, _) ->
            let _, ms, _ = List.find (fun (n, _, _) -> n = name) ks in
            ms)
          results
      in
      let _, scalar_ms, _ = List.find (fun (n, _, _) -> n = name) scalar_k in
      let _, soa_ms, _ = List.find (fun (n, _, _) -> n = name) soa_k in
      let st = List.assoc name soa_stats in
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"wall_ms\": [%s], \"bit_identical\": %b, \"soa_ms\": %.4f, \
         \"scalar_ms\": %.4f, \"scalar_bit_identical\": %b, \"superinsns\": %d, \
         \"fused_units\": %d, \"covered_instrs\": %d, \"decoded_instrs\": %d, \
         \"dispatch_ratio\": %.4f, \"rows\": %d, \"virtual_rows\": %d}%s\n"
        name (flist "%.4f" walls)
        (List.assoc name kernels_identical)
        soa_ms scalar_ms
        (List.assoc name scalar_identical)
        st.Gpusim.Vm.spans st.Gpusim.Vm.units st.Gpusim.Vm.covered st.Gpusim.Vm.total
        (dispatch_ratio st) st.Gpusim.Vm.rows st.Gpusim.Vm.virtual_rows
        (if i = List.length base_k - 1 then "" else ","))
    base_k;
  Printf.fprintf oc "  ],\n  \"plans\": [\n";
  List.iteri
    (fun i (name, st) ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"superinsns\": %d, \"fused_units\": %d, \
         \"covered_instrs\": %d, \"decoded_instrs\": %d, \"dispatch_ratio\": %.4f, \
         \"rows\": %d, \"virtual_rows\": %d}%s\n"
        name st.Gpusim.Vm.spans st.Gpusim.Vm.units st.Gpusim.Vm.covered st.Gpusim.Vm.total
        (dispatch_ratio st) st.Gpusim.Vm.rows st.Gpusim.Vm.virtual_rows
        (if i = List.length red_stats - 1 then "" else ","))
    red_stats;
  Printf.fprintf oc
    "  ],\n\
    \  \"cg\": {\"iterations\": %d, \"max_iter\": %d, \"wall_s\": [%s], \"bit_identical\": \
     %b, \"scalar_wall_s\": %.4f, \"scalar_bit_identical\": %b}\n\
     }\n"
    base_it max_iter
    (flist "%.4f" (List.map (fun (_, _, (_, _, w)) -> w) results))
    cg_identical scalar_cg_wall cg_scalar_identical;
  close_out oc;
  Printf.printf "  wrote BENCH_vmperf.json\n"

(* ------------------------------------------------------------------ *)
(* Multi-tenant serving: N Wilson CG tenants round-robin over one engine
   with a shared persistent JIT cache, against a dedicated engine per
   tenant.  The tenants' solutions must be bit-identical to their serial
   twins, the shared engine must start fully cache-warm (the serial
   baseline populated the dir) and compile nothing, and closing every
   session must release every field the tenants created. *)

let serve_bench () =
  section "Serving: Wilson CG tenants, one engine + shared JIT cache vs dedicated engines";
  let geom = Geometry.create [| 4; 4; 4; 2 |] in
  let shape = Shape.lattice_fermion Shape.F64 in
  let kappa = 0.115 in
  let nsessions = 8 in
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qdpjit-serve-cache-%d" (Unix.getpid ()))
  in
  let gauge_seed i = Int64.of_int (100 + i) and rhs_seed i = Int64.of_int (200 + i) in
  (* One tenant's workload against the given ops; [adopt] claims every
     field the tenant creates (the serving path points it at the
     session's arena, so teardown can account for all of them). *)
  let setup ops adopt i =
    let u = Lqcd.Gauge.create_links geom in
    Array.iter adopt u;
    Lqcd.Gauge.random_gauge ~epsilon:0.3 u (Prng.create ~seed:(gauge_seed i));
    let nop = Solvers.Ops.normal_op ops ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa u) in
    let b = ops.Solvers.Ops.fresh () in
    Field.fill_gaussian b (Prng.create ~seed:(rhs_seed i));
    (nop, b)
  in
  let solve ops (nop, b) =
    let x = ops.Solvers.Ops.fresh () in
    let r = Solvers.Cg.solve ops nop ~b ~x ~tol:1e-8 () in
    if not r.Solvers.Cg.converged then failwith "serve: CG diverged";
    (r.Solvers.Cg.iterations, field_checksum x)
  in
  (* Serial baseline: a dedicated engine per tenant, all sharing the
     cache dir — tenant 0 populates it, the rest start warm. *)
  let serial_tenant i =
    let eng = Qdpjit.Engine.create ~jit_cache:(Jitcache.create cache_dir) () in
    let ops = Solvers.Ops.jit eng shape geom in
    let t0 = Unix.gettimeofday () in
    let iters, ck = solve ops (setup ops (fun _ -> ()) i) in
    ignore (Qdpjit.Engine.synchronize eng);
    let wall = Unix.gettimeofday () -. t0 in
    let st = Gpusim.Device.stats (Qdpjit.Engine.device eng) in
    ( iters,
      ck,
      st.Gpusim.Device.launches,
      st.Gpusim.Device.kernel_ns /. 1e6,
      wall,
      Qdpjit.Engine.kernels_built eng )
  in
  let serial = Array.init nsessions serial_tenant in
  (* Served run: one engine, one session per tenant, two tasks each
     (setup, solve) drained under fair round-robin. *)
  let srv = Serve.create ~jit_cache:(Jitcache.create cache_dir) () in
  let results = Array.make nsessions (0, 0L) in
  let t0 = Unix.gettimeofday () in
  let sessions =
    Array.init nsessions (fun i ->
        let sess = Serve.open_session ~name:(Printf.sprintf "tenant%d" i) srv in
        let ops = Solvers.Ops.jit (Serve.engine srv) shape geom in
        let ops =
          { ops with Solvers.Ops.fresh = (fun () -> Serve.create_field sess shape geom) }
        in
        let work = ref None in
        Serve.submit ~label:"setup" sess (fun () ->
            work := Some (setup ops (Serve.adopt_field sess) i));
        Serve.submit ~label:"solve" sess (fun () -> results.(i) <- solve ops (Option.get !work));
        sess)
  in
  let tasks = Serve.run srv in
  let serve_wall = Unix.gettimeofday () -. t0 in
  let eng = Serve.engine srv in
  let warm_built = Qdpjit.Engine.kernels_built eng in
  let session_stats = Array.map Serve.stats sessions in
  Array.iter Serve.close_session sessions;
  let resident_after = Memcache.resident_count (Qdpjit.Engine.memcache eng) in
  (* Every tenant must match its dedicated-engine twin bit for bit. *)
  Array.iteri
    (fun i (iters, ck) ->
      let s_iters, s_ck, _, _, _, _ = serial.(i) in
      if iters <> s_iters then failwith (Printf.sprintf "serve: tenant%d iteration drift" i);
      if ck <> s_ck then failwith (Printf.sprintf "serve: tenant%d not bit-identical" i))
    results;
  let serial_sim = Array.fold_left (fun a (_, _, _, ms, _, _) -> a +. ms) 0.0 serial in
  let serial_launches = Array.fold_left (fun a (_, _, l, _, _, _) -> a + l) 0 serial in
  let serial_wall = Array.fold_left (fun a (_, _, _, _, w, _) -> a +. w) 0.0 serial in
  let serve_sim =
    Array.fold_left (fun a st -> a +. st.Serve.s_sim_ms) 0.0 session_stats
  in
  let serve_launches =
    Array.fold_left (fun a st -> a + st.Serve.s_launches) 0 session_stats
  in
  let queue_wait =
    Array.fold_left (fun a st -> a +. st.Serve.s_queue_wait_s) 0.0 session_stats
  in
  let sim_ratio = serve_sim /. serial_sim in
  let _, _, _, _, _, first_built = serial.(0) in
  Printf.printf "  %d tenants, %d tasks, solutions bit-identical to dedicated engines\n"
    nsessions tasks;
  Printf.printf "  %-10s %8s %10s %12s %10s %12s\n" "" "kernels" "launches" "sim ms" "wall s"
    "queue-wait s";
  Printf.printf "  %-10s %8d %10d %12.3f %10.2f %12s\n" "serial x8" first_built serial_launches
    serial_sim serial_wall "-";
  Printf.printf "  %-10s %8d %10d %12.3f %10.2f %12.3f\n" "served" warm_built serve_launches
    serve_sim serve_wall queue_wait;
  Printf.printf "  aggregate sim time ratio served/serial: %.3f (shared autotune + kernel pool)\n"
    sim_ratio;
  Printf.printf "  per session:\n";
  Array.iter
    (fun st ->
      Printf.printf
        "    %-10s tasks %d, launches %4d, sim %7.3f ms, queue-wait %.3f s, kernel bytes %d \
         (f16 %d / f32 %d / f64 %d)\n"
        st.Serve.s_name st.Serve.s_tasks st.Serve.s_launches st.Serve.s_sim_ms
        st.Serve.s_queue_wait_s st.Serve.s_kernel_bytes st.Serve.s_kernel_bytes_f16
        st.Serve.s_kernel_bytes_f32 st.Serve.s_kernel_bytes_f64)
    session_stats;
  let cache_json =
    match Qdpjit.Engine.jit_cache_stats eng with
    | None ->
        Printf.printf "  persistent JIT cache disabled (REPRO_JIT_CACHE=off)\n";
        "null"
    | Some cs ->
        if cs.Jitcache.hits = 0 then failwith "serve: shared engine hit nothing in the cache";
        if warm_built <> 0 then
          failwith
            (Printf.sprintf "serve: cache-warm shared engine compiled %d kernels (want 0)"
               warm_built);
        Printf.printf "  jit cache: %d hits, %d misses, %d stores, %d corrupt, %d evictions\n"
          cs.Jitcache.hits cs.Jitcache.misses cs.Jitcache.stores cs.Jitcache.corrupt
          cs.Jitcache.evictions;
        Printf.sprintf
          "{\"hits\": %d, \"misses\": %d, \"stores\": %d, \"corrupt\": %d, \"evictions\": %d}"
          cs.Jitcache.hits cs.Jitcache.misses cs.Jitcache.stores cs.Jitcache.corrupt
          cs.Jitcache.evictions
  in
  if resident_after <> 0 then
    failwith
      (Printf.sprintf "serve: %d fields still resident after closing every session"
         resident_after);
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"wilson_cg_%s_dp\", \"sessions\": %d, \"tasks\": %d,\n\
    \  \"bit_identical\": true,\n\
    \  \"serial\": {\"sim_ms_total\": %.6f, \"launches_total\": %d, \"wall_s_total\": %.3f, \
     \"kernels_built_first\": %d},\n\
    \  \"serve\": {\"sim_ms_total\": %.6f, \"launches_total\": %d, \"wall_s\": %.3f, \
     \"kernels_built\": %d, \"queue_wait_s_total\": %.4f, \"sim_ratio_vs_serial\": %.4f},\n\
    \  \"sessions_detail\": [\n"
    (String.concat "x" (Array.to_list (Array.map string_of_int (Geometry.dims geom))))
    nsessions tasks serial_sim serial_launches serial_wall first_built serve_sim serve_launches
    serve_wall warm_built queue_wait sim_ratio;
  Array.iteri
    (fun i st ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"tasks\": %d, \"launches\": %d, \"sim_ms\": %.6f, \
         \"queue_wait_s\": %.4f, \"run_s\": %.4f, \"kernel_bytes\": %d, \
         \"kernel_bytes_f16\": %d, \"kernel_bytes_f32\": %d, \"kernel_bytes_f64\": %d}%s\n"
        st.Serve.s_name st.Serve.s_tasks st.Serve.s_launches st.Serve.s_sim_ms
        st.Serve.s_queue_wait_s st.Serve.s_run_s st.Serve.s_kernel_bytes
        st.Serve.s_kernel_bytes_f16 st.Serve.s_kernel_bytes_f32 st.Serve.s_kernel_bytes_f64
        (if i = nsessions - 1 then "" else ","))
    session_stats;
  Printf.fprintf oc
    "  ],\n  \"jit_cache\": %s,\n  \"resident_after_close\": %d\n}\n"
    cache_json resident_after;
  close_out oc;
  Printf.printf "  wrote BENCH_serve.json\n"

(* ------------------------------------------------------------------ *)
(* Precision tiers: the same Wilson normal-operator solve at f64, f32
   and f16 storage.  Pure-f64 CG is the baseline; f32 runs QUDA-style
   defect-correction; f16 runs reliable-update CG.  Every scheme must
   reach the same f64 tolerance, be bit-identical across VM worker
   counts and the CPU reference, and the f16 scheme must move markedly
   less modeled global traffic than the f64 baseline. *)

let precision_bench () =
  section "Precision tiers: Wilson normal-op CG at f64 / f32 / f16 storage";
  let geom = Geometry.create [| 4; 4; 4; 2 |] in
  let shape64 = Shape.lattice_fermion Shape.F64 in
  let kappa = 0.115 and tol = 1e-10 in
  (* ±0 payloads differ harmlessly between Eval_cpu and the VM (the CPU
     path reaches +0.0 through its fma convention), so canonicalize
     zeros before hashing; everything else must match bit for bit. *)
  let canon_checksum fld =
    let h = ref 0xcbf29ce484222325L in
    for site = 0 to Field.volume fld - 1 do
      Array.iter
        (fun v ->
          let bits = if v = 0.0 then 0L else Int64.bits_of_float v in
          h := Int64.mul (Int64.logxor !h bits) 0x100000001b3L)
        (Field.get_site fld ~site)
    done;
    !h
  in
  (* One scheme on one backend: build the operator (plus its lowered-
     precision twin where the scheme needs one), call [mark] once setup
     is done so measured counters cover the solve alone, then solve. *)
  let run_scheme backend scheme ~mark =
    let ops shape =
      match backend with
      | `Cpu -> Solvers.Ops.cpu shape geom
      | `Jit eng -> Solvers.Ops.jit eng shape geom
    in
    let evalf d e =
      match backend with
      | `Cpu -> Qdp.Eval_cpu.eval d e
      | `Jit eng -> Qdpjit.Engine.eval eng d e
    in
    let u = Lqcd.Gauge.create_links geom in
    Lqcd.Gauge.random_gauge ~epsilon:0.3 u (Prng.create ~seed:71L);
    let ops64 = ops shape64 in
    let nop64 = Solvers.Ops.normal_op ops64 ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa u) in
    let lowered prec =
      let ul = Array.map (fun _ -> Field.create (Shape.lattice_color_matrix prec) geom) u in
      Array.iteri (fun mu d -> evalf d (Expr.field u.(mu))) ul;
      let opsl = ops (Shape.lattice_fermion prec) in
      (opsl, Solvers.Ops.normal_op opsl ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa ul))
    in
    let b = Field.create shape64 geom in
    Field.fill_gaussian b (Prng.create ~seed:72L);
    let x = Field.create shape64 geom in
    mark ();
    let iters, aux, residual, converged =
      match scheme with
      | `F64 ->
          let r = Solvers.Cg.solve ops64 nop64 ~b ~x ~tol () in
          (r.Solvers.Cg.iterations, 0, r.Solvers.Cg.residual, r.Solvers.Cg.converged)
      | `F32 ->
          let ops32, nop32 = lowered Shape.F32 in
          let r = Solvers.Mixed.solve ops64 nop64 ops32 nop32 ~b ~x ~tol () in
          ( r.Solvers.Mixed.inner_iterations,
            r.Solvers.Mixed.outer_iterations,
            r.Solvers.Mixed.residual,
            r.Solvers.Mixed.converged )
      | `F16 ->
          let ops16, nop16 = lowered Shape.F16 in
          let r = Solvers.Mixed.solve_reliable ops64 nop64 ops16 nop16 ~b ~x ~tol () in
          ( r.Solvers.Mixed.iterations,
            r.Solvers.Mixed.reliable_updates,
            r.Solvers.Mixed.residual,
            r.Solvers.Mixed.converged )
    in
    (match backend with
    | `Jit eng -> ignore (Qdpjit.Engine.synchronize eng)
    | `Cpu -> ());
    (iters, aux, residual, converged, canon_checksum x)
  in
  let schemes =
    [
      ("cg_f64", `F64, "f64 CG");
      ("dc_f32", `F32, "f32 defect-correction");
      ("ru_f16", `F16, "f16 reliable-update");
    ]
  in
  let measured =
    List.map
      (fun (name, scheme, desc) ->
        let eng = Qdpjit.Engine.create () in
        let st = Gpusim.Device.stats (Qdpjit.Engine.device eng) in
        let b0 = ref 0 and t0 = ref (0, 0, 0) and ns0 = ref 0.0 in
        let mark () =
          b0 := Qdpjit.Engine.kernel_bytes_moved eng;
          t0 := Qdpjit.Engine.kernel_bytes_by_prec eng;
          ns0 := st.Gpusim.Device.kernel_ns
        in
        let iters, aux, residual, converged, ck = run_scheme (`Jit eng) scheme ~mark in
        if not converged then failwith ("precision: " ^ name ^ " did not converge");
        if residual > tol then
          failwith
            (Printf.sprintf "precision: %s missed the f64 tolerance (%.2e > %.0e)" name residual
               tol);
        let bytes = Qdpjit.Engine.kernel_bytes_moved eng - !b0 in
        let f16a, f32a, f64a = Qdpjit.Engine.kernel_bytes_by_prec eng in
        let f16z, f32z, f64z = !t0 in
        let sim_ms = (st.Gpusim.Device.kernel_ns -. !ns0) /. 1e6 in
        (* The identical solve at 1 worker, 4 workers and on the CPU
           reference must be bit-identical to the measured run. *)
        List.iter
          (fun backend ->
            let _, _, _, c2, ck2 = run_scheme backend scheme ~mark:(fun () -> ()) in
            if not c2 then failwith ("precision: " ^ name ^ " diverged on a replay backend");
            if ck2 <> ck then
              failwith ("precision: " ^ name ^ " not bit-identical across backends"))
          [
            `Jit (Qdpjit.Engine.create ~vm_domains:1 ());
            `Jit (Qdpjit.Engine.create ~vm_domains:4 ());
            `Cpu;
          ];
        (name, desc, iters, aux, residual, bytes, (f16a - f16z, f32a - f32z, f64a - f64z), sim_ms))
      schemes
  in
  let bytes_of n =
    let _, _, _, _, _, b, _, _ = List.find (fun (m, _, _, _, _, _, _, _) -> m = n) measured in
    b
  in
  let ratio = float_of_int (bytes_of "cg_f64") /. float_of_int (bytes_of "ru_f16") in
  Printf.printf "  all schemes reach tol %.0e; solutions bit-identical across vm1/vm4/cpu\n" tol;
  Printf.printf "  %-22s %6s %6s %10s %14s %32s %9s\n" "" "iters" "aux" "residual" "kernel bytes"
    "f16 / f32 / f64 bytes" "sim ms";
  List.iter
    (fun (_, desc, iters, aux, residual, bytes, (bf16, bf32, bf64), sim_ms) ->
      Printf.printf "  %-22s %6d %6d %10.1e %14d %12d/%9d/%9d %9.3f\n" desc iters aux residual
        bytes bf16 bf32 bf64 sim_ms)
    measured;
  Printf.printf "  traffic: f16 reliable-update moves %.2fx less than pure f64 CG\n" ratio;
  if ratio < 1.8 then
    failwith (Printf.sprintf "precision: f16 scheme saved only %.2fx traffic (need >= 1.8x)" ratio);
  (* Production-scale projection through the performance model: only the
     solver's byte constants change with storage precision (iteration
     counts are measured, not modeled). *)
  let w = Perfmodel.Workload.production () in
  let proj prec =
    Perfmodel.Scaling.trajectory_time ~machine:Perfmodel.Nodes.blue_waters_xk
      ~config:Perfmodel.Scaling.Qdpjit_quda
      (Perfmodel.Workload.at_solver_precision prec w)
      ~nodes:128
  in
  Printf.printf
    "  production model (BW, 128 nodes): solver storage f64 %.0f s/traj, f32 %.0f, f16 %.0f\n"
    (proj Shape.F64) (proj Shape.F32) (proj Shape.F16);
  let oc = open_out "BENCH_precision.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workload\": \"wilson_normal_cg_%s\", \"tol\": %.1e,\n\
    \  \"bit_identical\": true,\n\
    \  \"bytes_ratio_f64_over_f16\": %.4f,\n\
    \  \"model_trajectory_s\": {\"f64\": %.3f, \"f32\": %.3f, \"f16\": %.3f},\n\
    \  \"schemes\": [\n"
    (String.concat "x" (Array.to_list (Array.map string_of_int (Geometry.dims geom))))
    tol ratio (proj Shape.F64) (proj Shape.F32) (proj Shape.F16);
  List.iteri
    (fun i (name, _, iters, aux, residual, bytes, (bf16, bf32, bf64), sim_ms) ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"iterations\": %d, \"aux_iterations\": %d, \"converged\": true, \
         \"residual\": %.6e, \"kernel_bytes\": %d, \"bytes_f16\": %d, \"bytes_f32\": %d, \
         \"bytes_f64\": %d, \"sim_ms\": %.6f}%s\n"
        name iters aux residual bytes bf16 bf32 bf64 sim_ms
        (if i = List.length measured - 1 then "" else ","))
    measured;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "  wrote BENCH_precision.json\n"

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig4", fun () -> bandwidth_sweep Shape.F32);
    ("fig5", fun () -> bandwidth_sweep Shape.F64);
    ("fig6", fig6);
    ("streams", streams_bench);
    ("quda", quda_compare);
    ("fig7", fig7);
    ("fig8", fig8);
    ("jit", jit_overhead);
    ("jitopt", jitopt);
    ("autotune", autotune);
    ("ablation", ablation);
    ("fusion", fusion_bench);
    ("fusion-eo", fusion_eo_bench);
    ("vmperf", vmperf);
    ("serve", serve_bench);
    ("precision", precision_bench);
    ("micro", micro);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* [fusion --eo] is sugar for the fusion-eo section. *)
  let names =
    if List.mem "--eo" args then
      List.map (fun a -> if a = "fusion" then "fusion-eo" else a) args
      |> List.filter (fun a -> a <> "--eo")
    else args
  in
  let unknown = List.filter (fun n -> not (List.mem_assoc n sections)) names in
  if unknown <> [] then begin
    Printf.printf "unknown section(s): %s; available: %s\n" (String.concat " " unknown)
      (String.concat " " (List.map fst sections));
    exit 1
  end;
  let to_run =
    match names with
    | [] -> List.filter (fun (n, _) -> n <> "fusion-eo") sections
    | names -> List.filter (fun (n, _) -> List.mem n names) sections
  in
  List.iter (fun (_, f) -> f ()) to_run;
  Printf.printf "\nAll requested benchmark sections completed.\n"

