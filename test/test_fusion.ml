(* Cross-eval kernel fusion: the deferred launch queue + PTX body
   splicing must be invisible to results.  Every test runs the same eval
   sequence through a fused engine, a [~fuse:false] engine and the CPU
   reference, and demands bit-identical field contents — while the stats
   confirm the fused engine really launched fewer kernels and moved
   fewer bytes. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr
module Engine = Qdpjit.Engine

let geom = Geometry.create [| 4; 4; 2; 2 |]
let fm = Shape.lattice_fermion Shape.F64

(* The CPU reference accumulates products through [c_fma] starting from
   +0.0, which turns a -0.0 product into +0.0; the VM multiplies
   directly and keeps the sign.  Both are correct real arithmetic, so
   comparisons against the CPU canonicalize signed zeros.  Fused vs
   unfused stays strictly bit-exact: fusion must change nothing. *)
let bits ~canon_zero v =
  if canon_zero && v = 0.0 then 0L else Int64.bits_of_float v

let fields_equal ?(canon_zero = false) a b =
  let ok = ref true in
  for site = 0 to Field.volume a - 1 do
    let sa = Field.get_site a ~site and sb = Field.get_site b ~site in
    Array.iteri
      (fun i va -> if bits ~canon_zero va <> bits ~canon_zero sb.(i) then ok := false)
      sa
  done;
  !ok

let fields_bit_equal ?(canon_zero = false) name a b =
  Alcotest.(check bool) name true (fields_equal ~canon_zero a b)

(* A tiny straight-line program over a pool of fields, interpretable by
   any backend.  Indices are pool slots. *)
type op =
  | Scale of int * float * int  (* dest = c * src *)
  | Axpy of int * float * int * int  (* dest = c * a + b *)
  | Sub of int * int * int  (* dest = a - b *)
  | Shift of int * int * int * int  (* dest = shift(src, dim, dir) *)

let op_expr pool = function
  | Scale (_, c, s) -> Expr.mul (Expr.const_real c) (Expr.field pool.(s))
  | Axpy (_, c, a, b) ->
      Expr.add (Expr.mul (Expr.const_real c) (Expr.field pool.(a))) (Expr.field pool.(b))
  | Sub (_, a, b) -> Expr.sub (Expr.field pool.(a)) (Expr.field pool.(b))
  | Shift (_, s, dim, dir) -> Expr.shift (Expr.field pool.(s)) ~dim ~dir

let op_dest = function Scale (d, _, _) | Axpy (d, _, _, _) | Sub (d, _, _) | Shift (d, _, _, _) -> d

(* [fill_gaussian] keys its draws by site, so two fields filled from the
   same seed would be identical; offset the key per pool slot so every
   field carries distinct content. *)
let fresh_pool seed n =
  let rng = Prng.create ~seed in
  Array.init n (fun i ->
      let f = Field.create fm geom in
      Field.fill_gaussian ~site_key:(fun site -> site + (i * 1_000_003)) f rng;
      f)

(* Shared engines: kernel and fused-kernel caches warm up across cases,
   like a long-running Chroma process.  [fused_eng] has reduction fusion
   on (the default); [fused_nored_eng] runs the identical reduction
   kernels but launches every payload standalone. *)
let fused_eng = Engine.create ~fuse:true ()
let fused_nored_eng = Engine.create ~fuse:true ~fuse_reductions:false ()
let unfused_eng = Engine.create ~fuse:false ()

let run_jit ~fuse seed prog =
  let eng = if fuse then fused_eng else unfused_eng in
  let pool = fresh_pool seed 4 in
  List.iter (fun op -> Engine.eval eng pool.(op_dest op) (op_expr pool op)) prog;
  Engine.flush eng;
  (eng, pool)

let run_cpu seed prog =
  let pool = fresh_pool seed 4 in
  List.iter (fun op -> Qdp.Eval_cpu.eval pool.(op_dest op) (op_expr pool op)) prog;
  pool

let check_program ?(name = "program") ?(seed = 91L) prog =
  let ef, pf = run_jit ~fuse:true seed prog in
  let eu, pu = run_jit ~fuse:false seed prog in
  let pc = run_cpu seed prog in
  Array.iteri
    (fun i f ->
      fields_bit_equal (Printf.sprintf "%s: pool.%d fused = unfused" name i) f pu.(i);
      fields_bit_equal ~canon_zero:true (Printf.sprintf "%s: pool.%d fused = cpu" name i) f
        pc.(i))
    pf;
  (ef, eu)

(* ------------------------------------------------------------------ *)
(* Deterministic hazard regressions *)

let launches eng = (Gpusim.Device.stats (Engine.device eng)).Gpusim.Device.launches

let test_zero_times_negative () =
  (* p2 = p0 - p0 is exactly zero; -0.5 * (+0) is -0 on the VM but +0
     through the CPU's fma-accumulated multiply.  The fused and unfused
     engines must still agree bit-for-bit, signed zeros included. *)
  ignore
    (check_program ~name:"signed zero" [ Sub (2, 0, 0); Scale (3, -0.5, 2); Shift (1, 3, 3, 1) ])

let test_chain_fuses () =
  (* Producer -> consumer -> consumer at the same site: one fused launch,
     loads of the intermediates replaced by register moves.  The engines
     are shared, so all stats are deltas. *)
  let s0 = Engine.fusion_stats fused_eng in
  let lf0 = launches fused_eng and lu0 = launches unfused_eng in
  let prog = [ Scale (1, 2.0, 0); Axpy (2, -0.5, 1, 0); Sub (3, 2, 1) ] in
  let ef, eu = check_program ~name:"chain" prog in
  let sf = Engine.fusion_stats ef in
  Alcotest.(check bool) "a group fused" true (sf.Engine.fused_groups > s0.Engine.fused_groups);
  Alcotest.(check bool) "launches saved" true (sf.Engine.launches_saved > s0.Engine.launches_saved);
  Alcotest.(check bool) "loads eliminated" true
    (sf.Engine.eliminated_load_bytes > s0.Engine.eliminated_load_bytes);
  let lf = launches ef - lf0 and lu = launches eu - lu0 in
  Alcotest.(check bool) "fewer launches than eval-at-a-time" true (lf < lu)

let test_dead_intermediate_store_dropped () =
  (* pool.1 is overwritten later in the same flush and its only reader is
     fused: its first store is dead and must be dropped — without
     changing any result. *)
  let s0 = Engine.fusion_stats fused_eng in
  let prog = [ Scale (1, 2.0, 0); Axpy (2, 1.0, 1, 0); Scale (1, 3.0, 0) ] in
  let ef, _ = check_program ~name:"dead store" prog in
  let sf = Engine.fusion_stats ef in
  Alcotest.(check bool) "stores eliminated" true
    (sf.Engine.eliminated_store_bytes > s0.Engine.eliminated_store_bytes)

let test_waw_order () =
  (* Two writes to the same field in one flush: the later one wins. *)
  ignore (check_program ~name:"waw" [ Scale (1, 2.0, 0); Scale (1, 3.0, 0) ])

let test_war_shifted () =
  (* pool.2 reads a *shifted* pool.1, then pool.1 is overwritten.  The
     shifted read crosses thread lanes, so the overwrite must not be
     hoisted into the same kernel: pool.2 sees the old pool.1. *)
  ignore (check_program ~name:"war-shift" [ Shift (2, 1, 0, 1); Scale (1, 5.0, 0) ])

let test_raw_shifted () =
  (* pool.1 is produced, then read through a shift.  Cross-lane RAW: the
     consumer must observe the completed producer, i.e. a group break. *)
  ignore (check_program ~name:"raw-shift" [ Scale (1, 2.0, 0); Shift (2, 1, 0, -1) ])

let test_in_place_update () =
  (* Aliased dest (x = x + y) inside a fused window. *)
  ignore
    (check_program ~name:"in-place" [ Axpy (1, 1.0, 1, 0); Axpy (1, 2.0, 1, 0); Sub (2, 1, 0) ])

let test_in_place_shift_store_kept () =
  (* p0 = shift(p0) reads its own destination across lanes: later sites
     observe earlier in-place stores at the wrap-around.  Its store must
     survive dead-store analysis even when the only downstream reader is
     register-substituted in-group and p0 is rewritten later in the same
     flush (distilled from a QCheck counterexample). *)
  ignore
    (check_program ~name:"in-place shift"
       [ Axpy (3, 2.0, 3, 1); Shift (0, 0, 0, -1); Axpy (1, 3.0, 3, 0); Axpy (0, -1.0, 2, 1) ])

let test_f32_chain () =
  (* F32 producers keep their stores (registers hold unrounded doubles);
     the fused kernel must still be bit-exact against both references. *)
  let pool_f32 seed =
    let rng = Prng.create ~seed in
    Array.init 3 (fun i ->
        let f = Field.create (Shape.lattice_fermion Shape.F32) geom in
        Field.fill_gaussian ~site_key:(fun site -> site + (i * 1_000_003)) f rng;
        f)
  in
  let prog pool eval =
    eval pool.(1) (Expr.mul (Expr.const_real 1.5) (Expr.field pool.(0)));
    eval pool.(2) (Expr.add (Expr.field pool.(1)) (Expr.field pool.(0)))
  in
  let ef = fused_eng and eu = unfused_eng in
  let pf = pool_f32 7L and pu = pool_f32 7L and pc = pool_f32 7L in
  prog pf (Engine.eval ?subset:None ?stream:None ef);
  Engine.flush ef;
  prog pu (Engine.eval ?subset:None ?stream:None eu);
  prog pc (fun d e -> Qdp.Eval_cpu.eval d e);
  Array.iteri (fun i f -> fields_bit_equal (Printf.sprintf "f32 pool.%d vs unfused" i) f pu.(i)) pf;
  Array.iteri
    (fun i f -> fields_bit_equal ~canon_zero:true (Printf.sprintf "f32 pool.%d vs cpu" i) f pc.(i))
    pf

(* ------------------------------------------------------------------ *)
(* Reduction fusion: a trailing norm2/inner payload splices into the
   pending group; values stay bit-identical across every configuration
   because all of them run the same balanced radix-8 tree. *)

let beq a b = Int64.bits_of_float a = Int64.bits_of_float b
let ceq a b = bits ~canon_zero:true a = bits ~canon_zero:true b

let test_reduction_fuses () =
  let run eng =
    let l0 = launches eng in
    let pool = fresh_pool 17L 2 in
    Engine.eval eng pool.(1) (op_expr pool (Axpy (1, 2.0, 0, 1)));
    let n = Engine.norm2 eng (Expr.field pool.(1)) in
    (n, launches eng - l0)
  in
  let nr, lr = run fused_eng in
  let nn, ln = run fused_nored_eng in
  let nu, lu = run unfused_eng in
  Alcotest.(check bool) "norm2 bits: fused-reduction = fused" true (beq nr nn);
  Alcotest.(check bool) "norm2 bits: fused-reduction = unfused" true (beq nr nu);
  let pc = fresh_pool 17L 2 in
  Qdp.Eval_cpu.eval pc.(1) (op_expr pc (Axpy (1, 2.0, 0, 1)));
  let nc = Qdp.Eval_cpu.norm2 (Expr.field pc.(1)) in
  Alcotest.(check bool) "norm2 bits: engine = cpu" true (ceq nr nc);
  (* The spliced payload saves exactly the standalone payload launch. *)
  Alcotest.(check bool) "reduction fusion saves a launch" true (lr < ln);
  Alcotest.(check bool) "no extra launches vs eval-at-a-time" true (ln <= lu)

let test_subset_reduction () =
  (* An even-subset eval followed by an even-subset norm2: payload and
     eval share a (subset, geometry) run, so they fuse; the partials use
     compact work-item addressing, so the odd half never contaminates
     the sum. *)
  let run eng =
    let pool = fresh_pool 19L 2 in
    Engine.eval ~subset:Qdp.Subset.Even eng pool.(1) (op_expr pool (Scale (1, 2.0, 0)));
    Engine.norm2 ~subset:Qdp.Subset.Even eng (Expr.field pool.(1))
  in
  let nr = run fused_eng and nn = run fused_nored_eng and nu = run unfused_eng in
  Alcotest.(check bool) "even norm2 bits: engines agree" true (beq nr nn && beq nr nu);
  let pc = fresh_pool 19L 2 in
  Qdp.Eval_cpu.eval ~subset:Qdp.Subset.Even pc.(1) (op_expr pc (Scale (1, 2.0, 0)));
  let nc = Qdp.Eval_cpu.norm2 ~subset:Qdp.Subset.Even (Expr.field pc.(1)) in
  Alcotest.(check bool) "even norm2 bits: engine = cpu" true (ceq nr nc)

(* ------------------------------------------------------------------ *)
(* Cross-subset grouping: interleaved checkerboard evals fuse within
   their own (subset, geometry) runs and never across them. *)

let eo_prog eval (pool : Field.t array) =
  (* A cross-lane (shifted) RAW on p1: the odd eval reads even sites of
     p1 written one eval earlier, and p1's even half is then overwritten
     (WAR with the shifted read).  Runs are consecutive partitions, so
     the two even evals must not merge across the odd one. *)
  let module S = Qdp.Subset in
  eval ~subset:S.Even pool.(1) (Expr.mul (Expr.const_real 2.0) (Expr.field pool.(0)));
  eval ~subset:S.Odd pool.(2) (Expr.shift (Expr.field pool.(1)) ~dim:0 ~dir:1);
  eval ~subset:S.Even pool.(1) (Expr.mul (Expr.const_real 3.0) (Expr.field pool.(0)));
  eval ~subset:S.Odd pool.(0) (Expr.sub (Expr.field pool.(1)) (Expr.field pool.(2)));
  eval ~subset:S.Even pool.(2) (Expr.add (Expr.field pool.(1)) (Expr.field pool.(0)))

let test_eo_interleave_hazard () =
  let run_eng eng =
    let pool = fresh_pool 23L 3 in
    eo_prog (fun ~subset d e -> Engine.eval ~subset eng d e) pool;
    Engine.flush eng;
    pool
  in
  let pf = run_eng fused_eng and pu = run_eng unfused_eng in
  let pc = fresh_pool 23L 3 in
  eo_prog (fun ~subset d e -> Qdp.Eval_cpu.eval ~subset d e) pc;
  Array.iteri
    (fun i f ->
      fields_bit_equal (Printf.sprintf "eo-hazard: pool.%d fused = unfused" i) f pu.(i);
      fields_bit_equal ~canon_zero:true (Printf.sprintf "eo-hazard: pool.%d fused = cpu" i) f
        pc.(i))
    pf

let test_eo_runs_fuse () =
  (* Two even evals then two odd evals in one flush: each checkerboard
     run forms its own fused group. *)
  let module S = Qdp.Subset in
  let prog eval (pool : Field.t array) =
    eval ~subset:S.Even pool.(1) (Expr.mul (Expr.const_real 2.0) (Expr.field pool.(0)));
    eval ~subset:S.Even pool.(2) (Expr.sub (Expr.field pool.(1)) (Expr.field pool.(0)));
    eval ~subset:S.Odd pool.(1) (Expr.mul (Expr.const_real 3.0) (Expr.field pool.(0)));
    eval ~subset:S.Odd pool.(3) (Expr.add (Expr.field pool.(1)) (Expr.field pool.(0)))
  in
  let s0 = Engine.fusion_stats fused_eng in
  let pf = fresh_pool 29L 4 in
  prog (fun ~subset d e -> Engine.eval ~subset fused_eng d e) pf;
  Engine.flush fused_eng;
  let sf = Engine.fusion_stats fused_eng in
  Alcotest.(check int) "both checkerboard runs fused" 2
    (sf.Engine.fused_groups - s0.Engine.fused_groups);
  let pu = fresh_pool 29L 4 in
  prog (fun ~subset d e -> Engine.eval ~subset unfused_eng d e) pu;
  let pc = fresh_pool 29L 4 in
  prog (fun ~subset d e -> Qdp.Eval_cpu.eval ~subset d e) pc;
  Array.iteri
    (fun i f ->
      fields_bit_equal (Printf.sprintf "eo-runs: pool.%d fused = unfused" i) f pu.(i);
      fields_bit_equal ~canon_zero:true (Printf.sprintf "eo-runs: pool.%d fused = cpu" i) f pc.(i))
    pf

(* ------------------------------------------------------------------ *)
(* QCheck: random eval chains *)

let gen_op =
  QCheck.Gen.(
    let idx = int_range 0 3 in
    let coeff = oneofl [ 2.0; -0.5; 1.25; 3.0; -1.0 ] in
    oneof
      [
        map3 (fun d c s -> Scale (d, c, s)) idx coeff idx;
        (fun st -> Axpy (idx st, coeff st, idx st, idx st));
        map3 (fun d a b -> Sub (d, a, b)) idx idx idx;
        (fun st ->
          Shift (idx st, idx st, int_range 0 3 st, if bool st then 1 else -1));
      ])

let show_op = function
  | Scale (d, c, s) -> Printf.sprintf "p%d = %g * p%d" d c s
  | Axpy (d, c, a, b) -> Printf.sprintf "p%d = %g * p%d + p%d" d c a b
  | Sub (d, a, b) -> Printf.sprintf "p%d = p%d - p%d" d a b
  | Shift (d, s, dim, dir) -> Printf.sprintf "p%d = shift(p%d, dim %d, dir %+d)" d s dim dir

let arb_prog =
  QCheck.make
    ~print:(fun p -> String.concat "; " (List.map show_op p))
    QCheck.Gen.(list_size (int_range 2 8) gen_op)

let qcheck_random_chains =
  QCheck.Test.make ~count:30 ~name:"random eval chains: fused = unfused = cpu (bit)" arb_prog
    (fun prog ->
      let ef, pf = run_jit ~fuse:true 5L prog in
      let _, pu = run_jit ~fuse:false 5L prog in
      let pc = run_cpu 5L prog in
      ignore (Engine.fusion_stats ef);
      Array.for_all2 fields_equal pf pu && Array.for_all2 (fields_equal ~canon_zero:true) pf pc)

let qcheck_reduction_chains =
  (* A random chain *ending in a reduction*: the norm2/inner payload is
     eligible for splicing into whatever group the chain left pending.
     Values must agree bitwise across fused-reduction / fused / unfused
     engines, and (modulo signed zeros in the per-site values) with the
     CPU reference's shared radix-8 tree. *)
  QCheck.Test.make ~count:25 ~name:"random chains ending in norm2/inner: all configs bit-equal"
    arb_prog (fun prog ->
      let reduce_exprs pool =
        ( Expr.sub (Expr.field pool.(0)) (Expr.field pool.(1)),
          Expr.field pool.(2),
          Expr.field pool.(3) )
      in
      let run eng =
        let pool = fresh_pool 11L 4 in
        List.iter (fun op -> Engine.eval eng pool.(op_dest op) (op_expr pool op)) prog;
        let en, ea, eb = reduce_exprs pool in
        let n = Engine.norm2 eng en in
        let re, im = Engine.inner eng ea eb in
        (n, re, im)
      in
      let nr, rr, ir = run fused_eng in
      let nn, rn, im_n = run fused_nored_eng in
      let nu, ru, iu = run unfused_eng in
      let pc = fresh_pool 11L 4 in
      List.iter (fun op -> Qdp.Eval_cpu.eval pc.(op_dest op) (op_expr pc op)) prog;
      let cn, ca, cb = reduce_exprs pc in
      let nc = Qdp.Eval_cpu.norm2 cn in
      let rc, ic = Qdp.Eval_cpu.inner ca cb in
      beq nr nn && beq nr nu && beq rr rn && beq rr ru && beq ir im_n && beq ir iu && ceq nr nc
      && ceq rr rc && ceq ir ic)

(* ------------------------------------------------------------------ *)
(* Groups of one: an eval launched alone takes the group launch path *)

let no_fusion_counted (s : Engine.fusion_stats) =
  s.Engine.fused_groups = 0 && s.Engine.launches_saved = 0 && s.Engine.fallbacks = 0

(* A [~fuse:false] engine launches each eval as the splice of one member.
   That kernel must move exactly the global bytes of the code generator's
   own kernel for the expression, and the splice may only shrink it: a
   destination that is also a leaf binds one pointer parameter instead of
   two aliased ones, so its kernel is strictly shorter. *)
let qcheck_group_of_one_oracle =
  QCheck.Test.make ~count:40 ~name:"group of one: codegen bytes, no more instructions"
    (QCheck.make ~print:show_op gen_op) (fun op ->
      let eng = Engine.create ~fuse:false () in
      let pool = fresh_pool 3L 4 in
      let dest = pool.(op_dest op) and expr = op_expr pool op in
      Engine.eval eng dest expr;
      let launched =
        match Engine.kernel_texts eng with
        | [ text ] -> Ptx.Parse.kernel text
        | l -> QCheck.Test.fail_reportf "expected one kernel, got %d" (List.length l)
      in
      let direct =
        (Qdpjit.Codegen.build ~optimize:true ~kname:"oracle" ~dest_shape:fm ~expr
           ~nsites:(Geometry.volume geom) ~use_sitelist:false ())
          .Qdpjit.Codegen.kernel
      in
      let a = Ptx.Analysis.kernel launched and b = Ptx.Analysis.kernel direct in
      let len k = List.length k.Ptx.Types.body in
      let dest_is_leaf =
        List.exists (fun (f : Field.t) -> f.Field.id = dest.Field.id) (Expr.leaves expr)
      in
      a.Ptx.Analysis.load_bytes = b.Ptx.Analysis.load_bytes
      && a.Ptx.Analysis.store_bytes = b.Ptx.Analysis.store_bytes
      && (if dest_is_leaf then len launched < len direct else len launched <= len direct)
      && no_fusion_counted (Engine.fusion_stats eng))

(* Evals launched alone — every eval of a [~fuse:false] engine, and
   explicit-stream evals on a fusing engine — count no fused group, no
   saved launch and no fallback, and agree bit for bit with the fused
   engine. *)
let qcheck_groups_of_one_uncounted =
  QCheck.Test.make ~count:10 ~name:"groups of one: no fusion counters, fused results (bit)"
    arb_prog (fun prog ->
      let _, pf = run_jit ~fuse:true 13L prog in
      let run eng eval =
        let pool = fresh_pool 13L 4 in
        List.iter (fun op -> eval eng pool.(op_dest op) (op_expr pool op)) prog;
        ignore (Engine.synchronize eng);
        pool
      in
      let unfused = Engine.create ~fuse:false () in
      let pu = run unfused (fun eng -> Engine.eval eng) in
      let streamed = Engine.create () in
      let s = Streams.create_stream (Engine.streams streamed) in
      let ps = run streamed (fun eng -> Engine.eval ~stream:s eng) in
      no_fusion_counted (Engine.fusion_stats unfused)
      && no_fusion_counted (Engine.fusion_stats streamed)
      && Array.for_all2 fields_equal pf pu
      && Array.for_all2 fields_equal pf ps)

(* ------------------------------------------------------------------ *)
(* Solvers: fusion must not change a single iteration *)

let solver_geom = Geometry.create [| 4; 4; 4; 2 |]
let shape = Shape.lattice_fermion Shape.F64
let kappa = 0.115

let solver_setup fuse =
  let eng = if fuse then fused_eng else unfused_eng in
  let ops = Solvers.Ops.jit eng shape solver_geom in
  let u = Lqcd.Gauge.create_links solver_geom in
  Lqcd.Gauge.random_gauge ~epsilon:0.3 u (Prng.create ~seed:21L);
  let b = Field.create shape solver_geom in
  Field.fill_gaussian b (Prng.create ~seed:22L);
  let x = Field.create shape solver_geom in
  (eng, ops, u, b, x)

let test_cg_identical () =
  let s0 = Engine.fusion_stats fused_eng in
  let solve fuse =
    let eng, ops, u, b, x = solver_setup fuse in
    let nop = Solvers.Ops.normal_op ops ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa u) in
    let r = Solvers.Cg.solve ops nop ~b ~x ~tol:1e-8 () in
    (eng, r, x)
  in
  let ef, rf, xf = solve true and _, ru, xu = solve false in
  Alcotest.(check bool) "converged" true rf.Solvers.Cg.converged;
  Alcotest.(check int) "iterations" ru.Solvers.Cg.iterations rf.Solvers.Cg.iterations;
  Alcotest.(check bool) "residual bits" true
    (Int64.bits_of_float rf.Solvers.Cg.residual = Int64.bits_of_float ru.Solvers.Cg.residual);
  fields_bit_equal "solution" xf xu;
  let sf = Engine.fusion_stats ef in
  Alcotest.(check bool) "cg fused groups" true (sf.Engine.fused_groups > s0.Engine.fused_groups);
  Alcotest.(check bool) "cg launches saved" true
    (sf.Engine.launches_saved > s0.Engine.launches_saved)

let test_bicgstab_identical () =
  let solve fuse =
    let eng, ops, u, b, x = solver_setup fuse in
    let mop =
      {
        Solvers.Ops.apply = (fun dest src -> Engine.eval eng dest (Lqcd.Wilson.wilson_expr ~kappa u src));
        tag = "M";
      }
    in
    let r = Solvers.Bicgstab.solve ops mop ~b ~x ~tol:1e-8 () in
    (r, x)
  in
  let rf, xf = solve true and ru, xu = solve false in
  Alcotest.(check bool) "converged" true rf.Solvers.Bicgstab.converged;
  Alcotest.(check int) "iterations" ru.Solvers.Bicgstab.iterations rf.Solvers.Bicgstab.iterations;
  fields_bit_equal "solution" xf xu

let test_eo_wilson_identical () =
  let solve fuse =
    let eng, ops, u, b, x = solver_setup fuse in
    ignore eng;
    let r = Solvers.Eo_wilson.solve ops ~kappa u ~b ~x ~tol:1e-8 () in
    (r, x)
  in
  let rf, xf = solve true and ru, xu = solve false in
  Alcotest.(check bool) "converged" true rf.Solvers.Eo_wilson.converged;
  Alcotest.(check int) "iterations" ru.Solvers.Eo_wilson.iterations rf.Solvers.Eo_wilson.iterations;
  fields_bit_equal "solution" xf xu

let () =
  Alcotest.run "fusion"
    [
      ( "hazards",
        [
          Alcotest.test_case "signed zero" `Quick test_zero_times_negative;
          Alcotest.test_case "chain fuses" `Quick test_chain_fuses;
          Alcotest.test_case "dead store dropped" `Quick test_dead_intermediate_store_dropped;
          Alcotest.test_case "waw order" `Quick test_waw_order;
          Alcotest.test_case "war shifted" `Quick test_war_shifted;
          Alcotest.test_case "raw shifted" `Quick test_raw_shifted;
          Alcotest.test_case "in-place update" `Quick test_in_place_update;
          Alcotest.test_case "in-place shift" `Quick test_in_place_shift_store_kept;
          Alcotest.test_case "f32 chain" `Quick test_f32_chain;
        ] );
      ( "reductions",
        [
          Alcotest.test_case "reduction fuses" `Quick test_reduction_fuses;
          Alcotest.test_case "subset reduction" `Quick test_subset_reduction;
        ] );
      ( "even-odd",
        [
          Alcotest.test_case "interleave hazard" `Quick test_eo_interleave_hazard;
          Alcotest.test_case "checkerboard runs fuse" `Quick test_eo_runs_fuse;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_random_chains;
          QCheck_alcotest.to_alcotest qcheck_reduction_chains;
          QCheck_alcotest.to_alcotest qcheck_group_of_one_oracle;
          QCheck_alcotest.to_alcotest qcheck_groups_of_one_uncounted;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "cg identical" `Quick test_cg_identical;
          Alcotest.test_case "bicgstab identical" `Quick test_bicgstab_identical;
          Alcotest.test_case "even-odd identical" `Quick test_eo_wilson_identical;
        ] );
    ]
