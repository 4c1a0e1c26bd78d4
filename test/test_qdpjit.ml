(* The central suite: the whole QDP-JIT pipeline (codegen -> PTX text ->
   parse -> validate -> register allocation -> VM -> memory cache ->
   auto-tuner) must produce results identical to the CPU reference
   evaluator, for every operation the interface supports. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr
module Subset = Qdp.Subset
module Engine = Qdpjit.Engine

let geom = Geometry.create [| 4; 4; 4; 2 |]
let rng = Prng.create ~seed:1234L

let fresh shape =
  let f = Field.create shape geom in
  Field.fill_gaussian f rng;
  f

let cm = Shape.lattice_color_matrix Shape.F64
let fm = Shape.lattice_fermion Shape.F64
let sm = Shape.lattice_spin_matrix Shape.F64

(* Evaluate on CPU and JIT; require exact equality. *)
let assert_equivalent ?(subset = Subset.All) ?engine name expr =
  let eng = match engine with Some e -> e | None -> Engine.create () in
  let shape = Expr.shape expr in
  let cpu = Field.create shape geom and jit = Field.create shape geom in
  Qdp.Eval_cpu.eval ~subset cpu expr;
  Engine.eval ~subset eng jit expr;
  let d = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field cpu) (Expr.field jit)) in
  if d <> 0.0 then Alcotest.failf "%s: CPU and JIT differ, |d|^2 = %g" name d

let u = fresh cm
let u2 = fresh cm
let psi = fresh fm
let phi = fresh fm
let g1 = fresh sm
let g2 = fresh sm

let equivalence_cases =
  [
    ("add", Expr.add (Expr.field psi) (Expr.field phi));
    ("sub", Expr.sub (Expr.field psi) (Expr.field phi));
    ("neg", Expr.neg (Expr.field psi));
    ("conj", Expr.conj (Expr.field u));
    ("adj", Expr.adj (Expr.field u));
    ("transpose", Expr.transpose (Expr.field u));
    ("times_i", Expr.times_i (Expr.field psi));
    ("lcm", Expr.mul (Expr.field u) (Expr.field u2));
    ("upsi", Expr.mul (Expr.field u) (Expr.field psi));
    ("spmat", Expr.mul (Expr.field g1) (Expr.field g2));
    ("gamma_psi", Expr.mul (Expr.field g1) (Expr.field psi));
    ( "matvec",
      Expr.add (Expr.mul (Expr.field u) (Expr.field psi)) (Expr.mul (Expr.field u) (Expr.field phi))
    );
    ("adj_mul", Expr.mul (Expr.adj (Expr.field u)) (Expr.field psi));
    ("trace_color", Expr.trace_color (Expr.mul (Expr.field u) (Expr.field u2)));
    ("trace_spin", Expr.trace_spin (Expr.field g1));
    ("real", Expr.real (Expr.trace_color (Expr.field u)));
    ("imag", Expr.imag (Expr.trace_color (Expr.field u)));
    ("outer_color", Expr.outer_color (Expr.field psi) (Expr.field phi));
    ("scalar_param", Expr.mul (Expr.const_real 1.7) (Expr.field psi));
    ("complex_param", Expr.mul (Expr.const_complex 0.3 (-1.2)) (Expr.field psi));
    ("norm2_local", Expr.norm2_local (Expr.field psi));
    ("inner_local", Expr.inner_local (Expr.field psi) (Expr.field phi));
    ("shift_fwd", Expr.shift (Expr.field psi) ~dim:0 ~dir:1);
    ("shift_bwd", Expr.shift (Expr.field psi) ~dim:2 ~dir:(-1));
    ( "shift_of_shift",
      Expr.shift (Expr.shift (Expr.field psi) ~dim:0 ~dir:1) ~dim:1 ~dir:(-1) );
    ( "stencil",
      Expr.add
        (Expr.mul (Expr.field u) (Expr.shift (Expr.field psi) ~dim:0 ~dir:1))
        (Expr.shift (Expr.mul (Expr.adj (Expr.field u)) (Expr.field psi)) ~dim:0 ~dir:(-1)) );
  ]

let test_equivalence (name, expr) () = assert_equivalent name expr

let test_gauge_compression () =
  (* compress/reconstruct round-trips SU(3) links and runs identically on
     both backends, including inside a dslash-like product. *)
  let su3 = Field.create cm geom in
  let rng2 = Prng.create ~seed:77L in
  for site = 0 to Geometry.volume geom - 1 do
    Field.set_site su3 ~site (Linalg.Su3.random_su3 rng2)
  done;
  let eng = Engine.create () in
  (* round trip *)
  let packed = Field.create (Shape.compressed_color_matrix Shape.F64) geom in
  Engine.eval eng packed (Expr.compress (Expr.field su3));
  let back = Field.create cm geom in
  Engine.eval eng back (Expr.reconstruct (Expr.field packed));
  let d = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field back) (Expr.field su3)) in
  if d > 1e-24 then Alcotest.failf "reconstruct(compress u) <> u: %g" d;
  (* compressed links inside a product, CPU vs JIT *)
  assert_equivalent "reconstruct*psi"
    (Expr.mul (Expr.reconstruct (Expr.field packed)) (Expr.field psi));
  (* compression only claims SU(3): storage is 12 reals vs 18 *)
  Alcotest.(check int) "12 reals" 12 (Shape.dof packed.Field.shape)

let test_compression_rejects_non_matrix () =
  match Expr.compress (Expr.field psi) with
  | exception Linalg.Algebra.Type_error _ -> ()
  | _ -> Alcotest.fail "compress of a fermion accepted"

let test_clover_equivalence () =
  let diag = fresh (Shape.clover_diag Shape.F64) in
  let tri = fresh (Shape.clover_tri Shape.F64) in
  assert_equivalent "clover"
    (Expr.clover ~diag:(Expr.field diag) ~tri:(Expr.field tri) (Expr.field psi))

let test_compressed_dslash_matches () =
  (* The 12-real dslash must reproduce the full-gauge dslash exactly on
     SU(3) links (reconstruction is exact there). *)
  let rng2 = Prng.create ~seed:7070L in
  let links = Array.init 4 (fun _ -> Field.create cm geom) in
  Array.iter
    (fun uf ->
      for site = 0 to Geometry.volume geom - 1 do
        Field.set_site uf ~site (Linalg.Su3.random_su3 rng2)
      done)
    links;
  let eng = Engine.create () in
  let packed =
    Array.map
      (fun uf ->
        let p = Field.create (Shape.compressed_color_matrix Shape.F64) geom in
        Engine.eval eng p (Expr.compress (Expr.field uf));
        p)
      links
  in
  let full = Field.create fm geom and comp = Field.create fm geom in
  Engine.eval eng full (Lqcd.Wilson.hopping_expr links psi);
  Engine.eval eng comp (Lqcd.Wilson.hopping_expr_compressed packed psi);
  let d = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field full) (Expr.field comp)) in
  if d > 1e-22 then Alcotest.failf "compressed dslash differs: %g" d;
  (* And it moves fewer bytes: 12 vs 18 reals per link. *)
  let bytes expr =
    let b =
      Qdpjit.Codegen.build ~kname:"abl" ~dest_shape:fm ~expr ~nsites:(Geometry.volume geom)
        ~use_sitelist:false ()
    in
    let a = Ptx.Analysis.kernel b.Qdpjit.Codegen.kernel in
    a.Ptx.Analysis.load_bytes + a.Ptx.Analysis.store_bytes
  in
  let b_full = bytes (Lqcd.Wilson.hopping_expr links psi) in
  let b_comp = bytes (Lqcd.Wilson.hopping_expr_compressed packed psi) in
  Alcotest.(check int) "saves 8 links x 6 reals x 8 bytes" (b_full - (8 * 6 * 8)) b_comp

let test_dslash_equivalence () =
  let links = Array.init 4 (fun _ -> fresh cm) in
  assert_equivalent "dslash" (Lqcd.Wilson.hopping_expr links psi)

let test_f32_equivalence () =
  let u32 = fresh (Shape.lattice_color_matrix Shape.F32) in
  let p32 = fresh (Shape.lattice_fermion Shape.F32) in
  assert_equivalent "f32 upsi" (Expr.mul (Expr.field u32) (Expr.field p32))

let test_mixed_precision () =
  (* f32 gauge times f64 fermion: implicit promotion inside the kernel. *)
  let u32 = fresh (Shape.lattice_color_matrix Shape.F32) in
  assert_equivalent "mixed precision" (Expr.mul (Expr.field u32) (Expr.field psi))

let test_store_rounding () =
  (* f64 expression stored to an f32 destination rounds identically. *)
  let eng = Engine.create () in
  let expr = Expr.mul (Expr.field u) (Expr.field psi) in
  let cpu = Field.create (Shape.lattice_fermion Shape.F32) geom in
  let jit = Field.create (Shape.lattice_fermion Shape.F32) geom in
  Qdp.Eval_cpu.eval cpu expr;
  Engine.eval eng jit expr;
  let d = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field cpu) (Expr.field jit)) in
  Alcotest.(check (float 0.0)) "rounded stores equal" 0.0 d

let test_subsets () =
  let expr = Expr.mul (Expr.field u) (Expr.field psi) in
  assert_equivalent ~subset:Subset.Even "even" expr;
  assert_equivalent ~subset:Subset.Odd "odd" expr;
  assert_equivalent ~subset:(Subset.Custom [| 0; 3; 17; 100 |]) "custom" expr

let test_reductions_match_cpu () =
  let eng = Engine.create () in
  let expr = Expr.mul (Expr.field u) (Expr.field psi) in
  let n_cpu = Qdp.Eval_cpu.norm2 expr and n_jit = Engine.norm2 eng expr in
  Alcotest.(check (float (1e-12 *. n_cpu))) "norm2" n_cpu n_jit;
  let (re_c, im_c) = Qdp.Eval_cpu.inner (Expr.field psi) (Expr.field phi) in
  let (re_j, im_j) = Engine.inner eng (Expr.field psi) (Expr.field phi) in
  Alcotest.(check (float (1e-12 *. abs_float re_c))) "inner re" re_c re_j;
  Alcotest.(check (float (1e-12 *. (abs_float im_c +. 1.0)))) "inner im" im_c im_j;
  let s_cpu = (Qdp.Eval_cpu.sum_components (Expr.real (Expr.trace_color (Expr.field u)))).(0) in
  let s_jit = Engine.sum_real eng (Expr.real (Expr.trace_color (Expr.field u))) in
  Alcotest.(check (float (1e-12 *. (abs_float s_cpu +. 1.0)))) "sum_real" s_cpu s_jit

let test_subset_reductions () =
  let eng = Engine.create () in
  let e = Expr.field psi in
  let n_cpu = Qdp.Eval_cpu.norm2 ~subset:Subset.Even e in
  let n_jit = Engine.norm2 ~subset:Subset.Even eng e in
  Alcotest.(check (float (1e-12 *. n_cpu))) "even norm2" n_cpu n_jit

let test_kernel_cache_reuse () =
  let eng = Engine.create () in
  let dest = Field.create fm geom in
  Engine.eval eng dest (Expr.mul (Expr.field u) (Expr.field psi));
  let built = Engine.kernels_built eng in
  (* Same structure with different fields and scalar values: no new kernel. *)
  Engine.eval eng dest (Expr.mul (Expr.field u2) (Expr.field phi));
  Alcotest.(check int) "structure reused" built (Engine.kernels_built eng);
  (* Different structure: one more kernel. *)
  Engine.eval eng dest (Expr.mul (Expr.adj (Expr.field u)) (Expr.field psi));
  Alcotest.(check int) "new structure compiles" (built + 1) (Engine.kernels_built eng)

let test_scalar_params_no_recompile () =
  let eng = Engine.create () in
  let dest = Field.create fm geom in
  Engine.eval eng dest (Expr.mul (Expr.const_real 0.5) (Expr.field psi));
  let built = Engine.kernels_built eng in
  for i = 1 to 20 do
    Engine.eval eng dest (Expr.mul (Expr.const_real (float_of_int i)) (Expr.field psi))
  done;
  Alcotest.(check int) "twenty scalars, zero recompiles" built (Engine.kernels_built eng)

let test_leaf_aliasing_distinct_kernels () =
  (* Regression: `b + 0.1 D b` and `b + 0.1 D x` have identical trees but
     different leaf-aliasing patterns; sharing one kernel mis-binds the
     pointers (this broke the even-odd reconstruction once). *)
  let eng = Engine.create () in
  let links = Array.init 4 (fun _ -> fresh cm) in
  let e leaf =
    Expr.add (Expr.field psi)
      (Expr.mul (Expr.const_real 0.1) (Lqcd.Wilson.hopping_expr links leaf))
  in
  let dest = Field.create fm geom in
  Engine.eval eng dest (e psi);
  (* aliased: hopping reads psi itself *)
  let cpu = Field.create fm geom in
  Qdp.Eval_cpu.eval cpu (e psi);
  let d1 = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field cpu) (Expr.field dest)) in
  Alcotest.(check (float 0.0)) "aliased form" 0.0 d1;
  (* non-aliased: hopping reads phi *)
  Engine.eval eng dest (e phi);
  Qdp.Eval_cpu.eval cpu (e phi);
  let d2 = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field cpu) (Expr.field dest)) in
  Alcotest.(check (float 0.0)) "non-aliased form" 0.0 d2

let test_jit_time_accumulates () =
  let eng = Engine.create () in
  let dest = Field.create fm geom in
  Engine.eval eng dest (Expr.mul (Expr.field u) (Expr.field psi));
  Alcotest.(check bool) "compile time in paper range" true
    (Engine.jit_seconds eng >= 0.04 && Engine.jit_seconds eng <= 0.5)

let test_spilling_preserves_results () =
  (* A device with room for only a few fields: the LRU cache spills
     mid-computation and results must not change. *)
  let machine = { Gpusim.Machine.k20x_ecc_off with Gpusim.Machine.memory_bytes = 120_000 } in
  let eng = Engine.create ~machine () in
  let a = fresh fm and b = fresh fm and c = fresh fm in
  let out1 = Field.create fm geom and out2 = Field.create fm geom in
  Engine.eval eng out1 (Expr.add (Expr.field a) (Expr.field b));
  Engine.eval eng out2 (Expr.add (Expr.field out1) (Expr.field c));
  let cache = Engine.memcache eng in
  Alcotest.(check bool) "spills occurred" true ((Memcache.stats cache).Memcache.spills > 0);
  let cpu = Field.create fm geom in
  Qdp.Eval_cpu.eval cpu
    (Expr.add (Expr.add (Expr.field a) (Expr.field b)) (Expr.field c));
  let d = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field cpu) (Expr.field out2)) in
  Alcotest.(check (float 0.0)) "results survive spilling" 0.0 d

let test_dest_aliasing () =
  (* x = a*x + y with the destination among the leaves (the solver axpy
     pattern) must work in place. *)
  let eng = Engine.create () in
  let x_cpu = Field.create fm geom and x_jit = Field.create fm geom in
  Field.copy_from ~dst:x_cpu ~src:psi;
  Field.copy_from ~dst:x_jit ~src:psi;
  let e x = Expr.add (Expr.mul (Expr.const_real 0.5) (Expr.field x)) (Expr.field phi) in
  Qdp.Eval_cpu.eval x_cpu (e x_cpu);
  Engine.eval eng x_jit (e x_jit);
  let d = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field x_cpu) (Expr.field x_jit)) in
  Alcotest.(check (float 0.0)) "in-place axpy" 0.0 d

let test_autotuner_state () =
  let tuner = Qdpjit.Autotune.create ~max_block:1024 () in
  Alcotest.(check int) "starts at max" 1024 (Qdpjit.Autotune.next_block tuner);
  (* Two launch failures halve twice. *)
  Qdpjit.Autotune.on_failure tuner ~block:1024;
  Alcotest.(check int) "halved" 512 (Qdpjit.Autotune.next_block tuner);
  Qdpjit.Autotune.on_failure tuner ~block:512;
  Alcotest.(check int) "halved again" 256 (Qdpjit.Autotune.next_block tuner);
  (* Success at 256: probe 128 next. *)
  Qdpjit.Autotune.report tuner ~block:256 ~ns:1000.0;
  Alcotest.(check int) "probes smaller" 128 (Qdpjit.Autotune.next_block tuner);
  (* 128 is faster: keep probing; 64 is 34% slower: settle on 128. *)
  Qdpjit.Autotune.report tuner ~block:128 ~ns:900.0;
  Alcotest.(check int) "probes 64" 64 (Qdpjit.Autotune.next_block tuner);
  Qdpjit.Autotune.report tuner ~block:64 ~ns:(900.0 *. 1.34);
  Alcotest.(check bool) "settled" true (Qdpjit.Autotune.settled tuner);
  Alcotest.(check int) "best block" 128 (Qdpjit.Autotune.next_block tuner)

let test_autotuner_settles_in_engine () =
  (* Eval-at-a-time launches: the deferred queue would (correctly) collapse
     fifteen same-dest writes with no reader in between into one launch. *)
  let eng = Engine.create ~mode:Gpusim.Device.Model_only ~fuse:false () in
  let big = Geometry.create [| 8; 8; 8; 8 |] in
  let a = Field.create fm big and b = Field.create fm big in
  for _ = 1 to 15 do
    Engine.eval eng a (Expr.mul (Expr.const_real 2.0) (Expr.field b))
  done;
  (* After enough payload launches the tuner must have settled somewhere
     sane (>= 64 threads for streaming kernels). *)
  Alcotest.(check bool) "launch count" true
    ((Gpusim.Device.stats (Engine.device eng)).Gpusim.Device.launches >= 15)

let test_ntable_shared () =
  let eng = Engine.create () in
  let dest = Field.create fm geom in
  (* Warm up: both leaves resident, the (dim 0, +1) neighbour table built. *)
  Engine.eval eng dest (Expr.shift (Expr.field psi) ~dim:0 ~dir:1);
  Engine.eval eng dest (Expr.shift (Expr.field phi) ~dim:0 ~dir:1);
  let allocs0 = (Gpusim.Device.stats (Engine.device eng)).Gpusim.Device.allocs in
  Engine.eval eng dest (Expr.shift (Expr.field psi) ~dim:0 ~dir:1);
  Engine.eval eng dest (Expr.shift (Expr.field phi) ~dim:0 ~dir:1);
  let allocs1 = (Gpusim.Device.stats (Engine.device eng)).Gpusim.Device.allocs in
  (* Re-running shifted evals allocates nothing: tables, leaves and the
     destination are all shared/resident. *)
  Alcotest.(check int) "no new allocations" allocs0 allocs1

(* ------------------------------------------------------------------ *)
(* QCheck: random well-typed expressions must evaluate identically on the
   CPU reference and through the whole JIT pipeline. *)

let qcheck_engine = Engine.create ()

(* A small recursive generator over the color-matrix algebra (adding
   fermion branches where types permit). *)
let rec gen_matrix_expr rng depth =
  if depth = 0 then
    match Prng.int_below rng 3 with
    | 0 -> Expr.field u
    | 1 -> Expr.field u2
    | _ -> Expr.adj (Expr.field u)
  else
    match Prng.int_below rng 7 with
    | 0 -> Expr.add (gen_matrix_expr rng (depth - 1)) (gen_matrix_expr rng (depth - 1))
    | 1 -> Expr.sub (gen_matrix_expr rng (depth - 1)) (gen_matrix_expr rng (depth - 1))
    | 2 -> Expr.mul (gen_matrix_expr rng (depth - 1)) (gen_matrix_expr rng (depth - 1))
    | 3 -> Expr.adj (gen_matrix_expr rng (depth - 1))
    | 4 ->
        Expr.shift (gen_matrix_expr rng (depth - 1)) ~dim:(Prng.int_below rng 4)
          ~dir:(if Prng.int_below rng 2 = 0 then 1 else -1)
    | 5 -> Expr.times_i (gen_matrix_expr rng (depth - 1))
    | _ -> Expr.mul (Expr.const_real (Prng.uniform rng ~lo:(-2.0) ~hi:2.0)) (gen_matrix_expr rng (depth - 1))

let gen_expr rng =
  let m = gen_matrix_expr rng 3 in
  (* Half the time, turn it into a fermion or scalar form. *)
  match Prng.int_below rng 4 with
  | 0 -> m
  | 1 -> Expr.mul m (Expr.field psi)
  | 2 -> Expr.real (Expr.trace_color m)
  | _ -> Expr.norm2_local (Expr.mul m (Expr.field psi))

let qcheck_equivalence =
  QCheck.Test.make ~name:"random expressions: CPU = JIT (bit exact)" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed:(Int64.of_int seed) in
      let expr = gen_expr rng in
      let shape = Expr.shape expr in
      let cpu = Field.create shape geom and jit = Field.create shape geom in
      Qdp.Eval_cpu.eval cpu expr;
      Engine.eval qcheck_engine jit expr;
      Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field cpu) (Expr.field jit)) = 0.0)

let qcheck_reductions =
  QCheck.Test.make ~name:"random expressions: reductions agree" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed:(Int64.of_int seed) in
      let expr = gen_matrix_expr rng 2 in
      let n_cpu = Qdp.Eval_cpu.norm2 expr in
      let n_jit = Engine.norm2 qcheck_engine expr in
      abs_float (n_cpu -. n_jit) <= 1e-11 *. (n_cpu +. 1.0))

(* ------------------------------------------------------------------ *)
(* The reduction fold chain at its boundaries: the payload leaves
   ceil(n/8) block partials per plane, the device folds while a plane has
   more than 8 values, and the host finishes.  Block counts of 1, 2-8,
   9-64 and 65-512 take zero, zero, one and two fold launches. *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

let red_engines =
  List.concat_map
    (fun fuse_reductions ->
      List.map (fun vm_domains -> Engine.create ~fuse_reductions ~vm_domains ()) [ 1; 4 ])
    [ true; false ]

let red_shapes =
  [| Shape.real_scalar Shape.F64; Shape.complex_scalar Shape.F64; fm |]

(* (block-count range, lattices, custom-subset size range) per bucket. *)
let red_buckets =
  [|
    ((1, 1), [| [| 2; 2; 2; 1 |]; [| 2; 2; 2; 2 |] |], (1, 8));
    ((2, 8), [| [| 2; 2; 2; 2 |]; [| 4; 4; 2; 2 |]; [| 4; 4; 4; 2 |] |], (9, 64));
    ((9, 64), [| [| 4; 4; 4; 2 |]; [| 8; 4; 4; 4 |] |], (65, 512));
    ((65, 512), [| [| 8; 8; 4; 4 |]; [| 8; 8; 8; 8 |] |], (513, 4096));
  |]

let qcheck_reduction_boundaries =
  QCheck.Test.make ~name:"fold boundaries: engine sums = CPU sums (bits)" ~count:40
    QCheck.(pair (int_bound 3) (int_bound 1_000_000))
    (fun (bucket, seed) ->
      let rng = Prng.create ~seed:(Int64.of_int seed) in
      let (lo, hi), lattices, (clo, chi) = red_buckets.(bucket) in
      let g = Geometry.create lattices.(Prng.int_below rng (Array.length lattices)) in
      let n = Geometry.volume g in
      let custom () =
        let k = min n (clo + Prng.int_below rng (chi - clo + 1)) in
        let perm = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let j = Prng.int_below rng (i + 1) in
          let x = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- x
        done;
        Subset.Custom (Array.sub perm 0 k)
      in
      let subset =
        match Prng.int_below rng 4 with
        | 0 -> Subset.All
        | 1 -> Subset.Even
        | 2 -> Subset.Odd
        | _ -> custom ()
      in
      let nblocks = (Subset.count g subset + 7) / 8 in
      (* Keep the case inside its bucket: a checkerboard or a short
         custom list can fall below it. *)
      let subset, nblocks =
        if nblocks >= lo && nblocks <= hi then (subset, nblocks)
        else
          let s = custom () in
          (s, (Subset.count g s + 7) / 8)
      in
      let shape = red_shapes.(Prng.int_below rng (Array.length red_shapes)) in
      let f = Field.create shape g in
      Field.fill_gaussian f rng;
      let expr = Expr.mul (Expr.const_real 0.75) (Expr.field f) in
      let cpu = Qdp.Eval_cpu.sum_components ~subset expr in
      let ok =
        List.for_all
          (fun eng ->
            let jit = Engine.sum_components ~subset eng expr in
            Memcache.drop (Engine.memcache eng) f;
            bits_equal cpu jit)
          red_engines
      in
      if nblocks < lo || nblocks > hi then
        QCheck.Test.fail_reportf "bucket %d: %d blocks outside [%d, %d]" bucket nblocks lo hi;
      ok)

let test_negative_zero_sum () =
  (* Eight work items of -0.0 leave one block partial of -0.0; it is the
     sum.  Folding it once more against the +0.0 padding would give +0.0. *)
  let check name g subset =
    let z = Field.create (Shape.real_scalar Shape.F64) g in
    let expr = Expr.neg (Expr.field z) in
    let cpu = (Qdp.Eval_cpu.sum_components ~subset expr).(0) in
    Alcotest.(check int64) (name ^ " cpu") (Int64.bits_of_float (-0.0)) (Int64.bits_of_float cpu);
    List.iter
      (fun eng ->
        let jit = Engine.sum_real ~subset eng expr in
        Alcotest.(check int64) name (Int64.bits_of_float (-0.0)) (Int64.bits_of_float jit))
      red_engines
  in
  check "8 sites" (Geometry.create [| 2; 2; 2; 1 |]) Subset.All;
  check "8-site list" geom (Subset.Custom [| 5; 0; 77; 3; 100; 42; 9; 127 |])

let fold_name = "qdpjit_reduce8_f64"

(* Per-call deltas of the counters a reduction may move. *)
let reduction_deltas eng f =
  let dev = Gpusim.Device.stats (Engine.device eng) in
  let cache = Engine.memcache eng in
  let spans name =
    List.length
      (List.filter
         (fun (s : Streams.span) -> s.Streams.span_name = name)
         (Streams.spans (Engine.streams eng)))
  in
  let snap () =
    ( dev.Gpusim.Device.launches,
      spans fold_name,
      dev.Gpusim.Device.transfers,
      spans "reduce readback",
      (Memcache.stats cache).Memcache.pageouts,
      dev.Gpusim.Device.allocs,
      Memcache.resident_count cache )
  in
  let l0, f0, t0, r0, p0, a0, c0 = snap () in
  f ();
  let l1, f1, t1, r1, p1, a1, c1 = snap () in
  (l1 - l0, f1 - f0, t1 - t0, r1 - r0, p1 - p0, a1 - a0, c1 - c0)

let test_reduction_counters () =
  let check ~dims ~folds =
    let g = Geometry.create dims in
    let eng = Engine.create () in
    let a = Field.create fm g and b = Field.create fm g in
    Field.fill_gaussian a rng;
    Field.fill_gaussian b rng;
    let norm () = ignore (Engine.norm2 eng (Expr.field a)) in
    let inner () = ignore (Engine.inner eng (Expr.field a) (Expr.field b)) in
    norm ();
    inner ();
    List.iter
      (fun (what, f) ->
        let launches, fold_launches, transfers, readbacks, pageouts, allocs, resident =
          reduction_deltas eng f
        in
        let dims = String.concat "x" (Array.to_list (Array.map string_of_int dims)) in
        let tag s = Printf.sprintf "%s %s %s" dims what s in
        Alcotest.(check int) (tag "launches") (1 + folds) launches;
        Alcotest.(check int) (tag "fold launches") folds fold_launches;
        Alcotest.(check int) (tag "transfers") 1 transfers;
        Alcotest.(check int) (tag "readbacks") 1 readbacks;
        Alcotest.(check int) (tag "page-outs") 0 pageouts;
        Alcotest.(check int) (tag "device allocs") 0 allocs;
        Alcotest.(check int) (tag "resident") 0 resident)
      [ ("norm2", norm); ("inner", inner) ]
  in
  check ~dims:[| 8; 4; 4; 4 |] ~folds:1;
  check ~dims:[| 2; 2; 2; 2 |] ~folds:0

let test_reduction_scratch_spills () =
  (* Fill a small device with unpinned cached fields: the first reduction
     on a larger lattice must grow its scratch by spilling them. *)
  let machine = { Gpusim.Machine.k20x_ecc_off with Gpusim.Machine.memory_bytes = 300_000 } in
  let eng = Engine.create ~machine () in
  let dev = Engine.device eng and cache = Engine.memcache eng in
  let filler_bytes = Geometry.volume geom * Shape.dof fm * 8 in
  while Gpusim.Device.free_bytes dev >= filler_bytes do
    ignore (Memcache.ensure_resident cache (fresh fm))
  done;
  (* Uploads still in flight cannot be spilled. *)
  ignore (Engine.synchronize eng);
  Alcotest.(check int) "no spills while filling" 0 (Memcache.stats cache).Memcache.spills;
  let big = Geometry.create [| 8; 4; 4; 4 |] in
  let f = Field.create fm big in
  Field.fill_gaussian f rng;
  let cpu = Qdp.Eval_cpu.sum_components (Expr.field f) in
  let jit = Engine.sum_components eng (Expr.field f) in
  Alcotest.(check bool) "spilled for the scratch" true ((Memcache.stats cache).Memcache.spills > 0);
  Alcotest.(check bool) "sums match the CPU bits" true (bits_equal cpu jit)

(* Engine-owned device buffers (neighbour tables, site lists) allocate
   through the memcache's spill loop, like fields and the reduction
   scratch.  [tight_engine fields ~spare] holds [fields] resident (their
   uploads settled, so they are spill candidates) with [spare] bytes
   left: too few for a 4^4 neighbour table (1024 B) or site list
   (512 B). *)
let tight_geom = Geometry.create [| 4; 4; 4; 4 |]

let tight_fields n =
  List.init n (fun _ ->
      let f = Field.create fm tight_geom in
      Field.fill_gaussian f rng;
      f)

let tight_engine fields ~spare =
  let field_bytes = Geometry.volume tight_geom * Shape.dof fm * 8 in
  let memory_bytes = (List.length fields * field_bytes) + spare in
  let eng = Engine.create ~machine:{ Gpusim.Machine.k20x_ecc_off with memory_bytes } () in
  List.iter (fun f -> ignore (Memcache.ensure_resident (Engine.memcache eng) f)) fields;
  ignore (Engine.synchronize eng);
  Alcotest.(check int) "spare bytes" spare (Gpusim.Device.free_bytes (Engine.device eng));
  eng

let same_bits (a : Field.t) (b : Field.t) =
  List.for_all
    (fun site -> bits_equal (Field.get_site a ~site) (Field.get_site b ~site))
    (List.init (Geometry.volume a.Field.geom) Fun.id)

(* Run [evals] on a roomy engine over copies of the inputs and on [eng]
   over the inputs themselves: every field must end bit-equal, and
   [eng] must have spilled. *)
let check_against_roomy name eng fields evals =
  let copies =
    List.map
      (fun f ->
        let c = Field.create fm tight_geom in
        Field.copy_from ~dst:c ~src:f;
        c)
      fields
  in
  let roomy = Engine.create () in
  evals roomy (Array.of_list copies);
  evals eng (Array.of_list fields);
  ignore (Engine.synchronize roomy);
  ignore (Engine.synchronize eng);
  Alcotest.(check bool) (name ^ ": spilled") true
    ((Memcache.stats (Engine.memcache eng)).Memcache.spills > 0);
  Alcotest.(check bool) (name ^ ": bit-equal to a roomy engine") true
    (List.for_all2 same_bits fields copies)

let shift_a eng (f : Field.t array) =
  Engine.eval eng f.(1) (Expr.shift (Expr.field f.(0)) ~dim:0 ~dir:1)

let test_tables_spill () =
  let fields = tight_fields 6 in
  check_against_roomy "neighbour table" (tight_engine fields ~spare:500) fields shift_a;
  let fields = tight_fields 6 in
  check_against_roomy "site list" (tight_engine fields ~spare:500) fields (fun eng f ->
      Engine.eval ~subset:Subset.Even eng f.(2) (Expr.add (Expr.field f.(0)) (Expr.field f.(1))))

(* With only its four fields resident the fused pair cannot fit its
   neighbour table; its members relaunch alone, and each spills what
   the other one needs no longer. *)
let test_fused_fallback_spills () =
  let fields = tight_fields 4 in
  let eng = tight_engine fields ~spare:500 in
  check_against_roomy "fused pair" eng fields (fun eng f ->
      shift_a eng f;
      Engine.eval eng f.(3) (Expr.add (Expr.field f.(1)) (Expr.field f.(2))));
  Alcotest.(check int) "fallbacks" 1 (Engine.fusion_stats eng).Engine.fallbacks

let () =
  Alcotest.run "qdpjit"
    [
      ( "equivalence",
        List.map
          (fun (name, expr) -> Alcotest.test_case name `Quick (test_equivalence (name, expr)))
          equivalence_cases
        @ [
            Alcotest.test_case "clover" `Quick test_clover_equivalence;
            Alcotest.test_case "gauge compression" `Quick test_gauge_compression;
            Alcotest.test_case "compressed dslash" `Quick test_compressed_dslash_matches;
            Alcotest.test_case "compression typing" `Quick test_compression_rejects_non_matrix;
            Alcotest.test_case "dslash" `Quick test_dslash_equivalence;
            Alcotest.test_case "f32" `Quick test_f32_equivalence;
            Alcotest.test_case "mixed precision" `Quick test_mixed_precision;
            Alcotest.test_case "store rounding" `Quick test_store_rounding;
            Alcotest.test_case "subsets" `Quick test_subsets;
            Alcotest.test_case "dest aliasing" `Quick test_dest_aliasing;
          ] );
      ( "reductions",
        [
          Alcotest.test_case "norm2/inner/sum" `Quick test_reductions_match_cpu;
          Alcotest.test_case "subset reductions" `Quick test_subset_reductions;
          Alcotest.test_case "negative zero sum" `Quick test_negative_zero_sum;
          Alcotest.test_case "one fold launch, one readback" `Quick test_reduction_counters;
        ] );
      ( "kernel-cache",
        [
          Alcotest.test_case "structure reuse" `Quick test_kernel_cache_reuse;
          Alcotest.test_case "scalar params" `Quick test_scalar_params_no_recompile;
          Alcotest.test_case "leaf aliasing" `Quick test_leaf_aliasing_distinct_kernels;
          Alcotest.test_case "jit time" `Quick test_jit_time_accumulates;
          Alcotest.test_case "ntable shared" `Quick test_ntable_shared;
        ] );
      ( "memory",
        [
          Alcotest.test_case "spilling mid-computation" `Quick test_spilling_preserves_results;
          Alcotest.test_case "reduction scratch spills" `Quick test_reduction_scratch_spills;
          Alcotest.test_case "tables and site lists spill" `Quick test_tables_spill;
          Alcotest.test_case "fused fallback spills" `Quick test_fused_fallback_spills;
        ] );
      ( "autotune",
        [
          Alcotest.test_case "state machine" `Quick test_autotuner_state;
          Alcotest.test_case "engine integration" `Quick test_autotuner_settles_in_engine;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_equivalence;
          QCheck_alcotest.to_alcotest qcheck_reductions;
          QCheck_alcotest.to_alcotest qcheck_reduction_boundaries;
        ] );
    ]
