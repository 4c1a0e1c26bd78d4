(* Multi-rank SPMD execution: results must be identical to the single-rank
   global-lattice CPU reference for every decomposition, and identical with
   communication overlap on or off. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr
module Multi = Qdpjit.Multi

let rng = Prng.create ~seed:404L

let global_reference global_dims build =
  let geom = Geometry.create global_dims in
  let u = Lqcd.Gauge.create_links geom in
  Lqcd.Gauge.random_gauge ~epsilon:0.4 u (Prng.create ~seed:9L);
  let psi = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Field.fill_gaussian psi (Prng.create ~seed:10L);
  let expr = build u psi in
  let out = Field.create (Expr.shape expr) geom in
  Qdp.Eval_cpu.eval out expr;
  (u, psi, out)

let distributed_run ?(overlap = true) ~global_dims ~rank_dims (u, psi, _ref_out) build =
  let m = Multi.create ~global_dims ~rank_dims () in
  Multi.set_overlap m overlap;
  let du =
    Array.map
      (fun uf ->
        let df = Multi.create_field m (Shape.lattice_color_matrix Shape.F64) in
        Multi.scatter m ~global:uf df;
        df)
      u
  in
  let dpsi = Multi.create_field m (Shape.lattice_fermion Shape.F64) in
  Multi.scatter m ~global:psi dpsi;
  let shape =
    Expr.shape (build (Array.map (fun (df : Multi.dfield) -> df.Multi.locals.(0)) du)
        dpsi.Multi.locals.(0))
  in
  let dout = Multi.create_field m shape in
  let timing =
    Multi.eval m dout (fun rank ->
        build (Array.map (fun (df : Multi.dfield) -> df.Multi.locals.(rank)) du)
          dpsi.Multi.locals.(rank))
  in
  let got = Field.create shape (Geometry.create global_dims) in
  Multi.gather m dout ~global:got;
  (m, got, timing)

let check_against_reference ~global_dims ~rank_dims build =
  let ((_, _, ref_out) as setup) = global_reference global_dims build in
  let _, got, _ = distributed_run ~global_dims ~rank_dims setup build in
  let d = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field got) (Expr.field ref_out)) in
  if d <> 0.0 then Alcotest.failf "distributed differs from reference: %g" d

let dslash u psi = Lqcd.Wilson.hopping_expr u psi

(* Parallel rank sweep: dealing ranks to OCaml domains must be invisible
   in results — the gathered field and the cross-rank reductions are
   bit-identical to the sequential rank sweep, and drop_temps (which
   releases the per-domain shift-pool arena slices) must leave later
   evals unchanged. *)
let test_rank_domains_bit_identical () =
  let global_dims = [| 8; 8; 4; 4 |] and rank_dims = [| 2; 2; 1; 1 |] in
  let u, psi, _ = global_reference global_dims dslash in
  let fm = Shape.lattice_fermion Shape.F64 in
  let run rank_domains =
    let m = Multi.create ~rank_domains ~global_dims ~rank_dims () in
    let du =
      Array.map
        (fun uf ->
          let df = Multi.create_field m (Shape.lattice_color_matrix Shape.F64) in
          Multi.scatter m ~global:uf df;
          df)
        u
    in
    let dpsi = Multi.create_field m fm in
    Multi.scatter m ~global:psi dpsi;
    let dout = Multi.create_field m fm in
    let mk rank =
      dslash (Array.map (fun (df : Multi.dfield) -> df.Multi.locals.(rank)) du)
        dpsi.Multi.locals.(rank)
    in
    ignore (Multi.eval m dout mk);
    let n2 = Multi.norm2 m (fun rank -> Expr.field dout.Multi.locals.(rank)) in
    (* The release itself: afterwards each rank's cache holds only the
       test's own fields (4 links, psi, out), no shift-pool temporary. *)
    let mc rank = Qdpjit.Engine.memcache (Multi.engine m rank) in
    let resident rank = Memcache.resident_count (mc rank) in
    let own_resident rank =
      let own = dpsi :: dout :: Array.to_list du in
      List.length
        (List.filter (fun (df : Multi.dfield) -> Memcache.is_resident (mc rank) df.Multi.locals.(rank)) own)
    in
    for rank = 0 to Multi.nranks m - 1 do
      if resident rank <= own_resident rank then
        Alcotest.failf "rank %d (rank_domains %d): no temporary resident before drop_temps" rank
          rank_domains
    done;
    Multi.drop_temps m;
    for rank = 0 to Multi.nranks m - 1 do
      Alcotest.(check int)
        (Printf.sprintf "rank %d resident after drop_temps (rank_domains %d)" rank rank_domains)
        (own_resident rank) (resident rank)
    done;
    ignore (Multi.eval m dout mk);
    let n2' = Multi.norm2 m (fun rank -> Expr.field dout.Multi.locals.(rank)) in
    let got = Field.create fm (Geometry.create global_dims) in
    Multi.gather m dout ~global:got;
    (m, got, n2, n2')
  in
  let m1, got1, n1, n1' = run 1 in
  let m4, got4, n4, n4' = run 4 in
  Alcotest.(check int) "sequential sweep" 1 (Multi.rank_domains m1);
  Alcotest.(check int) "parallel sweep" 4 (Multi.rank_domains m4);
  if Int64.bits_of_float n1 <> Int64.bits_of_float n4 then
    Alcotest.failf "norm2 differs: %h vs %h" n1 n4;
  if Int64.bits_of_float n1 <> Int64.bits_of_float n1' then
    Alcotest.failf "norm2 changed across drop_temps (sequential): %h vs %h" n1 n1';
  if Int64.bits_of_float n4 <> Int64.bits_of_float n4' then
    Alcotest.failf "norm2 changed across drop_temps (parallel): %h vs %h" n4 n4';
  for site = 0 to Field.volume got1 - 1 do
    let a = Field.get_site got1 ~site and b = Field.get_site got4 ~site in
    Array.iteri
      (fun c x ->
        if Int64.bits_of_float x <> Int64.bits_of_float b.(c) then
          Alcotest.failf "site %d comp %d: %h (1 worker) vs %h (4 workers)" site c x b.(c))
      a
  done

let test_dslash_2ranks_dim0 () =
  check_against_reference ~global_dims:[| 8; 4; 4; 4 |] ~rank_dims:[| 2; 1; 1; 1 |] dslash

let test_dslash_2ranks_dim3 () =
  check_against_reference ~global_dims:[| 4; 4; 4; 8 |] ~rank_dims:[| 1; 1; 1; 2 |] dslash

let test_dslash_4ranks_2x2 () =
  check_against_reference ~global_dims:[| 8; 8; 4; 4 |] ~rank_dims:[| 2; 2; 1; 1 |] dslash

let test_dslash_8ranks () =
  check_against_reference ~global_dims:[| 8; 8; 8; 2 |] ~rank_dims:[| 2; 2; 2; 1 |] dslash

let test_staple_shift_of_shift () =
  (* The staple contains shift(shift(...)) patterns: the nested exchange
     path (non-overlapping, as the paper notes) must still be exact. *)
  check_against_reference ~global_dims:[| 8; 4; 4; 4 |] ~rank_dims:[| 2; 1; 1; 1 |]
    (fun u _psi -> Lqcd.Gauge.clover_leaf_sum_expr u ~mu:0 ~nu:1)

let test_plaquette_distributed () =
  let global_dims = [| 8; 4; 4; 4 |] in
  let geom = Geometry.create global_dims in
  let u = Lqcd.Gauge.create_links geom in
  Lqcd.Gauge.random_gauge ~epsilon:0.4 u rng;
  let reference =
    Lqcd.Gauge.mean_plaquette ~sum_real:(fun e -> (Qdp.Eval_cpu.sum_components e).(0)) u
  in
  let m = Multi.create ~global_dims ~rank_dims:[| 2; 1; 1; 1 |] () in
  let du =
    Array.map
      (fun uf ->
        let df = Multi.create_field m (Shape.lattice_color_matrix Shape.F64) in
        Multi.scatter m ~global:uf df;
        df)
      u
  in
  (* Build the plaquette sum by materialising each plaquette expression into
     a distributed field and reducing. *)
  let acc = ref 0.0 and pairs = ref 0 in
  for mu = 0 to 3 do
    for nu = mu + 1 to 3 do
      let dest = Multi.create_field m (Shape.real_scalar Shape.F64) in
      ignore
        (Multi.eval m dest (fun rank ->
             let ul = Array.map (fun (df : Multi.dfield) -> df.Multi.locals.(rank)) du in
             Lqcd.Gauge.plaquette_trace_expr ul ~mu ~nu));
      acc := !acc +. Multi.sum_real m (fun rank -> Expr.field dest.Multi.locals.(rank));
      incr pairs
    done
  done;
  let got = !acc /. float_of_int (Geometry.volume geom * !pairs) in
  Alcotest.(check (float 1e-13)) "plaquette" reference got

let test_overlap_off_same_result () =
  let setup = global_reference [| 8; 4; 4; 4 |] dslash in
  let _, on_result, _ =
    distributed_run ~overlap:true ~global_dims:[| 8; 4; 4; 4 |] ~rank_dims:[| 2; 1; 1; 1 |] setup dslash
  in
  let _, off_result, _ =
    distributed_run ~overlap:false ~global_dims:[| 8; 4; 4; 4 |] ~rank_dims:[| 2; 1; 1; 1 |] setup
      dslash
  in
  let d = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field on_result) (Expr.field off_result)) in
  Alcotest.(check (float 0.0)) "overlap toggles timing only" 0.0 d

let test_overlap_not_slower () =
  (* On a warmed-up engine the overlap timeline is never slower than the
     non-overlapped one (same work, comm hidden). *)
  let global_dims = [| 8; 8; 8; 8 |] in
  let run overlap =
    let m = Multi.create ~mode:Gpusim.Device.Model_only ~global_dims ~rank_dims:[| 1; 1; 1; 2 |] () in
    Multi.set_overlap m overlap;
    let u = Array.init 4 (fun _ -> Multi.create_field m (Shape.lattice_color_matrix Shape.F64)) in
    let psi = Multi.create_field m (Shape.lattice_fermion Shape.F64) in
    let out = Multi.create_field m (Shape.lattice_fermion Shape.F64) in
    let mk rank =
      dslash (Array.map (fun (df : Multi.dfield) -> df.Multi.locals.(rank)) u)
        psi.Multi.locals.(rank)
    in
    for _ = 1 to 6 do
      ignore (Multi.eval m out mk)
    done;
    Multi.reset_clocks m;
    (Multi.eval m out mk).Multi.total_ns
  in
  let t_on = run true and t_off = run false in
  Alcotest.(check bool)
    (Printf.sprintf "overlap %.0f <= non-overlap %.0f" t_on t_off)
    true (t_on <= t_off *. 1.0001)

let test_scatter_gather_roundtrip () =
  let global_dims = [| 4; 4; 4; 4 |] in
  let geom = Geometry.create global_dims in
  let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Field.fill_gaussian f rng;
  let m = Multi.create ~global_dims ~rank_dims:[| 2; 2; 1; 1 |] () in
  let df = Multi.create_field m (Shape.lattice_fermion Shape.F64) in
  Multi.scatter m ~global:f df;
  let back = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Multi.gather m df ~global:back;
  let d = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field f) (Expr.field back)) in
  Alcotest.(check (float 0.0)) "roundtrip" 0.0 d

(* Concurrent ranks run their kernels in their own domains: each rank
   drains its device's launch queue before its worker moves on, so no
   launch is left for the calling thread after an eval or a reduction. *)
let test_rank_queues_drained () =
  let global_dims = [| 8; 4; 4; 4 |] in
  let u, psi, _ = global_reference global_dims dslash in
  let m = Multi.create ~rank_domains:2 ~global_dims ~rank_dims:[| 2; 1; 1; 1 |] () in
  let distribute shape (f : Field.t) =
    let df = Multi.create_field m shape in
    Multi.scatter m ~global:f df;
    df
  in
  let du = Array.map (distribute (Shape.lattice_color_matrix Shape.F64)) u in
  let dpsi = distribute (Shape.lattice_fermion Shape.F64) psi in
  let dout = Multi.create_field m (Shape.lattice_fermion Shape.F64) in
  let check what =
    for rank = 0 to Multi.nranks m - 1 do
      let dev = Qdpjit.Engine.device (Multi.engine m rank) in
      Alcotest.(check int) (Printf.sprintf "rank %d queue after %s" rank what) 0
        (List.length dev.Gpusim.Device.batch)
    done
  in
  ignore
    (Multi.eval m dout (fun rank ->
         dslash (Array.map (fun (df : Multi.dfield) -> df.Multi.locals.(rank)) du)
           dpsi.Multi.locals.(rank)));
  check "eval";
  ignore (Multi.norm2 m (fun rank -> Expr.field dout.Multi.locals.(rank)));
  check "norm2"

let test_reductions_across_ranks () =
  let global_dims = [| 8; 4; 4; 4 |] in
  let geom = Geometry.create global_dims in
  let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Field.fill_gaussian f rng;
  let reference = Qdp.Eval_cpu.norm2 (Expr.field f) in
  let m = Multi.create ~global_dims ~rank_dims:[| 2; 1; 1; 1 |] () in
  let df = Multi.create_field m (Shape.lattice_fermion Shape.F64) in
  Multi.scatter m ~global:f df;
  let got = Multi.norm2 m (fun rank -> Expr.field df.Multi.locals.(rank)) in
  Alcotest.(check (float (1e-12 *. reference))) "norm2 across ranks" reference got

let test_comm_stats () =
  let setup = global_reference [| 8; 4; 4; 4 |] dslash in
  let m, _, _ =
    distributed_run ~global_dims:[| 8; 4; 4; 4 |] ~rank_dims:[| 2; 1; 1; 1 |] setup dslash
  in
  let stats = Multi.fabric_stats m in
  (* Two dim-0 shifts * 2 ranks = 4 messages, each a 64-site fermion face. *)
  Alcotest.(check int) "messages" 4 stats.Comms.Fabric.messages;
  Alcotest.(check int) "bytes" (4 * 64 * 192) stats.Comms.Fabric.bytes

let () =
  Alcotest.run "multi"
    [
      ( "correctness",
        [
          Alcotest.test_case "dslash 2 ranks dim0" `Quick test_dslash_2ranks_dim0;
          Alcotest.test_case "dslash 2 ranks dim3" `Quick test_dslash_2ranks_dim3;
          Alcotest.test_case "dslash 2x2 ranks" `Quick test_dslash_4ranks_2x2;
          Alcotest.test_case "dslash 8 ranks" `Slow test_dslash_8ranks;
          Alcotest.test_case "shift of shift" `Quick test_staple_shift_of_shift;
          Alcotest.test_case "plaquette" `Quick test_plaquette_distributed;
          Alcotest.test_case "scatter/gather" `Quick test_scatter_gather_roundtrip;
          Alcotest.test_case "reductions" `Quick test_reductions_across_ranks;
          Alcotest.test_case "rank domains bit-identical" `Quick
            test_rank_domains_bit_identical;
          Alcotest.test_case "rank queues drained" `Quick test_rank_queues_drained;
        ] );
      ( "overlap",
        [
          Alcotest.test_case "same result" `Quick test_overlap_off_same_result;
          Alcotest.test_case "never slower" `Quick test_overlap_not_slower;
          Alcotest.test_case "comm accounting" `Quick test_comm_stats;
        ] );
    ]
