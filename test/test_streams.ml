(* The stream/event execution engine: CUDA-semantics ordering rules,
   engine contention, host synchronization, Chrome-trace export, and the
   Multi overlap engine built on top of it. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr
module Device = Gpusim.Device
module Multi = Qdpjit.Multi

let fresh_ctx () = Streams.create (Device.create Gpusim.Machine.k20x_ecc_off)

let check_ns = Alcotest.(check (float 1e-9))

(* ---------------------------------------------------------------- *)
(* Events *)

let test_wait_before_record () =
  let t = fresh_ctx () in
  let s1 = Streams.create_stream ~name:"s1" t in
  let s2 = Streams.create_stream ~name:"s2" t in
  let e = Streams.Event.create ~name:"e" () in
  (* cuStreamWaitEvent on a never-recorded event is a no-op. *)
  Streams.wait_event t s2 e;
  Streams.busy t s2 ~engine:Streams.Copy_h2d ~name:"copy" ~ns:10.0;
  check_ns "unrecorded wait ignored" 10.0 (Streams.cursor_ns s2);
  Streams.busy t s1 ~engine:Streams.Compute ~name:"k" ~ns:100.0;
  Streams.record_event t s1 e;
  Streams.wait_event t s2 e;
  Streams.busy t s2 ~engine:Streams.Copy_h2d ~name:"copy" ~ns:10.0;
  check_ns "recorded wait ordered" 110.0 (Streams.cursor_ns s2)

let test_cross_stream_chain () =
  let t = fresh_ctx () in
  let s1 = Streams.create_stream t and s2 = Streams.create_stream t in
  let s3 = Streams.create_stream t in
  Streams.busy t s1 ~engine:Streams.Compute ~name:"a" ~ns:100.0;
  let e1 = Streams.Event.create () in
  Streams.record_event t s1 e1;
  Streams.wait_event t s2 e1;
  Streams.busy t s2 ~engine:Streams.Copy_d2h ~name:"b" ~ns:50.0;
  let e2 = Streams.Event.create () in
  Streams.record_event t s2 e2;
  Streams.wait_event t s3 e2;
  Streams.busy t s3 ~engine:Streams.Copy_h2d ~name:"c" ~ns:10.0;
  check_ns "chain a->b" 150.0 (Streams.cursor_ns s2);
  check_ns "chain b->c" 160.0 (Streams.cursor_ns s3)

let test_event_query_and_sync () =
  let t = fresh_ctx () in
  let s = Streams.create_stream t in
  Streams.busy t s ~engine:Streams.Compute ~name:"k" ~ns:100.0;
  let e = Streams.Event.create () in
  Streams.record_event t s e;
  (* The host has not synchronized: the work is not provably complete. *)
  Alcotest.(check bool) "query before sync" false (Streams.event_query t e);
  Streams.event_synchronize t e;
  Alcotest.(check bool) "query after sync" true (Streams.event_query t e);
  check_ns "clock at event" 100.0 (Device.clock_ns (Streams.device t))

let test_event_elapsed () =
  let t = fresh_ctx () in
  let s = Streams.create_stream t in
  Streams.busy t s ~engine:Streams.Compute ~name:"k1" ~ns:100.0;
  let e1 = Streams.Event.create () in
  Streams.record_event t s e1;
  Streams.busy t s ~engine:Streams.Compute ~name:"k2" ~ns:50.0;
  let e2 = Streams.Event.create () in
  Streams.record_event t s e2;
  check_ns "elapsed" 50.0 (Streams.Event.elapsed_ns e1 e2)

let test_external_record () =
  let t = fresh_ctx () in
  let s = Streams.create_stream t in
  let arrival = Streams.Event.create ~name:"msg" () in
  Streams.record_event_at arrival ~ns:777.0;
  Streams.wait_event t s arrival;
  Streams.busy t s ~engine:Streams.Copy_h2d ~name:"import" ~ns:1.0;
  check_ns "waits for external completion" 778.0 (Streams.cursor_ns s)

(* ---------------------------------------------------------------- *)
(* Engine contention *)

let test_kernels_serialize () =
  let t = fresh_ctx () in
  let s1 = Streams.create_stream t and s2 = Streams.create_stream t in
  Streams.busy t s1 ~engine:Streams.Compute ~name:"k1" ~ns:100.0;
  Streams.busy t s2 ~engine:Streams.Compute ~name:"k2" ~ns:50.0;
  (* One compute engine: the second kernel queues behind the first even on
     a different stream. *)
  check_ns "second kernel queued" 150.0 (Streams.cursor_ns s2)

let test_copy_overlaps_compute () =
  let t = fresh_ctx () in
  let s1 = Streams.create_stream t and s2 = Streams.create_stream t in
  Streams.busy t s1 ~engine:Streams.Compute ~name:"k" ~ns:100.0;
  Streams.busy t s2 ~engine:Streams.Copy_h2d ~name:"h2d" ~ns:40.0;
  Streams.busy t s2 ~engine:Streams.Copy_d2h ~name:"d2h" ~ns:5.0;
  (* Independent copy engines: both copies fit under the kernel. *)
  check_ns "copies ran concurrently" 45.0 (Streams.cursor_ns s2)

let test_same_stream_serializes () =
  let t = fresh_ctx () in
  let s = Streams.create_stream t in
  Streams.busy t s ~engine:Streams.Copy_h2d ~name:"h2d" ~ns:40.0;
  Streams.busy t s ~engine:Streams.Compute ~name:"k" ~ns:100.0;
  (* Program order within one stream holds across engines. *)
  check_ns "stream order kept" 140.0 (Streams.cursor_ns s)

(* ---------------------------------------------------------------- *)
(* Host synchronization *)

let test_synchronize_max_of_streams () =
  let t = fresh_ctx () in
  let s1 = Streams.create_stream t and s2 = Streams.create_stream t in
  let s3 = Streams.create_stream t in
  Streams.busy t s1 ~engine:Streams.Compute ~name:"k" ~ns:100.0;
  Streams.busy t s2 ~engine:Streams.Copy_h2d ~name:"c" ~ns:250.0;
  Streams.busy t s3 ~engine:Streams.Copy_d2h ~name:"c" ~ns:30.0;
  check_ns "clock still at zero" 0.0 (Device.clock_ns (Streams.device t));
  let clk = Streams.synchronize t in
  check_ns "clock = slowest stream" 250.0 clk

let test_stream_synchronize () =
  let t = fresh_ctx () in
  let s1 = Streams.create_stream t and s2 = Streams.create_stream t in
  Streams.busy t s1 ~engine:Streams.Compute ~name:"k" ~ns:100.0;
  Streams.busy t s2 ~engine:Streams.Copy_h2d ~name:"c" ~ns:250.0;
  let clk = Streams.stream_synchronize t s1 in
  check_ns "only s1 drained" 100.0 clk;
  (* Synchronizing a stream that already completed does not rewind. *)
  let clk2 = Streams.stream_synchronize t s1 in
  check_ns "monotonic" 100.0 clk2

let test_reset () =
  let t = fresh_ctx () in
  let s = Streams.create_stream t in
  Streams.busy t s ~engine:Streams.Compute ~name:"k" ~ns:100.0;
  ignore (Streams.synchronize t);
  Streams.reset t;
  check_ns "cursor rewound" 0.0 (Streams.cursor_ns s);
  check_ns "clock rewound" 0.0 (Device.clock_ns (Streams.device t));
  Alcotest.(check int) "spans cleared" 0 (Streams.span_count t)

(* A context that is never reset stores at most [max_spans] spans; the
   rest are only counted, and the count reaches the trace. *)
let test_span_cap () =
  let t = fresh_ctx () in
  let s = Streams.default_stream t in
  let k = 5 in
  for _ = 1 to Streams.max_spans + k do
    Streams.note t s ~name:"tick" ~args:[]
  done;
  Alcotest.(check int) "stored spans capped" Streams.max_spans (List.length (Streams.spans t));
  Alcotest.(check int) "span_count counts every span" (Streams.max_spans + k)
    (Streams.span_count t);
  let json = Streams.Trace.chrome_json [ ("rank0", t) ] in
  let needle =
    Printf.sprintf "\"dropped_spans\",\"ph\":\"M\",\"pid\":0,\"args\":{\"count\":%d}" k
  in
  let nl = String.length needle in
  let rec contains i =
    i + nl <= String.length json && (String.sub json i nl = needle || contains (i + 1))
  in
  Alcotest.(check bool) "dropped count in the trace" true (contains 0);
  Streams.reset t;
  Alcotest.(check int) "reset clears the count" 0 (Streams.span_count t);
  Streams.note t s ~name:"tick" ~args:[];
  Alcotest.(check int) "stores again after reset" 1 (List.length (Streams.spans t));
  Alcotest.(check int) "counts from zero after reset" 1 (Streams.span_count t)

(* ---------------------------------------------------------------- *)
(* Chrome trace export *)

let test_trace_json () =
  let t = fresh_ctx () in
  let s1 = Streams.create_stream ~name:"compute" t in
  let s2 = Streams.create_stream ~name:"copies" t in
  Streams.busy t s1 ~engine:Streams.Compute ~name:"dslash" ~ns:1000.0;
  Streams.busy t s2 ~engine:Streams.Copy_h2d ~name:"face \"import\"" ~ns:100.0;
  let e = Streams.Event.create ~name:"face ready" () in
  Streams.record_event t s2 e;
  let json = Streams.Trace.chrome_json [ ("rank0", t) ] in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "traceEvents array" true (contains "{\"traceEvents\":[");
  Alcotest.(check bool) "process metadata" true (contains "\"process_name\"");
  Alcotest.(check bool) "thread metadata" true (contains "\"name\":\"copies\"");
  Alcotest.(check bool) "complete event" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "instant event" true (contains "\"ph\":\"i\"");
  Alcotest.(check bool) "quotes escaped" true (contains "face \\\"import\\\"");
  Alcotest.(check int) "three spans" 3 (Streams.span_count t)

let test_engine_records_spans () =
  let eng = Qdpjit.Engine.create () in
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Field.fill_gaussian f (Prng.create ~seed:5L);
  let out = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Qdpjit.Engine.eval eng out (Expr.add (Expr.field f) (Expr.field f));
  Qdpjit.Engine.flush eng;
  let ctx = Qdpjit.Engine.streams eng in
  Alcotest.(check bool) "spans recorded" true (Streams.span_count ctx > 0);
  let cats = List.map (fun sp -> sp.Streams.cat) (Streams.spans ctx) in
  Alcotest.(check bool) "kernel span present" true (List.mem "kernel" cats);
  Alcotest.(check bool) "memcpy span present" true (List.mem "memcpy" cats)

(* ---------------------------------------------------------------- *)
(* The Multi overlap engine on top of streams *)

let dslash u psi = Lqcd.Wilson.hopping_expr u psi

let multi_dslash_run ~overlap ~mode ~global_dims ~rank_dims ~evals =
  let m = Multi.create ~mode ~global_dims ~rank_dims () in
  Multi.set_overlap m overlap;
  let u = Array.init 4 (fun _ -> Multi.create_field m (Shape.lattice_color_matrix Shape.F64)) in
  let psi = Multi.create_field m (Shape.lattice_fermion Shape.F64) in
  let out = Multi.create_field m (Shape.lattice_fermion Shape.F64) in
  let mk rank =
    dslash (Array.map (fun (df : Multi.dfield) -> df.Multi.locals.(rank)) u)
      psi.Multi.locals.(rank)
  in
  for _ = 1 to evals do
    ignore (Multi.eval m out mk)
  done;
  Multi.reset_clocks m;
  (m, (Multi.eval m out mk).Multi.total_ns)

let test_overlap_strictly_shorter () =
  (* The Fig. 6 situation: real wire time to hide.  Overlap must win
     strictly, not just tie. *)
  let run overlap =
    snd
      (multi_dslash_run ~overlap ~mode:Gpusim.Device.Model_only
         ~global_dims:[| 8; 8; 8; 8 |] ~rank_dims:[| 1; 1; 1; 2 |] ~evals:6)
  in
  let t_on = run true and t_off = run false in
  Alcotest.(check bool)
    (Printf.sprintf "overlap %.0f < sync %.0f" t_on t_off)
    true
    (t_on < t_off)

let test_multi_bit_exact_overlap_toggle () =
  (* Functional execution is eager and in issue order: the stream engine
     must not change a single bit when overlap is toggled. *)
  let global_dims = [| 8; 4; 4; 4 |] in
  let geom = Geometry.create global_dims in
  let u = Lqcd.Gauge.create_links geom in
  Lqcd.Gauge.random_gauge ~epsilon:0.4 u (Prng.create ~seed:21L);
  let psi = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Field.fill_gaussian psi (Prng.create ~seed:22L);
  let run overlap =
    let m = Multi.create ~global_dims ~rank_dims:[| 2; 1; 1; 1 |] () in
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
    let dout = Multi.create_field m (Shape.lattice_fermion Shape.F64) in
    ignore
      (Multi.eval m dout (fun rank ->
           dslash (Array.map (fun (df : Multi.dfield) -> df.Multi.locals.(rank)) du)
             dpsi.Multi.locals.(rank)));
    let got = Field.create (Shape.lattice_fermion Shape.F64) geom in
    Multi.gather m dout ~global:got;
    got
  in
  let on_result = run true and off_result = run false in
  let d = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field on_result) (Expr.field off_result)) in
  Alcotest.(check (float 0.0)) "bit-identical" 0.0 d

let test_multi_trace_two_streams () =
  (* The rank timeline must show work on both the compute and the comm
     stream, with face traffic concurrent to the inner kernel. *)
  let m, _ =
    multi_dslash_run ~overlap:true ~mode:Gpusim.Device.Model_only
      ~global_dims:[| 8; 8; 8; 8 |] ~rank_dims:[| 1; 1; 1; 2 |] ~evals:4
  in
  let ctx = Qdpjit.Engine.streams (Multi.engine m 0) in
  let sids =
    List.sort_uniq compare (List.map (fun sp -> sp.Streams.span_sid) (Streams.spans ctx))
  in
  Alcotest.(check bool) "spans on >= 2 streams" true (List.length sids >= 2)

let () =
  Alcotest.run "streams"
    [
      ( "events",
        [
          Alcotest.test_case "wait before record" `Quick test_wait_before_record;
          Alcotest.test_case "cross-stream chain" `Quick test_cross_stream_chain;
          Alcotest.test_case "query and sync" `Quick test_event_query_and_sync;
          Alcotest.test_case "elapsed" `Quick test_event_elapsed;
          Alcotest.test_case "external completion" `Quick test_external_record;
        ] );
      ( "engines",
        [
          Alcotest.test_case "kernels serialize" `Quick test_kernels_serialize;
          Alcotest.test_case "copies overlap compute" `Quick test_copy_overlaps_compute;
          Alcotest.test_case "stream order" `Quick test_same_stream_serializes;
        ] );
      ( "sync",
        [
          Alcotest.test_case "device sync = max" `Quick test_synchronize_max_of_streams;
          Alcotest.test_case "stream sync" `Quick test_stream_synchronize;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "span cap" `Quick test_span_cap;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome json" `Quick test_trace_json;
          Alcotest.test_case "engine records spans" `Quick test_engine_records_spans;
        ] );
      ( "multi",
        [
          Alcotest.test_case "overlap strictly shorter" `Quick test_overlap_strictly_shorter;
          Alcotest.test_case "bit-exact toggle" `Quick test_multi_bit_exact_overlap_toggle;
          Alcotest.test_case "two-stream trace" `Quick test_multi_trace_two_streams;
        ] );
    ]
