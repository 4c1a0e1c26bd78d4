(* Tests of the benchmark harness: the percentile rule, the scaling to
   reference host speed, span self-time arithmetic, counter attribution,
   failure accounting and the result line.  test_run.py checks run.py's agreement with BENCHMARK.json. *)

module H = Perfbench.Harness

let feq = Alcotest.float 1e-12

(* ------------------------------------------------------------------ *)
(* Percentiles *)

let test_percentile_rule () =
  Alcotest.(check int) "p80 of 50 leaves 10 beyond" 10 (H.samples_beyond ~p:0.8 50);
  Alcotest.(check bool) "p80 reportable at 50 samples" true (H.percentile_ok ~p:0.8 50);
  Alcotest.(check bool) "p80 not reportable at 49 samples" false (H.percentile_ok ~p:0.8 49);
  Alcotest.(check bool) "p50 reportable at 20 samples" true (H.percentile_ok ~p:0.5 20);
  Alcotest.(check bool) "p50 not reportable at 19 samples" false (H.percentile_ok ~p:0.5 19);
  let xs = List.init 50 (fun i -> float_of_int (50 - i)) in
  Alcotest.check feq "nearest-rank p80 of 1..50" 40.0 (H.percentile ~p:0.8 xs);
  Alcotest.check feq "median, odd count" 2.0 (H.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "median, even count" 2.5 (H.median [ 4.0; 1.0; 3.0; 2.0 ])

(* ------------------------------------------------------------------ *)
(* Host speed: the probe's median and the scaling to reference speed *)

let test_reference_speed () =
  let t = ref 0.0 and steps = ref [ 5.0; 1.0; 30.0; 2.0; 4.0 ] in
  let work () =
    t := !t +. List.hd !steps;
    steps := List.tl !steps
  in
  Alcotest.check feq "probe is the median of five timed runs" 4.0
    (H.probe ~clock:(fun () -> !t) ~work ());
  let r = H.reference_probe_s in
  Alcotest.check feq "at reference speed, times are unchanged" 3.0
    (H.at_reference ~before:r ~after:r 3.0);
  Alcotest.check feq "a host half as fast halves the time" 3.0
    (H.at_reference ~before:(2.0 *. r) ~after:(2.0 *. r) 6.0);
  Alcotest.check feq "speed over a unit is the mean of the probes around it" 2.0
    (H.at_reference ~before:r ~after:(3.0 *. r) 4.0)

(* ------------------------------------------------------------------ *)
(* Spans: a fake clock and one fake counter the test advances by hand *)

let fake () =
  let t = ref 0.0 and c = ref 0.0 in
  let r = H.recorder ~clock:(fun () -> !t) (fun () -> [| !c |]) in
  (r, t, c)

(* root [0,10] > a [1,4] > g [2,3], and root > b [5,9]; one counter
   bumped by 1 in g, 2 in a outside g, 4 in b and 8 in root itself. *)
let nested () =
  let r, t, c = fake () in
  H.span r "solvers.cg" (fun () ->
      t := 1.0;
      H.span r "qdpjit.eval" (fun () ->
          c := !c +. 2.0;
          t := 2.0;
          H.span r "memcache.upload" (fun () ->
              c := !c +. 1.0;
              t := 3.0);
          t := 4.0);
      t := 5.0;
      H.span r "qdpjit.reduce" (fun () ->
          c := !c +. 4.0;
          t := 9.0);
      c := !c +. 8.0;
      t := 10.0);
  H.self_times (H.take r)

let self_of selfs name =
  (List.find (fun (s : H.self) -> s.H.span.H.name = name) selfs)

let test_self_times () =
  let selfs = nested () in
  let s name = (self_of selfs name).H.self_s in
  Alcotest.check feq "root self" 3.0 (s "solvers.cg");
  Alcotest.check feq "a self" 2.0 (s "qdpjit.eval");
  Alcotest.check feq "g self" 1.0 (s "memcache.upload");
  Alcotest.check feq "b self" 4.0 (s "qdpjit.reduce");
  let total = List.fold_left (fun acc (x : H.self) -> acc +. x.H.self_s) 0.0 selfs in
  Alcotest.check feq "self times add up to the root" 10.0 total;
  let root = self_of selfs "solvers.cg" in
  Alcotest.(check int) "root has no parent" (-1) root.H.span.H.parent;
  Alcotest.(check int) "child points at root" root.H.span.H.id
    (self_of selfs "qdpjit.eval").H.span.H.parent

let test_counter_attribution () =
  let selfs = nested () in
  let d name = (self_of selfs name).H.self_delta.(0) in
  Alcotest.check feq "g moved 1" 1.0 (d "memcache.upload");
  Alcotest.check feq "a moved 2 of its own" 2.0 (d "qdpjit.eval");
  Alcotest.check feq "b moved 4" 4.0 (d "qdpjit.reduce");
  Alcotest.check feq "root moved 8 of its own" 8.0 (d "solvers.cg");
  Alcotest.check feq "inclusive delta of the root" 15.0 (self_of selfs "solvers.cg").H.span.H.delta.(0);
  let rows = H.by_span selfs in
  Alcotest.(check (list string)) "rows ranked by self time"
    [ "qdpjit.reduce"; "solvers.cg"; "qdpjit.eval"; "memcache.upload" ]
    (List.map (fun (r : H.row) -> r.H.key) rows)

let test_span_closes_on_exception () =
  let r, t, _ = fake () in
  (try
     H.span r "hmc.trajectory" (fun () ->
         t := 1.0;
         H.span r "qdpjit.eval" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let spans = H.take r in
  Alcotest.(check (list string)) "both spans closed, inner first"
    [ "qdpjit.eval"; "hmc.trajectory" ]
    (List.map (fun (s : H.span) -> s.H.name) spans);
  Alcotest.(check string) "layer is the name's prefix" "hmc" (H.layer_of "hmc.trajectory")

(* ------------------------------------------------------------------ *)
(* Failure accounting *)

let test_failed_frac () =
  let t = H.tally () in
  Alcotest.check feq "nothing attempted counts as failed" 1.0 (H.failed_frac t);
  H.record t (Ok ());
  H.record t (Error "CG did not converge");
  H.record t (Ok ());
  H.record t (Error "CG did not converge");
  Alcotest.(check int) "attempted" 4 t.H.attempted;
  Alcotest.(check int) "failed" 2 t.H.failed;
  Alcotest.check feq "failed_frac" 0.5 (H.failed_frac t);
  Alcotest.(check (list string)) "reasons kept once" [ "CG did not converge" ] t.H.reasons

(* ------------------------------------------------------------------ *)
(* The result line main.exe prints; run.py attaches the units *)

let test_result_line () =
  Alcotest.(check string) "names and values, integers without a fraction"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": 1.5, \"peak_rss_mb\": 152}}"
    (H.result_line ~correct:true ~attempted:3 ~failed:0 [ ("setup_s", 1.5); ("peak_rss_mb", 152.0) ]);
  Alcotest.(check string) "all digits of a time" "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {\"latency_p50_s\": 0.10000000000000001}}"
    (H.result_line ~correct:false ~attempted:1 ~failed:1 [ ("latency_p50_s", 0.1) ])

let () =
  Alcotest.run "perfbench"
    [
      ("harness percentiles", [ Alcotest.test_case "percentile rule" `Quick test_percentile_rule ]);
      ("harness host speed", [ Alcotest.test_case "reference speed" `Quick test_reference_speed ]);
      ( "harness spans",
        [
          Alcotest.test_case "self times add up" `Quick test_self_times;
          Alcotest.test_case "counter attribution" `Quick test_counter_attribution;
          Alcotest.test_case "span closes on exception" `Quick test_span_closes_on_exception;
        ] );
      ("harness failures", [ Alcotest.test_case "failed_frac counting" `Quick test_failed_frac ]);
      ("harness result", [ Alcotest.test_case "result line" `Quick test_result_line ]);
    ]
