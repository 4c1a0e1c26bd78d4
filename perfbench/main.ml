(* The end-to-end benchmark of the QDP-JIT reproduction.

     main.exe --workload wilson_cg|rhmc_traj|serve_tenants --seed N
              --seconds S --trace 0|1 [--out DIR]

   perfbench/run.py builds this executable and runs it from the root of a
   checkout.  The last line of standard output is the JSON result: the
   value of every end-to-end metric with --trace 0, of every per-layer
   metric with --trace 1; run.py checks the names against BENCHMARK.json
   and attaches the units.  Lines before it start with '#' and record
   the configuration, the sample counts and, when tracing, the layer
   table.  perfbench/README.md defines every metric. *)

module W = Workloads
module H = Perfbench.Harness

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let usage () =
  die "usage: main.exe --workload %s --seed N --seconds S --trace 0|1 [--out DIR]"
    (String.concat "|" (List.map (fun (w : W.workload) -> w.W.name) W.all))

let parse () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let out = ref ".perfbench" in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := List.find_opt (fun (w : W.workload) -> w.W.name = v) W.all;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0.0 then Some s else None);
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | "--out" :: v :: rest ->
        out := v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace -> (w, seed, seconds, trace, !out)
  | _ -> usage ()

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ------------------------------------------------------------------ *)
(* Running units *)

(* Between units: a full major collection, then a host probe.  Garbage
   left by the set-up or the previous unit is not billed to the next
   one, the heap high-water mark does not drift with the number of units
   a run makes, and the probe runs with no collection work pending. *)
let settle_and_probe () =
  Gc.full_major ();
  H.probe ()

let run_unit (inst : W.instance) ~trace =
  let r = if trace then Some (H.recorder inst.W.counters) else None in
  W.tracer := r;
  let u = Fun.protect ~finally:(fun () -> W.tracer := None) inst.W.run in
  match r with Some r -> { u with W.spans = H.take r } | None -> u

(* A unit's wall times at the reference host speed (see Harness.probe). *)
let at_reference ~before ~after (u : W.unit_run) =
  let f = H.at_reference ~before ~after in
  {
    u with
    W.wall = f u.W.wall;
    busy = f u.W.busy;
    requests = List.map (fun (wait, latency) -> (f wait, f latency)) u.W.requests;
  }

(* Set-up: engine or server creation plus the first, cold unit, between
   two host probes.  Returns its wall time and that time at the
   reference speed. *)
let set_up setup =
  let before = settle_and_probe () in
  let t0 = W.now () in
  let inst = setup () in
  let created = W.now () -. t0 in
  let cold = run_unit inst ~trace:false in
  let wall = created +. cold.W.wall in
  (wall, H.at_reference ~before ~after:(settle_and_probe ()) wall, inst, cold)

(* Counters a traced unit must reproduce exactly: tracing reads only
   non-flushing counters inside a unit, so it cannot change them. *)
let structural =
  [
    "gpusim.launches"; "qdpjit.flushes"; "qdpjit.fused_groups"; "qdpjit.kernels_built";
    "memcache.uploads"; "memcache.pageouts"; "memcache.spills";
  ]

let signature (u : W.unit_run) = (u.W.iters, List.map (W.get u.W.d) structural)

(* ------------------------------------------------------------------ *)
(* Chrome trace: the engine's simulated-device lanes plus one host lane
   holding the benchmark's spans for the same unit. *)

let chrome_trace streams (spans : H.span list) =
  let suffix = "\n],\"displayTimeUnit\":\"ns\"}\n" in
  let device =
    match streams with
    | Some ctx -> Streams.Trace.chrome_json [ ("simulated device", ctx) ]
    | None -> "{\"traceEvents\":[\n" ^ suffix
  in
  if not (String.ends_with ~suffix device) then die "unexpected Chrome trace layout";
  let b = Buffer.create (String.length device + (200 * List.length spans)) in
  Buffer.add_string b (String.sub device 0 (String.length device - String.length suffix));
  Buffer.add_string b
    ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"benchmark host\"}}";
  let base = List.fold_left (fun acc s -> Float.min acc s.H.t0) infinity spans in
  List.iter
    (fun (s : H.span) ->
      Printf.bprintf b
        ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":0}"
        s.H.name (H.layer_of s.H.name)
        ((s.H.t0 -. base) *. 1e6)
        ((s.H.t1 -. s.H.t0) *. 1e6))
    spans;
  Buffer.add_string b suffix;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Metrics *)

let med f xs = H.median (List.map f xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b
let requests units = List.concat_map (fun (u : W.unit_run) -> u.W.requests) units

(* [units] and [setups] are at the reference host speed.  Throughput is
   a median of per-unit rates, so one slow unit moves it no more than it
   moves the latency median. *)
let end_to_end ~setups (units : W.unit_run list) =
  let reqs = requests units in
  let rate (u : W.unit_run) = float_of_int (List.length u.W.requests) /. u.W.busy in
  let sim_ms (u : W.unit_run) =
    (W.get u.W.d "gpusim.kernel_ns" +. W.get u.W.d "gpusim.transfer_ns")
    /. 1e6
    /. float_of_int (List.length u.W.requests)
  in
  [
    ("setup_s", H.median setups);
    ("latency_p50_s", H.median (List.map snd reqs));
    ("requests_per_s", med rate units);
    ("sim_ms", med sim_ms units);
    ("peak_rss_mb", peak_rss_mb ());
  ]

(* Per workload, the request-level metrics also go by the request's name
   (solve_s, traj_s, task_latency_p50_s, solves_per_s); print those names
   beside the benchmark's.  A tail percentile is printed only
   with at least [H.min_beyond] samples beyond it. *)
let print_aliases (w : W.workload) metrics units =
  List.iter
    (fun (alias, name) ->
      Printf.printf "# %-28s %16.6f (= %s)\n" alias (List.assoc name metrics) name)
    w.W.aliases;
  let lat = List.map snd (requests units) in
  if w.W.name = "serve_tenants" && H.percentile_ok ~p:0.8 (List.length lat) then
    Printf.printf "# %-28s %16.6f s (%d tasks)\n" "task_latency_p80_s" (H.percentile ~p:0.8 lat)
      (List.length lat)

let per_layer (w : W.workload) ~(cold : W.unit_run) ~untraced ~traced =
  let dm name = med (fun (u : W.unit_run) -> W.get u.W.d name) untraced in
  let tr = List.map (fun (u : W.unit_run) -> H.self_times u.W.spans) traced in
  let tmed f = H.median (List.map f tr) in
  let calls name s = float_of_int (fst (H.self_sum ~keep:(String.equal name) s)) in
  let secs name s = snd (H.self_sum ~keep:(String.equal name) s) in
  let layer l s = snd (H.self_sum ~keep:(fun n -> H.layer_of n = l) s) in
  let per_call name s = 1e6 *. ratio (secs name s) (calls name s) in
  let serving = w.W.name = "serve_tenants" in
  (* Like every counter, the request percentiles come from untraced
     units, so they carry no recorder overhead. *)
  let reqs = requests untraced in
  let tail xs = if serving then H.percentile ~p:0.8 xs else 0.0 in
  let wall units = med (fun (u : W.unit_run) -> u.W.wall) units in
  [
    ("solvers.iterations", med (fun (u : W.unit_run) -> float_of_int u.W.iters) untraced);
    ("solvers.host_s", tmed (layer "solvers"));
    ( "solvers.iter_ms",
      med (fun (u : W.unit_run) -> 1000.0 *. u.W.busy /. float_of_int u.W.iters) untraced );
    ("qdpjit.eval_calls", tmed (calls "qdpjit.eval"));
    ("qdpjit.eval_s", tmed (secs "qdpjit.eval"));
    ("qdpjit.eval_us_per_call", tmed (per_call "qdpjit.eval"));
    ("qdpjit.reduce_calls", tmed (calls "qdpjit.reduce"));
    ("qdpjit.reduce_s", tmed (secs "qdpjit.reduce"));
    ("qdpjit.sync_s", tmed (secs "qdpjit.sync"));
    ("qdpjit.flushes", dm "qdpjit.flushes");
    ("qdpjit.fused_groups", dm "qdpjit.fused_groups");
    ("qdpjit.launches_saved", dm "qdpjit.launches_saved");
    ( "qdpjit.members_per_group",
      med
        (fun (u : W.unit_run) ->
          let g = W.get u.W.d "qdpjit.fused_groups" in
          ratio (g +. W.get u.W.d "qdpjit.launches_saved") g)
        untraced );
    ("qdpjit.fallbacks", dm "qdpjit.fallbacks");
    ("qdpjit.kernels_built", W.get cold.W.d "qdpjit.kernels_built");
    ("qdpjit.jit_model_s", W.get cold.W.d "qdpjit.jit_model_s");
    ("qdpjit.cold_excess_s", cold.W.wall -. wall untraced);
    ("jitcache.hits", dm "jitcache.hits");
    ("jitcache.misses", dm "jitcache.misses");
    ("jitcache.stores", dm "jitcache.stores");
    ("jitcache.corrupt", dm "jitcache.corrupt");
    ("jitcache.evictions", dm "jitcache.evictions");
    ( "jitcache.hit_ratio",
      med
        (fun (u : W.unit_run) ->
          let h = W.get u.W.d "jitcache.hits" in
          ratio h (h +. W.get u.W.d "jitcache.misses"))
        untraced );
    ("memcache.hits", dm "memcache.hits");
    ("memcache.uploads", dm "memcache.uploads");
    ("memcache.pageouts", dm "memcache.pageouts");
    ("memcache.spills", dm "memcache.spills");
    ("memcache.inflight_skips", dm "memcache.inflight_skips");
    ( "memcache.hit_ratio",
      med
        (fun (u : W.unit_run) ->
          let h = W.get u.W.d "memcache.hits" in
          ratio h (h +. W.get u.W.d "memcache.uploads"))
        untraced );
    ("gpusim.launches", dm "gpusim.launches");
    ( "gpusim.launches_per_iter",
      med
        (fun (u : W.unit_run) -> ratio (W.get u.W.d "gpusim.launches") (float_of_int u.W.iters))
        untraced );
    ("gpusim.launch_failures", dm "gpusim.launch_failures");
    ("gpusim.kernel_bytes", dm "gpusim.kernel_bytes");
    ("gpusim.kernel_bytes_f16", dm "gpusim.kernel_bytes_f16");
    ("gpusim.kernel_bytes_f32", dm "gpusim.kernel_bytes_f32");
    ("gpusim.kernel_bytes_f64", dm "gpusim.kernel_bytes_f64");
    ("gpusim.kernel_sim_ms", dm "gpusim.kernel_ns" /. 1e6);
    ("gpusim.h2d_bytes", dm "gpusim.h2d_bytes");
    ("gpusim.d2h_bytes", dm "gpusim.d2h_bytes");
    ("gpusim.transfer_sim_ms", dm "gpusim.transfer_ns" /. 1e6);
    ("gpusim.allocs", dm "gpusim.allocs");
    ("gpusim.frees", dm "gpusim.frees");
    ("streams.spans", dm "streams.spans");
    ("streams.horizon_ms", dm "streams.horizon_ns" /. 1e6);
    ("hmc.md_steps", med (fun (u : W.unit_run) -> float_of_int u.W.md_steps) untraced);
    ("hmc.accepted", med (fun (u : W.unit_run) -> float_of_int u.W.accepted) untraced);
    ("hmc.host_s", tmed (layer "hmc"));
    ("serve.queue_wait_p50_s", if serving then H.median (List.map fst reqs) else 0.0);
    ("serve.queue_wait_p80_s", tail (List.map fst reqs));
    ("serve.task_latency_p80_s", tail (List.map snd reqs));
    ("serve.run_s", tmed (secs "serve.run"));
    ("serve.close_s", tmed (secs "serve.close"));
    ("serve.host_s", tmed (secs "serve.batch"));
    ("trace.overhead_frac", ratio (wall traced) (wall untraced) -. 1.0);
  ]

(* The ranked layer table of the traced units, per unit, and the check
   that self times add up to the unit wall. *)
let print_layers (traced : W.unit_run list) =
  let n = float_of_int (List.length traced) in
  let selfs = List.map (fun (u : W.unit_run) -> H.self_times u.W.spans) traced in
  let worst =
    List.fold_left2
      (fun acc (u : W.unit_run) s -> Float.max acc (Float.abs (snd (H.self_sum s) -. u.W.wall)))
      0.0 traced selfs
  in
  let wall = List.fold_left (fun a (u : W.unit_run) -> a +. u.W.wall) 0.0 traced /. n in
  let c name = W.col name in
  Printf.printf
    "# layer table: %d traced units, per unit; self time and the counters each span moved\n"
    (List.length traced);
  Printf.printf "# %-16s %9s %10s %7s %9s %11s %8s %8s %7s %8s %8s\n" "span" "calls" "self_s"
    "share" "launches" "kernel_ms" "uploads" "pageouts" "spills" "jit_hits" "jit_miss";
  List.iter
    (fun (r : H.row) ->
      let d i = r.H.row_delta.(i) /. n in
      Printf.printf "# %-16s %9.1f %10.4f %6.1f%% %9.1f %11.3f %8.1f %8.1f %7.1f %8.1f %8.1f\n"
        r.H.key
        (float_of_int r.H.calls /. n)
        (r.H.row_s /. n)
        (100.0 *. r.H.row_s /. n /. wall)
        (d (c "gpusim.launches"))
        (d (c "gpusim.kernel_ns") /. 1e6)
        (d (c "memcache.uploads"))
        (d (c "memcache.pageouts"))
        (d (c "memcache.spills"))
        (d (c "jitcache.hits"))
        (d (c "jitcache.misses")))
    (H.by_span (List.concat selfs));
  Printf.printf "# unit wall %.4f s; self times sum to the unit wall within %.3g s\n" wall worst

(* ------------------------------------------------------------------ *)

let () =
  let w, seed, seconds, trace, out_dir = parse () in
  (* Pin the configuration: the benchmark uses only the JIT cache
     directories it creates (an empty REPRO_JIT_CACHE leaves the engine's
     argument in force), passes VM worker counts explicitly, and measures
     the default VM executor. *)
  Unix.putenv Jitcache.env_var "";
  if not (Gpusim.Vm.superinstructions_enabled ()) then
    die "superinstructions are disabled (REPRO_VM_SUPERINSN); the benchmark measures the default";
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  let nproc = Gpusim.Vm_backend.available_domains () in
  let cfg = { W.seed; seconds; trace; out_dir } in
  Printf.printf
    "# perfbench %s seed=%d seconds=%g trace=%d runtime=%s nproc=%d vm_domains=%d ocaml=%s \
     superinstructions=%b cache_tag=%s\n\
     %!"
    w.W.name seed seconds (Bool.to_int trace) Gpusim.Vm_backend.runtime nproc W.vm_domains
    Sys.ocaml_version
    (Gpusim.Vm.superinstructions_enabled ())
    Qdpjit.Engine.cache_tag;
  let t_start = W.now () in
  let setup = w.W.prepare cfg in
  let t_prepared = W.now () in
  let tally = H.tally () in
  (* The first probe also builds the probe's table. *)
  ignore (H.probe ());
  (* Extra set-ups run first and are dropped, so at most one engine
     besides the measured one is alive at any time. *)
  let extra =
    List.init
      ((if trace then 1 else w.W.setups) - 1)
      (fun _ ->
        let s = set_up setup in
        let _, _, inst, cold = s in
        H.record tally cold.W.verdict;
        inst.W.cleanup ();
        s)
  in
  let ((_, _, inst, cold) as s) = set_up setup in
  H.record tally cold.W.verdict;
  let setups = s :: extra in
  let t_steady = W.now () in
  let untraced = ref [] and traced = ref [] and reference = ref None and trace_json = ref None in
  let scaled = ref [] and probes = ref [ settle_and_probe () ] in
  let deadline = W.now () +. seconds in
  let turn = ref false in
  while
    W.now () < deadline
    || List.length !untraced < w.W.min_units
    || (trace && !traced = [])
  do
    let traced_turn = trace && !turn in
    turn := not !turn;
    let u = run_unit inst ~trace:traced_turn in
    let before = List.hd !probes and after = settle_and_probe () in
    probes := after :: !probes;
    let u =
      match !reference with
      | None ->
          reference := Some (signature u);
          u
      | Some sg when sg = signature u || Result.is_error u.W.verdict -> u
      | Some _ -> { u with W.verdict = Error "structural counters differ between units" }
    in
    H.record tally u.W.verdict;
    if traced_turn then begin
      traced := u :: !traced;
      trace_json := Some (chrome_trace (inst.W.streams ()) u.W.spans)
    end
    else begin
      untraced := u :: !untraced;
      scaled := at_reference ~before ~after u :: !scaled
    end
  done;
  inst.W.cleanup ();
  let t_end = W.now () in
  let untraced = List.rev !untraced and traced = List.rev !traced and scaled = List.rev !scaled in
  let metrics =
    if trace then per_layer w ~cold ~untraced ~traced
    else end_to_end ~setups:(List.map (fun (_, s, _, _) -> s) setups) scaled
  in
  Printf.printf "# set-ups %d, steady units %d untraced + %d traced, requests %d; failed_frac %g (%d/%d)\n"
    (List.length setups) (List.length untraced) (List.length traced)
    (List.length (requests untraced))
    (H.failed_frac tally) tally.H.failed tally.H.attempted;
  List.iter (Printf.printf "# failure: %s\n") tally.H.reasons;
  Printf.printf "# run phases (s): inputs and reference %.1f, set-ups %.1f, steady units %.1f\n"
    (t_prepared -. t_start) (t_steady -. t_prepared) (t_end -. t_steady);
  let walls f xs = String.concat " " (List.map (fun x -> Printf.sprintf "%.3f" (f x)) xs) in
  Printf.printf
    "# host probe: median %.2f ms, reference %.2f ms\n\
     # set-up walls (s): %s\n# set-up walls at reference speed (s): %s\n\
     # unit walls (s): %s\n# unit walls at reference speed (s): %s\n"
    (1e3 *. H.median !probes) (1e3 *. H.reference_probe_s)
    (walls (fun (s, _, _, _) -> s) setups)
    (walls (fun (_, s, _, _) -> s) setups)
    (walls (fun (u : W.unit_run) -> u.W.wall) untraced)
    (walls (fun (u : W.unit_run) -> u.W.wall) scaled);
  (match !reference with
  | Some (iters, counts) ->
      Printf.printf "# structural counters of every steady unit: iterations=%d %s\n" iters
        (String.concat " " (List.map2 (Printf.sprintf "%s=%.0f") structural counts))
  | None -> ());
  if trace then begin
    print_layers traced;
    let path = Filename.concat out_dir (Printf.sprintf "trace_%s.json" w.W.name) in
    Option.iter
      (fun json ->
        let oc = open_out path in
        output_string oc json;
        close_out oc;
        Printf.printf "# chrome trace of the last traced unit: %s\n" path)
      !trace_json
  end;
  List.iter (fun (n, v) -> if not (Float.is_finite v) then die "metric %s is not finite" n) metrics;
  if not trace then print_aliases w metrics scaled;
  print_endline
    (H.result_line ~correct:(tally.H.failed = 0) ~attempted:tally.H.attempted
       ~failed:tally.H.failed metrics)
