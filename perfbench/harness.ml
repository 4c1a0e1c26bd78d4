(* Harness code shared by the benchmark's workloads: sample statistics,
   failure accounting, the host span recorder with its self-time and
   counter attribution, and the JSON result line.  Nothing here touches
   the library under test, so the tests drive it with fake clocks and
   counters. *)

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank: the [rank ~p n]-th smallest of [n] samples is the
   smallest one with at least a share [p] of the samples at or below it. *)
let rank ~p n = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let percentile ~p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(rank ~p n - 1)

(* A tail percentile is only reported when at least this many samples lie
   beyond it; with fewer it describes one or two outliers. *)
let min_beyond = 10

let samples_beyond ~p n = n - rank ~p n
let percentile_ok ~p n = samples_beyond ~p n >= min_beyond

(* ------------------------------------------------------------------ *)
(* Host speed.  On a shared host the same work runs up to 1.5x slower
   for minutes at a time, and a wall-time median over one run cannot
   average that out.  So the benchmark times a fixed piece of host work
   — the probe — before and after every unit and scales the unit's wall
   times to a reference speed: the probe's time on the reference host (a
   2.1 GHz Xeon vCPU) when nothing else loads it.  The probe has the
   profile of an interpreter such as the VM executor: a data-dependent
   four-way dispatch over loads and stores scattered across a table the
   size of a core's L2.  It allocates nothing, so no collection runs
   inside it and its time does not depend on the heap of the workload
   around it. *)

let probe_table = lazy (Array.make (1 lsl 16) 0)
let probe_work () =
  let a = Lazy.force probe_table in
  let mask = Array.length a - 1 in
  let x = ref 0x2545F491 and acc = ref 0 in
  for i = 0 to 399_999 do
    x := ((!x * 0x5851F42D) + 0x14057B7E) land 0x3FFFFFFF;
    let j = !x land mask in
    match (!x lsr 26) land 3 with
    | 0 -> acc := !acc + Array.unsafe_get a j
    | 1 -> Array.unsafe_set a j !acc
    | 2 -> acc := !acc lxor (Array.unsafe_get a j lsl 1)
    | _ -> Array.unsafe_set a j (Array.unsafe_get a j + i)
  done;
  ignore (Sys.opaque_identity !acc)

(* Median of five timed runs, so an interrupted run is ignored. *)
let probe ?(clock = Unix.gettimeofday) ?(work = probe_work) () =
  median
    (List.init 5 (fun _ ->
         let t0 = clock () in
         work ();
         clock () -. t0))

let reference_probe_s = 0.0035

(* A time taken between two probes, in seconds at the reference speed:
   the host's speed over the interval is taken as the mean of the probes
   on either side. *)
let at_reference ~before ~after t = t *. reference_probe_s /. ((before +. after) /. 2.0)

(* ------------------------------------------------------------------ *)
(* Failure accounting: every unit of work is checked against the
   reference and counts as attempted; a mismatch or a solver that did not
   converge counts as failed. *)

type tally = { mutable attempted : int; mutable failed : int; mutable reasons : string list }

let tally () = { attempted = 0; failed = 0; reasons = [] }

let record t = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error why ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      if not (List.mem why t.reasons) then t.reasons <- why :: t.reasons

let failed_frac t =
  if t.attempted = 0 then 1.0 else float_of_int t.failed /. float_of_int t.attempted

(* ------------------------------------------------------------------ *)
(* Spans.  A span is named "<layer>.<what>"; its layer is the prefix.
   [delta] is the change of every counter across the span, children
   included.  Spans are kept in memory and handed out with [take]. *)

type span = {
  id : int;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  name : string;
  t0 : float;
  t1 : float;
  delta : float array;
}

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

type frame = { f_id : int; f_name : string; f_t0 : float; f_c0 : float array }

type recorder = {
  clock : unit -> float;
  counters : unit -> float array;
  mutable next_id : int;
  mutable open_frames : frame list;
  mutable closed : span list;  (** most recently closed first *)
}

let recorder ?(clock = Unix.gettimeofday) counters =
  { clock; counters; next_id = 0; open_frames = []; closed = [] }

let close r fr =
  let t1 = r.clock () in
  let c1 = r.counters () in
  r.open_frames <- List.tl r.open_frames;
  let parent = match r.open_frames with p :: _ -> p.f_id | [] -> -1 in
  let delta = Array.map2 ( -. ) c1 fr.f_c0 in
  r.closed <- { id = fr.f_id; parent; name = fr.f_name; t0 = fr.f_t0; t1; delta } :: r.closed

let span r name f =
  let c0 = r.counters () in
  let t0 = r.clock () in
  let fr = { f_id = r.next_id; f_name = name; f_t0 = t0; f_c0 = c0 } in
  r.next_id <- r.next_id + 1;
  r.open_frames <- fr :: r.open_frames;
  match f () with
  | v ->
      close r fr;
      v
  | exception e ->
      close r fr;
      raise e

(* The spans closed so far, in closing order; the recorder forgets them. *)
let take r =
  let spans = List.rev r.closed in
  r.closed <- [];
  spans

(* Self time and self counters: a span's own duration and counter deltas
   minus those of its direct children.  Summed over a tree they give
   back the root's duration and deltas exactly. *)
type self = { span : span; self_s : float; self_delta : float array }

let self_times spans =
  let child_s = Hashtbl.create 64 and child_d = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let d = s.t1 -. s.t0 in
        Hashtbl.replace child_s s.parent
          (d +. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.parent));
        match Hashtbl.find_opt child_d s.parent with
        | Some acc -> Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) s.delta
        | None -> Hashtbl.add child_d s.parent (Array.copy s.delta)
      end)
    spans;
  List.map
    (fun s ->
      let cs = Option.value ~default:0.0 (Hashtbl.find_opt child_s s.id) in
      let self_delta =
        match Hashtbl.find_opt child_d s.id with
        | Some acc -> Array.map2 ( -. ) s.delta acc
        | None -> Array.copy s.delta
      in
      { span = s; self_s = s.t1 -. s.t0 -. cs; self_delta })
    spans

(* Sum of self times (and number of spans) whose name satisfies [keep]. *)
let self_sum ?(keep = fun _ -> true) selfs =
  List.fold_left
    (fun (n, t) s -> if keep s.span.name then (n + 1, t +. s.self_s) else (n, t))
    (0, 0.0) selfs

type row = { key : string; calls : int; row_s : float; row_delta : float array }

(* One row per span name (a layer boundary), ranked by self time, largest
   first. *)
let by_span selfs =
  let rows = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let k = s.span.name in
      match Hashtbl.find_opt rows k with
      | Some r ->
          Hashtbl.replace rows k
            {
              r with
              calls = r.calls + 1;
              row_s = r.row_s +. s.self_s;
              row_delta = Array.map2 ( +. ) r.row_delta s.self_delta;
            }
      | None ->
          order := k :: !order;
          Hashtbl.add rows k
            { key = k; calls = 1; row_s = s.self_s; row_delta = Array.copy s.self_delta })
    selfs;
  List.map (Hashtbl.find rows) (List.rev !order)
  |> List.stable_sort (fun a b -> Float.compare b.row_s a.row_s)

(* ------------------------------------------------------------------ *)
(* The result line: metric names with their values.  BENCHMARK.json is
   the only place metric units are written; run.py checks the names
   against it and attaches the units. *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
    attempted failed;
  List.iteri
    (fun i (name, v) ->
      Printf.bprintf b "%s\"%s\": %s" (if i > 0 then ", " else "") name (json_number v))
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
