(** CUDA-style streams and events on the simulated device (the machinery
    behind the paper's Sec. V comm/compute overlap).

    A context owns a set of stream timelines over one {!Gpusim.Device.t}.
    Work is issued to a stream and scheduled by a small discrete-event
    scheduler: each operation starts at the later of its stream's cursor
    (program order within the stream) and the free time of the device
    engine it occupies — kernels share the SMs (one compute engine, as on
    Kepler where bandwidth-bound kernels serialize), while H2D and D2H
    copies each have their own copy engine, which is what lets a face
    export overlap an inner kernel.  Functional execution is deferred to
    the host's next synchronization: a launch joins the device's queue,
    and every synchronize runs that queue in host-issue order, so
    results are bit-exact regardless of how the modeled timelines
    interleave.

    Events capture a stream's cursor when recorded ([Event.record]) or an
    externally computed completion time ([Event.record_at], used for
    message arrivals from the simulated fabric); [wait_event] makes a
    stream's next operation start no earlier than the event.  Waiting on a
    never-recorded event is a no-op, as in CUDA.

    The device's [clock_ns] is the {e host-visible} synchronized time:
    only this module moves it, when a synchronize runs, and it never
    delays stream work (asynchronous issue is free).  Every operation
    records a span (name, stream, start/end, bytes or grid) into the
    context's timeline, exportable as Chrome [trace_event] JSON via
    {!Trace}. *)

module Device = Gpusim.Device
module Machine = Gpusim.Machine

type engine = Compute | Copy_h2d | Copy_d2h

let engine_index = function Compute -> 0 | Copy_h2d -> 1 | Copy_d2h -> 2
let engine_name = function Compute -> "compute" | Copy_h2d -> "copyH2D" | Copy_d2h -> "copyD2H"

type stream = {
  sid : int;
  sname : string;
  mutable cursor_ns : float;
      (** all work issued to this stream so far completes by here *)
}

type span = {
  span_name : string;
  cat : string;  (** "kernel" | "memcpy" | ... — the Chrome trace category *)
  span_sid : int;
  start_ns : float;
  end_ns : float;
  args : (string * string) list;
}

type t = {
  device : Device.t;
  mutable streams : stream list;  (** newest first *)
  default : stream;
  mutable next_sid : int;
  engine_free_ns : float array;  (** per-engine timeline: free-at time *)
  mutable spans : span list;  (** newest first *)
}

let create_stream ?name t =
  let sid = t.next_sid in
  let s =
    { sid; sname = (match name with Some n -> n | None -> Printf.sprintf "stream%d" sid);
      cursor_ns = 0.0 }
  in
  t.next_sid <- sid + 1;
  t.streams <- s :: t.streams;
  s

let create device =
  let default = { sid = 0; sname = "stream0"; cursor_ns = 0.0 } in
  {
    device;
    streams = [ default ];
    default;
    next_sid = 1;
    engine_free_ns = Array.make 3 0.0;
    spans = [];
  }

let device t = t.device
let default_stream t = t.default
let cursor_ns s = s.cursor_ns
let spans t = List.rev t.spans
let span_count t = List.length t.spans

(* The discrete-event core: one operation of duration [dur_ns] on [s],
   occupying [engine].  Start = max(stream cursor, engine free); both
   timelines advance to the end. *)
let issue t s ~engine ~name ~cat ~dur_ns ~args =
  let e = engine_index engine in
  let start_ns = Float.max s.cursor_ns t.engine_free_ns.(e) in
  let end_ns = start_ns +. dur_ns in
  s.cursor_ns <- end_ns;
  t.engine_free_ns.(e) <- end_ns;
  t.spans <- { span_name = name; cat; span_sid = s.sid; start_ns; end_ns; args } :: t.spans;
  end_ns

let busy ?(cat = "op") t s ~engine ~name ~ns =
  ignore (issue t s ~engine ~name ~cat ~dur_ns:ns ~args: [ ("engine", engine_name engine) ])

(* A zero-duration annotation at the stream's cursor: unlike [busy] it
   occupies no engine and moves no timeline, so schedulers (the serving
   layer's per-session task markers) can label a trace without
   perturbing the model. *)
let note ?(cat = "marker") t s ~name ~args =
  t.spans <-
    { span_name = name; cat; span_sid = s.sid; start_ns = s.cursor_ns; end_ns = s.cursor_ns;
      args }
    :: t.spans

(* Asynchronous kernel launch: the device queues the functional
   execution until the host synchronizes (the queue keeps issue order =
   program order, so results are exact); the modeled duration is
   scheduled on the compute engine.  Returns the kernel duration (what the
   auto-tuner probes — queueing delay is not the kernel's fault). *)
let launch ?(name = "kernel") t s (c : Gpusim.Jit.compiled) ~nthreads ~block ~params =
  let ns = Device.execute t.device c ~nthreads ~block ~params in
  ignore
    (issue t s ~engine:Compute ~name ~cat:"kernel" ~dur_ns:ns
       ~args:
         [
           ("grid", string_of_int ((nthreads + block - 1) / max 1 block));
           ("block", string_of_int block);
           ("nthreads", string_of_int nthreads);
         ]);
  ns

(* Asynchronous host<->device copy of [bytes]: the data blit itself is the
   caller's eager host-side operation (host and device memory are both
   process memory here); the copy engine models the PCIe time. *)
let memcpy ?name t s ~bytes ~to_device =
  let ns = Device.transfer_cost t.device ~bytes ~to_device in
  let engine = if to_device then Copy_h2d else Copy_d2h in
  let name =
    match name with Some n -> n | None -> if to_device then "memcpy H2D" else "memcpy D2H"
  in
  ignore (issue t s ~engine ~name ~cat:"memcpy" ~dur_ns:ns ~args:[ ("bytes", string_of_int bytes) ]);
  ns

let memcpy_h2d ?name t s ~bytes = memcpy ?name t s ~bytes ~to_device:true
let memcpy_d2h ?name t s ~bytes = memcpy ?name t s ~bytes ~to_device:false

module Event = struct
  type t = { ename : string; mutable at_ns : float option }

  let create ?(name = "event") () = { ename = name; at_ns = None }
  let name e = e.ename
  let is_recorded e = e.at_ns <> None
  let time_ns e = e.at_ns

  let elapsed_ns a b =
    match (a.at_ns, b.at_ns) with
    | Some x, Some y -> y -. x
    | _ -> invalid_arg "Streams.Event.elapsed_ns: event not recorded"
end

(* cudaEventRecord: capture the stream's work issued so far. *)
let record_event t s (e : Event.t) =
  e.Event.at_ns <- Some s.cursor_ns;
  t.spans <-
    { span_name = e.Event.ename; cat = "event"; span_sid = s.sid; start_ns = s.cursor_ns;
      end_ns = s.cursor_ns; args = [] }
    :: t.spans

(* An event completed by the outside world (a message arrival computed by
   the simulated fabric) at an explicit timestamp. *)
let record_event_at (e : Event.t) ~ns = e.Event.at_ns <- Some ns

(* cuStreamWaitEvent: subsequent work on [s] starts no earlier than the
   event.  A never-recorded event is a no-op (CUDA semantics). *)
let wait_event _t s (e : Event.t) =
  match e.Event.at_ns with
  | None -> ()
  | Some ns -> if ns > s.cursor_ns then s.cursor_ns <- ns

(* cudaEventQuery relative to the host-visible synchronized clock: has the
   captured work provably completed?  Unrecorded events are not complete. *)
let event_query t (e : Event.t) =
  match e.Event.at_ns with None -> false | Some ns -> ns <= Device.clock_ns t.device

(* Every synchronize below is a host drain point: the device's queued
   launches run before the host observes anything. *)

(* cudaEventSynchronize: block the host until the event's work completes. *)
let event_synchronize t (e : Event.t) =
  Device.flush_batch t.device;
  match e.Event.at_ns with
  | None -> ()
  | Some ns -> if ns > Device.clock_ns t.device then Device.set_clock_ns t.device ns

(* cudaStreamSynchronize: the host blocks until the stream drains, which
   advances the host-visible clock to the stream's cursor. *)
let stream_synchronize t s =
  Device.flush_batch t.device;
  if s.cursor_ns > Device.clock_ns t.device then Device.set_clock_ns t.device s.cursor_ns;
  Device.clock_ns t.device

(* Latest completion time across every timeline, without advancing the
   clock (a pure observation). *)
let horizon t =
  List.fold_left (fun acc s -> Float.max acc s.cursor_ns) (Device.clock_ns t.device) t.streams

(* cudaDeviceSynchronize: drain every stream. *)
let synchronize t =
  Device.flush_batch t.device;
  Device.set_clock_ns t.device (horizon t);
  Device.clock_ns t.device

(* Rewind every timeline to zero and clear the recorded spans — benchmarks
   call this after warm-up so the trace holds only the measured work.
   Outstanding events keep their (now stale) timestamps; drop them. *)
let reset t =
  Device.set_clock_ns t.device 0.0;
  Array.fill t.engine_free_ns 0 (Array.length t.engine_free_ns) 0.0;
  List.iter (fun s -> s.cursor_ns <- 0.0) t.streams;
  t.spans <- []

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export: a JSON object loadable by chrome://tracing
   or https://ui.perfetto.dev.  One process per context (a device / MPI
   rank), one thread per stream, complete ("X") events with microsecond
   timestamps. *)

module Trace = struct
  let escape s =
    let b = Stdlib.Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Stdlib.Buffer.add_string b "\\\""
        | '\\' -> Stdlib.Buffer.add_string b "\\\\"
        | '\n' -> Stdlib.Buffer.add_string b "\\n"
        | '\t' -> Stdlib.Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 -> Stdlib.Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Stdlib.Buffer.add_char b c)
      s;
    Stdlib.Buffer.contents b

  let add_args b args =
    Stdlib.Buffer.add_string b "{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Stdlib.Buffer.add_string b ",";
        Stdlib.Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v)))
      args;
    Stdlib.Buffer.add_string b "}"

  (* Emit one context's spans plus process/thread naming metadata.
     [first] tracks whether a comma is needed before the next record. *)
  let add_context b ~pid ~pname ~first t =
    let sep () = if !first then first := false else Stdlib.Buffer.add_string b ",\n" in
    sep ();
    Stdlib.Buffer.add_string b
      (Printf.sprintf "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}"
         pid (escape pname));
    List.iter
      (fun s ->
        sep ();
        Stdlib.Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
             pid s.sid (escape s.sname)))
      (List.rev t.streams);
    List.iter
      (fun sp ->
        sep ();
        let ts = sp.start_ns /. 1000.0 and dur = (sp.end_ns -. sp.start_ns) /. 1000.0 in
        if sp.cat = "event" then
          Stdlib.Buffer.add_string b
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"s\":\"t\"}"
               (escape sp.span_name) ts pid sp.span_sid)
        else begin
          Stdlib.Buffer.add_string b
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":"
               (escape sp.span_name) (escape sp.cat) ts dur pid sp.span_sid);
          add_args b sp.args;
          Stdlib.Buffer.add_string b "}"
        end)
      (spans t)

  (* [chrome_json ctxs] with one (process-name, context) pair per device. *)
  let chrome_json ctxs =
    let b = Stdlib.Buffer.create 4096 in
    Stdlib.Buffer.add_string b "{\"traceEvents\":[\n";
    let first = ref true in
    List.iteri (fun pid (pname, ctx) -> add_context b ~pid ~pname ~first ctx) ctxs;
    Stdlib.Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"}\n";
    Stdlib.Buffer.contents b

  let write_file path ctxs =
    let oc = open_out path in
    output_string oc (chrome_json ctxs);
    close_out oc
end
