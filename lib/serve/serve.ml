(** Multi-tenant serving front-end.  See the interface for the model;
    the implementation notes here cover the two invariants the tests
    lean on.

    Bit-exactness: tasks execute one at a time, to completion, on the
    engine's default stream, with an {!Qdpjit.Engine.flush} at every
    task boundary.  Within a task the deferred-eval queue and fusion
    planner see exactly the eval sequence a dedicated engine would see,
    and sessions never interleave {e inside} a task — so each session's
    results are bit-identical to running its workload alone, while the
    sessions still share every compiled kernel, autotune state and the
    persistent JIT cache.

    Attribution: the boundary flushes also make the device counters
    (launches, kernel_ns) and the engine's byte counter well-defined per
    task; deltas across one task belong to exactly one session.  Queue
    wait is wall time from submission to execution start — under
    round-robin it is the fairness signal the bench reports. *)

module Engine = Qdpjit.Engine
module Device = Gpusim.Device
module Field = Qdp.Field

type task = { label : string; fn : unit -> unit; submitted_at : float }

type session = {
  server : server;
  s_id : int;
  name : string;
  stream : Streams.stream;
  arena : Memcache.arena;
  queue : task Queue.t;
  mutable closed : bool;
  mutable tasks : int;
  mutable launches : int;
  mutable kernel_bytes : int;
  mutable kernel_bytes_f16 : int;
  mutable kernel_bytes_f32 : int;
  mutable kernel_bytes_f64 : int;
  mutable sim_ns : float;
  mutable queue_wait_s : float;
  mutable run_s : float;
}

and server = {
  eng : Engine.t;
  mutable sessions_rev : session list;  (** open order, newest first *)
  mutable next_session : int;
  mutable running : bool;
}

type t = server

type session_stats = {
  s_name : string;
  s_tasks : int;
  s_launches : int;
  s_kernel_bytes : int;
  s_kernel_bytes_f16 : int;
  s_kernel_bytes_f32 : int;
  s_kernel_bytes_f64 : int;
  s_sim_ms : float;
  s_queue_wait_s : float;
  s_run_s : float;
}

let create ?machine ?vm_domains ?jit_cache () =
  let eng = Engine.create ?machine ?vm_domains ?jit_cache () in
  { eng; sessions_rev = []; next_session = 0; running = false }

let engine t = t.eng

let active_sessions t =
  List.fold_left (fun acc s -> if s.closed then acc else acc + 1) 0 t.sessions_rev

let open_session ?name t =
  let s_id = t.next_session in
  t.next_session <- s_id + 1;
  let name = match name with Some n -> n | None -> Printf.sprintf "session%d" s_id in
  let sess =
    {
      server = t;
      s_id;
      name;
      stream = Streams.create_stream ~name (Engine.streams t.eng);
      arena = Memcache.create_arena (Engine.memcache t.eng);
      queue = Queue.create ();
      closed = false;
      tasks = 0;
      launches = 0;
      kernel_bytes = 0;
      kernel_bytes_f16 = 0;
      kernel_bytes_f32 = 0;
      kernel_bytes_f64 = 0;
      sim_ns = 0.0;
      queue_wait_s = 0.0;
      run_s = 0.0;
    }
  in
  t.sessions_rev <- sess :: t.sessions_rev;
  sess

let create_field sess ?name shape geom =
  let name = match name with Some n -> n | None -> Printf.sprintf "%s:field" sess.name in
  let f = Field.create ~name shape geom in
  Memcache.arena_register sess.arena f;
  f

let adopt_field sess f = Memcache.arena_register sess.arena f

let submit ?(label = "task") sess fn =
  if sess.closed then invalid_arg "Serve.submit: session is closed";
  Queue.add { label; fn; submitted_at = Unix.gettimeofday () } sess.queue

let pending sess = Queue.length sess.queue

(* Run one task to completion with exact attribution: flush the engine
   on both sides so the device-counter deltas cover exactly this task,
   then chain the session's stream to the completed work and drop a
   marker span on it. *)
let run_task sess task =
  let eng = sess.server.eng in
  let t0 = Unix.gettimeofday () in
  sess.queue_wait_s <- sess.queue_wait_s +. (t0 -. task.submitted_at);
  Engine.flush eng;
  let dstats = Device.stats (Engine.device eng) in
  let launches0 = dstats.Device.launches in
  let kns0 = dstats.Device.kernel_ns in
  let bytes0 = Engine.kernel_bytes_moved eng in
  let f16_0, f32_0, f64_0 = Engine.kernel_bytes_by_prec eng in
  task.fn ();
  Engine.flush eng;
  let ctx = Engine.streams eng in
  let done_ev = Streams.Event.create ~name:(sess.name ^ ":" ^ task.label ^ " done") () in
  Streams.record_event ctx (Engine.default_stream eng) done_ev;
  Streams.wait_event ctx sess.stream done_ev;
  Streams.note ctx sess.stream
    ~name:(Printf.sprintf "%s:%s" sess.name task.label)
    ~args:[ ("session", sess.name); ("task", task.label) ];
  sess.tasks <- sess.tasks + 1;
  sess.launches <- sess.launches + (dstats.Device.launches - launches0);
  sess.sim_ns <- sess.sim_ns +. (dstats.Device.kernel_ns -. kns0);
  sess.kernel_bytes <- sess.kernel_bytes + (Engine.kernel_bytes_moved eng - bytes0);
  let f16_1, f32_1, f64_1 = Engine.kernel_bytes_by_prec eng in
  sess.kernel_bytes_f16 <- sess.kernel_bytes_f16 + (f16_1 - f16_0);
  sess.kernel_bytes_f32 <- sess.kernel_bytes_f32 + (f32_1 - f32_0);
  sess.kernel_bytes_f64 <- sess.kernel_bytes_f64 + (f64_1 - f64_0);
  sess.run_s <- sess.run_s +. (Unix.gettimeofday () -. t0)

let run t =
  if t.running then invalid_arg "Serve.run: already running";
  t.running <- true;
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      let executed = ref 0 in
      let progressed = ref true in
      (* Sweep sessions in open order, at most one task each per sweep:
         with equal queues every tenant advances at the same rate, and a
         tenant that drains early simply drops out of later sweeps. *)
      while !progressed do
        progressed := false;
        List.iter
          (fun sess ->
            if not sess.closed then
              match Queue.take_opt sess.queue with
              | Some task ->
                  run_task sess task;
                  incr executed;
                  progressed := true
              | None -> ())
          (List.rev t.sessions_rev)
      done;
      !executed)

let stats sess =
  {
    s_name = sess.name;
    s_tasks = sess.tasks;
    s_launches = sess.launches;
    s_kernel_bytes = sess.kernel_bytes;
    s_kernel_bytes_f16 = sess.kernel_bytes_f16;
    s_kernel_bytes_f32 = sess.kernel_bytes_f32;
    s_kernel_bytes_f64 = sess.kernel_bytes_f64;
    s_sim_ms = sess.sim_ns /. 1e6;
    s_queue_wait_s = sess.queue_wait_s;
    s_run_s = sess.run_s;
  }

let close_session sess =
  if not sess.closed then begin
    (* Drain rather than drop: submitted work completes (and its results
       survive the arena page-out below). *)
    let rec drain () =
      match Queue.take_opt sess.queue with
      | Some task ->
          run_task sess task;
          drain ()
      | None -> ()
    in
    drain ();
    Engine.flush sess.server.eng;
    Memcache.release_arena (Engine.memcache sess.server.eng) sess.arena;
    sess.closed <- true
  end
