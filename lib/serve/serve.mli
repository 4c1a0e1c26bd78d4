(** Multi-tenant serving front-end: N independent solver sessions over
    one engine.

    The Chroma/QDP-JIT stack multiplexes many independent physics tasks
    over one compiled-kernel pool; this layer is that shape for the
    simulated engine.  A {!t} owns a single {!Qdpjit.Engine.t} — one
    device, one stream context, one in-memory kernel cache and one
    (optionally persistent) JIT cache — and each {!session} gets its own
    fields (grouped in a {!Memcache.arena}), its own stream for timeline
    attribution, and its own stats.

    Scheduling is cooperative, fair round-robin: sessions submit tasks
    (closures over their own fields) and {!run} repeatedly sweeps the
    sessions in open order, executing at most one task per session per
    sweep.  Tasks run to completion on the engine's default stream —
    the fusion planner keeps working across each task exactly as in a
    dedicated engine, which is what makes per-session results
    bit-identical to a serial run — and the engine is flushed at task
    boundaries so device-counter deltas attribute exactly.  Each
    session's stream is chained to its tasks' completions via events and
    annotated with zero-duration markers, so a Chrome trace shows one
    timeline per session.

    {!close_session} is the graceful teardown: it drains the session's
    remaining tasks, pages out dirty results, and releases every
    memcache entry the session retained. *)

type t
type session

(** Per-session accounting, maintained at task granularity. *)
type session_stats = {
  s_name : string;
  s_tasks : int;  (** tasks executed *)
  s_launches : int;  (** kernel launches attributed to this session *)
  s_kernel_bytes : int;  (** modeled global bytes its kernels moved *)
  s_kernel_bytes_f16 : int;  (** the f16 portion of [s_kernel_bytes] *)
  s_kernel_bytes_f32 : int;  (** the f32 portion *)
  s_kernel_bytes_f64 : int;
      (** the f64 portion (integer index traffic appears only in the total) *)
  s_sim_ms : float;  (** modeled device time of its kernels, ms *)
  s_queue_wait_s : float;  (** wall time tasks sat queued before starting *)
  s_run_s : float;  (** wall time spent executing its tasks *)
}

val create : ?machine:Gpusim.Machine.t -> ?vm_domains:int -> ?jit_cache:Jitcache.t -> unit -> t
(** A fresh server over its own engine, with the engine's defaults
    (functional mode, optimizing, fusing); the options forward to
    {!Qdpjit.Engine.create} (in particular [jit_cache], the shared
    persistent kernel cache). *)

val engine : t -> Qdpjit.Engine.t
val active_sessions : t -> int

val open_session : ?name:string -> t -> session
(** Register a tenant: allocates its stream and memcache arena. *)

val create_field : session -> ?name:string -> Layout.Shape.t -> Layout.Geometry.t -> Qdp.Field.t
(** A field owned by the session (registered in its arena, so
    {!close_session} releases it). *)

val adopt_field : session -> Qdp.Field.t -> unit
(** Register an externally created field (e.g. a temporary) as
    session-owned. *)

val submit : ?label:string -> session -> (unit -> unit) -> unit
(** Enqueue a task.  The closure runs on the server's engine; it must
    only touch the session's own fields.  Raises [Invalid_argument] on a
    closed session. *)

val pending : session -> int

val run : t -> int
(** Drain every session's queue under fair round-robin (at most one task
    per session per sweep, sessions in open order); returns the number
    of tasks executed.  Re-entrant calls are rejected. *)

val stats : session -> session_stats
(** Valid after {!close_session} too. *)

val close_session : session -> unit
(** Graceful teardown: drain the session's remaining tasks, then release
    its arena — dirty results page out to the host, retain counts
    clear, device allocations free.  Idempotent; the session no
    longer participates in {!run}. *)
