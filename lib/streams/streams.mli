(** CUDA-style streams and events on the simulated device (the machinery
    behind the paper's Sec. V comm/compute overlap).

    A context owns a set of stream timelines over one {!Gpusim.Device.t},
    advanced by a small discrete-event scheduler: an operation starts at
    the later of its stream's cursor (program order within the stream) and
    the free time of the device engine it occupies — one compute engine
    shared by kernels, plus independent H2D and D2H copy engines, so
    copies overlap kernels but kernels serialize with each other.
    Functional execution is deferred to the host's next synchronization:
    {!launch} queues the kernel on the device, and {!stream_synchronize},
    {!synchronize} and {!event_synchronize} run the queue in host-issue
    order first, keeping results bit-exact regardless of how the modeled
    timelines interleave.

    The device's [clock_ns] is the {e host-visible} synchronized time:
    only this module moves it, on a synchronize, and it never delays
    stream work.
    Every operation records a span into a per-device timeline exportable
    as Chrome [trace_event] JSON via {!Trace}. *)

type engine = Compute | Copy_h2d | Copy_d2h

val engine_name : engine -> string

type stream

type span = {
  span_name : string;
  cat : string;
  span_sid : int;
  start_ns : float;
  end_ns : float;
  args : (string * string) list;
}

type t

val create : Gpusim.Device.t -> t
(** A fresh context with a default stream ("stream0"). *)

val create_stream : ?name:string -> t -> stream
val device : t -> Gpusim.Device.t
val default_stream : t -> stream

val cursor_ns : stream -> float
(** The time by which all work issued to the stream so far completes. *)

val spans : t -> span list
(** Recorded spans in issue order. *)

val span_count : t -> int

val launch :
  ?name:string ->
  t ->
  stream ->
  Gpusim.Jit.compiled ->
  nthreads:int ->
  block:int ->
  params:Gpusim.Vm.param_value array ->
  float
(** Asynchronous kernel launch on a stream: queues the functional
    execution on the device until the host's next synchronization,
    schedules the modeled duration on the compute engine, and returns
    that duration in ns (the auto-tuner's probe signal; queueing delay
    excluded).  Raises {!Gpusim.Device.Launch_failure} at issue if the
    configuration does not fit; a VM fault surfaces from the
    synchronize that runs the launch. *)

val memcpy_h2d : ?name:string -> t -> stream -> bytes:int -> float
(** Asynchronous host-to-device copy on the H2D copy engine; returns the
    modeled duration in ns.  The data blit itself is the caller's eager
    host-side operation. *)

val memcpy_d2h : ?name:string -> t -> stream -> bytes:int -> float

val busy : ?cat:string -> t -> stream -> engine:engine -> name:string -> ns:float -> unit
(** A generic modeled operation of [ns] on [engine] (e.g. the scatter of a
    received face). *)

val note : ?cat:string -> t -> stream -> name:string -> args:(string * string) list -> unit
(** A zero-duration span at the stream's cursor: a timeline annotation
    that occupies no engine and delays nothing.  The serving layer marks
    per-session task completions with it, so a Chrome trace shows each
    session's timeline without perturbing the model. *)

(** Events capture a point in a stream's timeline. *)
module Event : sig
  type t

  val create : ?name:string -> unit -> t
  val name : t -> string
  val is_recorded : t -> bool
  val time_ns : t -> float option

  val elapsed_ns : t -> t -> float
  (** cudaEventElapsedTime (in ns); raises [Invalid_argument] if either
      event is unrecorded. *)
end

val record_event : t -> stream -> Event.t -> unit
(** cudaEventRecord: capture the stream's work issued so far. *)

val record_event_at : Event.t -> ns:float -> unit
(** Complete an event at an explicit timestamp — used for completions
    computed outside the device, e.g. message arrivals from the simulated
    fabric. *)

val wait_event : t -> stream -> Event.t -> unit
(** cuStreamWaitEvent: subsequent work on the stream starts no earlier
    than the event.  Waiting on a never-recorded event is a no-op (CUDA
    semantics). *)

val event_query : t -> Event.t -> bool
(** Has the event's captured work provably completed, relative to the
    host-visible synchronized clock?  Unrecorded events are incomplete. *)

val event_synchronize : t -> Event.t -> unit
(** Block the host (advance the clock) until the event completes.  Like
    every synchronize, runs the device's queued launches first
    ({!Gpusim.Device.flush_batch}); their faults raise here. *)

val stream_synchronize : t -> stream -> float
(** cudaStreamSynchronize: run the device's queued launches, then
    advance the host-visible clock to the stream's cursor; returns the
    clock. *)

val horizon : t -> float
(** Latest completion time across all timelines — a pure observation that
    does not advance the clock. *)

val synchronize : t -> float
(** cudaDeviceSynchronize: run the device's queued launches and drain
    every stream, advancing the clock to {!horizon}; returns the
    clock. *)

val reset : t -> unit
(** Rewind all timelines to zero and clear recorded spans (benchmarks call
    this after warm-up so the trace holds only the measured work). *)

(** Chrome [trace_event] JSON export: one process per context (device /
    rank), one thread per stream, loadable in chrome://tracing or
    Perfetto. *)
module Trace : sig
  val chrome_json : (string * t) list -> string
  (** One (process name, context) pair per device. *)

  val write_file : string -> (string * t) list -> unit
end
