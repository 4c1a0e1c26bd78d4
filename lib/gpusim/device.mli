(** The simulated CUDA device: memory, launches, and a simulated clock.

    A launch is only ever queued.  In functional mode the queue runs on
    real buffers through the VM, as one {!flush_batch} sweep, when the
    host next synchronizes a stream or touches device memory; reference
    mode drains the same queue on the VM's scalar oracle instead;
    model-only mode queues nothing (used by paper-scale benchmark
    sweeps, where only the clock matters).  {!execute} and {!transfer_cost} return
    modeled durations without moving the clock: the stream scheduler
    ([Streams]) owns it and advances it on host synchronization. *)

type mode =
  | Functional  (** launches run on the VM's SoA executor ({!Vm.run_batch}) *)
  | Reference
      (** launches run on the scalar oracle ({!Vm.run_reference}), which
          tests and the bench A/B hold [Functional] to, bit for bit *)
  | Model_only  (** no launch runs; only the clock and the stats move *)

exception Out_of_device_memory
exception Launch_failure of string
(** Raised when the block geometry / register pressure does not fit the
    machine — the signal the Sec. VII auto-tuner probes for. *)

type stats = {
  mutable launches : int;
  mutable launch_failures : int;
  mutable kernel_ns : float;
  mutable h2d_bytes : int;
  mutable d2h_bytes : int;
  mutable transfers : int;
  mutable transfer_ns : float;
  mutable allocs : int;
  mutable frees : int;
}

type t = {
  machine : Machine.t;
  mode : mode;
  vm_domains : int;  (** worker cap for parallel kernel execution *)
  mutable clock_ns : float;
  mutable used_bytes : int;
  mutable buffers : Buffer.t option array;
  mutable next_id : int;
  mutable batch : Vm.launch list;
      (** launches queued since the last {!flush_batch}, most recent
          first *)
  stats : stats;
}

val create : ?mode:mode -> ?vm_domains:int -> Machine.t -> t
(** [vm_domains] caps the workers the VM may split a launch across;
    defaults via {!Machine.host_domains} (available cores, overridable
    with [REPRO_VM_DOMAINS]).  Results are bit-identical for any
    worker count. *)

val vm_domains : t -> int
val clock_ns : t -> float
val used_bytes : t -> int
val free_bytes : t -> int
val stats : t -> stats

val alloc_f16 : t -> int -> Buffer.t
(** [alloc_f16 t n]: n-element binary16 buffer (2 bytes per element). *)

val alloc_f32 : t -> int -> Buffer.t
(** [alloc_f32 t n]: n-element f32 buffer; raises {!Out_of_device_memory}
    when the capacity is exhausted (the memory cache spills and retries). *)

val alloc_f64 : t -> int -> Buffer.t
(** On a [Model_only] device the float allocations count their bytes
    (in [bytes] and {!used_bytes}) but hold no storage:
    [Buffer.length] is 0. *)

val alloc_i32 : t -> int -> Buffer.t

val free : t -> Buffer.t -> unit
(** Raises [Invalid_argument] on double free / stale buffers.  Drains
    the launch queue first so queued launches never observe a freed
    buffer. *)

val flush_batch : t -> unit
(** Run every queued launch as one {!Vm.run_batch} sweep (workers pull
    (launch, cta-span) items cooperatively; independent launches
    overlap) — or, on a [Reference] device, one {!Vm.run_reference}
    sweep — and empty the queue.  No-op when the queue is empty.
    Stream synchronization calls this, and so must every host-side
    reader or writer of device buffer contents (memcache uploads,
    page-outs, frees).  The queue is emptied before the sweep runs, so
    after a fault the device accepts new launches.  A VM fault
    propagates from here — deterministically the lowest (launch index,
    ctaid, tid) across the queue, with the message a sweep that drained
    after every launch would raise. *)

val idle : t -> bool
(** No launch is queued: {!flush_batch} would run nothing, so a {!free}
    now drains no batch early. *)

val lookup : t -> int -> Buffer.data
(** Buffer id -> storage, for the VM; faults on freed buffers. *)

val transfer_cost : t -> bytes:int -> to_device:bool -> float
(** Record the traffic of a host<->device copy in the stats and return the
    modeled PCIe time in ns {e without} advancing the clock — asynchronous
    copies live on stream timelines owned by the stream scheduler. *)

val set_clock_ns : t -> float -> unit
(** The stream scheduler's clock setter (synchronize, reset). *)

val execute : t -> Jit.compiled -> nthreads:int -> block:int -> params:Vm.param_value array -> float
(** Launch over [nthreads] logical threads in blocks of [block]: queues
    the kernel for the next {!flush_batch} (unless model-only) and
    returns its modeled duration in ns {e without} advancing the clock —
    stream timelines decide when it runs.  Stats and the fit check
    happen here, at issue.  Raises {!Launch_failure} if the
    configuration does not fit. *)
