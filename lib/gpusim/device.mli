(** The simulated CUDA device: memory, launches, and a simulated clock.

    Functional mode executes every kernel on real buffers through the VM
    while also advancing the simulated clock by the modeled time;
    model-only mode skips execution (used by paper-scale benchmark sweeps,
    where only the clock matters). *)

type mode = Functional | Model_only

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
  mutable batch : Vm.launch list option;
      (** open batched sweep: deferred launches, most recent first *)
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
(** Raises [Invalid_argument] on double free / stale buffers.  Flushes
    any open batch first so deferred launches never observe a freed
    buffer. *)

val with_batch : t -> (unit -> 'a) -> 'a
(** [with_batch t f] runs [f] inside a batched launch sweep: functional
    execution in {!execute} is deferred and queued, while modeled
    timing, stats and launch-fit checks stay eager.  When [f] returns,
    the queue runs as one {!flush_batch} sweep and the batch closes.
    When [f] raises, the launches it queued still run, the batch closes,
    and [f]'s exception is re-raised — unless one of those launches
    faults, since unbatched execution would have raised that fault
    first.  The batch is closed however this returns, so the device
    accepts a new one.  Raises [Invalid_argument] if a batch is already
    open. *)

val flush_batch : t -> unit
(** Run every queued launch as one {!Vm.run_batch} sweep (workers pull
    (launch, cta-span) items cooperatively; independent launches
    overlap).  The batch stays open.  No-op when the queue is empty or
    no batch is open.  Host-side readers/writers of device buffer
    contents (memcache spills, page-outs, re-uploads) must call this
    first.  A VM fault propagates from here — deterministically the
    lowest (launch index, ctaid, tid) across the batch, with the same
    message a sequential sweep would raise. *)

val lookup : t -> int -> Buffer.data
(** Buffer id -> storage, for the VM; faults on freed buffers. *)

val transfer_cost : t -> bytes:int -> to_device:bool -> float
(** Record the traffic of a host<->device copy in the stats and return the
    modeled PCIe time in ns {e without} advancing the clock — asynchronous
    copies live on stream timelines owned by the stream scheduler. *)

val account_transfer : t -> bytes:int -> to_device:bool -> unit
(** Advance the clock by the PCIe model for a synchronous host<->device
    copy ([transfer_cost] + clock advance). *)

val set_clock_ns : t -> float -> unit

val execute : t -> Jit.compiled -> nthreads:int -> block:int -> params:Vm.param_value array -> float
(** Execute over [nthreads] logical threads in blocks of [block]:
    functionally runs the kernel (unless model-only) and returns its
    modeled duration in ns {e without} advancing the clock — stream
    timelines decide when it runs.  Raises {!Launch_failure} if the
    configuration does not fit. *)

val launch : t -> Jit.compiled -> nthreads:int -> block:int -> params:Vm.param_value array -> float
(** Synchronous launch: {!execute}, then advance the clock by the returned
    kernel time.  Raises {!Launch_failure} if the configuration does not
    fit. *)
