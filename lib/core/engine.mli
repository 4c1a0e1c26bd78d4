(** The QDP-JIT runtime for one rank: expression evaluation on the
    simulated GPU.

    {!eval} is the whole paper in one function: look the expression's
    structure up in the kernel cache (generate + driver-JIT-compile PTX on
    a miss), make every referenced field device-resident through the
    memory cache (Sec. IV), bind parameters, and launch through the
    per-kernel block-size auto-tuner (Sec. VII).  Reductions run a
    reduction-mode payload kernel that writes compact per-work-item
    partials into engine scratch {e and} aggregates every group of 8 into
    a block-partial buffer in the same launch; a cached radix-8 fold
    kernel then collapses every component plane at once, one launch per
    pass, until at most 8 values per plane are left, and the host folds
    that last level after a single readback.  The balanced tree matches
    {!Qdp.Eval_cpu} bit for bit, keeping results deterministic across
    every engine configuration.

    Default-stream evals are {e deferred}: they enter a pending queue,
    and a flush point — a reduction or readback, host access to any
    cached field, the queue depth cap, or an explicit {!flush} — runs
    the fusion planner over the queue.  The planner first partitions the
    queue into consecutive (subset, geometry) runs (a subset change is
    {e not} a flush point, so interleaved even/odd evals fuse within
    their own runs), then field-id dependence analysis (RAW/WAR/WAW,
    shifted vs same-site) groups compatible evals, and {!Ptx.Fuse}
    splices each group into one kernel: same-site producer→consumer
    loads become register moves and dead intermediate stores are
    dropped, cutting both launch count and global-memory traffic.  A
    trailing reduction payload splices into its group too (reduction
    fusion), so an axpy+norm2 solver step is a single launch.  Hazardous
    pairs stay separate launches in program order, so results are
    bit-exact against the eager schedule; [?fuse:false] restores
    eval-at-a-time launching outright.  Every launch takes the same
    path: an eval launched alone (explicit stream, [~fuse:false], or a
    failed group's fallback) is a fusion group of one. *)

(** Lifetime counters of the deferred-eval queue and fusion planner.
    Byte counts are whole-launch (per-thread savings × threads). *)
type fusion_stats = {
  deferred_evals : int;  (** default-stream evals that entered the queue *)
  flushes : int;
  fused_groups : int;  (** groups of two or more evals launched as one kernel *)
  launches_saved : int;
  eliminated_load_bytes : int;
  eliminated_store_bytes : int;
  fallbacks : int;  (** groups relaunched separately after a fusion failure *)
}

type t

val create :
  ?machine:Gpusim.Machine.t ->
  ?mode:Gpusim.Device.mode ->
  ?vm_domains:int ->
  ?optimize:bool ->
  ?fuse:bool ->
  ?fuse_reductions:bool ->
  ?jit_cache:Jitcache.t ->
  unit ->
  t
(** A fresh engine with its own simulated device, memory cache and kernel
    cache.  [mode = Model_only] skips functional execution (used by the
    paper-scale benchmark sweeps).  [vm_domains] caps the worker count
    the pre-decoded VM may split a kernel launch across (default: host
    parallelism, overridable with [REPRO_VM_DOMAINS]); results are
    bit-identical for any value.  [optimize] (default on) runs the
    {!Ptx.Passes} middle-end on every kernel before the driver JIT;
    [~optimize:false] keeps the paper's raw unparser stream.  [fuse]
    (default on) defers default-stream evals into the fusion queue;
    [~fuse:false] restores blocking eval-at-a-time launches.
    [fuse_reductions] (default on) lets a reduction payload join the
    trailing fused group; [~fuse_reductions:false] launches every
    reduction payload standalone (identical kernel body and identical
    results, one extra launch per reduction).  [jit_cache] attaches a
    persistent on-disk kernel cache: every compiled kernel (a group of
    one eval or more, and the fold kernel) is looked up there before
    compiling and published after, with its parameter bindings, so a
    second engine — in this process or another — replays the kernels
    without running the emitter, splicer, middle-end or driver JIT.
    The [REPRO_JIT_CACHE] environment variable overrides the argument:
    a path caches there, [off]/[0]/[none]/[disabled] disables caching
    entirely. *)

val fusion_stats : t -> fusion_stats
(** Deferred-queue counters so far (flushes the queue first). *)

val reset_stats : t -> unit
(** Rewind every {!fusion_stats} counter without touching the
    kernel caches (flushes the queue first so pending work is attributed
    to the old interval).  Benchmarks call this between warm-up and
    measurement so per-solve deltas are exact.  Lifetime counters
    ({!kernels_built}, {!jit_seconds}, {!kernel_bytes_moved}) keep
    accumulating. *)

val cache_tag : string
(** The version fence prefixed to every persistent-cache key: it embeds
    the OCaml version and the {!Codegen}, {!Ptx.Passes}, {!Ptx.Fuse} and
    {!Gpusim.Vm} format versions, so bumping any of them re-keys the
    whole cache and entries written before the bump become misses
    instead of deserialization attempts. *)

val jit_cache_stats : t -> Jitcache.stats option
(** Hit/miss/store/corrupt/evict counters of the attached cache;
    [None] when caching is disabled. *)

val device : t -> Gpusim.Device.t

val streams : t -> Streams.t
(** The engine's stream context; all launches and transfers schedule onto
    its timelines (and into its Chrome-trace span log). *)

val default_stream : t -> Streams.stream

val flush : t -> unit
(** Drain the deferred-eval queue: plan fusion groups (per
    (subset, geometry) run), launch them in program order on the default
    stream, and block until they complete.  A no-op when the queue is
    empty.  Reduction readbacks, host access to cached fields and the
    depth cap flush implicitly. *)

val synchronize : t -> float
(** {!flush}, then drain every stream of the engine's context (device
    synchronize); returns the host-visible clock in ns. *)

val memcache : t -> Memcache.t

val kernels_built : t -> int
(** Number of distinct kernels generated and driver-compiled so far (the
    paper reports ~200 for a production HMC trajectory).  Flushes the
    queue first, so pending compiles are counted. *)

val jit_seconds : t -> float
(** Accumulated modeled driver-JIT time (Sec. III-D: 0.05–0.22 s/kernel).
    Flushes the queue first. *)

val kernel_texts : t -> string list
(** The PTX text of every kernel this engine compiled and launches from
    — groups (an eval launched alone is a group of one, named
    [qdpjit_kernel_<n>]; larger groups are [qdpjit_fused_<n>]) and the
    fold kernel — in no particular order.  Flushes the queue first.

    Compiled kernels keep no text, as a real driver keeps no source: each
    text is re-derived on demand (splice, middle-end, print) from the
    group's kernel name and splice sources, and the fold kernel from its
    fixed builder.  Each re-derived text is checked to decode with
    {!Gpusim.Jit.compile} to the program that was launched; [Failure] is
    raised otherwise.  A group loaded from the persistent JIT cache was
    never built here, so it has no sources and is not listed (the fold
    kernel is, either way). *)

val kernel_bytes_moved : t -> int
(** Modeled global-memory bytes moved by every kernel launched so far
    (per-thread load+store bytes × threads, summed over launches).
    Flushes the queue first. *)

val kernel_bytes_by_prec : t -> int * int * int
(** The float portion of {!kernel_bytes_moved} split by storage precision
    as [(f16, f32, f64)] bytes; integer index traffic (site lists,
    neighbour tables) appears only in the total.  Flushes the queue
    first. *)

val eval : ?subset:Qdp.Subset.t -> ?stream:Streams.stream -> t -> Qdp.Field.t -> Qdp.Expr.t -> unit
(** [eval t dest expr]: dest = expr on the simulated device.  Functionally
    identical to {!Qdp.Eval_cpu.eval} (bit-exact; the test suite checks
    this for every operation).  Without [stream] the eval is deferred
    into the fusion queue (or, with [~fuse:false], launched and
    synchronized immediately — the legacy blocking semantics).  With
    [stream] the queue is flushed and the launch is asynchronous on that
    stream; the caller owns synchronization (events or {!synchronize}),
    and the device runs the kernel when the host next synchronizes or
    touches device memory. *)

val norm2 : ?subset:Qdp.Subset.t -> t -> Qdp.Expr.t -> float
(** Deterministic balanced radix-8 tree reduction of the per-site |.|^2
    kernel; bit-identical across fused / unfused / CPU evaluation. *)

val inner : ?subset:Qdp.Subset.t -> t -> Qdp.Expr.t -> Qdp.Expr.t -> float * float
val sum_real : ?subset:Qdp.Subset.t -> t -> Qdp.Expr.t -> float
val sum_components : ?subset:Qdp.Subset.t -> t -> Qdp.Expr.t -> float array
