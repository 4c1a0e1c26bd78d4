(** Pre-decoded executable form of a PTX kernel and its multicore
    interpreter — the back half of the simulated driver JIT.

    [compile] lowers a validated kernel into a flat program: int-coded
    opcodes with operand indices in parallel arrays, branch targets
    pre-resolved, immediates promoted into constant-pool register slots.
    A program is immutable plain data — the kernel's name but not its
    IR, math calls as indices into one static table, no scratch — so
    it marshals as it is.  Register files belong to the executing
    domain, not the program: one arena per domain, grown to the largest
    program it has run, with each span installing its own constant
    pools.
    [run_batch] sweeps an ordered run of launches, splitting a launch's
    grid into whole-cta chunks across {!Vm_backend} workers when a
    decode-time provenance analysis proves its stores are disjoint per
    work item — results are then bit-identical to the sequential
    sweep.  [compile] also folds the kernel's global accesses into one
    summary row per parameter slot (the provenance classes of its loads
    and of its stores), which is all the split verdict and the batch's
    dependency edges read per launch, and tries to prove the kernel's
    bounds guard ({!bounds_guard}): when it holds, a launch runs only
    the threads below its work count, however wide the block the
    auto-tuner settled on.  See DESIGN.md "Parallel VM back-end".

    Every program also decodes to a *superinstruction plan*: the
    non-control spans between branches and branch targets are
    partitioned into fused dispatch units — mixed ALU chains (float and
    integer arithmetic, address mad/shl/add chains, cvt, setp,
    parameter and sreg reads), memory-terminated chains whose global
    load/store runs column-resident (lane addresses snapshotted, the
    buffer resolved once per tile), and per-lane-faultable islands
    (integer division).  The SoA executor runs a cta in tiles of 64
    lanes over flat unboxed register rows; branches park the lanes
    that take them until the walk reaches the target.  It is the only
    runtime executor: a launch the parallel-safety analysis admits runs
    64-lane tiles, and a launch it rejects runs one-lane tiles, which
    is the sequential (cta, tid) sweep by construction.  The scalar
    interpreter is kept purely as the oracle, reached through
    {!run_reference}; the SoA executor is bit-identical to it at every
    worker count.  See DESIGN.md "SIMD-blocked superinstructions". *)

type param_value = Ptr of Buffer.t | Int of int | Float of float

exception Fault of string
(** Raised on simulated device faults (type/alignment mismatches, stray
    pointers, division by zero...).  Faults hit inside a launch are
    re-raised on the launching thread with kernel name, ctaid and tid
    appended; when several workers fault, the lowest (ctaid, tid) fault
    wins deterministically. *)

type program

val compile : Ptx.Types.kernel -> program
(** Validate and pre-decode.  Raises {!Fault} on malformed kernels:
    failed {!Ptx.Validate.kernel} or {!Ptx.Validate.dataflow} checks,
    undefined labels, unsupported operand classes, a branch that does
    not jump forward to an instruction, a body that does not end in
    [ret], or a call to an unknown math subroutine. *)

type allocation
(** A register allocation of one kernel: every virtual register mapped
    to a physical slot of its file.  Floats (f32, f64) share one file,
    integers (s32, u32, s64, u64) another, predicates a third. *)

val allocate_registers : Ptx.Types.kernel -> allocation
(** Linear scan over live intervals in instruction order — a register's
    interval runs from its first definition to its last occurrence —
    with a LIFO free list per file; linear in the body.  Sound for kernels {!compile} accepts (forward-only branches,
    definitely assigned reads): two registers of one file that are live
    at the same point of the control-flow graph never share a slot.  A
    destination may reuse a slot freed by its own instruction's last
    read.  {!compile} applies exactly this allocation. *)

val slot : allocation -> Ptx.Types.reg -> int
(** The physical slot of a register that occurs in the allocated kernel. *)

val decoder_version : int
(** Bumped whenever the pre-decoded representation, or the driver's
    compiled record that wraps it, changes; persistent caches fold it
    into their keys so stale entries miss instead of misexecuting. *)

type launch = {
  l_prog : program;
  l_grid : int;
  l_block : int;
  l_threads : int;
      (** the work items asked for; the [l_grid * l_block - l_threads]
          padding threads exit at the kernel's guard.  Sizes the
          inline-or-pool choice only; which threads run is decided by
          the proven guard (see {!bounds_guard}). *)
  l_params : param_value array;
}
(** One deferred launch of a batched sweep. *)

val run_batch :
  ?workers:int -> lookup:(int -> Buffer.data) -> launch array -> unit
(** Execute an ordered run of launches as one sweep: the whole flat
    (launch, cta-span) schedule is handed to the {!Vm_backend} pool at
    once and workers pull spans off a shared cursor, so the pool is
    woken once per batch rather than once per launch.  A launch starts
    before its predecessors complete only when the decode-time
    provenance proves its loads can't alias any predecessor's pending
    stores (conservative per-buffer RAW/WAW/WAR edges; an access with
    an unresolvable base buffer makes its launch a full barrier).
    Every launch runs on the SoA executor; the split verdict also sets
    its tile width (64 lanes when admitted, one lane — the sequential
    sweep — when rejected), and a launch whose bounds guard is proven
    runs only the ctas and tiles holding threads below its work count
    (at least thread (0, 0)).  Results are bit-identical to
    {!run_reference} at every worker count, and faults are
    deterministic: the lowest (launch index, ctaid, tid) fault wins
    batch-wide and is raised with the same message {!run_reference}
    raises.  On a fault, launches/spans scheduled after the winning
    fault may or may not have executed — exactly the contract a
    faulting device leaves memory in.  [workers] (default 1)
    caps the number of {!Vm_backend} workers; the effective count per
    launch also respects the parallel-safety analysis, chunk
    granularity (whole ctas, multiples of 8 work items) and a
    small-launch threshold, and a batch under that threshold in total
    work items runs inline on the calling thread. *)

val run_reference : lookup:(int -> Buffer.data) -> launch array -> unit
(** The oracle the runtime is held to: each launch, then each cta, then
    each thread in order — every thread, guard or no guard — on the
    scalar reference interpreter with a
    fresh register file per launch.  No worker pool, atomics or
    dependency edges; the first fault stops the sweep and is raised
    enriched with kernel name, ctaid and tid, exactly as {!run_batch}
    reports it.  A [Device.Reference] device drains its queue here. *)

val decoded_instructions : program -> int
(** Flat instruction count after label compaction (introspection). *)

val kname : program -> string
(** The kernel's entry name. *)

val superinstructions_enabled : unit -> bool
(** Always [true]: the SoA executor is the only runtime path, and the
    scalar interpreter is reached only through {!run_reference}.  Kept
    as a constant because the end-to-end benchmark ([perfbench/main.ml])
    still reads it; it goes with that program's next change. *)

type soa_stats = {
  spans : int;
  units : int;
  covered : int;
  total : int;
  rows : int;
  virtual_rows : int;
}
(** Superinstruction plan summary: [spans] fused regions covering
    [covered] of the [total] decoded instructions, executed as [units]
    dispatch units per tile (a mixed ALU chain, a memory-terminated
    chain, or a division island each count once).  [rows] is the
    number of register rows (float + integer + predicate slots, constant
    pools excluded) the allocated program carries per lane — each is one
    64-lane row of the executing domain's SoA arena, which is shared by
    all programs and sized to the largest the domain has run — and
    [virtual_rows] the count the same files would need sized by virtual
    register id. *)

val superinsn_stats : program -> soa_stats

val parallelizable : program -> params:param_value array -> bool
(** Whether the safety analysis lets a launch with these parameter
    bindings split across workers (exposed for tests and benches).
    Reads the program's decode-time access summary: one row per
    parameter slot with the provenance classes of its loads and of its
    stores. *)

val bounds_guard : program -> int option
(** The parameter slot of the work count [n] when {!compile} proved the
    kernel's bounds guard, [None] otherwise (exposed for tests).  The
    proof holds when the straight-line prefix before the first branch
    has no memory op and no integer division, and that branch is
    [@p bra L] with [p = setp.ge.s32 idx, n], [idx = ctaid * ntid + tid]
    and [n] an [ld.param] of an s32 parameter, and [L] lands on [ret].
    {!run_batch} then runs only the threads below [max 1 n] when the
    launch binds that slot to [Int n] (thread (0, 0) always runs, so a
    lane-uniform prologue fault is reported as before), and every
    thread otherwise.  {!run_reference} always runs every thread. *)
