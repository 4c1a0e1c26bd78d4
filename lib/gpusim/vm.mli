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
    sweep.  See DESIGN.md "Parallel VM back-end".

    Every program also decodes to a *superinstruction plan*: the
    non-control spans between branches and branch targets are
    partitioned into fused dispatch units — mixed ALU chains (float and
    integer arithmetic, address mad/shl/add chains, cvt, setp,
    parameter and sreg reads), memory-terminated chains whose global
    load/store runs column-resident (lane addresses snapshotted, the
    buffer resolved once per tile), and per-lane-faultable islands
    (integer division).  The SoA executor runs a cta in tiles of 64
    lanes over flat unboxed register rows; branches park the lanes
    that take them until the walk reaches the target.  Every launch
    admitted by the parallel-safety analysis runs on it, bit-identically
    to the scalar interpreter at every worker count; the scalar
    interpreter runs the launches that analysis rejects and serves as
    the reference when superinstructions are switched off.  See
    DESIGN.md "SIMD-blocked superinstructions". *)

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
(** Bumped whenever the pre-decoded representation changes; persistent
    caches fold it into their keys so stale entries miss instead of
    misexecuting. *)

type launch = {
  l_prog : program;
  l_grid : int;
  l_block : int;
  l_threads : int;
      (** the work items asked for; the [l_grid * l_block - l_threads]
          padding threads exit at the kernel's guard.  Sizes the
          inline-or-pool choice only. *)
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
    Results are bit-identical to running the launches one by one on the
    sequential interpreter at every worker count, and faults are
    deterministic: the lowest (launch index, ctaid, tid) fault wins
    batch-wide and is raised with the same message the sequential
    sweep would produce.  On a fault, launches/spans scheduled after
    the winning fault may or may not have executed — exactly the
    contract a faulting device leaves memory in.  [workers] (default 1)
    caps the number of {!Vm_backend} workers; the effective count per
    launch also respects the parallel-safety analysis, chunk
    granularity (whole ctas, multiples of 8 work items) and a
    small-launch threshold, and a batch under that threshold in total
    work items runs inline on the calling thread. *)

val decoded_instructions : program -> int
(** Flat instruction count after label compaction (introspection). *)

val kname : program -> string
(** The kernel's entry name. *)

val set_superinstructions : bool -> unit
(** Switch superinstruction (SoA) execution process-wide (default on).
    Off sends every launch to the scalar interpreter; results are
    bit-identical either way, so this is the reference lever for tests
    and the bench A/B.  {!run_batch} reads the switch when it runs, so
    it applies to launches a device has queued when its queue drains:
    switch it around a synchronize. *)

val superinstructions_enabled : unit -> bool

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
    bindings split across workers (exposed for tests and benches). *)
