(** The optimizing middle-end: composable, bit-exact rewrites over
    {!Types.kernel}, run by the engine between code generation and the
    (simulated) driver JIT.  See the implementation header for the exact
    soundness constraints each pass obeys. *)

val version : int
(** Bumped whenever the pipeline's output could change for the same
    input kernel; persistent caches fold it into their keys. *)

(** Value provenance handed down by the emitting builder: the proof CSE
    needs that a register is an SSA value (single static definition).
    When absent, passes recompute it from the body. *)
type provenance = { single_def : Types.reg -> bool }

type report = {
  pass : string;
  before : int;  (** body length before this pass application *)
  after : int;
}

type result = { kernel : Types.kernel; applied : report list }

(** Every pass below returns its argument itself (physically) when it
    changes nothing, and a new kernel only when the body differs. *)

(** Integer constant folding/propagation (exact) + register copy
    propagation for every class.  Float arithmetic is never folded: float
    immediates round at print time while float registers do not round
    until a store, so folding could change stored bits. *)
val constant_fold : Types.kernel -> Types.kernel

(** Local (extended-basic-block) value numbering over SSA values: dedupes
    repeated leaf/neighbour-table loads and byte-address chains.  Load
    values are invalidated by any store (destination aliasing). *)
val cse : ?provenance:provenance -> Types.kernel -> Types.kernel

(** Fuse a single-use [Mul] into its consuming [Add].  Bit-exact in the
    VM, which evaluates [Fma] unfused; flop counts are preserved
    (fma = 2). *)
val fma_contract : Types.kernel -> Types.kernel

(** Integer multiplication by a power-of-two immediate → [Shl]. *)
val strength_reduce : Types.kernel -> Types.kernel

(** Remove pure instructions whose destination is never read. *)
val dce : Types.kernel -> Types.kernel

(** Move pure single-def instructions down to just before their first
    use, shrinking live ranges (and so allocator register demand) without
    changing any computed value.  Loads never cross stores; nothing
    crosses control flow.  Near-linear in the body length.  One call is
    one backward sweep that decides each definition once; it is not
    idempotent (a second sweep may move more, see the implementation),
    and the middle-end applies it once. *)
val sink : Types.kernel -> Types.kernel

val default_pipeline :
  ?provenance:provenance -> unit -> (string * (Types.kernel -> Types.kernel)) list

(** Apply each pass once, in order, recording the passes that changed the
    kernel. *)
val run_pipeline : (string * (Types.kernel -> Types.kernel)) list -> Types.kernel -> result

(** [run_pipeline (default_pipeline ?provenance ())]: every pass exactly
    once.  There is no fixpoint loop: after one round only {!sink} still
    finds work, and its further moves leave instruction count and
    register demand unchanged on the workload kernels. *)
val run : ?provenance:provenance -> Types.kernel -> result
