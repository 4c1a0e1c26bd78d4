(** Cross-kernel fusion: splice several generated streaming kernels into
    one launch.

    The engine's deferred-eval queue hands this module the {e raw}
    (pre-middle-end) kernels of a fusion group, in launch order, together
    with a mapping of every kernel parameter onto a shared slot of the
    fused parameter list.  Fusion concatenates the straight-line bodies
    under a single thread-index prologue and guard, dedupes parameter
    loads by slot, and — where the planner proved a producer→consumer
    dependence on the same site — replaces the consumer's [Ld_global] of
    the intermediate field with the producer's computed value register,
    optionally dropping the producer's [St_global] entirely when the
    planner proved the intermediate is overwritten before any other use.

    The result is a plain {!Types.kernel}; the caller re-runs the
    {!Passes} pipeline over it (CSE then dedupes the address chains the
    sources computed independently) and hands it to the driver JIT like
    any generated kernel.

    Fusion is strictly best-effort: any structural surprise raises
    {!Fusion_failure} and the engine falls back to launching the sources
    separately. *)

exception Fusion_failure of string

(** Per-thread global-traffic savings proven by the splice: bytes of
    consumer loads replaced by register moves, and bytes of producer
    stores dropped as dead.  Multiply by the launch's thread count for
    the whole-lattice figure. *)
type report = { subst_load_bytes : int; dropped_store_bytes : int }

type source = {
  kernel : Types.kernel;
      (** the raw generated kernel (canonical emission order: parameter
          loads, thread-index prologue, guard, straight-line body,
          exit label, ret) *)
  slots : int array;
      (** fused parameter slot for each source parameter index; sources
          sharing a field pointer / neighbour table / site list / work
          count map those positions to the same slot *)
  use_sitelist : bool;
  subst_from : (int * int) list;
      (** [(slot, producer)]: unshifted f64 loads from the field bound at
          [slot] are replaced by the values source [producer] (an earlier
          position in the list) stores to it *)
  drop_stores : bool;
      (** the planner proved this source's destination is overwritten
          later in the same flush with no unsubstituted reads between *)
  reduction : bool;
      (** reduction payload: the body may branch (block-aggregation tail)
          and stores target compact work-item planes and the
          block-partial buffer rather than the thread's site.  Must be
          the last source, never drops stores, and nothing substitutes
          from it; its internal labels are uniquified and its exit
          branches retarget the fused exit. *)
}

val version : int
(** Bumped whenever the splice's output could change for the same
    sources; persistent caches fold it into their keys. *)

val fuse : kname:string -> source list -> Types.kernel * report
(** Splice the sources, in order, into one kernel named [kname].  All
    sources must agree on [use_sitelist] (the engine only groups evals of
    one subset).  At most one source may be a [reduction], and it must be
    last: its pointwise partial stores and aggregation tail append after
    the other bodies, with RAW edges into the group's substituted
    registers like any member.  Raises {!Fusion_failure} if any source
    does not match the canonical emission structure or a substitution
    cannot be proven site-exact. *)
