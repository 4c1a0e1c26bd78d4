(** Expression → PTX kernel code generation (the paper's Sec. III).

    The AST unparser walks the tree exactly like the CPU evaluator, but
    the site algebra is instantiated at {!Jit_scalar}, so visiting a node
    emits PTX instead of computing.  Leaves become "JIT data views"
    (Sec. III-B): the base pointer plus the coalesced SoA offsets

      I(iV,iS,iC,iR) = ((iR*IC + iC)*IS + iS)*IV + iV

    with the site index iV the CUDA thread index (or a value loaded from
    the site-list buffer on subsets).  Shifts load the displaced site
    index from a neighbour table.  Dead code (unused component loads,
    folded constants) is eliminated at emission.  [build] returns IR;
    callers that want PTX text print it with {!Ptx.Print.kernel}. *)

module Shape = Layout.Shape

val version : int
(** Bumped whenever generated PTX could change for the same expression
    structure; persistent caches fold it into their keys. *)

(** Launch-time parameter binding order. *)
type param_plan =
  | Dest  (** destination field pointer *)
  | Red_partial
      (** partial-plane scratch of a reduction kernel, bound in place of
          [Dest]: one plane of nsites doubles per component, indexed by
          work item *)
  | Leaf_ptr of int  (** nth distinct field of the expression *)
  | Ntable of int * int  (** neighbour table for (dim, dir) *)
  | Sitelist  (** site-list buffer (subset kernels) *)
  | N_work  (** number of threads doing real work *)
  | Block_partial
      (** per-block partial-sum buffer (reduction kernels only): for each
          destination component, a plane of ceil(n_work/8) elements *)
  | Scalar_param of int * int
      (** component [comp] of the nth runtime scalar leaf *)

type built = {
  kernel : Ptx.Types.kernel;  (** validated IR; optimized unless [~optimize:false] *)
  raw : Ptx.Types.kernel;  (** the pre-middle-end stream (equal to [kernel] when raw) *)
  plan : param_plan list;
  passes : Ptx.Passes.report list;  (** middle-end applications, in order *)
}

val lower :
  ?optimize:bool ->
  ?provenance:Ptx.Passes.provenance ->
  Ptx.Types.kernel ->
  Ptx.Types.kernel * Ptx.Passes.report list
(** The compile tail every kernel takes, generated or not: validate the
    raw stream, run the {!Ptx.Passes} middle-end when [optimize] (default
    on; [provenance] is the emitting builder's CSE certificate) and
    validate again.  Returns the kernel whose printed text the driver JIT
    reads, and the middle-end applications in order. *)

val build :
  ?optimize:bool ->
  ?reduction:bool ->
  kname:string ->
  dest_shape:Shape.t ->
  expr:Qdp.Expr.t ->
  nsites:int ->
  use_sitelist:bool ->
  unit ->
  built
(** Generate the kernel for [dest = expr] over a local volume of [nsites]
    sites.  [use_sitelist] selects the subset variant (site index loaded
    from a buffer instead of the thread index).  [optimize] (default on)
    runs the {!Ptx.Passes} middle-end on the emitted stream; [raw] always
    holds the unoptimized kernel for comparison.  The emitted stream
    goes through {!lower}; [plan] is the order the kernel's parameters
    bind in.

    [reduction] (default off) builds the payload kernel of a reduction:
    there is no destination field — the per-work-item partials go to a
    {!Red_partial} scratch buffer, addressed by the compact work-item
    index instead of the site index — and the kernel grows a {!Block_partial}
    parameter plus an aggregation tail — the last thread of each group of
    8 work items re-reads the group's partials and stores their
    balanced-tree sum, cutting the host-side fold chain to radix 8.
    Sound on the simulator because threads run sequentially in increasing
    index order. *)
