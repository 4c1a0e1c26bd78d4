(** Multi-rank SPMD execution with communication/computation overlap
    (the paper's Sec. V).

    Every MPI rank becomes a simulated rank: its own device, memory cache
    and kernel cache, with the local sub-grid of the domain decomposition.
    Expressions are lowered bottom-up: each [Shift] crossing the rank grid
    is materialised by a local kernel, its face data crosses the fabric,
    inner sites are rebuilt from the local neighbour table and face sites
    are filled from the received buffer.  The final shift-free kernel is
    launched in two pieces — inner sites while messages are in flight,
    face sites after arrival — when overlap is enabled, or in one piece
    after arrival when not.  Shifts of shifts work but their inner
    exchanges do not overlap, matching the paper's stated limitation.

    Results are bit-identical with overlap on or off (and to the
    single-rank reference); what changes is the simulated per-rank
    timeline, which is what Fig. 6 plots. *)

type t

(** A field distributed over the ranks (one local field each). *)
type dfield = { shape : Layout.Shape.t; locals : Qdp.Field.t array }

val create :
  ?machine:Gpusim.Machine.t ->
  ?mode:Gpusim.Device.mode ->
  ?network:Comms.Network.t ->
  ?rank_domains:int ->
  global_dims:int array ->
  rank_dims:int array ->
  unit ->
  t
(** A rank grid of [rank_dims] (must divide [global_dims]) with one
    simulated device per rank.  [rank_domains] (default 1, capped at 64) > 1 executes rank-local compute
    concurrently on that many OCaml 5 domains: ranks are dealt
    round-robin to workers, each rank's engine runs its own launches
    single-worker (every rank drains its launch queue before its worker
    moves on), and every cross-rank step (fabric transfers, face
    fills, reduction sums) stays on the calling thread — results are
    bit-identical to the sequential rank sweep. *)

val nranks : t -> int
val local_geom : t -> Layout.Geometry.t

val engine : t -> int -> Engine.t
(** The rank's engine — its device, memory cache and stream context (the
    latter holds the rank's recorded timeline for trace export). *)

val rank_domains : t -> int
(** Workers rank-local compute is spread across (1 = sequential). *)

val drop_temps : t -> unit
(** Release every shift-pool temporary's device allocation: each rank's
    temporaries are bookkept in one arena of its memory cache, and this
    releases every rank's arena (dirty ones page out first, so contents
    survive and re-upload on next use).  Call between solves to return
    device memory; must not run concurrently with {!eval}. *)

val set_overlap : t -> bool -> unit
(** Toggle communication/computation overlap (functional no-op). *)

val max_clock : t -> float
(** The slowest rank's modeled timeline, ns (the latest completion across
    every stream of every rank). *)

val reset_clocks : t -> unit
(** Rewind every rank's stream timelines (and recorded trace spans) to
    zero — benchmarks call this after warm-up. *)

val create_field : ?name:string -> t -> Layout.Shape.t -> dfield

val scatter : t -> global:Qdp.Field.t -> dfield -> unit
(** Distribute a global-lattice field over the ranks. *)

val gather : t -> dfield -> global:Qdp.Field.t -> unit

type eval_timing = {
  total_ns : float;  (** max over ranks for this statement *)
  comm_overlapped : bool;
}

val eval : ?subset:Qdp.Subset.t -> t -> dfield -> (int -> Qdp.Expr.t) -> eval_timing
(** [eval t dest mk] evaluates [mk rank] (which must be structurally
    identical across ranks, referring to rank-local fields) into the local
    destinations, exchanging shift faces over the fabric. *)

val lowered : t -> (int -> Qdp.Expr.t) -> Qdp.Expr.t array
(** The per-rank shift-free expressions {!eval} would launch for [mk]:
    each exchanged shift is materialised (its faces cross the fabric, as
    in {!eval}) and replaced by a rank-local field.  Every rebuilt node
    keeps its source node's shape. *)

val norm2 : t -> (int -> Qdp.Expr.t) -> float
(** Per-rank device reductions, summed over ranks (the MPI all-reduce). *)

val sum_real : t -> (int -> Qdp.Expr.t) -> float
val inner : t -> (int -> Qdp.Expr.t) -> (int -> Qdp.Expr.t) -> float * float
val fabric_stats : t -> Comms.Fabric.stats
