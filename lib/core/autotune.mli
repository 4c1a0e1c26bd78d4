(** Per-kernel thread-block-size auto-tuning (the paper's Sec. VII).

    The first launch attempt uses the maximum block size the GPU allows;
    launch failures (resource exhaustion) halve it until a launch
    succeeds.  Consecutive *payload* launches then probe smaller blocks
    until the execution time degrades by more than 33 %, after which the
    best configuration is used for all consecutive launches.  No launch
    ever happens solely for tuning. *)

type t

val create : ?min_block:int -> max_block:int -> unit -> t

val next_block : t -> int
(** The block size the next launch should use. *)

val on_failure : t -> block:int -> unit
(** The launch at [block] failed to start: halve and retry.  Raises
    [Failure] if no feasible block size remains. *)

val report : t -> block:int -> ns:float -> unit
(** A payload launch at [block] took [ns]; drives the probe sequence. *)

val settled : t -> bool
val degradation_threshold : float
(** The 33 % probe-stop rule (1.33). *)
