(** Execution back-end for the VM's batched grid sweeps: a persistent
    [Domain] pool woken by a single generation broadcast per sweep.
    [run] is called once per *batch* of launches, not once per launch:
    the worker function drains a shared schedule, so the handoff cost
    is paid once per flush.  Workers execute over disjoint state, so
    results are bit-identical at every worker count. *)

val runtime : string
(** Always ["multicore"]; recorded in bench artifacts. *)

val available_domains : unit -> int
(** Hardware parallelism available to kernel launches:
    [Domain.recommended_domain_count ()]. *)

val run : workers:int -> (int -> unit) -> unit
(** [run ~workers f] executes [f 0 .. f (workers-1)], worker [0] on the
    calling thread, and returns when all have finished.  [f] must not
    raise — the VM reports faults out of band — and calls must not be
    nested (sweeps are synchronous; nested work must run with
    [workers = 1], which never touches the pool). *)
