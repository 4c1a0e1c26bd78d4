(** Automated GPU memory management (the paper's Sec. IV).

    Before a kernel launch the JIT layer walks the expression AST,
    extracts the referenced fields and calls {!ensure_resident} for each:
    data is uploaded (with the AoS→SoA layout change of Sec. III-B) if
    absent or stale.  Fields are paged out to host memory either when host
    code touches them (hooks installed on the field) or when an allocation
    cannot be serviced — then the least-recently-used unpinned entry is
    spilled, "least recently" meaning the timestamp of the last reference
    from a compute kernel. *)

type stats = {
  mutable hits : int;
  mutable uploads : int;
  mutable pageouts : int;
  mutable spills : int;  (** evictions forced by allocation pressure *)
  mutable inflight_skips : int;
      (** spill candidates passed over because a transfer was in flight *)
}

type t

val create : Streams.t -> t
(** A cache over the context's device.  Transfers are issued
    asynchronously on a dedicated stream of that context ("memcache
    xfer"), each entry carrying a completion event; the cache never
    moves the clock itself.  Uploads and page-outs run the device's
    queued launches before their blits.  The cache never keeps a field
    alive: see {!reclaim}. *)

val stats : t -> stats
val resident_count : t -> int

val ensure_resident :
  ?pin:bool -> ?for_write:bool -> ?wait_stream:Streams.stream -> t -> Qdp.Field.t -> Gpusim.Buffer.t
(** Make the field's data available in device memory, uploading (with
    layout conversion) when the device copy is absent or stale, spilling
    LRU entries if the allocation does not fit.  [pin] protects the entry
    from spilling until {!unpin_all} (the fields of the launch being
    assembled).  [for_write] marks a destination whose whole content will
    be overwritten: its host data need not travel.  [wait_stream] makes
    the given (compute) stream wait on the entry's in-flight asynchronous
    upload, if any — the kernel must not read the buffer before the copy
    engine delivers it.  Raises [Gpusim.Device.Out_of_device_memory] if
    nothing can be spilled. *)

val alloc_f64_spilling : t -> int -> Gpusim.Buffer.t
(** Allocate [words] doubles of device memory that the cache does not
    manage (engine scratch), spilling LRU unpinned entries until the
    allocation fits, exactly as {!ensure_resident} does for fields.
    Raises [Gpusim.Device.Out_of_device_memory] if nothing can be
    spilled. *)

val mark_device_dirty : t -> Qdp.Field.t -> unit
(** The kernel just wrote the field: device copy is newer than host. *)

val unpin_all : t -> unit
(** Clear the pins taken since the last call (it visits only those
    entries, not the whole cache). *)

val reclaim : t -> unit
(** Free the device copies of fields that have been garbage-collected.
    Entries hold their field weakly, and a finaliser registered at the
    field's first residency queues its id once it is unreachable; this
    drains that queue, freeing each dead entry's buffer without a
    page-out.  It does nothing while the device has queued launches
    (one could still name a dead field's buffer), so the engine calls
    it where its queue is normally drained: on entry to [enqueue] and
    to a [flush] that has queued evals (a flush with nothing queued,
    such as a counter read, frees nothing).  Spilling does not call it,
    so allocation pressure never depends on when the collector ran.
    Queued evals and arenas hold their fields strongly, so their entries
    are never reclaimed. *)

val retain : t -> Qdp.Field.t -> unit
(** Take a reference on a resident entry on behalf of a deferred (not yet
    launched) eval: unlike a pin, it survives {!unpin_all}, and the entry
    cannot be spilled until every reference is {!release}d.  The field
    must be resident. *)

val release : t -> Qdp.Field.t -> unit
(** Drop one {!retain} reference (no-op when the field is not resident or
    not retained). *)

val set_pre_access_hook : t -> (Qdp.Field.t -> unit) -> unit
(** Install a callback run before any host access to a cached field,
    ahead of the dirty-copy page-out.  The engine flushes its deferred
    launch queue here, so a pending write to the field lands on the
    device before the page-out makes the host copy current. *)

val drop : t -> Qdp.Field.t -> unit
(** Page out if dirty, then free the device allocation. *)

val is_resident : t -> Qdp.Field.t -> bool

val is_inflight : t -> Qdp.Field.t -> bool
(** Is the entry's last asynchronous transfer still in flight (not yet
    observable as complete from the host)? *)

val settle : t -> unit
(** Clear every in-flight marker.  Call after a {!Streams.reset}: the
    reset implies all outstanding work drained, and the entries'
    completion events hold stale pre-reset timestamps. *)

val is_device_dirty : t -> Qdp.Field.t -> bool

(** {2 Arenas}

    Per-session field groups for the serving layer: registration is pure
    bookkeeping, and {!release_arena} is the one-call graceful teardown
    that releases every protection the session's entries hold. *)

type arena

val create_arena : t -> arena

val arena_register : arena -> Qdp.Field.t -> unit
(** Remember the field as session-owned (idempotent; does not touch
    residency). *)

val release_arena : t -> arena -> unit
(** Teardown: for every registered field, clear its pin and retain
    count, page out dirty data (the owner may still read results) and
    free the device allocation.  The arena is empty afterwards. *)
