(** Persistent on-disk cache of driver-JIT artifacts.

    The engine JIT-compiles every kernel at first use, and the fusion
    middle-end made that first use expensive (cold-start roughly doubled
    while warm steady-state improved) — exactly the tax a service
    absorbing many short solver sessions cannot pay per session.  QUDA
    answers the same problem with an on-disk autotune/kernel cache shared
    across runs; this module is that cache for the simulated stack.

    The store is deliberately dumb: opaque [string] blobs under content
    keys.  The {e caller} (the engine) derives keys that capture
    everything the artifact depends on — PTX source digests, optimization
    flags, fuse/subst/drop masks, decoder and emitter versions — so a key
    match means the cached bytes are the bytes a fresh compile would
    produce.

    Robustness contract: a cache must never turn into a crash.  Entries
    are written to a temporary file in the cache directory and published
    with an atomic [Sys.rename], so concurrent writers cannot tear each
    other's entries; reads validate a magic tag, a format version, the
    stored key (hash-collision guard) and a payload checksum, and {e any}
    anomaly — truncation, corruption, version skew, unreadable file — is
    counted and reported as a miss, which makes the engine silently
    recompile.  Store failures (read-only directory, disk full) are
    swallowed the same way. *)

type stats = {
  mutable hits : int;
  mutable misses : int;  (** includes corrupt entries, which also count below *)
  mutable stores : int;
  mutable corrupt : int;  (** entries rejected by header/checksum validation *)
  mutable evictions : int;  (** entries removed by the size bound *)
}

type t

val create : ?max_bytes:int -> string -> t
(** Open a cache rooted at the given directory, creating it (and missing
    parents) if needed.  [max_bytes] (default 256 MiB) bounds the on-disk
    footprint: after a store, oldest-modified entries are evicted until
    the directory fits.  Hits refresh an entry's timestamp, so eviction
    is LRU-by-mtime.  Raises [Sys_error] only if the directory cannot be
    created at all. *)

val stats : t -> stats

val env_var : string
(** ["REPRO_JIT_CACHE"].  See {!from_env}. *)

val from_env : ?default:t -> unit -> t option
(** Resolve the cache the environment asks for: unset or empty keeps
    [default] (usually the engine's [?jit_cache] argument); ["off"],
    ["0"], ["none"] or ["disabled"] (case-insensitive) disables caching
    even when a default is supplied; any other value is a directory to
    cache under, overriding the default. *)

val find : t -> key:string -> string option
(** The stored blob, or [None] on a miss {e or} on any validation
    failure (the corrupt file is deleted so the next store rewrites it). *)

val store : t -> key:string -> data:string -> unit
(** Publish [data] under [key] (write-then-rename; last writer wins).
    Failures are silent — the cache is an accelerator, not a database. *)

val entry_count : t -> int
val entry_bytes : t -> int
(** Current on-disk entries / footprint (a directory scan). *)

val clear : t -> unit
(** Remove every entry (tests). *)
