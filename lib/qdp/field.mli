(** Lattice field containers — the outer [Lattice] level of the QDP++ type
    hierarchy.

    Host storage is array-of-structures order ({!Layout.Index.Aos}) in a
    Bigarray of the field's precision.  Every field carries a unique id
    (the GPU software cache keys on it) and a version counter bumped on
    host writes so a stale device copy can be detected.  The
    [before_host_read]/[before_host_write] hooks are installed by the
    memory cache: they page device-dirty data back before the host touches
    it — the "data fields are paged out when accessed by CPU code" rule of
    the paper's Sec. IV. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Index = Layout.Index

type storage =
  | S16 of (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array1.t
      (** binary16 payloads; {!Half} converts at the access boundary *)
  | S32 of (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
  | S64 of (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  id : int;  (** unique per field; the memory cache keys on it *)
  name : string;
  shape : Shape.t;
  geom : Geometry.t;
  storage : storage;
  mutable version : int;  (** bumped on every host write *)
  mutable before_host_read : t -> unit;  (** coherence hook (memory cache) *)
  mutable before_host_write : t -> unit;
}

val create : ?name:string -> Shape.t -> Geometry.t -> t
(** A zero-initialized field.  [name] is used in diagnostics and AST
    rendering. *)

val volume : t -> int
val dof : t -> int
val bytes : t -> int

val get : t -> site:int -> spin:int -> color:int -> reality:int -> float
(** One real component; triggers the host-read coherence hook. *)

val set : t -> site:int -> spin:int -> color:int -> reality:int -> float -> unit
(** Writes one component; triggers the host-write hook and bumps the
    version. *)

val get_site : t -> site:int -> float array
(** All components of one site in canonical order
    ({!Layout.Index.linear_component}). *)

val set_site : t -> site:int -> float array -> unit

val fill_constant : t -> float -> unit

val fill_gaussian : ?site_key:(int -> int) -> t -> Prng.t -> unit
(** Gaussian noise with one split PRNG stream per site keyed by
    [site_key site] (default: the site index), so content is reproducible
    and decomposition-independent when keyed by global site. *)

val copy_from : dst:t -> src:t -> unit
(** Whole-field copy; shapes and volumes must match. *)

val raw_set : t -> int -> float -> unit
(** Direct storage write in AoS word order, bypassing coherence hooks;
    for evaluators that manage coherence themselves.  It rounds to the
    field's storage precision (to nearest, ties to even), so assigning
    across precisions rounds at the store. *)

val unsafe_storage : t -> storage
(** The raw host storage (no hooks); used by the memory cache for layout
    conversion during page-in/page-out. *)
