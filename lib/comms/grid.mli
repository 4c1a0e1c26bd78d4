(** Domain decomposition: an Nd-dimensional grid of MPI ranks, each owning
    a hypercubic sub-grid of the global lattice (Sec. II-B: "each node
    maintains a sub-grid of the global lattice"). *)

module Geometry = Layout.Geometry

type t = {
  global : Geometry.t;
  rank_geom : Geometry.t;  (** geometry of the rank grid itself *)
  local : Geometry.t;  (** per-rank sub-grid *)
}

val create : global_dims:int array -> rank_dims:int array -> t
(** Raises [Invalid_argument] unless every rank extent divides the global
    extent. *)

val nranks : t -> int
val local_volume : t -> int

val neighbor_rank : t -> int -> dim:int -> dir:int -> int
(** Periodic neighbour in the rank grid. *)

val global_site : t -> rank:int -> local_site:int -> int
val owner : t -> global_coord:int array -> int * int
(** [(rank, local_site)] owning a global coordinate. *)
