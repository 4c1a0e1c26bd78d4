(** Domain decomposition: an Nd-dimensional grid of MPI ranks, each owning
    a hypercubic sub-grid of the global lattice (Sec. II-B: "each node
    maintains a sub-grid of the global lattice"). *)

module Geometry = Layout.Geometry

type t = {
  global : Geometry.t;
  rank_geom : Geometry.t;  (** geometry of the rank grid itself *)
  local : Geometry.t;  (** per-rank sub-grid *)
}

let create ~global_dims ~rank_dims =
  if Array.length global_dims <> Array.length rank_dims then
    invalid_arg "Grid.create: dimensionality mismatch";
  Array.iteri
    (fun d r ->
      if r <= 0 then invalid_arg "Grid.create: non-positive rank extent";
      if global_dims.(d) mod r <> 0 then
        invalid_arg
          (Printf.sprintf "Grid.create: global extent %d not divisible by %d ranks in dim %d"
             global_dims.(d) r d))
    rank_dims;
  let local_dims = Array.mapi (fun d g -> g / rank_dims.(d)) global_dims in
  {
    global = Geometry.create global_dims;
    rank_geom = Geometry.create rank_dims;
    local = Geometry.create local_dims;
  }

let nranks t = Geometry.volume t.rank_geom
let local_volume t = Geometry.volume t.local

let neighbor_rank t rank ~dim ~dir = Geometry.neighbor t.rank_geom rank ~dim ~dir

(* Global coordinate of a local site on a given rank. *)
let global_coord t ~rank ~local_site =
  let rank_coord = Geometry.coord_of_site t.rank_geom rank in
  let local_coord = Geometry.coord_of_site t.local local_site in
  let local_dims = Geometry.dims t.local in
  Array.mapi (fun d rc -> (rc * local_dims.(d)) + local_coord.(d)) rank_coord

let global_site t ~rank ~local_site =
  Geometry.site_of_coord t.global (global_coord t ~rank ~local_site)

(* Owner rank and local site of a global coordinate. *)
let owner t ~global_coord:gc =
  let local_dims = Geometry.dims t.local in
  let rank_coord = Array.mapi (fun d c -> c / local_dims.(d)) gc in
  let local_coord = Array.mapi (fun d c -> c mod local_dims.(d)) gc in
  (Geometry.site_of_coord t.rank_geom rank_coord, Geometry.site_of_coord t.local local_coord)
