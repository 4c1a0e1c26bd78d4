(** Site subsets: whole lattice, checkerboards, or arbitrary site lists.

    QDP++ evaluates every statement on a subset; even/odd checkerboards are
    what the preconditioned solvers run on.  The JIT layer materialises
    non-[All] subsets as device site-list buffers and lets the kernel load
    its site index from the list (exactly QDP-JIT's approach). *)

module Geometry = Layout.Geometry

type t = All | Even | Odd | Custom of int array

let sites geom = function
  | All -> Array.init (Geometry.volume geom) (fun i -> i)
  | Even -> Geometry.sites_of_parity geom 0
  | Odd -> Geometry.sites_of_parity geom 1
  | Custom sites ->
      Array.iter
        (fun s ->
          if s < 0 || s >= Geometry.volume geom then invalid_arg "Subset.sites: site out of range")
        sites;
      Array.copy sites

let count geom = function
  | All -> Geometry.volume geom
  | Even -> Array.length (Geometry.sites_of_parity geom 0)
  | Odd -> Array.length (Geometry.sites_of_parity geom 1)
  | Custom sites -> Array.length sites

let is_all = function All -> true | Even | Odd | Custom _ -> false

let other = function
  | Even -> Odd
  | Odd -> Even
  | All | Custom _ -> invalid_arg "Subset.other: checkerboards only"
