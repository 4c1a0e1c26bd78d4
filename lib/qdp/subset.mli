(** Site subsets: whole lattice, checkerboards, or arbitrary site lists.

    QDP++ evaluates every statement on a subset; even/odd checkerboards
    are what preconditioned solvers run on.  The JIT layer materialises
    non-[All] subsets as device site-list buffers and lets the kernel load
    its site index from the list (QDP-JIT's own mechanism). *)

module Geometry = Layout.Geometry

type t = All | Even | Odd | Custom of int array

val sites : Geometry.t -> t -> int array
(** The site indices of the subset, ascending (a fresh array). *)

val count : Geometry.t -> t -> int
val is_all : t -> bool

val other : t -> t
(** The opposite checkerboard; raises on [All]/[Custom]. *)
