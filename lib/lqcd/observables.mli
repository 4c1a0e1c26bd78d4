(** Gauge observables beyond the plaquette: Wilson loops, the Polyakov
    loop, and per-timeslice projections (the building blocks of the
    post-Monte-Carlo analysis part the paper's introduction contrasts with
    gauge generation).  Everything is built from shift expressions, so the
    same code runs on the CPU reference and through the JIT engine. *)

val wilson_loop :
  sum_real:(Qdp.Expr.t -> float) -> Gauge.links -> mu:int -> nu:int -> r:int -> t:int -> float
(** Volume-averaged Re tr of the r x t rectangle over Nc; W(1,1) is the
    plaquette. *)

val polyakov_loop : sum_components:(Qdp.Expr.t -> float array) -> Gauge.links -> float * float
(** Space-averaged traced temporal line (complex); rotates by a center
    element under center transformations. *)

val timeslice_subset : Layout.Geometry.t -> t:int -> Qdp.Subset.t
(** The sites of timeslice [t] (last dimension). *)

val pion_correlator :
  norm2_subset:(Qdp.Subset.t -> Qdp.Expr.t -> float) -> Qdp.Field.t array -> float array
(** C(t) = sum over the timeslice of |S(x)|^2, summed over the propagator
    columns (gamma5-hermiticity turns the pseudoscalar contraction into a
    norm). *)

val point_source :
  ?prec:Layout.Shape.precision -> Layout.Geometry.t -> spin:int -> color:int -> Qdp.Field.t
(** Delta at the origin in one (spin, color) component. *)
