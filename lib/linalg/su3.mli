(** Concrete 3x3 complex matrix utilities for SU(3) gauge fields.

    A matrix is a flat [float array] of 18 entries, row-major with
    interleaved re/im — the canonical component order of a color-matrix
    site element ({!Layout.Index.linear_component}).  These host-side
    helpers serve gauge-field setup, momentum refreshment, link updates
    (exponentials) and tests; lattice-wide arithmetic goes through the
    expression layer instead. *)

type m = float array
(** 18 floats: [m.(2*(3*i+j)) = Re M_ij], [m.(2*(3*i+j)+1) = Im M_ij]. *)

val identity : unit -> m
val add : m -> m -> m
val mul : m -> m -> m
val dagger : m -> m
val scale : re:float -> im:float -> m -> m
val trace : m -> float * float
val determinant : m -> float * float
val frobenius_dist : m -> m -> float

val is_unitary : ?tol:float -> m -> bool
(** [U U^dag = 1] within [tol] (default 1e-10) in Frobenius norm. *)

val is_special_unitary : ?tol:float -> m -> bool
(** Unitary with [det = 1]. *)

val reunitarize : m -> m
(** Project back onto SU(3) by Gram–Schmidt on the first two rows and
    completing the third row as the conjugate cross product; repairs the
    rounding drift accumulated by molecular-dynamics link updates. *)

val expm : m -> m
(** Matrix exponential by scaling-and-squaring with a Taylor series,
    accurate to machine precision for the O(1)-norm inputs of HMC. *)

val gell_mann : unit -> m array
(** The 8 Gell-Mann matrices (Hermitian, traceless, [tr(l_a l_b) = 2 d_ab]). *)

val gaussian_hermitian : Prng.t -> m
(** Traceless Hermitian gaussian momentum [P = sum_a p_a l_a / 2] with
    [p_a ~ N(0,1)]; the HMC kinetic-energy convention is [tr(P^2)]. *)

val random_su3 : Prng.t -> m
(** Haar-ish random SU(3) element: [exp(i H)] with a gaussian Hermitian
    [H], reunitarized.  Uniform enough for test configurations. *)

val random_su3_near_identity : Prng.t -> epsilon:float -> m
(** [exp(i eps H)]: a small fluctuation around the identity, used to build
    weakly-coupled test gauge fields with plaquette close to 1. *)
