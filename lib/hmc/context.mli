(** Shared state of a gauge-generation run: links, conjugate momenta, an
    evaluation backend (CPU reference or the JIT engine — the whole HMC
    runs unchanged on either, which is the point of the paper), and the
    random stream. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr

type backend = {
  eval : ?subset:Qdp.Subset.t -> Field.t -> Expr.t -> unit;
  sum_real : Expr.t -> float;
  norm2 : ?subset:Qdp.Subset.t -> Expr.t -> float;
  inner : ?subset:Qdp.Subset.t -> Expr.t -> Expr.t -> float * float;
  tag : string;
}

val cpu_backend : backend
val jit_backend : Qdpjit.Engine.t -> backend

type t = {
  geom : Geometry.t;
  prec : Shape.precision;
  u : Lqcd.Gauge.links;
  p : Field.t array;  (** Hermitian traceless momenta, one per direction *)
  backend : backend;
  rng : Prng.t;
  mutable md_steps_taken : int;  (** op-trace: momentum updates *)
  mutable solver_iterations : int;  (** op-trace: total Krylov iterations *)
}

val create : ?prec:Shape.precision -> backend:backend -> seed:int64 -> Geometry.t -> t
(** Cold-started links, zero momenta. *)

val fresh_fermion : t -> Field.t
val solver_ops : t -> Solvers.Ops.t

val refresh_momenta : t -> unit
(** Gaussian Hermitian traceless momenta (kinetic convention
    T = sum tr P^2). *)

val kinetic_energy : t -> float

val update_links : t -> eps:float -> unit
(** U <- exp(i eps P) U, exact to machine precision (reversibility). *)

val update_momenta : t -> eps:float -> Field.t array -> unit
(** P <- P - eps F. *)

val fresh_forces : t -> Field.t array
val clear_forces : t -> Field.t array -> unit

val hermitian_traceless : ?prec:Shape.precision -> Expr.t -> Expr.t
(** TA_H(M) = (M - M^dag)/(2i) - trace part: the projection both the gauge
    and the fermion forces pass through. *)
