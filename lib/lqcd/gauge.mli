(** Gauge sector: link-field construction, plaquettes, staples and the
    Wilson gauge action, all at the expression level so that both the CPU
    reference and the JIT engine evaluate them. *)

module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr

type links = Field.t array
(** One [LatticeColorMatrix] per dimension (the [multi1d] of the paper's
    Fig. 1). *)

val create_links : ?prec:Layout.Shape.precision -> Geometry.t -> links

val unit_gauge : links -> unit
(** Cold start: all links at the identity (plaquette exactly 1). *)

val random_gauge : ?epsilon:float -> links -> Prng.t -> unit
(** Warm start: links exp(i eps H) with gaussian Hermitian H. *)

val reunitarize : links -> unit
(** Project every link back onto SU(3) (drift repair after MD updates). *)

val plaquette_trace_expr : links -> mu:int -> nu:int -> Qdp.Expr.t
(** Re tr P / Nc, per site. *)

val mean_plaquette : sum_real:(Qdp.Expr.t -> float) -> links -> float
(** Average over all mu < nu planes and the volume; [sum_real] supplies the
    lattice sum (CPU reference or JIT reduction). *)

val staple_expr : links -> aniso:float -> mu:int -> Qdp.Expr.t
(** The staple sum entering the gauge force for link (x, mu), each plane
    weighted as in {!action} (no multiply where the weight is 1). *)

val action : sum_real:(Qdp.Expr.t -> float) -> ?aniso:float -> beta:float -> links -> float
(** Wilson gauge action beta sum (1 - Re tr P / Nc); [aniso] weights
    temporal planes by xi and spatial ones by 1/xi. *)

val clover_leaf_sum_expr : links -> mu:int -> nu:int -> Qdp.Expr.t
(** Q_munu: the four plaquette leaves around x in the (mu,nu) plane. *)

val field_strength_expr : links -> mu:int -> nu:int -> Qdp.Expr.t
(** F_munu = (Q - Q^dag) / 8i (Hermitian, antisymmetric in mu<->nu). *)
