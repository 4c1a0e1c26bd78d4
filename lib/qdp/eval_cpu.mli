(** The original implementation's evaluator (QDP++ semantics): walk the
    AST once per lattice site, computing with concrete floats — what the
    inlined C++ expression-template [operator()] does, here via the
    {!Linalg.Site} algebra at {!Linalg.Scalar.Float_scalar}.  This is the
    reference the JIT pipeline is tested against, and the baseline of the
    CPU configurations in Fig. 7. *)

module FSite : module type of Linalg.Site.Make (Linalg.Scalar.Float_scalar)

val check_dest : Field.t -> Expr.t -> unit
(** Raises {!Linalg.Algebra.Type_error} unless the destination shape
    matches the expression shape up to precision. *)

val eval : ?subset:Subset.t -> Field.t -> Expr.t -> unit
(** [eval dest expr]: dest = expr on the subset; cross-precision
    assignment rounds at the store (Sec. III-D semantics). *)

val tree_sum : float array -> float
(** The balanced radix-8 tree every reduction applies: fold groups of 8
    as [((x0+x1)+(x2+x3))+((x4+x5)+(x6+x7))], padding short groups with
    +0.0, until one value is left.  Non-empty input is folded at least
    once. *)

val norm2 : ?subset:Subset.t -> Expr.t -> float
(** Sum of |components|^2 over the subset, in deterministic site order. *)

val inner : ?subset:Subset.t -> Expr.t -> Expr.t -> float * float
(** <a,b> = sum over sites and components of conj(a) b. *)

val sum_components : ?subset:Subset.t -> Expr.t -> float array
(** Component-wise sum over the subset, canonical component order. *)
