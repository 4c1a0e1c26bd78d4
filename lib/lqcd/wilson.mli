(** Wilson fermion operators as data-parallel expressions.

    The hopping term is the operator of the paper's Sec. VIII-C:

      H(x,x') = sum_mu (1-gamma_mu) U_mu(x) delta_{x+mu,x'}
                     + (1+gamma_mu) U_mu(x-mu)^dag delta_{x-mu,x'}

    written directly against the high-level interface — each application
    is one generated kernel with eight shifts, exactly the paper's
    "generated from its high-level representation" implementation. *)

val hopping_expr : ?coeffs:float array -> Gauge.links -> Qdp.Field.t -> Qdp.Expr.t
(** The hopping term D psi.  [coeffs] weights each direction (anisotropic
    actions weight time differently); defaults to all ones. *)

val hopping_expr_compressed :
  ?coeffs:float array -> Qdp.Field.t array -> Qdp.Field.t -> Qdp.Expr.t
(** Dslash over 12-real compressed links, reconstructing the third row in
    registers (the bandwidth/flops trade of the paper's Sec. VIII-C). *)

val wilson_expr : ?coeffs:float array -> kappa:float -> Gauge.links -> Qdp.Field.t -> Qdp.Expr.t
(** M psi = psi - kappa D psi (the kappa convention). *)

val gamma5_expr : ?prec:Layout.Shape.precision -> Qdp.Expr.t -> Qdp.Expr.t
(** Multiply by gamma5; [gamma5 M gamma5 = M^dag] for Wilson, which lets
    solvers apply the adjoint with the same generated kernels. *)

val dslash_flops_per_site : int
(** 1320: the conventional figure used to quote Dslash GFLOPS (Fig. 6). *)
