(** Wilson fermion operators as data-parallel expressions.

    The hopping term is the operator of Sec. VIII-C:

      H(x,x') = sum_mu (1-gamma_mu) U_mu(x) delta_{x+mu,x'}
                     + (1+gamma_mu) U_mu(x-mu)^dag delta_{x-mu,x'}

    written directly against the high-level interface — each application is
    one generated kernel with eight shifts, exactly the paper's "generated
    from its high-level representation" implementation. *)

module Expr = Qdp.Expr
module Field = Qdp.Field

(* Per-direction hopping coefficients; anisotropic actions weight the
   temporal direction differently. *)
let default_coeffs nd = Array.make nd 1.0

(* The hopping term over arbitrary link *expressions*, so that gauge
   compression (or smearing, etc.) composes: pass reconstruct(packed) and
   the reconstruction happens inside the generated kernel. *)
let hopping_expr_of ?(coeffs = [||]) (u_exprs : Expr.t array) (psi : Field.t) =
  let nd = Array.length u_exprs in
  let coeffs = if Array.length coeffs = 0 then default_coeffs nd else coeffs in
  if Array.length coeffs <> nd then invalid_arg "Wilson.hopping_expr: coefficient count";
  let prec = psi.Field.shape.Layout.Shape.prec in
  let f = Expr.field in
  let term mu =
    let fwd =
      Expr.mul (Gamma.proj_minus ~prec mu)
        (Expr.mul u_exprs.(mu) (Expr.shift (f psi) ~dim:mu ~dir:1))
    in
    let bwd =
      Expr.mul (Gamma.proj_plus ~prec mu)
        (Expr.shift (Expr.mul (Expr.adj u_exprs.(mu)) (f psi)) ~dim:mu ~dir:(-1))
    in
    let s = Expr.add fwd bwd in
    if coeffs.(mu) = 1.0 then s else Expr.mul (Expr.const_real ~prec coeffs.(mu)) s
  in
  let rec sum mu = if mu = nd - 1 then term mu else Expr.add (term mu) (sum (mu + 1)) in
  sum 0

let hopping_expr ?coeffs (u : Gauge.links) (psi : Field.t) =
  hopping_expr_of ?coeffs (Array.map Expr.field u) psi

(* Dslash reading 12-real compressed links, reconstructing the third row
   in-registers: trades flops for the bandwidth the paper's Sec. VIII-C
   attributes part of QUDA's headroom to. *)
let hopping_expr_compressed ?coeffs (packed : Field.t array) (psi : Field.t) =
  hopping_expr_of ?coeffs
    (Array.map (fun p -> Expr.reconstruct (Expr.field p)) packed)
    psi

(* Wilson operator in the kappa convention: M psi = psi - kappa D psi. *)
let wilson_expr ?coeffs ~kappa (u : Gauge.links) (psi : Field.t) =
  let prec = psi.Field.shape.Layout.Shape.prec in
  Expr.sub (Expr.field psi)
    (Expr.mul (Expr.const_real ~prec kappa) (hopping_expr ?coeffs u psi))

(* gamma5 M gamma5 = M^dag for Wilson: used to apply the adjoint operator
   with the same kernels. *)
let gamma5_expr ?prec psi_expr = Expr.mul (Gamma.gamma5 ?prec ()) psi_expr

(* Nominal flop count per site of one hopping-term application, the
   standard figure used to quote Dslash GFLOPS (1320 for Wilson). *)
let dslash_flops_per_site = 1320
