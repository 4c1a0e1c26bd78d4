(** Wilson (optionally anisotropic) gauge action monomial.

    Force: with W_mu(x) = U_mu(x) staple_mu(x),
      F_mu = (beta / 2 Nc) TA_H(W)
    which the finite-difference tests in the suite check against the
    directional derivative of the action. *)

module Expr = Qdp.Expr
module Field = Qdp.Field

let create (ctx : Context.t) ~beta ?(aniso = 1.0) () =
  let u = ctx.Context.u in
  let prec = ctx.Context.prec in
  let action () = Lqcd.Gauge.action ~sum_real:ctx.Context.backend.Context.sum_real ~aniso ~beta u in
  let add_force (forces : Field.t array) =
    Array.iteri
      (fun mu force ->
        let w_expr = Expr.mul (Expr.field u.(mu)) (Lqcd.Gauge.staple_expr u ~aniso ~mu) in
        let f_expr =
          Expr.mul
            (Expr.const_real ~prec (beta /. (2.0 *. 3.0)))
            (Context.hermitian_traceless ~prec w_expr)
        in
        ctx.Context.backend.Context.eval force (Expr.add (Expr.field force) f_expr))
      forces
  in
  { Monomial.name = "gauge"; refresh = (fun () -> ()); action; add_force }
