(** Derivative of the Wilson hopping term with respect to the links.

    For action terms of the form Re[Y^dag dD X] the link-mu contribution
    at x is the traceless Hermitian projection of

      C = U_mu(x) X(x+mu) (x) [(1-gamma_mu) Y(x)]^dag
        - X(x) (x) [U_mu(x) (1+gamma_mu) Y(x+mu)]^dag

    (color outer products with a spin trace).  Overall signs and kappa
    factors are supplied by the monomials; the finite-difference tests of
    the suite pin them. *)

val accumulate :
  Context.t -> coeff:float -> x:Qdp.Field.t -> y:Qdp.Field.t -> Qdp.Field.t array -> unit
(** forces.(mu) += coeff * G_mu for every direction. *)
