(** Even-odd (red-black) preconditioned Wilson solves.

    The hopping term only connects opposite parities, so the Schur
    complement on the even checkerboard,

      Mhat = 1 - kappa^2 D_eo D_oe,

    halves the solve volume and improves the condition number — standard
    production preconditioning in Chroma, and what the QDP-JIT subset
    (site-list) kernels exist for.  Mhat is gamma5-Hermitian on the even
    sublattice, so CG runs on its normal equations with the same gamma5
    trick as the full operator.

    On the JIT engine the interleaved even/odd assignments fuse within
    their own (subset, geometry) runs of the deferred launch queue, and
    each iteration's norm2/inner payload splices into the pending even
    group ([bench: fusion --eo] gates both effects). *)

type result = {
  iterations : int;  (** CG iterations on the even checkerboard *)
  residual : float;  (** relative residual of the *full* operator M x = b *)
  converged : bool;
}

val solve :
  Ops.t ->
  ?coeffs:float array ->
  kappa:float ->
  Lqcd.Gauge.links ->
  b:Qdp.Field.t ->
  x:Qdp.Field.t ->
  ?tol:float ->
  ?max_iter:int ->
  unit ->
  result
(** Solve M x = b through the even-odd decomposition; [x] receives the
    full-lattice solution and the reported residual is measured against
    the full operator. *)
