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

let cpu_backend =
  {
    eval = (fun ?subset dest e -> Qdp.Eval_cpu.eval ?subset dest e);
    sum_real = (fun e -> (Qdp.Eval_cpu.sum_components e).(0));
    norm2 = (fun ?subset e -> Qdp.Eval_cpu.norm2 ?subset e);
    inner = (fun ?subset a b -> Qdp.Eval_cpu.inner ?subset a b);
    tag = "cpu";
  }

let jit_backend engine =
  {
    eval = (fun ?subset dest e -> Qdpjit.Engine.eval ?subset engine dest e);
    sum_real = (fun e -> Qdpjit.Engine.sum_real engine e);
    norm2 = (fun ?subset e -> Qdpjit.Engine.norm2 ?subset engine e);
    inner = (fun ?subset a b -> Qdpjit.Engine.inner ?subset engine a b);
    tag = "jit";
  }

type t = {
  geom : Geometry.t;
  prec : Shape.precision;
  u : Lqcd.Gauge.links;
  p : Field.t array;  (** Hermitian traceless momenta, one per direction *)
  backend : backend;
  rng : Prng.t;
  mutable md_steps_taken : int;  (** op-trace: integrator steps *)
  mutable solver_iterations : int;  (** op-trace: total Krylov iterations *)
}

let create ?(prec = Shape.F64) ~backend ~seed geom =
  let u = Lqcd.Gauge.create_links ~prec geom in
  Lqcd.Gauge.unit_gauge u;
  let p =
    Array.init (Geometry.nd geom) (fun mu ->
        Field.create ~name:(Printf.sprintf "mom%d" mu) (Shape.lattice_color_matrix prec) geom)
  in
  {
    geom;
    prec;
    u;
    p;
    backend;
    rng = Prng.create ~seed;
    md_steps_taken = 0;
    solver_iterations = 0;
  }

let fermion_shape t = Shape.lattice_fermion t.prec
let fresh_fermion t = Field.create (fermion_shape t) t.geom

let solver_ops t =
  {
    Solvers.Ops.shape = fermion_shape t;
    geom = t.geom;
    fresh = (fun () -> fresh_fermion t);
    assign = (fun ?subset dest e -> t.backend.eval ?subset dest e);
    norm2 = (fun ?subset e -> t.backend.norm2 ?subset e);
    inner = (fun ?subset a b -> t.backend.inner ?subset a b);
  }

(* Momentum heatbath: independent gaussian Hermitian traceless matrices on
   every link (kinetic energy convention T = sum tr P^2). *)
let refresh_momenta t =
  Array.iter
    (fun pf ->
      for site = 0 to Geometry.volume t.geom - 1 do
        Field.set_site pf ~site (Linalg.Su3.gaussian_hermitian t.rng)
      done)
    t.p

let kinetic_energy t =
  Array.fold_left
    (fun acc pf ->
      acc
      +. t.backend.sum_real
           (Expr.real (Expr.trace_color (Expr.mul (Expr.field pf) (Expr.field pf)))))
    0.0 t.p

(* U_mu(x) <- exp(i eps P_mu(x)) U_mu(x); the exponential is exact to
   machine precision, so reversibility holds to rounding. *)
let update_links t ~eps =
  Array.iteri
    (fun mu pf ->
      let uf = t.u.(mu) in
      for site = 0 to Geometry.volume t.geom - 1 do
        let pm = Field.get_site pf ~site in
        let um = Field.get_site uf ~site in
        let rot = Linalg.Su3.expm (Linalg.Su3.scale ~re:0.0 ~im:eps pm) in
        Field.set_site uf ~site (Linalg.Su3.mul rot um)
      done)
    t.p

(* P_mu <- P_mu - eps * F_mu. *)
let update_momenta t ~eps (forces : Field.t array) =
  Array.iteri
    (fun mu pf ->
      t.backend.eval pf
        (Expr.sub (Expr.field pf)
           (Expr.mul (Expr.const_real ~prec:t.prec eps) (Expr.field forces.(mu)))))
    t.p

let fresh_forces t =
  Array.init (Geometry.nd t.geom) (fun mu ->
      Field.create ~name:(Printf.sprintf "force%d" mu) (Shape.lattice_color_matrix t.prec) t.geom)

let clear_forces t (forces : Field.t array) =
  ignore t;
  Array.iter (fun f -> Field.fill_constant f 0.0) forces

(* Traceless Hermitian projection of a color-matrix expression:
   TA_H(M) = (M - M^dag)/(2i) - tr(...)/Nc.  Both the gauge and the fermion
   forces are of this form. *)
(* The color identity, built once per precision: every force evaluation
   asks for it, and a constant's key digest is computed when it is
   built. *)
let identity_color =
  let make prec =
    let comps = Array.make 18 0.0 in
    comps.(0) <- 1.0;
    comps.(2 * 4) <- 1.0;
    comps.(2 * 8) <- 1.0;
    Expr.const (Shape.lattice_color_matrix prec) comps
  in
  let f16 = make Shape.F16 and f32 = make Shape.F32 and f64 = make Shape.F64 in
  function Shape.F16 -> f16 | F32 -> f32 | F64 -> f64

let hermitian_traceless ?(prec = Shape.F64) m =
  (* (M - M^dag) / 2i = i/2 (M^dag - M) *)
  let herm = Expr.mul (Expr.const_complex ~prec 0.0 0.5) (Expr.sub (Expr.adj m) m) in
  Expr.sub herm
    (Expr.mul
       (Expr.mul (Expr.const_real ~prec (1.0 /. 3.0)) (Expr.trace_color herm))
       (identity_color prec))
