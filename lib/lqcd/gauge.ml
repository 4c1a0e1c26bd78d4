(** Gauge sector: link-field construction, plaquettes, staples and the
    Wilson gauge action, all at the expression level so that both the CPU
    reference and the JIT engine evaluate them. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr

type links = Field.t array
(** One [LatticeColorMatrix] per dimension (the multi1d of Fig. 1). *)

let create_links ?(prec = Shape.F64) geom : links =
  Array.init (Geometry.nd geom) (fun mu ->
      Field.create ~name:(Printf.sprintf "u%d" mu) (Shape.lattice_color_matrix prec) geom)

(* Cold start: all links at the identity (plaquette exactly 1). *)
let unit_gauge (u : links) =
  Array.iter
    (fun f ->
      let site_count = Field.volume f in
      for site = 0 to site_count - 1 do
        Field.set_site f ~site (Linalg.Su3.identity ())
      done)
    u

(* Hot/warm starts for tests and thermalisation. *)
let random_gauge ?(epsilon = 1.0) (u : links) rng =
  Array.iter
    (fun f ->
      let site_count = Field.volume f in
      for site = 0 to site_count - 1 do
        Field.set_site f ~site (Linalg.Su3.random_su3_near_identity rng ~epsilon)
      done)
    u

let reunitarize (u : links) =
  Array.iter
    (fun f ->
      let site_count = Field.volume f in
      for site = 0 to site_count - 1 do
        Field.set_site f ~site (Linalg.Su3.reunitarize (Field.get_site f ~site))
      done)
    u

(* P_munu(x) = U_mu(x) U_nu(x+mu) U_mu(x+nu)^dag U_nu(x)^dag. *)
let plaquette_expr (u : links) ~mu ~nu =
  if mu = nu then invalid_arg "Gauge.plaquette_expr: mu = nu";
  let f = Expr.field in
  Expr.mul
    (Expr.mul (f u.(mu)) (Expr.shift (f u.(nu)) ~dim:mu ~dir:1))
    (Expr.mul
       (Expr.adj (Expr.shift (f u.(mu)) ~dim:nu ~dir:1))
       (Expr.adj (f u.(nu))))

(* Re tr P / Nc, per site. *)
let plaquette_trace_expr (u : links) ~mu ~nu =
  Expr.mul
    (Expr.const_real (1.0 /. 3.0))
    (Expr.real (Expr.trace_color (plaquette_expr u ~mu ~nu)))

(* Mean plaquette over all mu<nu pairs, via a caller-supplied summation
   (CPU reference or JIT reduction). *)
let mean_plaquette ~sum_real (u : links) =
  let nd = Array.length u in
  let volume = Field.volume u.(0) in
  let acc = ref 0.0 in
  let pairs = ref 0 in
  for mu = 0 to nd - 1 do
    for nu = mu + 1 to nd - 1 do
      acc := !acc +. sum_real (plaquette_trace_expr u ~mu ~nu);
      incr pairs
    done
  done;
  !acc /. float_of_int (volume * !pairs)

(* Plaquette-pair weight used by both the action and its force. *)
let pair_weight ~aniso ~nd ~mu ~nu =
  if mu = nd - 1 || nu = nd - 1 then aniso else 1.0 /. aniso

(* The staple sum entering the gauge force for link (x, mu), each (mu, nu)
   plane weighted by {!pair_weight}:
   sum_{nu<>mu}  U_nu(x+mu) U_mu(x+nu)^dag U_nu(x)^dag
               + U_nu(x+mu-nu)^dag U_mu(x-nu)^dag U_nu(x-nu).
   A unit weight adds no multiply, so the isotropic sum is unweighted. *)
let staple_expr (u : links) ~aniso ~mu =
  let nd = Array.length u in
  let prec = u.(mu).Field.shape.Shape.prec in
  let f = Expr.field in
  let terms = ref [] in
  for nu = 0 to nd - 1 do
    if nu <> mu then begin
      let w = pair_weight ~aniso ~nd ~mu ~nu in
      let weighted e = if w = 1.0 then e else Expr.mul (Expr.const_real ~prec w) e in
      let up =
        Expr.mul
          (Expr.shift (f u.(nu)) ~dim:mu ~dir:1)
          (Expr.mul (Expr.adj (Expr.shift (f u.(mu)) ~dim:nu ~dir:1)) (Expr.adj (f u.(nu))))
      in
      let down_inner =
        Expr.mul
          (Expr.adj (Expr.shift (f u.(nu)) ~dim:mu ~dir:1))
          (Expr.mul (Expr.adj (f u.(mu))) (f u.(nu)))
      in
      let down = Expr.shift down_inner ~dim:nu ~dir:(-1) in
      terms := weighted down :: weighted up :: !terms
    end
  done;
  match !terms with
  | [] -> invalid_arg "Gauge.staple_expr: one-dimensional lattice"
  | t :: rest -> List.fold_left Expr.add t rest

(* Wilson gauge action S = beta sum_{x,mu<nu} (1 - Re tr P / Nc);
   [aniso] scales temporal plaquettes (the last dimension) by xi and
   spatial ones by 1/xi, the standard anisotropic Wilson form. *)
let action ~sum_real ?(aniso = 1.0) ~beta (u : links) =
  let nd = Array.length u in
  let volume = Field.volume u.(0) in
  let acc = ref 0.0 in
  for mu = 0 to nd - 1 do
    for nu = mu + 1 to nd - 1 do
      let weight = pair_weight ~aniso ~nd ~mu ~nu in
      let tr = sum_real (plaquette_trace_expr u ~mu ~nu) in
      acc := !acc +. (weight *. (float_of_int volume -. tr))
    done
  done;
  beta *. !acc

(* Field strength for the clover term: Q_munu(x) is the sum of the four
   plaquette leaves around x in the (mu,nu) plane and
   F_munu = (Q - Q^dag) / 8i (Hermitian). *)
let clover_leaf_sum_expr (u : links) ~mu ~nu =
  let f = Expr.field in
  let um = f u.(mu) and un = f u.(nu) in
  let sh e dim dir = Expr.shift e ~dim ~dir in
  (* Leaf 1: forward-forward. *)
  let p1 = Expr.mul (Expr.mul um (sh un mu 1)) (Expr.mul (Expr.adj (sh um nu 1)) (Expr.adj un)) in
  (* Leaf 2: U_nu(x) U_mu(x-mu+nu)^dag U_nu(x-mu)^dag U_mu(x-mu). *)
  let p2 =
    Expr.mul
      (Expr.mul un (Expr.adj (sh (sh um nu 1) mu (-1))))
      (Expr.mul (Expr.adj (sh un mu (-1))) (sh um mu (-1)))
  in
  (* Leaf 3: U_mu(x-mu)^dag U_nu(x-mu-nu)^dag U_mu(x-mu-nu) U_nu(x-nu). *)
  let p3 =
    Expr.mul
      (Expr.mul (Expr.adj (sh um mu (-1))) (Expr.adj (sh (sh un mu (-1)) nu (-1))))
      (Expr.mul (sh (sh um mu (-1)) nu (-1)) (sh un nu (-1)))
  in
  (* Leaf 4: U_nu(x-nu)^dag U_mu(x-nu) U_nu(x+mu-nu) U_mu(x)^dag. *)
  let p4 =
    Expr.mul
      (Expr.mul (Expr.adj (sh un nu (-1))) (sh um nu (-1)))
      (Expr.mul (sh (sh un mu 1) nu (-1)) (Expr.adj um))
  in
  Expr.add (Expr.add p1 p2) (Expr.add p3 p4)

let field_strength_expr (u : links) ~mu ~nu =
  let q = clover_leaf_sum_expr u ~mu ~nu in
  (* (Q - Q^dag) / 8i = -i/8 (Q - Q^dag). *)
  Expr.mul (Expr.const_complex 0.0 (-0.125)) (Expr.sub q (Expr.adj q))
