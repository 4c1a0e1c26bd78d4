module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr
module Gamma = Lqcd.Gamma
module Gauge = Lqcd.Gauge
module Su3 = Linalg.Su3

let geom = Geometry.create [| 4; 4; 4; 4 |]
let rng = Prng.create ~seed:55L
let sum_cpu e = (Qdp.Eval_cpu.sum_components e).(0)

let warm_links () =
  let u = Gauge.create_links geom in
  Gauge.random_gauge ~epsilon:0.4 u rng;
  u

let fermion () =
  let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Field.fill_gaussian f rng;
  f

(* ------------------------------ gamma -------------------------------- *)

let cmat_sub a b = Gamma.cmat_add a (Gamma.cmat_scale (-1.0) b)

let cmat_is_zero ?(tol = 1e-12) m =
  Array.for_all (Array.for_all (fun (re, im) -> abs_float re <= tol && abs_float im <= tol)) m

let test_clifford_algebra () =
  let g = Gamma.matrices () in
  for mu = 0 to 3 do
    for nu = 0 to 3 do
      let anti = Gamma.cmat_add (Gamma.cmat_mul g.(mu) g.(nu)) (Gamma.cmat_mul g.(nu) g.(mu)) in
      let expected = Gamma.cmat_scale (if mu = nu then 2.0 else 0.0) (Gamma.identity4 ()) in
      if not (cmat_is_zero (cmat_sub anti expected)) then
        Alcotest.failf "{g%d,g%d} != 2 delta" mu nu
    done
  done

let test_gamma_hermitian () =
  Array.iteri
    (fun mu gm ->
      let dag = Array.init 4 (fun i -> Array.init 4 (fun j -> let re, im = gm.(j).(i) in (re, -.im))) in
      if not (cmat_is_zero (cmat_sub gm dag)) then Alcotest.failf "gamma%d not hermitian" mu)
    (Gamma.matrices ())

let test_gamma5 () =
  let g5 = Gamma.gamma5_mat () in
  (* g5^2 = 1 *)
  if not (cmat_is_zero (cmat_sub (Gamma.cmat_mul g5 g5) (Gamma.identity4 ()))) then
    Alcotest.fail "g5^2 != 1";
  (* anticommutes with every gamma *)
  Array.iter
    (fun gm ->
      let anti = Gamma.cmat_add (Gamma.cmat_mul g5 gm) (Gamma.cmat_mul gm g5) in
      if not (cmat_is_zero anti) then Alcotest.fail "g5 does not anticommute")
    (Gamma.matrices ());
  (* chiral basis: diagonal +-1 *)
  if not (cmat_is_zero (cmat_sub g5 [|
    [| (1.,0.); (0.,0.); (0.,0.); (0.,0.) |];
    [| (0.,0.); (1.,0.); (0.,0.); (0.,0.) |];
    [| (0.,0.); (0.,0.); (-1.,0.); (0.,0.) |];
    [| (0.,0.); (0.,0.); (0.,0.); (-1.,0.) |] |]))
  then Alcotest.fail "g5 not diag(1,1,-1,-1) in this basis"

let test_sigma_block_diagonal () =
  (* sigma_munu commutes with gamma5: block diagonal in chirality, the
     property the packed clover layout relies on. *)
  let g5 = Gamma.gamma5_mat () in
  for mu = 0 to 3 do
    for nu = mu + 1 to 3 do
      let s = Gamma.sigma_mat mu nu in
      let comm = cmat_sub (Gamma.cmat_mul s g5) (Gamma.cmat_mul g5 s) in
      if not (cmat_is_zero comm) then Alcotest.failf "sigma%d%d not block diagonal" mu nu;
      (* off-chirality entries vanish *)
      for i = 0 to 1 do
        for j = 2 to 3 do
          let re, im = s.(i).(j) in
          if abs_float re +. abs_float im > 1e-12 then Alcotest.fail "cross-block entry"
        done
      done
    done
  done

(* The half-spinor split: R P = 1 + sign gamma_mu entry for entry (the
   entries are 0, +-1 and +-i, so the products are exact). *)
let test_half_spinor_split () =
  let g = Gamma.matrices () in
  for mu = 0 to 3 do
    List.iter
      (fun sign ->
        let full = Gamma.cmat_add (Gamma.identity4 ()) (Gamma.cmat_scale (float_of_int sign) g.(mu)) in
        let rp =
          Gamma.cmat_mul (Gamma.spin_reconstruct_mat ~sign mu) (Gamma.spin_project_mat ~sign mu)
        in
        for i = 0 to 3 do
          for j = 0 to 3 do
            if rp.(i).(j) <> full.(i).(j) then
              Alcotest.failf "mu %d sign %+d: (R P)[%d][%d] <> (1 + sign g)[%d][%d]" mu sign i j i j
          done
        done)
      [ -1; 1 ]
  done

let test_projectors () =
  (* (1 -+ gamma_mu) are (twice) projectors: P^2 = 2P. *)
  let g = Gamma.matrices () in
  Array.iter
    (fun gm ->
      let p = cmat_sub (Gamma.identity4 ()) gm in
      let p2 = Gamma.cmat_mul p p in
      if not (cmat_is_zero (cmat_sub p2 (Gamma.cmat_scale 2.0 p))) then
        Alcotest.fail "(1-g)^2 != 2(1-g)")
    g

(* ------------------------------ gauge -------------------------------- *)

let test_unit_gauge_plaquette () =
  let u = Gauge.create_links geom in
  Gauge.unit_gauge u;
  Alcotest.(check (float 1e-14)) "cold plaquette" 1.0 (Gauge.mean_plaquette ~sum_real:sum_cpu u)

let test_warm_plaquette_below_one () =
  let u = warm_links () in
  let p = Gauge.mean_plaquette ~sum_real:sum_cpu u in
  Alcotest.(check bool) "0 < p < 1" true (p > 0.0 && p < 1.0)

let test_plaquette_gauge_invariance () =
  (* U_mu(x) -> g(x) U_mu(x) g(x+mu)^dag leaves the plaquette invariant. *)
  let u = warm_links () in
  let before = Gauge.mean_plaquette ~sum_real:sum_cpu u in
  let gx = Array.init (Geometry.volume geom) (fun _ -> Su3.random_su3 rng) in
  Array.iteri
    (fun mu uf ->
      for site = 0 to Geometry.volume geom - 1 do
        let neighbor = Geometry.neighbor geom site ~dim:mu ~dir:1 in
        let m = Field.get_site uf ~site in
        Field.set_site uf ~site (Su3.mul gx.(site) (Su3.mul m (Su3.dagger gx.(neighbor))))
      done)
    u;
  let after = Gauge.mean_plaquette ~sum_real:sum_cpu u in
  Alcotest.(check (float 1e-10)) "gauge invariant" before after

let test_action_cold_zero () =
  let u = Gauge.create_links geom in
  Gauge.unit_gauge u;
  Alcotest.(check (float 1e-10)) "cold action" 0.0 (Gauge.action ~sum_real:sum_cpu ~beta:5.5 u)

(* Host reference for the staple sum (QUDA's host_reference pattern): on
   random links, the expression agrees bit for bit between the CPU
   evaluator and the JIT engine, and at every site it matches the sum
   built link by link from Su3 products at neighbour indices. *)
let test_staple_host_reference () =
  let rng = Prng.create ~seed:61L in
  let u = Gauge.create_links geom in
  Array.iter
    (fun uf ->
      for site = 0 to Geometry.volume geom - 1 do
        Field.set_site uf ~site (Su3.random_su3 rng)
      done)
    u;
  let eng = Qdpjit.Engine.create ~vm_domains:1 () in
  let link nu site = Field.get_site u.(nu) ~site in
  let nb site dim dir = Geometry.neighbor geom site ~dim ~dir in
  List.iter
    (fun aniso ->
      for mu = 0 to 3 do
        let e = Gauge.staple_expr u ~aniso ~mu in
        let shape = Shape.lattice_color_matrix Shape.F64 in
        let cpu = Field.create shape geom and jit = Field.create shape geom in
        Qdp.Eval_cpu.eval cpu e;
        Qdpjit.Engine.eval eng jit e;
        for site = 0 to Geometry.volume geom - 1 do
          let at what = Printf.sprintf "aniso %g mu %d site %d: %s" aniso mu site what in
          let c = Field.get_site cpu ~site in
          Alcotest.(check bool) (at "CPU = JIT bit for bit") true (c = Field.get_site jit ~site);
          let reference = ref (Array.make 18 0.0) in
          for nu = 0 to 3 do
            if nu <> mu then begin
              let w = if mu = 3 || nu = 3 then aniso else 1.0 /. aniso in
              let up =
                Su3.mul (link nu (nb site mu 1))
                  (Su3.mul (Su3.dagger (link mu (nb site nu 1))) (Su3.dagger (link nu site)))
              in
              let x = nb site nu (-1) in
              let down =
                Su3.mul (Su3.dagger (link nu (nb x mu 1)))
                  (Su3.mul (Su3.dagger (link mu x)) (link nu x))
              in
              reference := Su3.add !reference (Su3.scale ~re:w ~im:0.0 (Su3.add up down))
            end
          done;
          Alcotest.(check bool) (at "host reference") true
            (Su3.frobenius_dist c !reference < 1e-13)
        done
      done)
    [ 1.0; 2.5 ]

let test_field_strength_antihermitian_parts () =
  (* F_munu is Hermitian and traceless up to O(a^2) exactness of the clover
     average: Hermiticity is exact by construction. *)
  let u = warm_links () in
  let f01 = Field.create (Shape.lattice_color_matrix Shape.F64) geom in
  Qdp.Eval_cpu.eval f01 (Gauge.field_strength_expr u ~mu:0 ~nu:1);
  for site = 0 to 20 do
    let m = Field.get_site f01 ~site in
    let d = Su3.frobenius_dist m (Su3.dagger m) in
    if d > 1e-12 then Alcotest.failf "F not hermitian at site %d: %g" site d
  done

let test_field_strength_antisymmetric () =
  let u = warm_links () in
  let a = Field.create (Shape.lattice_color_matrix Shape.F64) geom in
  let b = Field.create (Shape.lattice_color_matrix Shape.F64) geom in
  Qdp.Eval_cpu.eval a (Gauge.field_strength_expr u ~mu:1 ~nu:2);
  Qdp.Eval_cpu.eval b (Gauge.field_strength_expr u ~mu:2 ~nu:1);
  let d = Qdp.Eval_cpu.norm2 (Expr.add (Expr.field a) (Expr.field b)) in
  Alcotest.(check (float 1e-20)) "F_mn = -F_nm" 0.0 d

(* ------------------------------ wilson ------------------------------- *)

let test_dslash_gamma5_hermiticity () =
  let u = warm_links () in
  let psi = fermion () and chi = fermion () in
  (* <chi, D psi> = <g5 D g5 chi, psi> *)
  let lhs = Qdp.Eval_cpu.inner (Expr.field chi) (Lqcd.Wilson.hopping_expr u psi) in
  let g5chi = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Qdp.Eval_cpu.eval g5chi (Lqcd.Wilson.gamma5_expr (Expr.field chi));
  let dg5chi = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Qdp.Eval_cpu.eval dg5chi (Lqcd.Wilson.hopping_expr u g5chi);
  let rhs = Qdp.Eval_cpu.inner (Lqcd.Wilson.gamma5_expr (Expr.field dg5chi)) (Expr.field psi) in
  Alcotest.(check (float 1e-8)) "re" (fst lhs) (fst rhs);
  Alcotest.(check (float 1e-8)) "im" (snd lhs) (snd rhs)

let test_dslash_free_field_constant () =
  (* On a unit gauge field, a constant spinor is an eigenvector of the
     hopping term with eigenvalue 2*Nd (each direction contributes
     (1-g)+(1+g) = 2). *)
  let u = Gauge.create_links geom in
  Gauge.unit_gauge u;
  let psi = Field.create (Shape.lattice_fermion Shape.F64) geom in
  for site = 0 to Geometry.volume geom - 1 do
    Field.set psi ~site ~spin:0 ~color:0 ~reality:0 1.0
  done;
  let out = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Qdp.Eval_cpu.eval out (Lqcd.Wilson.hopping_expr u psi);
  (* (1-g)psi + (1+g)psi = 2 psi per direction; 4 directions -> 8 psi *)
  let diff =
    Qdp.Eval_cpu.norm2
      (Expr.sub (Expr.field out) (Expr.mul (Expr.const_real 8.0) (Expr.field psi)))
  in
  Alcotest.(check (float 1e-18)) "D const = 8 const" 0.0 diff

let test_wilson_kappa_relation () =
  let u = warm_links () in
  let psi = fermion () in
  let kappa = 0.11 in
  (* M psi = psi - kappa D psi, verified by assembling the parts. *)
  let m = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Qdp.Eval_cpu.eval m (Lqcd.Wilson.wilson_expr ~kappa u psi);
  let d = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Qdp.Eval_cpu.eval d (Lqcd.Wilson.hopping_expr u psi);
  let diff =
    Qdp.Eval_cpu.norm2
      (Expr.sub (Expr.field m)
         (Expr.sub (Expr.field psi) (Expr.mul (Expr.const_real kappa) (Expr.field d))))
  in
  Alcotest.(check (float 1e-20)) "kappa assembly" 0.0 diff

(* One direction of the hopping term in full-spinor form: the link
   multiplies all four spin components, then the dense projector. *)
let full_spinor_term u psi mu =
  let f = Expr.field in
  Expr.add
    (Expr.mul (Gamma.proj_minus mu) (Expr.mul (f u.(mu)) (Expr.shift (f psi) ~dim:mu ~dir:1)))
    (Expr.mul (Gamma.proj_plus mu)
       (Expr.shift (Expr.mul (Expr.adj (f u.(mu))) (f psi)) ~dim:mu ~dir:(-1)))

let test_half_spinor_matches_full () =
  let u = warm_links () in
  let psi = fermion () in
  let half = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Qdp.Eval_cpu.eval half (Lqcd.Wilson.hopping_expr u psi);
  let full = Field.create (Shape.lattice_fermion Shape.F64) geom in
  let t = full_spinor_term u psi in
  Qdp.Eval_cpu.eval full (Expr.add (Expr.add (t 0) (t 1)) (Expr.add (t 2) (t 3)));
  let rel =
    sqrt
      (Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field half) (Expr.field full))
      /. Qdp.Eval_cpu.norm2 (Expr.field full))
  in
  if not (rel <= 1e-13) then Alcotest.failf "half-spinor vs full-spinor hopping: relative %g" rel

let test_anisotropic_coefficients () =
  let u = warm_links () in
  let psi = fermion () in
  (* zero temporal coefficient removes the t-direction hopping *)
  let coeffs = [| 1.0; 1.0; 1.0; 0.0 |] in
  let full = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Qdp.Eval_cpu.eval full (Lqcd.Wilson.hopping_expr ~coeffs u psi);
  (* compare against explicit sum over spatial dims only *)
  let spatial = Field.create (Shape.lattice_fermion Shape.F64) geom in
  let term = full_spinor_term u psi in
  Qdp.Eval_cpu.eval spatial (Expr.add (term 0) (Expr.add (term 1) (term 2)));
  let d = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field full) (Expr.field spatial)) in
  Alcotest.(check (float 1e-20)) "aniso coefficients" 0.0 d

(* ------------------------------ clover ------------------------------- *)

let eval_cpu dest e = Qdp.Eval_cpu.eval dest e

let test_clover_pack_vs_dense () =
  let u = warm_links () in
  let psi = fermion () in
  let cl = Lqcd.Clover.pack ~eval:eval_cpu ~csw:1.3 ~c_id:1.0 u in
  let packed = Field.create (Shape.lattice_fermion Shape.F64) geom in
  eval_cpu packed (Lqcd.Clover.apply_expr cl psi);
  let dense = Field.create (Shape.lattice_fermion Shape.F64) geom in
  eval_cpu dense (Lqcd.Clover.apply_dense_expr ~eval:eval_cpu ~csw:1.3 ~c_id:1.0 u psi);
  let d = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field packed) (Expr.field dense)) in
  if d > 1e-20 then Alcotest.failf "packed vs dense: %g" d

let test_clover_hermitian_operator () =
  let u = warm_links () in
  let a = fermion () and b = fermion () in
  let cl = Lqcd.Clover.pack ~eval:eval_cpu ~csw:1.3 ~c_id:0.5 u in
  let lhs = Qdp.Eval_cpu.inner (Expr.field a) (Lqcd.Clover.apply_expr cl b) in
  let rhs = Qdp.Eval_cpu.inner (Expr.field b) (Lqcd.Clover.apply_expr cl a) in
  Alcotest.(check (float 1e-8)) "re" (fst lhs) (fst rhs);
  Alcotest.(check (float 1e-8)) "im" (-.snd lhs) (snd rhs)

let test_clover_unit_gauge_is_identity_term () =
  (* On a unit gauge field F = 0, so A = c_id. *)
  let u = Gauge.create_links geom in
  Gauge.unit_gauge u;
  let psi = fermion () in
  let cl = Lqcd.Clover.pack ~eval:eval_cpu ~csw:1.3 ~c_id:0.75 u in
  let out = Field.create (Shape.lattice_fermion Shape.F64) geom in
  eval_cpu out (Lqcd.Clover.apply_expr cl psi);
  let d =
    Qdp.Eval_cpu.norm2
      (Expr.sub (Expr.field out) (Expr.mul (Expr.const_real 0.75) (Expr.field psi)))
  in
  Alcotest.(check (float 1e-20)) "A = c_id on cold gauge" 0.0 d

(* ---------------------------- observables ---------------------------- *)

let test_wilson_loop_1x1_is_plaquette () =
  let u = warm_links () in
  let w11 = Lqcd.Observables.wilson_loop ~sum_real:sum_cpu u ~mu:0 ~nu:1 ~r:1 ~t:1 in
  let plaq = sum_cpu (Gauge.plaquette_trace_expr u ~mu:0 ~nu:1) /. float_of_int (Geometry.volume geom) in
  Alcotest.(check (float 1e-12)) "W(1,1) = plaquette" plaq w11

let test_wilson_loop_cold () =
  let u = Gauge.create_links geom in
  Gauge.unit_gauge u;
  Alcotest.(check (float 1e-12)) "cold W(2,2) = 1" 1.0
    (Lqcd.Observables.wilson_loop ~sum_real:sum_cpu u ~mu:0 ~nu:2 ~r:2 ~t:2)

let test_wilson_loop_area_law_trend () =
  let u = warm_links () in
  let w r t = Lqcd.Observables.wilson_loop ~sum_real:sum_cpu u ~mu:0 ~nu:1 ~r ~t in
  (* On a rough configuration larger loops are smaller. *)
  Alcotest.(check bool) "W(1,1) > W(2,2)" true (abs_float (w 2 2) < w 1 1)

let test_polyakov_cold () =
  let u = Gauge.create_links geom in
  Gauge.unit_gauge u;
  let re, im = Lqcd.Observables.polyakov_loop ~sum_components:Qdp.Eval_cpu.sum_components u in
  Alcotest.(check (float 1e-12)) "re" 1.0 re;
  Alcotest.(check (float 1e-12)) "im" 0.0 im

let test_polyakov_center_symmetry () =
  (* Multiplying every temporal link on one timeslice by the center element
     z = exp(2 pi i /3) rotates the Polyakov loop by z and leaves the
     plaquette invariant. *)
  let u = warm_links () in
  let p_before = Gauge.mean_plaquette ~sum_real:sum_cpu u in
  let re0, im0 = Lqcd.Observables.polyakov_loop ~sum_components:Qdp.Eval_cpu.sum_components u in
  let angle = 2.0 *. Float.pi /. 3.0 in
  let nd = Geometry.nd geom in
  for site = 0 to Geometry.volume geom - 1 do
    if (Geometry.coord_of_site geom site).(nd - 1) = 0 then
      Field.set_site u.(nd - 1) ~site
        (Su3.scale ~re:(cos angle) ~im:(sin angle) (Field.get_site u.(nd - 1) ~site))
  done;
  let p_after = Gauge.mean_plaquette ~sum_real:sum_cpu u in
  let re1, im1 = Lqcd.Observables.polyakov_loop ~sum_components:Qdp.Eval_cpu.sum_components u in
  Alcotest.(check (float 1e-10)) "plaquette invariant" p_before p_after;
  Alcotest.(check (float 1e-10)) "loop rotated re" ((re0 *. cos angle) -. (im0 *. sin angle)) re1;
  Alcotest.(check (float 1e-10)) "loop rotated im" ((re0 *. sin angle) +. (im0 *. cos angle)) im1

let test_timeslice_subsets_partition () =
  let nd = Geometry.nd geom in
  let lt = (Geometry.dims geom).(nd - 1) in
  let total = ref 0 in
  for t = 0 to lt - 1 do
    match Lqcd.Observables.timeslice_subset geom ~t with
    | Qdp.Subset.Custom sites -> total := !total + Array.length sites
    | _ -> Alcotest.fail "expected custom subset"
  done;
  Alcotest.(check int) "timeslices partition the lattice" (Geometry.volume geom) !total

let test_pion_correlator_norm () =
  (* With M = identity (kappa -> 0 limit) the propagator is the source and
     the correlator is a delta at t = 0. *)
  let cols =
    Array.init 2 (fun i -> Lqcd.Observables.point_source geom ~spin:i ~color:0)
  in
  let norm2_subset subset e = Qdp.Eval_cpu.norm2 ~subset e in
  let c = Lqcd.Observables.pion_correlator ~norm2_subset cols in
  Alcotest.(check (float 1e-12)) "C(0)" 2.0 c.(0);
  for t = 1 to Array.length c - 1 do
    Alcotest.(check (float 0.0)) "C(t>0)" 0.0 c.(t)
  done

(* -------------------------------- io --------------------------------- *)

let test_gauge_io_roundtrip () =
  let u = warm_links () in
  let path = Filename.temp_file "gauge" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Lqcd.Gauge_io.write ~path u;
      let v = Lqcd.Gauge_io.read ~path in
      Array.iteri
        (fun mu uf ->
          let d =
            Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field uf) (Expr.field v.(mu)))
          in
          Alcotest.(check (float 0.0)) "links identical" 0.0 d)
        u)

let test_gauge_io_detects_corruption () =
  let u = warm_links () in
  let path = Filename.temp_file "gauge" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Lqcd.Gauge_io.write ~path u;
      (* Flip a high-order mantissa byte in the data section (the header is
         40 bytes; doubles are little-endian, so offset 40 + 8k + 6 lands in
         the top of a mantissa). *)
      let fd = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
      seek_out fd (40 + (8 * 20) + 6);
      output_char fd 'X';
      close_out fd;
      match Lqcd.Gauge_io.read ~path with
      | exception Lqcd.Gauge_io.Format_error _ -> ()
      | _ -> Alcotest.fail "corruption not detected")

let test_gauge_io_bad_magic () =
  let path = Filename.temp_file "gauge" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "NOTAGAUGEFILE....";
      close_out oc;
      match Lqcd.Gauge_io.read ~path with
      | exception Lqcd.Gauge_io.Format_error _ -> ()
      | _ -> Alcotest.fail "bad magic accepted")

let test_tri_index () =
  (* lower-triangle packing covers 0..14 exactly once *)
  let seen = Array.make 15 false in
  for i = 1 to 5 do
    for j = 0 to i - 1 do
      let k = Lqcd.Clover.tri_index i j in
      if seen.(k) then Alcotest.failf "tri index collision at %d" k;
      seen.(k) <- true
    done
  done;
  Alcotest.(check bool) "all covered" true (Array.for_all (fun x -> x) seen)

let () =
  Alcotest.run "lqcd"
    [
      ( "gamma",
        [
          Alcotest.test_case "clifford" `Quick test_clifford_algebra;
          Alcotest.test_case "hermitian" `Quick test_gamma_hermitian;
          Alcotest.test_case "gamma5" `Quick test_gamma5;
          Alcotest.test_case "sigma blocks" `Quick test_sigma_block_diagonal;
          Alcotest.test_case "projectors" `Quick test_projectors;
          Alcotest.test_case "half-spinor split" `Quick test_half_spinor_split;
        ] );
      ( "gauge",
        [
          Alcotest.test_case "cold plaquette" `Quick test_unit_gauge_plaquette;
          Alcotest.test_case "warm plaquette" `Quick test_warm_plaquette_below_one;
          Alcotest.test_case "gauge invariance" `Quick test_plaquette_gauge_invariance;
          Alcotest.test_case "cold action" `Quick test_action_cold_zero;
          Alcotest.test_case "staple host reference" `Quick test_staple_host_reference;
          Alcotest.test_case "F hermitian" `Quick test_field_strength_antihermitian_parts;
          Alcotest.test_case "F antisymmetric" `Quick test_field_strength_antisymmetric;
        ] );
      ( "wilson",
        [
          Alcotest.test_case "gamma5 hermiticity" `Quick test_dslash_gamma5_hermiticity;
          Alcotest.test_case "free field" `Quick test_dslash_free_field_constant;
          Alcotest.test_case "kappa relation" `Quick test_wilson_kappa_relation;
          Alcotest.test_case "anisotropy" `Quick test_anisotropic_coefficients;
          Alcotest.test_case "half vs full spinor" `Quick test_half_spinor_matches_full;
        ] );
      ( "observables",
        [
          Alcotest.test_case "W(1,1) = plaquette" `Quick test_wilson_loop_1x1_is_plaquette;
          Alcotest.test_case "cold Wilson loop" `Quick test_wilson_loop_cold;
          Alcotest.test_case "area-law trend" `Quick test_wilson_loop_area_law_trend;
          Alcotest.test_case "cold Polyakov" `Quick test_polyakov_cold;
          Alcotest.test_case "center symmetry" `Quick test_polyakov_center_symmetry;
          Alcotest.test_case "timeslice partition" `Quick test_timeslice_subsets_partition;
          Alcotest.test_case "pion delta source" `Quick test_pion_correlator_norm;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_gauge_io_roundtrip;
          Alcotest.test_case "corruption detected" `Quick test_gauge_io_detects_corruption;
          Alcotest.test_case "bad magic" `Quick test_gauge_io_bad_magic;
        ] );
      ( "clover",
        [
          Alcotest.test_case "packed vs dense" `Quick test_clover_pack_vs_dense;
          Alcotest.test_case "hermitian" `Quick test_clover_hermitian_operator;
          Alcotest.test_case "cold gauge" `Quick test_clover_unit_gauge_is_identity_term;
          Alcotest.test_case "tri index" `Quick test_tri_index;
        ] );
    ]
