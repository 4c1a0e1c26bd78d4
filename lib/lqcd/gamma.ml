(** Dirac gamma matrices (DeGrand–Rossi basis) as expression constants.

    A gamma matrix is a [LatticeSpinMatrix]-shaped constant; multiplying a
    fermion expression by it goes through the ordinary spin-matrix x
    spin-vector contraction.  Because the code-generating scalar folds
    constant zeros and (+-)1/(+-i) factors, the dense 4x4 multiplication
    compiles down to the usual sparse gamma application — no flops are
    wasted on structural zeros. *)

module Shape = Layout.Shape
module Expr = Qdp.Expr

type cmat = (float * float) array array
(** 4x4 complex entries (re, im). *)

let zero4 () : cmat = Array.init 4 (fun _ -> Array.make 4 (0.0, 0.0))

let cmat_to_components (m : cmat) =
  (* Canonical component order of a Spin_matrix 4 (x) Color_scalar (x) Cplx
     element: spin index s = 4*row + col, then re/im. *)
  let out = Array.make 32 0.0 in
  for i = 0 to 3 do
    for j = 0 to 3 do
      let re, im = m.(i).(j) in
      out.(2 * ((4 * i) + j)) <- re;
      out.((2 * ((4 * i) + j)) + 1) <- im
    done
  done;
  out

let cmat_mul (a : cmat) (b : cmat) : cmat =
  Array.init 4 (fun i ->
      Array.init 4 (fun j ->
          let re = ref 0.0 and im = ref 0.0 in
          for k = 0 to 3 do
            let ar, ai = a.(i).(k) and br, bi = b.(k).(j) in
            re := !re +. ((ar *. br) -. (ai *. bi));
            im := !im +. ((ar *. bi) +. (ai *. br))
          done;
          (!re, !im)))

let cmat_add (a : cmat) (b : cmat) : cmat =
  Array.init 4 (fun i ->
      Array.init 4 (fun j ->
          let ar, ai = a.(i).(j) and br, bi = b.(i).(j) in
          (ar +. br, ai +. bi)))

let cmat_scale s (a : cmat) : cmat =
  Array.map (Array.map (fun (re, im) -> (s *. re, s *. im))) a

let identity4 () : cmat =
  let m = zero4 () in
  for i = 0 to 3 do
    m.(i).(i) <- (1.0, 0.0)
  done;
  m

(* DeGrand-Rossi basis. *)
let gamma_mat mu : cmat =
  let m = zero4 () in
  let i = (0.0, 1.0) and mi = (0.0, -1.0) in
  let one = (1.0, 0.0) and mone = (-1.0, 0.0) in
  (match mu with
  | 0 ->
      m.(0).(3) <- i;
      m.(1).(2) <- i;
      m.(2).(1) <- mi;
      m.(3).(0) <- mi
  | 1 ->
      m.(0).(3) <- mone;
      m.(1).(2) <- one;
      m.(2).(1) <- one;
      m.(3).(0) <- mone
  | 2 ->
      m.(0).(2) <- i;
      m.(1).(3) <- mi;
      m.(2).(0) <- mi;
      m.(3).(1) <- i
  | 3 ->
      m.(0).(2) <- one;
      m.(1).(3) <- one;
      m.(2).(0) <- one;
      m.(3).(1) <- one
  | _ -> invalid_arg "Gamma.gamma_mat: mu must be 0..3");
  m

let gamma5_mat () : cmat =
  (* gamma5 = gamma0 gamma1 gamma2 gamma3 in this basis: diag(1,1,-1,-1). *)
  cmat_mul (cmat_mul (gamma_mat 0) (gamma_mat 1)) (cmat_mul (gamma_mat 2) (gamma_mat 3))

(* sigma_{mu nu} = (i/2) [gamma_mu, gamma_nu]. *)
let sigma_mat mu nu : cmat =
  let gm = gamma_mat mu and gn = gamma_mat nu in
  let comm = cmat_add (cmat_mul gm gn) (cmat_scale (-1.0) (cmat_mul gn gm)) in
  (* multiply by i/2 *)
  Array.map (Array.map (fun (re, im) -> (-0.5 *. im, 0.5 *. re))) comm

let spin_matrix_const ?(prec = Shape.F64) m =
  Expr.const (Shape.lattice_spin_matrix prec) (cmat_to_components m)

(* The spin constants, built once per precision (and direction): every
   Wilson operator application asks for eight projectors, and an
   expression is immutable ([Expr.const] copies its components), so one
   value serves every caller. *)
let per_prec f =
  let tbl = Array.map f [| Shape.F16; Shape.F32; Shape.F64 |] in
  fun ?(prec = Shape.F64) () -> tbl.(match prec with Shape.F16 -> 0 | F32 -> 1 | F64 -> 2)

let per_prec_mu f =
  let tbl = Array.init 4 (fun mu -> per_prec (fun prec -> f prec mu)) in
  fun ?prec mu ->
    if mu < 0 || mu > 3 then invalid_arg "Gamma: mu must be 0..3";
    tbl.(mu) ?prec ()

let gamma = per_prec_mu (fun prec mu -> spin_matrix_const ~prec (gamma_mat mu))
let gamma5 = per_prec (fun prec -> spin_matrix_const ~prec (gamma5_mat ()))
let one = per_prec (fun prec -> spin_matrix_const ~prec (identity4 ()))

(* Wilson projectors: (1 - gamma_mu) forward, (1 + gamma_mu) backward. *)
let proj_minus =
  per_prec_mu (fun prec mu ->
      spin_matrix_const ~prec (cmat_add (identity4 ()) (cmat_scale (-1.0) (gamma_mat mu))))

let proj_plus =
  per_prec_mu (fun prec mu ->
      spin_matrix_const ~prec (cmat_add (identity4 ()) (gamma_mat mu)))

(* Raw matrices, exposed for tests (Clifford algebra checks) and the clover
   packer. *)
let matrices () = Array.init 4 gamma_mat
