type result = {
  sigma : float;
  lo : float;
  hi : float;
  degree : int;
  error : float;
  pfe : Ratfun.t;
  pfe_inv : Ratfun.t;
}

(* The exchange runs in a transformed variable.  x in [lo,hi] is first
   rescaled by the geometric mean c = sqrt(lo*hi) to y = x/c, then mapped
   affinely to t in [-1,1].  Polynomials are represented in the Chebyshev
   basis in t while solving, which keeps the linear systems well conditioned
   for degrees up to ~14 in double precision; they are converted to monomial
   form (still in t) only for root finding. *)

type frame = { c : float; t0 : float; dt_dy : float }
(* t = dt_dy * (y - t0-ish); concretely t = (2y - (ylo+yhi)) / (yhi-ylo). *)

let make_frame lo hi =
  let c = sqrt (lo *. hi) in
  let ylo = lo /. c and yhi = hi /. c in
  { c; t0 = (ylo +. yhi) /. 2.0; dt_dy = 2.0 /. (yhi -. ylo) }

let t_of_x fr x = ((x /. fr.c) -. fr.t0) *. fr.dt_dy

(* Chebyshev polynomial values T_0..T_n at t (Clenshaw-free, direct recurrence). *)
let cheb_values n t =
  let v = Array.make (n + 1) 1.0 in
  if n >= 1 then v.(1) <- t;
  for k = 2 to n do
    v.(k) <- (2.0 *. t *. v.(k - 1)) -. v.(k - 2)
  done;
  v

let cheb_eval coeffs t =
  let n = Array.length coeffs - 1 in
  let v = cheb_values n t in
  let acc = ref 0.0 in
  for k = 0 to n do
    acc := !acc +. (coeffs.(k) *. v.(k))
  done;
  !acc

let log_grid lo hi n =
  let llo = log lo and lhi = log hi in
  Array.init n (fun i -> exp (llo +. ((lhi -. llo) *. float_of_int i /. float_of_int (n - 1))))

(* Initial reference: Chebyshev points in log x. *)
let initial_points lo hi count =
  let llo = log lo and lhi = log hi in
  let mid = (llo +. lhi) /. 2.0 and half = (lhi -. llo) /. 2.0 in
  let pts =
    Array.init count (fun k ->
        exp (mid +. (half *. cos (Float.pi *. float_of_int k /. float_of_int (count - 1)))))
  in
  Array.sort compare pts;
  pts

(* Solve for Chebyshev coefficients p_0..p_n, q_0..q_{n-1} (leading Chebyshev
   coefficient of q fixed to 1) and level E on the reference x-points,
   iterating the linearization q -> q_prev inside the E term. *)
let solve_on_points ~sigma ~degree ~q_init fr xs =
  let n = degree in
  let count = Array.length xs in
  assert (count = (2 * n) + 2);
  let f = Array.map (fun x -> x ** sigma) xs in
  let tvals = Array.map (fun x -> cheb_values n (t_of_x fr x)) xs in
  let q_prev = ref (q_init xs) in
  (* Unknowns: p_0..p_n, q_0..q_n, E.  Point equations are homogeneous in
     (p,q); the last row pins the normalization q(c) = 1 at the geometric
     midpoint, which anchors the denominator positive on the interval and
     keeps the iteration off the degenerate (interior-pole) branch. *)
  let dim = (2 * n) + 3 in
  let t_mid = t_of_x fr (sqrt (fr.c *. fr.c)) in
  let tv_mid = cheb_values n t_mid in
  let coeffs = ref [||] in
  let e_level = ref 0.0 in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && !iter < 100 do
    incr iter;
    let a = Array.make_matrix dim dim 0.0 in
    let b = Array.make dim 0.0 in
    for i = 0 to count - 1 do
      let tv = tvals.(i) in
      let sign = if i land 1 = 0 then 1.0 else -1.0 in
      (* Residual being zeroed: p(x_i) - f_i (1 + sign_i E) q(x_i); the q
         columns carry the (1 + sign_i E_prev) factor so that the fixed
         point solves the full nonlinear system, not a truncation of it. *)
      let efac = 1.0 +. (sign *. !e_level) in
      for j = 0 to n do
        a.(i).(j) <- tv.(j);
        a.(i).(n + 1 + j) <- -.f.(i) *. efac *. tv.(j)
      done;
      a.(i).(dim - 1) <- -.sign *. f.(i) *. !q_prev.(i);
      b.(i) <- 0.0
    done;
    for j = 0 to n do
      a.(dim - 1).(n + 1 + j) <- tv_mid.(j)
    done;
    b.(dim - 1) <- 1.0;
    (* The system's conditioning exhausts plain doubles well before the
       equioscillation level does; solve in double-double. *)
    let sol = Dd.solve_float a b in
    let new_e = sol.(dim - 1) in
    let q_coeff = Array.init (n + 1) (fun j -> sol.(n + 1 + j)) in
    let q_vals =
      Array.map (fun tv ->
          let acc = ref 0.0 in
          Array.iteri (fun k c -> acc := !acc +. (c *. tv.(k))) q_coeff;
          !acc)
        tvals
    in
    (* Branch guard: the nearby degenerate (interpolation) fixed point shows
       up as a collapsing level |E| or as a denominator changing sign across
       the reference points.  Reject such steps and keep the last good
       iterate — the outer exchange only needs a usable on-branch solve. *)
    let sign_flip =
      let s0 = if q_vals.(0) >= 0.0 then 1.0 else -1.0 in
      Array.exists (fun v -> v *. s0 <= 0.0) q_vals
    in
    let collapse = !e_level <> 0.0 && abs_float new_e < 0.01 *. abs_float !e_level in
    if (sign_flip || collapse) && !coeffs <> [||] then converged := true
    else begin
      q_prev := q_vals;
      if abs_float (new_e -. !e_level) <= 1e-14 *. (abs_float new_e +. 1e-300) then
        converged := true;
      e_level := new_e;
      coeffs := sol
    end
  done;
  let sol = !coeffs in
  let p = Array.init (n + 1) (fun j -> sol.(j)) in
  let q = Array.init (n + 1) (fun j -> sol.(n + 1 + j)) in
  (p, q, abs_float !e_level)

let rel_error ~sigma fr p q x =
  let t = t_of_x fr x in
  (cheb_eval p t /. cheb_eval q t /. (x ** sigma)) -. 1.0

(* Single-point exchange (Remez's first algorithm): swap the global error
   maximizer into the reference set, replacing the neighbour whose error has
   the same sign so that the sign alternation across the reference points is
   preserved exactly.  Slower than multi-point exchange but immune to the
   degenerate reference sets (duplicates, broken alternation) that
   multi-point variants produce when the error has flat regions. *)
let exchange_single ~sigma fr p q lo hi old_pts =
  let grid = log_grid lo hi 20000 in
  let best_x = ref grid.(0) and best_e = ref 0.0 in
  Array.iter
    (fun x ->
      let e = rel_error ~sigma fr p q x in
      if abs_float e > abs_float !best_e then begin
        best_x := x;
        best_e := e
      end)
    grid;
  let x_star = !best_x and e_star = !best_e in
  let count = Array.length old_pts in
  let e_at = Array.map (fun x -> rel_error ~sigma fr p q x) old_pts in
  let same_sign a b = a *. b > 0.0 in
  (* Index of the first old point greater than x_star. *)
  let idx = ref 0 in
  while !idx < count && old_pts.(!idx) < x_star do incr idx done;
  let pts = Array.copy old_pts in
  if !idx < count && old_pts.(!idx) = x_star then pts (* already a reference point *)
  else begin
    (if !idx = 0 then
       if same_sign e_star e_at.(0) then pts.(0) <- x_star
       else begin
         (* New extremum beyond the left end with opposite sign: shift the
            whole set right, dropping the rightmost point. *)
         for i = count - 1 downto 1 do
           pts.(i) <- pts.(i - 1)
         done;
         pts.(0) <- x_star
       end
     else if !idx = count then
       if same_sign e_star e_at.(count - 1) then pts.(count - 1) <- x_star
       else begin
         for i = 0 to count - 2 do
           pts.(i) <- pts.(i + 1)
         done;
         pts.(count - 1) <- x_star
       end
     else if same_sign e_star e_at.(!idx - 1) then pts.(!idx - 1) <- x_star
     else if same_sign e_star e_at.(!idx) then pts.(!idx) <- x_star);
    pts
  end

(* Derivative values of a Chebyshev series: d/dt T_k = k U_{k-1}. *)
let cheb_eval_deriv coeffs t =
  let n = Array.length coeffs - 1 in
  (* Chebyshev U recurrence. *)
  let u = Array.make (max 1 n) 1.0 in
  if n >= 2 then u.(1) <- 2.0 *. t;
  for k = 2 to n - 1 do
    u.(k) <- (2.0 *. t *. u.(k - 1)) -. u.(k - 2)
  done;
  let acc = ref 0.0 in
  for k = 1 to n do
    acc := !acc +. (coeffs.(k) *. float_of_int k *. u.(k - 1))
  done;
  !acc

(* Partial fractions of P(t(x))/Q(t(x)) in x.  The poles of a good x^sigma
   approximant are spread geometrically on the negative x axis, which makes
   them *cluster* near t = -1 in the transformed variable; monomial root
   finding in t is therefore hopeless.  Instead we locate the roots of the
   function x -> Q(t(x)) directly on a geometric scan of the negative axis
   and bisect each bracket.  Residue at x_k: P(t_k) / (Q'(t_k) * dt/dx). *)
let partial_fractions fr p_cheb q_cheb =
  let n = Array.length q_cheb - 1 in
  let qf x = cheb_eval q_cheb (t_of_x fr x) in
  (* Scan |x| from far below the smallest pole scale to far above the
     largest: the poles of an [lo,hi] approximant live within a few orders
     of magnitude of that interval. *)
  let xmin = fr.c *. 1e-14 and xmax = fr.c *. 1e14 in
  let per_side = 6000 in
  let grid =
    Array.init (per_side + 1) (fun i ->
        -.(xmax *. ((xmin /. xmax) ** (float_of_int i /. float_of_int per_side))))
  in
  (* grid runs from -xmax up to -xmin, increasing. *)
  let bisect a b =
    let fa = qf a in
    let rec go a b fa iter =
      if iter > 200 then (a +. b) /. 2.0
      else begin
        let m = (a +. b) /. 2.0 in
        if m = a || m = b then m
        else begin
          let fm = qf m in
          if fm = 0.0 then m
          else if fa *. fm < 0.0 then go a m fa (iter + 1)
          else go m b fm (iter + 1)
        end
      end
    in
    go a b fa 0
  in
  let poles = ref [] in
  for i = 0 to Array.length grid - 2 do
    let a = grid.(i) and b = grid.(i + 1) in
    if qf a *. qf b < 0.0 then poles := bisect a b :: !poles
  done;
  let poles = Array.of_list !poles in
  if Array.length poles <> n then
    failwith
      (Printf.sprintf "Remez.partial_fractions: found %d real poles, expected %d"
         (Array.length poles) n);
  let a0 = p_cheb.(n) /. q_cheb.(n) in
  let dt_dx = fr.dt_dy /. fr.c in
  let terms =
    Array.map
      (fun xk ->
        let tk = t_of_x fr xk in
        let alpha = cheb_eval p_cheb tk /. (cheb_eval_deriv q_cheb tk *. dt_dx) in
        (alpha, -.xk))
      poles
  in
  { Ratfun.a0; terms }

(* One full exchange at a fixed degree.  [q_start] supplies denominator
   values for the first linearization (from the previous continuation
   degree); returns the best iterate and its measured global error. *)
let run_exchange ~sigma ~degree ~q_start fr lo hi =
  let count = (2 * degree) + 2 in
  let pts = ref (initial_points lo hi count) in
  let best = ref None in
  let best_global = ref infinity in
  let prev_q = ref None in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && !iter < 50 do
    incr iter;
    (* Warm-start the linearized denominator from the previous outer iterate
       (a cold start tends to fall into the degenerate interpolation branch
       once the reference points are near-optimal). *)
    let q_init xs =
      match !prev_q with
      | None -> q_start xs
      | Some q -> Array.map (fun x -> cheb_eval q (t_of_x fr x)) xs
    in
    let p, q, level = solve_on_points ~sigma ~degree ~q_init fr !pts in
    (* Convergence: the global max error must have come down to the solved
       equioscillation level E (deviation at the reference points alone is
       automatic once the linear solve converges, so it proves nothing). *)
    let grid = log_grid lo hi 20000 in
    let global_max =
      Array.fold_left
        (fun acc x -> max acc (abs_float (rel_error ~sigma fr p q x)))
        0.0 grid
    in
    (* Record only iterates whose partial fractions are valid (all poles
       real): the caller always receives a usable expansion or a Failure. *)
    (if global_max < !best_global then
       match partial_fractions fr p q with
       | exception Failure _ -> ()
       | _pfe -> (
           match partial_fractions fr q p with
           | exception Failure _ -> ()
           | _ ->
               best := Some (p, q);
               best_global := global_max));
    prev_q := Some q;
    if level > 0.0 && global_max <= level *. 1.02 then converged := true
    else begin
      let new_pts = exchange_single ~sigma fr p q lo hi !pts in
      if new_pts = !pts then converged := true else pts := new_pts
    end
  done;
  match !best with
  | Some (p, q) -> (p, q, !best_global)
  | None -> failwith "Remez: exchange produced no solution"

let approx ~sigma ~degree ~lo ~hi =
  if abs_float sigma <= 0.0 || abs_float sigma >= 1.0 then
    invalid_arg "Remez.approx: need 0 < |sigma| < 1";
  if degree < 1 then invalid_arg "Remez.approx: degree must be >= 1";
  if lo <= 0.0 || hi <= lo then invalid_arg "Remez.approx: need 0 < lo < hi";
  let s = abs_float sigma in
  let fr = make_frame lo hi in
  (* Degree continuation: each degree warm-starts its denominator from the
     previous degree's solution, which keeps the exchange on the branch with
     real, negative poles. *)
  let q_fn = ref (fun xs -> Array.map (fun _ -> 1.0) xs) in
  let final = ref None in
  for d = 1 to degree do
    match run_exchange ~sigma:s ~degree:d ~q_start:!q_fn fr lo hi with
    | p, q, err ->
        q_fn := (fun xs -> Array.map (fun x -> cheb_eval q (t_of_x fr x)) xs);
        final := Some (p, q, err, d)
    | exception Failure _ ->
        (* This continuation degree left no valid iterate; carry the previous
           warm start (and previous best solution) forward. *)
        ()
  done;
  let p_cheb, q_cheb, error, got_degree =
    match !final with
    | Some v -> v
    | None -> failwith "Remez.approx: exchange failed to converge"
  in
  if error > 0.5 then failwith "Remez.approx: exchange failed to converge";
  let pfe_pos = partial_fractions fr p_cheb q_cheb in
  let pfe_neg = partial_fractions fr q_cheb p_cheb in
  if sigma > 0.0 then
    { sigma; lo; hi; degree = got_degree; error; pfe = pfe_pos; pfe_inv = pfe_neg }
  else { sigma; lo; hi; degree = got_degree; error; pfe = pfe_neg; pfe_inv = pfe_pos }

let eval r x = Ratfun.eval r.pfe x

let check_equioscillation r ~samples =
  let grid = log_grid r.lo r.hi samples in
  Array.fold_left
    (fun acc x -> max acc (abs_float ((eval r x /. (x ** r.sigma)) -. 1.0)))
    0.0 grid
