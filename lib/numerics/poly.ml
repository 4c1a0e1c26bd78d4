type t = float array

(* Degree after stripping exactly-zero leading coefficients; the zero
   polynomial has degree 0. *)
let degree p =
  let n = ref (Array.length p - 1) in
  while !n > 0 && p.(!n) = 0.0 do
    decr n
  done;
  max 0 !n

let eval p x =
  let acc = ref 0.0 in
  for i = Array.length p - 1 downto 0 do
    acc := (!acc *. x) +. p.(i)
  done;
  !acc

let eval_complex p z =
  let acc = ref Complex.zero in
  for i = Array.length p - 1 downto 0 do
    acc := Complex.add (Complex.mul !acc z) { Complex.re = p.(i); im = 0.0 }
  done;
  !acc

let derivative p =
  let n = Array.length p in
  if n <= 1 then [| 0.0 |]
  else Array.init (n - 1) (fun i -> float_of_int (i + 1) *. p.(i + 1))

let mul p q =
  let np = Array.length p and nq = Array.length q in
  let r = Array.make (np + nq - 1) 0.0 in
  for i = 0 to np - 1 do
    for j = 0 to nq - 1 do
      r.(i + j) <- r.(i + j) +. (p.(i) *. q.(j))
    done
  done;
  r

let of_roots rs = Array.fold_left (fun acc r -> mul acc [| -.r; 1.0 |]) [| 1.0 |] rs

let roots ?(max_iter = 2000) ?(tol = 1e-12) p =
  let n = degree p in
  if n = 0 then [||]
  else begin
    let p = Array.sub p 0 (n + 1) in
    (* Normalize to monic for stability of the iteration. *)
    let lead = p.(n) in
    let p = Array.map (fun c -> c /. lead) p in
    (* Root magnitudes can span many orders (Remez denominators have poles
       spread geometrically), so start the guesses on a geometric ladder of
       magnitudes inside the Cauchy bound, with an irrational angle offset to
       break symmetry. *)
    let bound =
      1.0 +. Array.fold_left (fun acc c -> max acc (abs_float c)) 0.0 (Array.sub p 0 n)
    in
    let zs =
      Array.init n (fun k ->
          let frac = (float_of_int k +. 1.0) /. float_of_int (n + 1) in
          let radius = bound ** frac in
          let angle = ((2.0 *. Float.pi *. float_of_int k) /. float_of_int n) +. 0.4 in
          Complex.polar radius angle)
    in
    let converged = ref false in
    let iter = ref 0 in
    while (not !converged) && !iter < max_iter do
      incr iter;
      let all_small = ref true in
      for i = 0 to n - 1 do
        let zi = zs.(i) in
        let denom = ref Complex.one in
        for j = 0 to n - 1 do
          if j <> i then denom := Complex.mul !denom (Complex.sub zi zs.(j))
        done;
        let step = Complex.div (eval_complex p zi) !denom in
        zs.(i) <- Complex.sub zi step;
        if Complex.norm step > tol *. max 1.0 (Complex.norm zi) then all_small := false
      done;
      if !all_small then converged := true
    done;
    if not !converged then failwith "Poly.roots: Durand-Kerner did not converge";
    zs
  end

(* Real roots by sign-change scanning + bisection.  All roots lie within the
   Cauchy bound B = 1 + max |c_i / c_n|; we scan [-B, B] with geometric grids
   on both signs (roots of Remez denominators are spread over many orders of
   magnitude) plus a fine linear grid near zero, and bisect every bracket.
   Roots of even multiplicity are invisible to sign changes; the rational
   approximation denominators this serves have only simple roots. *)
let real_roots ?tol_imag:_ p =
  let n = degree p in
  if n = 0 then [||]
  else begin
    let lead = p.(n) in
    let bound =
      1.0
      +. Array.fold_left (fun acc c -> max acc (abs_float (c /. lead))) 0.0 (Array.sub p 0 n)
    in
    let eps = bound *. 1e-18 in
    let per_side = 4000 in
    let candidates = ref [] in
    (* Geometric ladders from eps to bound, both signs, plus 0 and the ends. *)
    for i = 0 to per_side do
      let m = eps *. ((bound /. eps) ** (float_of_int i /. float_of_int per_side)) in
      candidates := m :: -.m :: !candidates
    done;
    candidates := 0.0 :: !candidates;
    let grid = Array.of_list !candidates in
    Array.sort compare grid;
    let bisect a b =
      let fa = eval p a in
      let rec go a b fa iter =
        if iter > 200 then (a +. b) /. 2.0
        else begin
          let m = (a +. b) /. 2.0 in
          if m = a || m = b then m
          else begin
            let fm = eval p m in
            if fm = 0.0 then m
            else if fa *. fm < 0.0 then go a m fa (iter + 1)
            else go m b fm (iter + 1)
          end
        end
      in
      go a b fa 0
    in
    let out = ref [] in
    for i = 0 to Array.length grid - 2 do
      let a = grid.(i) and b = grid.(i + 1) in
      let fa = eval p a and fb = eval p b in
      if fa = 0.0 then begin
        match !out with
        | r :: _ when r = a -> ()
        | _ -> out := a :: !out
      end
      else if fa *. fb < 0.0 then out := bisect a b :: !out
    done;
    let last = grid.(Array.length grid - 1) in
    if eval p last = 0.0 then out := last :: !out;
    let arr = Array.of_list !out in
    Array.sort compare arr;
    arr
  end
