module Elliptic = struct
  let agm a0 b0 =
    let a = ref a0 and b = ref b0 in
    let continue_ = ref true in
    while !continue_ do
      let a' = (!a +. !b) /. 2.0 and b' = sqrt (!a *. !b) in
      if abs_float (a' -. !a) <= 1e-16 *. abs_float a' then continue_ := false;
      a := a';
      b := b'
    done;
    !a

  let complete_k k =
    if k < 0.0 || k >= 1.0 then invalid_arg "Elliptic.complete_k: need 0 <= k < 1";
    let k' = sqrt ((1.0 -. k) *. (1.0 +. k)) in
    Float.pi /. (2.0 *. agm 1.0 k')

  (* Jacobi sn, cn, dn by the AGM / descending-Landen algorithm
     (Abramowitz & Stegun 16.4).  dn is recovered from the identity
     dn^2 = 1 - k^2 sn^2, which is stable for real arguments. *)
  let sn_cn_dn ~u ~k =
    if k < 0.0 || k >= 1.0 then invalid_arg "Elliptic.sn_cn_dn: need 0 <= k < 1";
    if k = 0.0 then (sin u, cos u, 1.0)
    else begin
      let max_steps = 64 in
      let a = Array.make (max_steps + 1) 0.0 in
      let c = Array.make (max_steps + 1) 0.0 in
      a.(0) <- 1.0;
      c.(0) <- k;
      let b = ref (sqrt ((1.0 -. k) *. (1.0 +. k))) in
      let n = ref 0 in
      let continue_ = ref true in
      while !continue_ && !n < max_steps do
        let an = a.(!n) in
        let a' = (an +. !b) /. 2.0 in
        let c' = (an -. !b) /. 2.0 in
        let b' = sqrt (an *. !b) in
        incr n;
        a.(!n) <- a';
        c.(!n) <- c';
        b := b';
        if abs_float c' <= 1e-17 *. a' then continue_ := false
      done;
      let phi = ref (Float.ldexp (a.(!n) *. u) !n) in
      for i = !n downto 1 do
        phi := (!phi +. asin (c.(i) /. a.(i) *. sin !phi)) /. 2.0
      done;
      let sn = sin !phi and cn = cos !phi in
      let dn = sqrt (1.0 -. (k *. k *. sn *. sn)) in
      (sn, cn, dn)
    end
end

(* Zolotarev's solution for sign(s) on [l,1] of type (2p+1, 2p):
     sign(s) ~ C s prod_j (s^2 + c_{2j}) / (s^2 + c_{2j-1}),
     c_m = l^2 sn^2(m K/(2p+1); kappa) / cn^2(...),  kappa = sqrt(1 - l^2).
   Dividing by s gives the type-(p,p) relative-minimax approximation of
   x^(-1/2) on [l^2, 1] with poles -c_{2j-1} and zeros -c_{2j}. *)

let coefficients ~degree ~ell =
  let p = degree in
  let kappa = sqrt ((1.0 -. ell) *. (1.0 +. ell)) in
  let kk = Elliptic.complete_k kappa in
  Array.init (2 * p) (fun i ->
      let m = float_of_int (i + 1) in
      let u = m *. kk /. float_of_int ((2 * p) + 1) in
      let sn, cn, _ = Elliptic.sn_cn_dn ~u ~k:kappa in
      ell *. ell *. sn *. sn /. (cn *. cn))

(* Scaling constant that centers the relative error: with
   g(x) = sqrt(x) prod (x + c_even)/(x + c_odd), the optimal C is
   2 / (max g + min g). *)
let ratio_product cs x =
  let p = Array.length cs / 2 in
  let acc = ref 1.0 in
  for j = 1 to p do
    acc := !acc *. (x +. cs.((2 * j) - 1)) /. (x +. cs.((2 * j) - 2))
    (* zero-based: c_{2j} is cs.(2j-1), c_{2j-1} is cs.(2j-2) *)
  done;
  !acc

let inv_sqrt ~degree ~lo ~hi =
  if degree < 1 then invalid_arg "Zolotarev.inv_sqrt: degree must be >= 1";
  if lo <= 0.0 || hi <= lo then invalid_arg "Zolotarev.inv_sqrt: need 0 < lo < hi";
  let p = degree in
  let ell = sqrt (lo /. hi) in
  let cs = coefficients ~degree ~ell in
  (* cs.(i) = c_{i+1}: odd-index coefficients c_1, c_3, ... are the poles,
     even-index c_2, c_4, ... the zeros. *)
  let g x = sqrt x *. ratio_product cs x in
  let samples = 4001 in
  let gmin = ref infinity and gmax = ref neg_infinity in
  for i = 0 to samples - 1 do
    let y =
      (ell *. ell)
      *. ((1.0 /. (ell *. ell)) ** (float_of_int i /. float_of_int (samples - 1)))
    in
    let v = g y in
    if v < !gmin then gmin := v;
    if v > !gmax then gmax := v
  done;
  let c0 = 2.0 /. (!gmax +. !gmin) in
  (* Partial fractions in the rescaled variable y = x / hi:
     R(y) = c0 prod (y + z_j)/(y + p_j),  a0 = c0,
     residue_j = c0 prod_l (z_l - p_j) / prod_{l<>j} (p_l - p_j). *)
  let poles = Array.init p (fun j -> cs.(2 * j)) in
  let zeros = Array.init p (fun j -> cs.((2 * j) + 1)) in
  let terms =
    Array.init p (fun j ->
        let pj = poles.(j) in
        let num = ref c0 in
        Array.iter (fun z -> num := !num *. (z -. pj)) zeros;
        Array.iteri (fun l pl -> if l <> j then num := !num /. (pl -. pj)) poles;
        (* Map back to x = hi * y: alpha' = alpha * sqrt hi, beta' = beta * hi
           (including the overall 1/sqrt(hi) from x^(-1/2) scaling). *)
        (!num *. sqrt hi, pj *. hi))
  in
  { Ratfun.a0 = c0 /. sqrt hi; terms }

let theoretical_error ~degree ~lo ~hi =
  let r = inv_sqrt ~degree ~lo ~hi in
  Ratfun.max_rel_error r ~exponent:(-0.5) ~lo ~hi ~samples:4001
