type m = float array

let idx i j = 2 * ((3 * i) + j)
let zero () = Array.make 18 0.0

let identity () =
  let m = zero () in
  for i = 0 to 2 do
    m.(idx i i) <- 1.0
  done;
  m

let copy = Array.copy
let add a b = Array.init 18 (fun k -> a.(k) +. b.(k))

let mul a b =
  let out = zero () in
  for i = 0 to 2 do
    for j = 0 to 2 do
      let re = ref 0.0 and im = ref 0.0 in
      for k = 0 to 2 do
        let ar = a.(idx i k) and ai = a.(idx i k + 1) in
        let br = b.(idx k j) and bi = b.(idx k j + 1) in
        re := !re +. ((ar *. br) -. (ai *. bi));
        im := !im +. ((ar *. bi) +. (ai *. br))
      done;
      out.(idx i j) <- !re;
      out.(idx i j + 1) <- !im
    done
  done;
  out

let dagger a =
  let out = zero () in
  for i = 0 to 2 do
    for j = 0 to 2 do
      out.(idx i j) <- a.(idx j i);
      out.(idx i j + 1) <- -.a.(idx j i + 1)
    done
  done;
  out

let scale ~re ~im a =
  let out = zero () in
  for k = 0 to 8 do
    let ar = a.(2 * k) and ai = a.((2 * k) + 1) in
    out.(2 * k) <- (re *. ar) -. (im *. ai);
    out.((2 * k) + 1) <- (re *. ai) +. (im *. ar)
  done;
  out

let trace a =
  let re = ref 0.0 and im = ref 0.0 in
  for i = 0 to 2 do
    re := !re +. a.(idx i i);
    im := !im +. a.(idx i i + 1)
  done;
  (!re, !im)

let cmul (ar, ai) (br, bi) = ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))
let csub (ar, ai) (br, bi) = (ar -. br, ai -. bi)
let cadd (ar, ai) (br, bi) = (ar +. br, ai +. bi)
let at a i j = (a.(idx i j), a.(idx i j + 1))

let determinant a =
  (* Laplace expansion along the first row. *)
  let minor r0 c0 r1 c1 = csub (cmul (at a r0 c0) (at a r1 c1)) (cmul (at a r0 c1) (at a r1 c0)) in
  let t0 = cmul (at a 0 0) (minor 1 1 2 2) in
  let t1 = cmul (at a 0 1) (minor 1 0 2 2) in
  let t2 = cmul (at a 0 2) (minor 1 0 2 1) in
  cadd (csub t0 t1) t2

let frobenius_dist a b =
  let acc = ref 0.0 in
  for k = 0 to 17 do
    let d = a.(k) -. b.(k) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let is_unitary ?(tol = 1e-10) u = frobenius_dist (mul u (dagger u)) (identity ()) <= tol

let is_special_unitary ?(tol = 1e-10) u =
  if not (is_unitary ~tol u) then false
  else begin
    let dr, di = determinant u in
    abs_float (dr -. 1.0) <= tol && abs_float di <= tol
  end

(* Row views as 3-vectors of complex pairs. *)
let row a i = Array.init 3 (fun j -> at a i j)

let set_row a i r =
  Array.iteri
    (fun j (re, im) ->
      a.(idx i j) <- re;
      a.(idx i j + 1) <- im)
    r

let vnorm r = sqrt (Array.fold_left (fun acc (re, im) -> acc +. (re *. re) +. (im *. im)) 0.0 r)
let vscale s r = Array.map (fun (re, im) -> (s *. re, s *. im)) r

let vdot a b =
  (* <a|b> = sum conj(a_i) b_i *)
  Array.init 3 (fun i -> cmul ((fun (re, im) -> (re, -.im)) a.(i)) b.(i))
  |> Array.fold_left cadd (0.0, 0.0)

let vsub a b = Array.init 3 (fun i -> csub a.(i) b.(i))
let vcmul c r = Array.map (fun x -> cmul c x) r

let reunitarize u =
  let out = copy u in
  let r0 = vscale (1.0 /. vnorm (row out 0)) (row out 0) in
  set_row out 0 r0;
  let r1 = row out 1 in
  let r1 = vsub r1 (vcmul (vdot r0 r1) r0) in
  let r1 = vscale (1.0 /. vnorm r1) r1 in
  set_row out 1 r1;
  (* Third row: conj(r0 x r1) completes a special unitary matrix. *)
  let cross i j =
    csub (cmul r0.(i) r1.(j)) (cmul r0.(j) r1.(i)) |> fun (re, im) -> (re, -.im)
  in
  set_row out 2 [| cross 1 2; cross 2 0; cross 0 1 |];
  out

let one_norm a =
  (* Max column sum of magnitudes; cheap scaling estimate for expm. *)
  let best = ref 0.0 in
  for j = 0 to 2 do
    let s = ref 0.0 in
    for i = 0 to 2 do
      let re, im = at a i j in
      s := !s +. sqrt ((re *. re) +. (im *. im))
    done;
    if !s > !best then best := !s
  done;
  !best

let expm a =
  let norm = one_norm a in
  let squarings = max 0 (int_of_float (ceil (log (max norm 1e-30) /. log 2.0)) + 1) in
  let scaled = scale ~re:(1.0 /. Float.ldexp 1.0 squarings) ~im:0.0 a in
  (* Taylor series; with |scaled| <= 1/2 about 20 terms reach 1 ulp. *)
  let sum = identity () in
  let term = ref (identity ()) in
  let acc = ref sum in
  for k = 1 to 24 do
    term := scale ~re:(1.0 /. float_of_int k) ~im:0.0 (mul !term scaled);
    acc := add !acc !term
  done;
  let result = ref !acc in
  for _ = 1 to squarings do
    result := mul !result !result
  done;
  !result

let gell_mann () =
  let l k = Array.make 18 0.0 |> fun m -> (m, k) in
  let set (m, _) i j re im =
    m.(idx i j) <- re;
    m.(idx i j + 1) <- im
  in
  let l1 = l 1 in
  set l1 0 1 1.0 0.0;
  set l1 1 0 1.0 0.0;
  let l2 = l 2 in
  set l2 0 1 0.0 (-1.0);
  set l2 1 0 0.0 1.0;
  let l3 = l 3 in
  set l3 0 0 1.0 0.0;
  set l3 1 1 (-1.0) 0.0;
  let l4 = l 4 in
  set l4 0 2 1.0 0.0;
  set l4 2 0 1.0 0.0;
  let l5 = l 5 in
  set l5 0 2 0.0 (-1.0);
  set l5 2 0 0.0 1.0;
  let l6 = l 6 in
  set l6 1 2 1.0 0.0;
  set l6 2 1 1.0 0.0;
  let l7 = l 7 in
  set l7 1 2 0.0 (-1.0);
  set l7 2 1 0.0 1.0;
  let l8 = l 8 in
  let s = 1.0 /. sqrt 3.0 in
  set l8 0 0 s 0.0;
  set l8 1 1 s 0.0;
  set l8 2 2 (-2.0 *. s) 0.0;
  Array.map fst [| l1; l2; l3; l4; l5; l6; l7; l8 |]

let gaussian_hermitian rng =
  let gens = gell_mann () in
  let out = zero () in
  Array.iteri
    (fun _ g ->
      let p = Prng.gaussian rng in
      for k = 0 to 17 do
        out.(k) <- out.(k) +. (0.5 *. p *. g.(k))
      done)
    gens;
  out

let random_su3 rng =
  let h = gaussian_hermitian rng in
  reunitarize (expm (scale ~re:0.0 ~im:1.0 h))

let random_su3_near_identity rng ~epsilon =
  let h = gaussian_hermitian rng in
  reunitarize (expm (scale ~re:0.0 ~im:epsilon h))
