(* Classic error-free transformations (Dekker/Knuth); two_prod uses the fused
   multiply-add so the product error is exact. *)

type t = { hi : float; lo : float }

let zero = { hi = 0.0; lo = 0.0 }
let of_float x = { hi = x; lo = 0.0 }
let to_float x = x.hi +. x.lo

let two_sum a b =
  let s = a +. b in
  let bb = s -. a in
  let err = (a -. (s -. bb)) +. (b -. bb) in
  (s, err)

let quick_two_sum a b =
  (* Requires |a| >= |b|. *)
  let s = a +. b in
  let err = b -. (s -. a) in
  (s, err)

let two_prod a b =
  let p = a *. b in
  let err = Float.fma a b (-.p) in
  (p, err)

let add x y =
  let s, e = two_sum x.hi y.hi in
  let e = e +. x.lo +. y.lo in
  let hi, lo = quick_two_sum s e in
  { hi; lo }

let neg x = { hi = -.x.hi; lo = -.x.lo }
let sub x y = add x (neg y)

let mul x y =
  let p, e = two_prod x.hi y.hi in
  let e = e +. (x.hi *. y.lo) +. (x.lo *. y.hi) in
  let hi, lo = quick_two_sum p e in
  { hi; lo }

let div x y =
  (* One Newton refinement of the double quotient. *)
  let q1 = x.hi /. y.hi in
  let r = sub x (mul (of_float q1) y) in
  let q2 = (r.hi +. r.lo) /. (y.hi +. y.lo) in
  let hi, lo = quick_two_sum q1 q2 in
  { hi; lo }

let abs x = if x.hi < 0.0 || (x.hi = 0.0 && x.lo < 0.0) then neg x else x

let compare_abs a b =
  let a = abs a and b = abs b in
  match compare a.hi b.hi with 0 -> compare a.lo b.lo | c -> c

(* Gaussian elimination with partial pivoting; a vanishing pivot raises
   [Linsolve.Singular]. *)
let solve a b =
  let n = Array.length a in
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Dd.solve: matrix not square") a;
  if Array.length b <> n then invalid_arg "Dd.solve: rhs length mismatch";
  let m = Array.map Array.copy a in
  let x = Array.copy b in
  for k = 0 to n - 1 do
    let best = ref k in
    for i = k + 1 to n - 1 do
      if compare_abs m.(i).(k) m.(!best).(k) > 0 then best := i
    done;
    if !best <> k then begin
      let tmp = m.(k) in
      m.(k) <- m.(!best);
      m.(!best) <- tmp;
      let tb = x.(k) in
      x.(k) <- x.(!best);
      x.(!best) <- tb
    end;
    let pivot = m.(k).(k) in
    if abs_float (to_float pivot) < 1e-300 then raise Linsolve.Singular;
    for i = k + 1 to n - 1 do
      let factor = div m.(i).(k) pivot in
      m.(i).(k) <- zero;
      for j = k + 1 to n - 1 do
        m.(i).(j) <- sub m.(i).(j) (mul factor m.(k).(j))
      done;
      x.(i) <- sub x.(i) (mul factor x.(k))
    done
  done;
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- sub x.(i) (mul m.(i).(j) x.(j))
    done;
    x.(i) <- div x.(i) m.(i).(i)
  done;
  x

let solve_float a b =
  let ad = Array.map (Array.map of_float) a in
  let bd = Array.map of_float b in
  Array.map to_float (solve ad bd)
