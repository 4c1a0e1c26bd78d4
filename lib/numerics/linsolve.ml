exception Singular

let pivot_tolerance = 1e-300

let check_square a =
  let n = Array.length a in
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Linsolve: matrix not square") a;
  n

(* LU factorization with partial pivoting, in place on a copy.
   Returns (lu, perm) where perm.(i) is the source row of pivot row i. *)
let lu_factor a =
  let n = check_square a in
  let lu = Array.map Array.copy a in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    (* Find the pivot row. *)
    let best = ref k in
    for i = k + 1 to n - 1 do
      if abs_float lu.(i).(k) > abs_float lu.(!best).(k) then best := i
    done;
    if !best <> k then begin
      let tmp = lu.(k) in
      lu.(k) <- lu.(!best);
      lu.(!best) <- tmp;
      let tp = perm.(k) in
      perm.(k) <- perm.(!best);
      perm.(!best) <- tp
    end;
    let pivot = lu.(k).(k) in
    if abs_float pivot < pivot_tolerance then raise Singular;
    for i = k + 1 to n - 1 do
      let factor = lu.(i).(k) /. pivot in
      lu.(i).(k) <- factor;
      for j = k + 1 to n - 1 do
        lu.(i).(j) <- lu.(i).(j) -. (factor *. lu.(k).(j))
      done
    done
  done;
  (lu, perm)

let lu_solve (lu, perm) b =
  let n = Array.length lu in
  if Array.length b <> n then invalid_arg "Linsolve: rhs length mismatch";
  let x = Array.init n (fun i -> b.(perm.(i))) in
  (* Forward substitution (unit lower triangle). *)
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
    done
  done;
  (* Back substitution. *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
    done;
    x.(i) <- x.(i) /. lu.(i).(i)
  done;
  x

let solve a b = lu_solve (lu_factor a) b

let mat_vec a x =
  Array.map
    (fun row ->
      if Array.length row <> Array.length x then invalid_arg "Linsolve.mat_vec: shape mismatch";
      let acc = ref 0.0 in
      Array.iteri (fun j v -> acc := !acc +. (v *. x.(j))) row;
      !acc)
    a

let lstsq a b =
  let m = Array.length a in
  if m = 0 then invalid_arg "Linsolve.lstsq: empty system";
  let n = Array.length a.(0) in
  if Array.length b <> m then invalid_arg "Linsolve.lstsq: rhs length mismatch";
  (* Normal equations: (A^T A) x = A^T b. *)
  let ata = Array.make_matrix n n 0.0 in
  let atb = Array.make n 0.0 in
  for i = 0 to m - 1 do
    let row = a.(i) in
    for j = 0 to n - 1 do
      atb.(j) <- atb.(j) +. (row.(j) *. b.(i));
      for k = 0 to n - 1 do
        ata.(j).(k) <- ata.(j).(k) +. (row.(j) *. row.(k))
      done
    done
  done;
  solve ata atb

let residual_norm a x b =
  let r = mat_vec a x in
  let acc = ref 0.0 in
  Array.iteri
    (fun i v ->
      let d = v -. b.(i) in
      acc := !acc +. (d *. d))
    r;
  sqrt !acc
