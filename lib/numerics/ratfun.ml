type t = { a0 : float; terms : (float * float) array }

let eval r x =
  Array.fold_left (fun acc (alpha, beta) -> acc +. (alpha /. (x +. beta))) r.a0 r.terms

let x_times r =
  if r.a0 <> 0.0 then invalid_arg "Ratfun.x_times: nonzero constant term";
  (* x * sum a/(x+b) = sum a - sum a*b/(x+b) *)
  let a0 = Array.fold_left (fun acc (alpha, _) -> acc +. alpha) 0.0 r.terms in
  { a0; terms = Array.map (fun (alpha, beta) -> (-.alpha *. beta, beta)) r.terms }

let of_quadrature ~sigma ~points ~lo ~hi =
  if sigma <= 0.0 || sigma >= 1.0 then invalid_arg "Ratfun.of_quadrature: need 0 < sigma < 1";
  if lo <= 0.0 || hi <= lo then invalid_arg "Ratfun.of_quadrature: need 0 < lo < hi";
  if points < 2 then invalid_arg "Ratfun.of_quadrature: need at least 2 points";
  (* Truncation margins: after t = e^u the integrand decays like
     exp((1-s)u) towards u -> -inf and exp(-s u) towards +inf; size each
     side for ~1e-9 tails.  Keeping the upper margin tight also keeps the
     large-beta residues small, which matters when [x_times] later folds
     the expansion (the constant term must not dwarf the result). *)
  let u_min = log lo -. (21.0 /. (1.0 -. sigma)) in
  let u_max = log hi +. (21.0 /. sigma) in
  let h = (u_max -. u_min) /. float_of_int (points - 1) in
  let prefactor = sin (Float.pi *. sigma) /. Float.pi in
  let terms =
    Array.init points (fun i ->
        let u = u_min +. (h *. float_of_int i) in
        let weight = if i = 0 || i = points - 1 then h /. 2.0 else h in
        let alpha = prefactor *. weight *. exp ((1.0 -. sigma) *. u) in
        let beta = exp u in
        (alpha, beta))
  in
  { a0 = 0.0; terms }

let of_quadrature_pow ~sigma ~points ~lo ~hi =
  (* x^s = x * x^(s-1); x^(s-1) = x^-(1-s) comes from the base generator. *)
  x_times (of_quadrature ~sigma:(1.0 -. sigma) ~points ~lo ~hi)

let max_rel_error r ~exponent ~lo ~hi ~samples =
  if samples < 2 then invalid_arg "Ratfun.max_rel_error: need at least 2 samples";
  let log_lo = log lo and log_hi = log hi in
  let worst = ref 0.0 in
  for i = 0 to samples - 1 do
    let x = exp (log_lo +. ((log_hi -. log_lo) *. float_of_int i /. float_of_int (samples - 1))) in
    let exact = x ** exponent in
    let err = abs_float ((eval r x /. exact) -. 1.0) in
    if err > !worst then worst := err
  done;
  !worst
