let checkf tol = Alcotest.check (Alcotest.float tol)

(* ------------------------------ Ratfun ------------------------------ *)

let test_quadrature_inv_sqrt () =
  let r = Numerics.Ratfun.of_quadrature ~sigma:0.5 ~points:120 ~lo:0.01 ~hi:10.0 in
  let err = Numerics.Ratfun.max_rel_error r ~exponent:(-0.5) ~lo:0.01 ~hi:10.0 ~samples:500 in
  if err > 1e-8 then Alcotest.failf "quadrature error too large: %g" err

let test_quadrature_positive_power () =
  (* The x^(1-s) = x^(3/4) route has a narrower analyticity strip, so the
     trapezoid needs a finer step for the same accuracy. *)
  let r = Numerics.Ratfun.of_quadrature_pow ~sigma:0.25 ~points:250 ~lo:0.01 ~hi:10.0 in
  let err = Numerics.Ratfun.max_rel_error r ~exponent:0.25 ~lo:0.01 ~hi:10.0 ~samples:500 in
  if err > 1e-5 then Alcotest.failf "x^(1/4) quadrature error too large: %g" err

let test_quadrature_converges_with_points () =
  let err points =
    let r = Numerics.Ratfun.of_quadrature_pow ~sigma:0.25 ~points ~lo:0.01 ~hi:10.0 in
    Numerics.Ratfun.max_rel_error r ~exponent:0.25 ~lo:0.01 ~hi:10.0 ~samples:300
  in
  Alcotest.(check bool) "more points, smaller error" true (err 250 < err 120 /. 5.0)

let test_quadrature_positive_shifts () =
  let r = Numerics.Ratfun.of_quadrature ~sigma:0.5 ~points:60 ~lo:0.1 ~hi:1.0 in
  Array.iter
    (fun (alpha, beta) ->
      if alpha <= 0.0 then Alcotest.failf "negative residue %g" alpha;
      if beta <= 0.0 then Alcotest.failf "negative shift %g" beta)
    r.Numerics.Ratfun.terms

let test_x_times () =
  let r = Numerics.Ratfun.of_quadrature ~sigma:0.5 ~points:80 ~lo:0.1 ~hi:10.0 in
  let xr = Numerics.Ratfun.x_times r in
  List.iter
    (fun x ->
      checkf 1e-6 "x*r(x)" (x *. Numerics.Ratfun.eval r x) (Numerics.Ratfun.eval xr x))
    [ 0.13; 0.7; 2.0; 9.0 ]

(* ----------------------------- Zolotarev ---------------------------- *)

let test_zolotarev_accuracy () =
  List.iter
    (fun (deg, lo, hi, bound) ->
      let err = Numerics.Zolotarev.theoretical_error ~degree:deg ~lo ~hi in
      if err > bound then Alcotest.failf "zolotarev deg=%d [%g,%g]: %g > %g" deg lo hi err bound)
    [ (4, 0.01, 10.0, 1e-3); (8, 0.01, 10.0, 1e-6); (12, 1e-6, 100.0, 1e-4); (16, 1e-6, 100.0, 1e-6) ]

(* Chebyshev alternation: a type-(n,n) approximant is the relative
   minimax one when its relative error reaches +-max at 2n+2 points of
   alternating sign.  Count the alternations among the grid points
   within 1 % of the maximum (each extremum shows as a run of points of
   one sign). *)
let test_zolotarev_alternation () =
  List.iter
    (fun (deg, lo, hi) ->
      let r = Numerics.Zolotarev.inv_sqrt ~degree:deg ~lo ~hi in
      let n = 200_001 in
      let step = log (hi /. lo) /. float_of_int (n - 1) in
      let err =
        Array.init n (fun i ->
            let x = lo *. exp (float_of_int i *. step) in
            (Numerics.Ratfun.eval r x *. sqrt x) -. 1.0)
      in
      let emax = Array.fold_left (fun m e -> Float.max m (abs_float e)) 0.0 err in
      let points = ref 0 and last = ref 0 in
      Array.iter
        (fun e ->
          let sign = if e > 0.0 then 1 else -1 in
          if abs_float e >= 0.99 *. emax && sign <> !last then begin
            incr points;
            last := sign
          end)
        err;
      Alcotest.(check int)
        (Printf.sprintf "alternation points, degree %d on [%g,%g]" deg lo hi)
        ((2 * deg) + 2) !points)
    [ (4, 0.01, 10.0); (5, 0.1, 10.0); (8, 0.01, 10.0); (12, 1e-6, 100.0); (16, 1e-6, 100.0) ]

let test_elliptic_identities () =
  let k = 0.8 in
  List.iter
    (fun u ->
      let sn, cn, dn = Numerics.Zolotarev.Elliptic.sn_cn_dn ~u ~k in
      checkf 1e-12 "sn^2+cn^2" 1.0 ((sn *. sn) +. (cn *. cn));
      checkf 1e-12 "dn identity" 1.0 ((dn *. dn) +. (k *. k *. sn *. sn)))
    [ 0.1; 0.5; 1.0; 1.7 ];
  (* K(0) = pi/2 *)
  checkf 1e-12 "K(0)" (Float.pi /. 2.0) (Numerics.Zolotarev.Elliptic.complete_k 0.0);
  (* Known value: K(1/sqrt 2) = 1.8540746773... *)
  checkf 1e-9 "K(1/sqrt2)" 1.854074677301372
    (Numerics.Zolotarev.Elliptic.complete_k (1.0 /. sqrt 2.0))

let () =
  Alcotest.run "numerics"
    [
      ( "ratfun",
        [
          Alcotest.test_case "quadrature x^-1/2" `Quick test_quadrature_inv_sqrt;
          Alcotest.test_case "quadrature x^+1/4" `Quick test_quadrature_positive_power;
          Alcotest.test_case "quadrature convergence" `Quick test_quadrature_converges_with_points;
          Alcotest.test_case "positive shifts" `Quick test_quadrature_positive_shifts;
          Alcotest.test_case "x_times" `Quick test_x_times;
        ] );
      ( "zolotarev",
        [
          Alcotest.test_case "accuracy" `Quick test_zolotarev_accuracy;
          Alcotest.test_case "optimality by alternation" `Quick test_zolotarev_alternation;
          Alcotest.test_case "elliptic identities" `Quick test_elliptic_identities;
        ] );
    ]
