(** Site-level value algebra, generic over the scalar semantics.

    A [value] is one lattice site's element: a flat array of scalars in the
    canonical component order of {!Layout.Index.linear_component}.  With
    [S = Scalar.Float_scalar] the functions below *compute*; with the
    QDP-JIT register emitter they *generate kernel code*.  Keeping a single
    source for both is what makes the CPU-vs-JIT equivalence tests meaningful:
    they then exercise the whole PTX pipeline rather than two independently
    written math stacks. *)

module Make (S : Scalar.S) = struct
  type value = { shape : Layout.Shape.t; data : S.t array }

  open Layout

  let create shape = { shape; data = Array.make (Shape.dof shape) (S.const 0.0) }

  let of_array shape data =
    if Array.length data <> Shape.dof shape then
      invalid_arg "Site.of_array: component count mismatch";
    { shape; data = Array.copy data }

  let of_floats shape floats = of_array shape (Array.map S.const floats)

  (* Read component (spin s, color c) as a complex pair; real shapes give a
     constant-zero imaginary part (folded away by code-generating scalars). *)
  let get v ~spin ~color =
    let re = v.data.(Index.linear_component v.shape ~spin ~color ~reality:0) in
    match v.shape.Shape.reality with
    | Shape.Real -> (re, S.const 0.0)
    | Shape.Cplx -> (re, v.data.(Index.linear_component v.shape ~spin ~color ~reality:1))

  let set v ~spin ~color (re, im) =
    v.data.(Index.linear_component v.shape ~spin ~color ~reality:0) <- re;
    match v.shape.Shape.reality with
    | Shape.Real -> ()
    | Shape.Cplx -> v.data.(Index.linear_component v.shape ~spin ~color ~reality:1) <- im

  (* Complex helpers over scalar pairs. *)
  let c_add (ar, ai) (br, bi) = (S.add ar br, S.add ai bi)
  let c_sub (ar, ai) (br, bi) = (S.sub ar br, S.sub ai bi)
  let c_neg (ar, ai) = (S.neg ar, S.neg ai)
  let c_conj (ar, ai) = (ar, S.neg ai)
  let c_mul (ar, ai) (br, bi) = (S.sub (S.mul ar br) (S.mul ai bi), S.add (S.mul ar bi) (S.mul ai br))

  let c_fma (ar, ai) (br, bi) (cr, ci) =
    (* a*b + c with fused scalar ops where available. *)
    (S.fma ar br (S.fma (S.neg ai) bi cr), S.fma ar bi (S.fma ai br ci))

  let c_zero = (S.const 0.0, S.const 0.0)
  let c_times_i (ar, ai) = (S.neg ai, ar)

  let map_components ~result_shape f =
    let out = create result_shape in
    let is_ = Shape.spin_extent result_shape.Shape.spin in
    let ic = Shape.color_extent result_shape.Shape.color in
    for s = 0 to is_ - 1 do
      for c = 0 to ic - 1 do
        set out ~spin:s ~color:c (f ~spin:s ~color:c)
      done
    done;
    out

  let map2 f a b =
    let result_shape = Algebra.add_shape a.shape b.shape in
    map_components ~result_shape (fun ~spin ~color -> f (get a ~spin ~color) (get b ~spin ~color))

  let add a b = map2 c_add a b
  let sub a b = map2 c_sub a b

  let neg v = map_components ~result_shape:v.shape (fun ~spin ~color -> c_neg (get v ~spin ~color))

  let conj v =
    map_components ~result_shape:v.shape (fun ~spin ~color -> c_conj (get v ~spin ~color))

  let times_i v =
    map_components ~result_shape:(Algebra.times_i_shape v.shape) (fun ~spin ~color ->
        c_times_i (get v ~spin ~color))

  (* Index transposition at a matrix level; identity for scalars. *)
  let transpose_index extent_kind idx =
    match extent_kind with
    | `Scalar -> idx
    | `Matrix n ->
        let i = idx / n and j = idx mod n in
        (j * n) + i

  let matrix_kind_spin = function
    | Shape.Spin_scalar -> `Scalar
    | Shape.Spin_matrix n -> `Matrix n
    | s ->
        raise
          (Algebra.Type_error
             (Printf.sprintf "adj/transpose: bad spin structure %d" (Shape.spin_extent s)))

  let matrix_kind_color = function
    | Shape.Color_scalar -> `Scalar
    | Shape.Color_matrix n -> `Matrix n
    | c ->
        raise
          (Algebra.Type_error
             (Printf.sprintf "adj/transpose: bad color structure %d" (Shape.color_extent c)))

  let transpose v =
    let result_shape = Algebra.transpose_shape v.shape in
    let ks = matrix_kind_spin v.shape.Shape.spin in
    let kc = matrix_kind_color v.shape.Shape.color in
    map_components ~result_shape
      (fun ~spin ~color ->
        get v ~spin:(transpose_index ks spin) ~color:(transpose_index kc color))

  let adj v =
    let result_shape = Algebra.adj_shape v.shape in
    let ks = matrix_kind_spin v.shape.Shape.spin in
    let kc = matrix_kind_color v.shape.Shape.color in
    map_components ~result_shape
      (fun ~spin ~color ->
        c_conj (get v ~spin:(transpose_index ks spin) ~color:(transpose_index kc color)))

  let mul a b =
    let result_shape = Algebra.mul_shape a.shape b.shape in
    let _, spin_con = Algebra.spin_contraction a.shape.Shape.spin b.shape.Shape.spin in
    let _, color_con = Algebra.color_contraction a.shape.Shape.color b.shape.Shape.color in
    (* A structurally Real operand has no imaginary component, so the
       cross terms of the complex product are dropped rather than
       multiplied by a promoted 0: the JIT scalar folds 0-products away
       at emission, and the concrete evaluator must match it even for
       non-finite data (0 * inf would otherwise inject a NaN the
       generated kernel never computes). *)
    let a_real = a.shape.Shape.reality = Shape.Real in
    let b_real = b.shape.Shape.reality = Shape.Real in
    map_components ~result_shape
      (fun ~spin ~color ->
        List.fold_left
          (fun acc (sa, sb) ->
            List.fold_left
              (fun acc (ca, cb) ->
                let ((xr, xi) as x) = get a ~spin:sa ~color:ca in
                let ((yr, yi) as y) = get b ~spin:sb ~color:cb in
                if a_real then
                  let cr, ci = acc in
                  (S.fma xr yr cr, S.fma xr yi ci)
                else if b_real then
                  let cr, ci = acc in
                  (S.fma xr yr cr, S.fma xi yr ci)
                else c_fma x y acc)
              acc color_con.Algebra.pairs.(color))
          c_zero spin_con.Algebra.pairs.(spin))

  let trace_color v =
    let result_shape = Algebra.trace_color_shape v.shape in
    let n = match v.shape.Shape.color with Shape.Color_matrix n -> n | _ -> assert false in
    map_components ~result_shape
      (fun ~spin ~color ->
        ignore color;
        let acc = ref c_zero in
        for i = 0 to n - 1 do
          acc := c_add !acc (get v ~spin ~color:((i * n) + i))
        done;
        !acc)

  let trace_spin v =
    let result_shape = Algebra.trace_spin_shape v.shape in
    let n = match v.shape.Shape.spin with Shape.Spin_matrix n -> n | _ -> assert false in
    map_components ~result_shape
      (fun ~spin ~color ->
        ignore spin;
        let acc = ref c_zero in
        for i = 0 to n - 1 do
          acc := c_add !acc (get v ~spin:((i * n) + i) ~color)
        done;
        !acc)

  let real v =
    let result_shape = Algebra.real_shape v.shape in
    map_components ~result_shape
      (fun ~spin ~color ->
        let re, _ = get v ~spin ~color in
        (re, S.const 0.0))

  let imag v =
    let result_shape = Algebra.real_shape v.shape in
    map_components ~result_shape
      (fun ~spin ~color ->
        let _, im = get v ~spin ~color in
        (im, S.const 0.0))

  (* traceSpin(outerProduct(a, adj b)): out[i,j] = sum_s a[s,i] conj(b[s,j]). *)
  let outer_color a b =
    let result_shape = Algebra.outer_color_shape a.shape b.shape in
    let ns = Shape.spin_extent a.shape.Shape.spin in
    let n = match result_shape.Shape.color with Shape.Color_matrix n -> n | _ -> assert false in
    map_components ~result_shape
      (fun ~spin ~color ->
        ignore spin;
        let i = color / n and j = color mod n in
        let acc = ref c_zero in
        for s = 0 to ns - 1 do
          acc := c_fma (get a ~spin:s ~color:i) (c_conj (get b ~spin:s ~color:j)) !acc
        done;
        !acc)

  (* Packed clover application (Sec. VI-A).  For block b of 2, the 6-vector
     is psi[spin 2b + s', color c] with flat index i = 3 s' + c; the block
     matrix is diag[b,i] on the diagonal, tri[b, k(i,j)] strictly below
     (k(i,j) = i(i-1)/2 + j for i > j) and Hermitian conjugate above. *)
  let clover_apply ~diag ~tri psi =
    let result_shape = Algebra.clover_shapes ~diag:diag.shape ~tri:tri.shape ~psi:psi.shape in
    let psi_comp b i = get psi ~spin:((2 * b) + (i / 3)) ~color:(i mod 3) in
    let out = create result_shape in
    for b = 0 to 1 do
      for i = 0 to 5 do
        let acc = ref c_zero in
        (* Diagonal: real. *)
        let d, _ = get diag ~spin:b ~color:i in
        let vr, vi = psi_comp b i in
        acc := c_add !acc (S.mul d vr, S.mul d vi);
        (* Strictly lower part: tri[k(i,j)] * psi_j for j < i. *)
        for j = 0 to i - 1 do
          let k = (i * (i - 1) / 2) + j in
          acc := c_fma (get tri ~spin:b ~color:k) (psi_comp b j) !acc
        done;
        (* Upper part by Hermitian conjugation: conj(tri[k(j,i)]) for j > i. *)
        for j = i + 1 to 5 do
          let k = (j * (j - 1) / 2) + i in
          acc := c_fma (c_conj (get tri ~spin:b ~color:k)) (psi_comp b j) !acc
        done;
        set out ~spin:((2 * b) + (i / 3)) ~color:(i mod 3) !acc
      done
    done;
    out

  (* Gauge compression (QUDA's 12-real storage, paper Sec. VIII-C):
     compress keeps rows 0 and 1 of an SU(3) matrix; reconstruct rebuilds
     row 2 as the conjugate cross product r2 = conj(r0 x r1), valid for
     special unitary matrices. *)
  let compress v =
    let result_shape = Algebra.compress_shape v.shape in
    map_components ~result_shape (fun ~spin ~color ->
        ignore spin;
        get v ~spin:0 ~color)

  let reconstruct v =
    let result_shape = Algebra.reconstruct_shape v.shape in
    (* rows as functions: row r, column c of the compressed storage is
       component index 3r + c (r < 2). *)
    let entry r c = get v ~spin:0 ~color:((3 * r) + c) in
    let cross i j = c_conj (c_sub (c_mul (entry 0 i) (entry 1 j)) (c_mul (entry 0 j) (entry 1 i))) in
    map_components ~result_shape (fun ~spin ~color ->
        ignore spin;
        let i = color / 3 and j = color mod 3 in
        if i < 2 then entry i j
        else
          match j with
          | 0 -> cross 1 2
          | 1 -> cross 2 0
          | _ -> cross 0 1)

  (* Local (per-site) reductions. *)
  let norm2_local v =
    let result_shape = Shape.real_scalar v.shape.Shape.prec in
    let is_ = Shape.spin_extent v.shape.Shape.spin in
    let ic = Shape.color_extent v.shape.Shape.color in
    let acc = ref (S.const 0.0) in
    for s = 0 to is_ - 1 do
      for c = 0 to ic - 1 do
        let re, im = get v ~spin:s ~color:c in
        acc := S.fma re re !acc;
        match v.shape.Shape.reality with
        | Shape.Cplx -> acc := S.fma im im !acc
        | Shape.Real -> ()
      done
    done;
    of_array result_shape [| !acc |]

  let inner_local a b =
    if not (Shape.equal_modulo_prec a.shape b.shape) then
      raise (Algebra.Type_error "inner_local: shape mismatch");
    let prec = Shape.promote_prec a.shape.Shape.prec b.shape.Shape.prec in
    let result_shape = Shape.complex_scalar prec in
    let is_ = Shape.spin_extent a.shape.Shape.spin in
    let ic = Shape.color_extent a.shape.Shape.color in
    (* Same structural-Real rule as [mul]: a Real operand contributes no
       imaginary cross terms (its promoted 0 never multiplies data). *)
    let a_real = a.shape.Shape.reality = Shape.Real in
    let b_real = b.shape.Shape.reality = Shape.Real in
    let acc = ref c_zero in
    for s = 0 to is_ - 1 do
      for c = 0 to ic - 1 do
        let xr, xi = get a ~spin:s ~color:c in
        let yr, yi = get b ~spin:s ~color:c in
        let cr, ci = !acc in
        acc :=
          (if a_real then (S.fma xr yr cr, S.fma xr yi ci)
           else if b_real then (S.fma xr yr cr, S.fma (S.neg xi) yr ci)
           else c_fma (c_conj (xr, xi)) (yr, yi) !acc)
      done
    done;
    let out = create result_shape in
    set out ~spin:0 ~color:0 !acc;
    out
end
