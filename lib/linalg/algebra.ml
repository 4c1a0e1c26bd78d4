module Shape = Layout.Shape

exception Type_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

type contraction = { out_extent : int; pairs : (int * int) list array }

(* Generic level contraction for scalar/vector/matrix structure.  The level
   is described by a kind tag plus extent; matrices are row-major. *)
type kind = Kscalar | Kvector of int | Kmatrix of int

let scalar_contraction = { out_extent = 1; pairs = [| [ (0, 0) ] |] }

let broadcast_left extent =
  (* a is scalar: out_k = a_0 * b_k *)
  { out_extent = extent; pairs = Array.init extent (fun k -> [ (0, k) ]) }

let broadcast_right extent =
  { out_extent = extent; pairs = Array.init extent (fun k -> [ (k, 0) ]) }

let mat_vec n =
  {
    out_extent = n;
    pairs = Array.init n (fun i -> List.init n (fun j -> ((i * n) + j, j)));
  }

let mat_mat n =
  {
    out_extent = n * n;
    pairs =
      Array.init (n * n) (fun ij ->
          let i = ij / n and j = ij mod n in
          List.init n (fun k -> ((i * n) + k, (k * n) + j)));
  }

let kind_contraction what a b =
  match (a, b) with
  | Kscalar, Kscalar -> (Kscalar, scalar_contraction)
  | Kscalar, Kvector n -> (Kvector n, broadcast_left n)
  | Kscalar, Kmatrix n -> (Kmatrix n, broadcast_left (n * n))
  | Kvector n, Kscalar -> (Kvector n, broadcast_right n)
  | Kmatrix n, Kscalar -> (Kmatrix n, broadcast_right (n * n))
  | Kmatrix n, Kvector m ->
      if n <> m then fail "%s: matrix(%d) * vector(%d) extent mismatch" what n m;
      (Kvector n, mat_vec n)
  | Kmatrix n, Kmatrix m ->
      if n <> m then fail "%s: matrix(%d) * matrix(%d) extent mismatch" what n m;
      (Kmatrix n, mat_mat n)
  | Kvector _, (Kvector _ | Kmatrix _) -> fail "%s: vector on the left of a product" what

let kind_of_spin = function
  | Shape.Spin_scalar -> Kscalar
  | Shape.Spin_vector n -> Kvector n
  | Shape.Spin_matrix n -> Kmatrix n
  | Shape.Spin_block _ -> fail "mul: clover block structure in a generic product"

let spin_of_kind = function
  | Kscalar -> Shape.Spin_scalar
  | Kvector n -> Shape.Spin_vector n
  | Kmatrix n -> Shape.Spin_matrix n

let kind_of_color = function
  | Shape.Color_scalar -> Kscalar
  | Shape.Color_vector n -> Kvector n
  | Shape.Color_matrix n -> Kmatrix n
  | Shape.Color_diag _ | Shape.Color_tri _ | Shape.Color_rows _ ->
      fail "mul: packed color structure in a generic product (reconstruct first)"

let color_of_kind = function
  | Kscalar -> Shape.Color_scalar
  | Kvector n -> Shape.Color_vector n
  | Kmatrix n -> Shape.Color_matrix n

let spin_contraction a b =
  let k, c = kind_contraction "spin" (kind_of_spin a) (kind_of_spin b) in
  (spin_of_kind k, c)

let color_contraction a b =
  let k, c = kind_contraction "color" (kind_of_color a) (kind_of_color b) in
  (color_of_kind k, c)

let mul_reality a b = match (a, b) with Shape.Real, Shape.Real -> Shape.Real | _ -> Shape.Cplx

let mul_shape a b =
  let spin, _ = spin_contraction a.Shape.spin b.Shape.spin in
  let color, _ = color_contraction a.Shape.color b.Shape.color in
  {
    Shape.spin;
    color;
    reality = mul_reality a.Shape.reality b.Shape.reality;
    prec = Shape.promote_prec a.Shape.prec b.Shape.prec;
  }

let add_shape a b =
  if not (Shape.equal_modulo_prec a b) then
    fail "add: shape mismatch %s vs %s" (Shape.to_string a) (Shape.to_string b);
  { a with Shape.prec = Shape.promote_prec a.Shape.prec b.Shape.prec }

let adj_shape s =
  (match s.Shape.spin with
  | Shape.Spin_scalar | Shape.Spin_matrix _ -> ()
  | Shape.Spin_vector _ | Shape.Spin_block _ ->
      fail "adj: spin structure %s has no adjoint" (Shape.to_string s));
  (match s.Shape.color with
  | Shape.Color_scalar | Shape.Color_matrix _ -> ()
  | Shape.Color_vector _ | Shape.Color_diag _ | Shape.Color_tri _ | Shape.Color_rows _ ->
      fail "adj: color structure %s has no adjoint" (Shape.to_string s));
  s

let transpose_shape = adj_shape

let trace_color_shape s =
  match s.Shape.color with
  | Shape.Color_matrix _ -> { s with Shape.color = Shape.Color_scalar }
  | _ -> fail "trace_color: not a color matrix: %s" (Shape.to_string s)

let trace_spin_shape s =
  match s.Shape.spin with
  | Shape.Spin_matrix _ -> { s with Shape.spin = Shape.Spin_scalar }
  | _ -> fail "trace_spin: not a spin matrix: %s" (Shape.to_string s)

let real_shape s = { s with Shape.reality = Shape.Real }

let times_i_shape s =
  if s.Shape.reality <> Shape.Cplx then fail "times_i: operand must be complex";
  s

let is_fermion s =
  match (s.Shape.spin, s.Shape.color, s.Shape.reality) with
  | Shape.Spin_vector _, Shape.Color_vector _, Shape.Cplx -> true
  | _ -> false

let outer_color_shape a b =
  if not (is_fermion a && is_fermion b) then
    fail "outer_color: operands must be fermions: %s, %s" (Shape.to_string a) (Shape.to_string b);
  if not (Shape.equal_modulo_prec { a with Shape.prec = b.Shape.prec } b) then
    fail "outer_color: operand shape mismatch";
  let n = match a.Shape.color with Shape.Color_vector n -> n | _ -> assert false in
  {
    Shape.spin = Shape.Spin_scalar;
    color = Shape.Color_matrix n;
    reality = Shape.Cplx;
    prec = Shape.promote_prec a.Shape.prec b.Shape.prec;
  }

(* Compression drops the third row; reconstruction restores it via the
   conjugate cross product (valid for special unitary matrices). *)
let compress_shape s =
  match (s.Shape.spin, s.Shape.color, s.Shape.reality) with
  | Shape.Spin_scalar, Shape.Color_matrix 3, Shape.Cplx ->
      { s with Shape.color = Shape.Color_rows 2 }
  | _ -> fail "compress: not an SU(3)-shaped color matrix: %s" (Shape.to_string s)

let reconstruct_shape s =
  match (s.Shape.spin, s.Shape.color, s.Shape.reality) with
  | Shape.Spin_scalar, Shape.Color_rows 2, Shape.Cplx ->
      { s with Shape.color = Shape.Color_matrix 3 }
  | _ -> fail "reconstruct: not a compressed gauge field: %s" (Shape.to_string s)

let clover_shapes ~diag ~tri ~psi =
  let expect cond msg = if not cond then fail "clover: %s" msg in
  (match (diag.Shape.spin, diag.Shape.color, diag.Shape.reality) with
  | Shape.Spin_block 2, Shape.Color_diag 6, Shape.Real -> ()
  | _ -> fail "clover: bad diag shape %s" (Shape.to_string diag));
  (match (tri.Shape.spin, tri.Shape.color, tri.Shape.reality) with
  | Shape.Spin_block 2, Shape.Color_tri 15, Shape.Cplx -> ()
  | _ -> fail "clover: bad tri shape %s" (Shape.to_string tri));
  expect (is_fermion psi) "operand must be a fermion";
  (match (psi.Shape.spin, psi.Shape.color) with
  | Shape.Spin_vector 4, Shape.Color_vector 3 -> ()
  | _ -> fail "clover: fermion must be spin 4 x color 3, got %s" (Shape.to_string psi));
  let prec =
    Shape.promote_prec
      (Shape.promote_prec diag.Shape.prec tri.Shape.prec)
      psi.Shape.prec
  in
  { psi with Shape.prec }
