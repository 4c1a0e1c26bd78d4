module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr
module Subset = Qdp.Subset

let geom = Geometry.create [| 4; 4; 4; 4 |]
let rng = Prng.create ~seed:31L

let fermion () =
  let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Field.fill_gaussian f rng;
  f

let cmatrix () =
  let f = Field.create (Shape.lattice_color_matrix Shape.F64) geom in
  Field.fill_gaussian f rng;
  f

(* ---------------------------- field basics --------------------------- *)

let test_field_get_set () =
  let f = fermion () in
  Field.set f ~site:3 ~spin:2 ~color:1 ~reality:1 5.5;
  Alcotest.(check (float 0.0)) "get" 5.5 (Field.get f ~site:3 ~spin:2 ~color:1 ~reality:1)

let test_field_site_roundtrip () =
  let f = fermion () in
  let v = Field.get_site f ~site:10 in
  Field.set_site f ~site:11 v;
  Alcotest.(check bool) "site copy" true (Field.get_site f ~site:11 = v)

let test_fill_gaussian_decomposition_independent () =
  (* Two fields filled with the same site_key mapping get the same content. *)
  let a = Field.create (Shape.lattice_fermion Shape.F64) geom in
  let b = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Field.fill_gaussian a (Prng.create ~seed:5L);
  Field.fill_gaussian b (Prng.create ~seed:5L);
  Alcotest.(check bool) "same noise" true (Field.get_site a ~site:77 = Field.get_site b ~site:77)

let test_version_bumps () =
  let f = fermion () in
  let v0 = f.Field.version in
  Field.set f ~site:0 ~spin:0 ~color:0 ~reality:0 1.0;
  Alcotest.(check bool) "bump" true (f.Field.version > v0)

(* ------------------------- shape inference --------------------------- *)

let test_expr_shapes () =
  let u = cmatrix () and psi = fermion () in
  let e = Expr.mul (Expr.field u) (Expr.field psi) in
  Alcotest.(check bool) "u*psi fermion" true
    (Shape.equal (Expr.shape e) (Shape.lattice_fermion Shape.F64));
  let tr = Expr.real (Expr.trace_color (Expr.mul (Expr.field u) (Expr.field u))) in
  Alcotest.(check bool) "trace real scalar" true
    (Shape.equal (Expr.shape tr) (Shape.real_scalar Shape.F64))

let test_expr_type_errors () =
  let u = cmatrix () and psi = fermion () in
  (match Expr.mul (Expr.field psi) (Expr.field u) with
  | exception Linalg.Algebra.Type_error _ -> ()
  | _ -> Alcotest.fail "psi*u accepted");
  (match Expr.add (Expr.field psi) (Expr.field u) with
  | exception Linalg.Algebra.Type_error _ -> ()
  | _ -> Alcotest.fail "psi+u accepted");
  (match Expr.trace_color (Expr.field psi) with
  | exception Linalg.Algebra.Type_error _ -> ()
  | _ -> Alcotest.fail "trace of vector accepted");
  (* Both backends reject timesI of a real value, so the constructor does. *)
  match Expr.times_i (Expr.const_real 2.0) with
  | exception Linalg.Algebra.Type_error m ->
      Alcotest.(check string) "message" "times_i: operand must be complex" m
  | _ -> Alcotest.fail "timesI of a real scalar accepted"

let test_precision_promotion () =
  let a32 = Field.create (Shape.lattice_fermion Shape.F32) geom in
  let b64 = fermion () in
  let e = Expr.add (Expr.field a32) (Expr.field b64) in
  Alcotest.(check bool) "promoted to f64" true ((Expr.shape e).Shape.prec = Shape.F64)

let test_leaves_dedup () =
  let u = cmatrix () and psi = fermion () in
  let e = Expr.add (Expr.mul (Expr.field u) (Expr.field psi)) (Expr.mul (Expr.field u) (Expr.field psi)) in
  Alcotest.(check int) "two distinct leaves" 2 (List.length (Expr.leaves e))

let test_structure_key_field_independent () =
  let u1 = cmatrix () and u2 = cmatrix () and psi1 = fermion () and psi2 = fermion () in
  let sh = Expr.shape (Expr.mul (Expr.field u1) (Expr.field psi1)) in
  let k1 = Expr.structure_key ~dest_shape:sh (Expr.mul (Expr.field u1) (Expr.field psi1)) in
  let k2 = Expr.structure_key ~dest_shape:sh (Expr.mul (Expr.field u2) (Expr.field psi2)) in
  Alcotest.(check string) "same structure, same key" k1 k2;
  let k3 = Expr.structure_key ~dest_shape:sh (Expr.mul (Expr.adj (Expr.field u1)) (Expr.field psi1)) in
  Alcotest.(check bool) "adj changes key" true (k1 <> k3)

let test_param_key_value_independent () =
  let psi = fermion () in
  let sh = Expr.shape (Expr.field psi) in
  let k v = Expr.structure_key ~dest_shape:sh (Expr.mul (Expr.const_real v) (Expr.field psi)) in
  Alcotest.(check string) "scalar params erased from key" (k 1.5) (k 2.5)

(* ------------------ structure key against its oracle ------------------ *)

(* The printed key the binary encoding replaced, kept verbatim as the
   oracle: the binary key must separate exactly the expressions this one
   separates. *)
let printed_structure_key ~dest_shape e =
  let slot_of =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i (f : Field.t) -> Hashtbl.replace tbl f.Field.id i) (Expr.leaves e);
    fun (f : Field.t) -> Hashtbl.find tbl f.Field.id
  in
  let buf = Buffer.create 128 in
  let add = Buffer.add_string buf in
  let rec go = function
    | Expr.Leaf f -> add (Printf.sprintf "L%d[%s]" (slot_of f) (Shape.to_string f.Field.shape))
    | Expr.Const (s, v, _) ->
        add (Printf.sprintf "K[%s;" (Shape.to_string s));
        Array.iter (fun x -> add (Printf.sprintf "%h," x)) v;
        add "]"
    | Expr.Param (s, _) -> add (Printf.sprintf "P[%s]" (Shape.to_string s))
    | Expr.Unary (op, e, _) ->
        add (Expr.unop_name op);
        add "(";
        go e;
        add ")"
    | Expr.Binary (op, a, b, _) ->
        add "(";
        go a;
        add (Expr.binop_name op);
        go b;
        add ")"
    | Expr.Shift (e, dim, dir) ->
        add (Printf.sprintf "shift%d%+d(" dim dir);
        go e;
        add ")"
    | Expr.Clover (a, b, c) ->
        add "clover(";
        go a;
        add ",";
        go b;
        add ",";
        go c;
        add ")"
  in
  add (Shape.to_string dest_shape);
  add "=";
  go e;
  Buffer.contents buf

(* Raw trees (no shape checking: keys never type-check), drawn from small
   pools so that pairs often coincide.  Their composite nodes carry one
   fixed dummy shape: structure keys ignore composite nodes' shapes. *)
let key_fields =
  [|
    fermion ();
    fermion ();
    cmatrix ();
    Field.create (Shape.lattice_fermion Shape.F32) geom;
    Field.create (Shape.clover_tri Shape.F64) geom;
  |]

let key_shapes =
  Shape.
    [|
      real_scalar F64;
      real_scalar F32;
      complex_scalar F64;
      complex_scalar F16;
      lattice_spin_matrix F64;
      clover_diag F64;
      compressed_color_matrix F32;
      { spin = Spin_vector 3; color = Color_vector 4; reality = Cplx; prec = F64 };
      { spin = Spin_block 200; color = Color_rows 1; reality = Real; prec = F64 };
    |]

let key_floats =
  [|
    0.0;
    -0.0;
    1.0;
    -1.5;
    Float.nan;
    -.Float.nan;
    Int64.float_of_bits 0x7ff0000000000001L (* signalling NaN *);
    Int64.float_of_bits 0xfff4000000000000L;
    Int64.float_of_bits 1L (* smallest subnormal *);
    Int64.float_of_bits 0x800fffffffffffffL (* largest negative subnormal *);
    Float.infinity;
    Float.neg_infinity;
    Float.min_float;
  |]

let raw_shape = Shape.real_scalar Shape.F64
let raw_const s v = Expr.Const (s, v, Expr.const_digest v)
let raw_unary op e = Expr.Unary (op, e, raw_shape)
let raw_binary op a b = Expr.Binary (op, a, b, raw_shape)

let key_unops =
  Expr.
    [|
      Neg; Conj; Adj; Transpose; Times_i; Trace_color; Trace_spin; Real; Imag; Norm2_local;
      Compress; Reconstruct;
    |]

let key_binops = Expr.[| Add; Sub; Mul; Outer_color; Inner_local |]

let gen_key_expr =
  let open QCheck.Gen in
  let pick a = map (Array.get a) (int_bound (Array.length a - 1)) in
  let values = array_size (int_bound 3) (pick key_floats) in
  let leaf =
    frequency
      [
        (4, map (fun f -> Expr.Leaf f) (pick key_fields));
        (2, map2 raw_const (pick key_shapes) values);
        (1, map2 (fun s v -> Expr.Param (s, v)) (pick key_shapes) values);
      ]
  in
  sized_size (int_bound 12)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (2, map2 raw_unary (pick key_unops) (self (n - 1)));
               ( 3,
                 map3 raw_binary (pick key_binops) (self (n / 2)) (self (n / 2)) );
               ( 2,
                 map3
                   (fun e dim dir -> Expr.Shift (e, dim, dir))
                   (self (n - 1)) (int_bound 3) (oneofl [ 1; -1 ]) );
               ( 1,
                 map3
                   (fun a b c -> Expr.Clover (a, b, c))
                   (self (n / 3)) (self (n / 3)) (self (n / 3)) );
             ])

(* A near copy: each node is perturbed with small probability — a leaf
   re-aliased, a constant component or length changed, a parameter's
   values changed (erased from both keys), an operator or shift swapped. *)
let rec perturb e =
  let open QCheck.Gen in
  let pick a = map (Array.get a) (int_bound (Array.length a - 1)) in
  let* p = float_bound_exclusive 1.0 in
  let hit = p < 0.15 in
  match e with
  | Expr.Leaf _ when hit -> map (fun f -> Expr.Leaf f) (pick key_fields)
  | Expr.Const (s, v, _) when hit ->
      if Array.length v > 0 && p < 0.1 then
        let* i = int_bound (Array.length v - 1) in
        let* x = pick key_floats in
        let v = Array.copy v in
        v.(i) <- x;
        return (raw_const s v)
      else map (raw_const s) (array_size (int_bound 3) (pick key_floats))
  | Expr.Param (s, v) when hit ->
      map (fun x -> Expr.Param (s, Array.map (fun _ -> x) v)) (pick key_floats)
  | Expr.Leaf _ | Expr.Const _ | Expr.Param _ -> return e
  | Expr.Unary (op, a, _) ->
      map2 raw_unary (if hit then pick key_unops else return op) (perturb a)
  | Expr.Binary (op, a, b, _) ->
      map3 raw_binary
        (if hit then pick key_binops else return op)
        (perturb a) (perturb b)
  | Expr.Shift (a, dim, dir) ->
      let* a = perturb a in
      if hit then map2 (fun dim dir -> Expr.Shift (a, dim, dir)) (int_bound 3) (oneofl [ 1; -1 ])
      else return (Expr.Shift (a, dim, dir))
  | Expr.Clover (a, b, c) -> map3 (fun a b c -> Expr.Clover (a, b, c)) (perturb a) (perturb b) (perturb c)

let key_oracle_property =
  let gen =
    let open QCheck.Gen in
    let pick a = map (Array.get a) (int_bound (Array.length a - 1)) in
    let* e1 = gen_key_expr in
    let* e2 = frequency [ (4, perturb e1); (1, gen_key_expr) ] in
    let* d1 = pick key_shapes in
    let* d2 = frequency [ (4, return d1); (1, pick key_shapes) ] in
    return (d1, e1, d2, e2)
  in
  let print (d1, e1, d2, e2) =
    Printf.sprintf "%s\n%s\n---\n%s\n%s" (printed_structure_key ~dest_shape:d1 e1) (Expr.render e1)
      (printed_structure_key ~dest_shape:d2 e2) (Expr.render e2)
  in
  QCheck.Test.make ~name:"binary key equal iff printed key equal" ~count:3000
    (QCheck.make ~print gen) (fun (d1, e1, d2, e2) ->
      let k1, leaves1 = Expr.key_and_leaves ~dest_shape:d1 e1 in
      let k2 = Expr.structure_key ~dest_shape:d2 e2 in
      List.map (fun (f : Field.t) -> f.Field.id) leaves1
      = List.map (fun (f : Field.t) -> f.Field.id) (Expr.leaves e1)
      && String.equal k1 k2
         = String.equal (printed_structure_key ~dest_shape:d1 e1)
             (printed_structure_key ~dest_shape:d2 e2))

(* The edge cases the property draws, pinned by hand, and the integer
   encoding's prefix-freedom at the extremes of the int range. *)
let test_key_edges () =
  let sh = Shape.real_scalar Shape.F64 in
  let psi = Expr.Leaf key_fields.(0) in
  let k v = Expr.structure_key ~dest_shape:sh (raw_binary Expr.Mul (raw_const sh v) psi) in
  let same name a b = Alcotest.(check bool) name true (String.equal (k a) (k b)) in
  let differ name a b = Alcotest.(check bool) name false (String.equal (k a) (k b)) in
  differ "-0.0 vs 0.0" [| -0.0 |] [| 0.0 |];
  same "quiet vs signalling NaN" [| Float.nan |] [| Int64.float_of_bits 0x7ff0000000000001L |];
  differ "NaN sign" [| Float.nan |] [| -.Float.nan |];
  differ "subnormals" [| Int64.float_of_bits 1L |] [| Int64.float_of_bits 2L |];
  differ "length" [| 1.0 |] [| 1.0; 1.0 |];
  let alias = raw_binary Expr.Add psi psi
  and distinct = raw_binary Expr.Add psi (Expr.Leaf key_fields.(1)) in
  Alcotest.(check bool) "leaf aliasing" false
    (String.equal (Expr.structure_key ~dest_shape:sh alias) (Expr.structure_key ~dest_shape:sh distinct));
  let ints = [ 0; 1; -1; 63; 64; -64; -65; -128; 1 lsl 40; max_int; min_int; min_int + 1 ] in
  let enc n =
    let b = Buffer.create 10 in
    Expr.add_key_int b n;
    Buffer.contents b
  in
  let prefix a b = String.length a <= String.length b && String.sub b 0 (String.length a) = a in
  List.iter
    (fun m ->
      List.iter
        (fun n ->
          if m <> n then
            Alcotest.(check bool) (Printf.sprintf "key int %d not a prefix of %d" m n) false
              (prefix (enc m) (enc n)))
        ints)
    ints

(* The per-eval key stays small and off the major heap: a constant adds
   its 16-byte digest whatever its component count, so a Wilson
   operator's key (eight 32-component projectors and eight
   reconstructors) stays under 1 KB and the buffer that builds it never
   grows past the minor heap's largest block.  Direct major allocation is
   [major_words] less the words promoted by minor collections.  OCaml 5's
   counters drift by a few hundred words either way over the loop, so the
   gate is under one word per call: a buffer or key that leaves the minor
   heap costs at least 257 words per call, and a key spelling 8 bytes per
   constant component costs 1,051. *)
let test_key_size_gate () =
  let u = Lqcd.Gauge.create_links geom in
  let psi = fermion () in
  let e = Lqcd.Wilson.wilson_expr ~kappa:0.1 u psi in
  let sh = psi.Field.shape in
  let key, _ = Expr.key_and_leaves ~dest_shape:sh e in
  if String.length key >= 1024 then Alcotest.failf "wilson key is %d bytes" (String.length key);
  let direct_major () =
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  Gc.minor ();
  let before = direct_major () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Expr.key_and_leaves ~dest_shape:sh e))
  done;
  Gc.minor ();
  let direct = direct_major () -. before in
  if direct >= 1000.0 then
    Alcotest.failf "%.0f words allocated directly in the major heap over 1000 keys" direct;
  let spin = Shape.lattice_spin_matrix Shape.F64 in
  let c v = Expr.mul (Expr.const spin v) (Expr.field psi) in
  let v = Array.init 32 float_of_int in
  let w = Array.copy v in
  w.(17) <- 17.5;
  let k1 = Expr.structure_key ~dest_shape:sh (c v) and k2 = Expr.structure_key ~dest_shape:sh (c w) in
  Alcotest.(check int) "one-component change: equal length" (String.length k1) (String.length k2);
  Alcotest.(check bool) "one-component change: keys differ" false (String.equal k1 k2)

let test_shift_dirs () =
  let psi = fermion () in
  let e =
    Expr.add
      (Expr.shift (Expr.field psi) ~dim:0 ~dir:1)
      (Expr.shift (Expr.shift (Expr.field psi) ~dim:2 ~dir:(-1)) ~dim:0 ~dir:1)
  in
  Alcotest.(check bool) "dirs found" true (Expr.shift_dirs e = [ (0, 1); (2, -1) ])

(* ----------------- stored shapes against their oracle ------------------ *)

(* The recursive shape rule the stored shapes replaced, kept verbatim as
   the oracle: it re-derives every node's shape from its children and
   ignores the shape a node carries. *)
let rec oracle_shape = function
  | Expr.Leaf f -> f.Field.shape
  | Expr.Const (s, _, _) | Expr.Param (s, _) -> s
  | Expr.Unary (op, e, _) -> (
      let s = oracle_shape e in
      match op with
      | Expr.Neg | Expr.Conj -> s
      | Expr.Times_i -> Linalg.Algebra.times_i_shape s
      | Expr.Adj -> Linalg.Algebra.adj_shape s
      | Expr.Transpose -> Linalg.Algebra.transpose_shape s
      | Expr.Trace_color -> Linalg.Algebra.trace_color_shape s
      | Expr.Trace_spin -> Linalg.Algebra.trace_spin_shape s
      | Expr.Real | Expr.Imag -> Linalg.Algebra.real_shape s
      | Expr.Norm2_local -> Shape.real_scalar s.Shape.prec
      | Expr.Compress -> Linalg.Algebra.compress_shape s
      | Expr.Reconstruct -> Linalg.Algebra.reconstruct_shape s)
  | Expr.Binary (op, a, b, _) -> (
      let sa = oracle_shape a and sb = oracle_shape b in
      match op with
      | Expr.Add | Expr.Sub -> Linalg.Algebra.add_shape sa sb
      | Expr.Mul -> Linalg.Algebra.mul_shape sa sb
      | Expr.Outer_color -> Linalg.Algebra.outer_color_shape sa sb
      | Expr.Inner_local ->
          if not (Shape.equal_modulo_prec sa sb) then
            raise (Linalg.Algebra.Type_error "inner_local: shape mismatch");
          Shape.complex_scalar (Shape.promote_prec sa.Shape.prec sb.Shape.prec))
  | Expr.Shift (e, _, _) -> oracle_shape e
  | Expr.Clover (diag, tri, psi) ->
      Linalg.Algebra.clover_shapes ~diag:(oracle_shape diag) ~tri:(oracle_shape tri)
        ~psi:(oracle_shape psi)

let smart_unop = function
  | Expr.Neg -> Expr.neg
  | Expr.Conj -> Expr.conj
  | Expr.Adj -> Expr.adj
  | Expr.Transpose -> Expr.transpose
  | Expr.Times_i -> Expr.times_i
  | Expr.Trace_color -> Expr.trace_color
  | Expr.Trace_spin -> Expr.trace_spin
  | Expr.Real -> Expr.real
  | Expr.Imag -> Expr.imag
  | Expr.Norm2_local -> Expr.norm2_local
  | Expr.Compress -> Expr.compress
  | Expr.Reconstruct -> Expr.reconstruct

let smart_binop = function
  | Expr.Add -> Expr.add
  | Expr.Sub -> Expr.sub
  | Expr.Mul -> Expr.mul
  | Expr.Outer_color -> Expr.outer_color
  | Expr.Inner_local -> Expr.inner_local

(* Every node of a tree. *)
let rec nodes e acc =
  let acc =
    match e with
    | Expr.Leaf _ | Expr.Const _ | Expr.Param _ -> acc
    | Expr.Unary (_, a, _) | Expr.Shift (a, _, _) -> nodes a acc
    | Expr.Binary (_, a, b, _) -> nodes b (nodes a acc)
    | Expr.Clover (a, b, c) -> nodes c (nodes b (nodes a acc))
  in
  e :: acc

let shapes_match_oracle e =
  List.for_all (fun n -> Shape.equal (Expr.shape n) (oracle_shape n)) (nodes e [])

(* Leaves of every shape the type rules meet, in mixed precisions: one
   field per shape below, then constant and parameter scalars. *)
let leaf_shapes =
  Shape.
    [|
      lattice_fermion F64;
      lattice_fermion F32;
      lattice_fermion F16;
      lattice_color_matrix F64;
      lattice_color_matrix F32;
      compressed_color_matrix F32;
      complex_scalar F64;
      real_scalar F32;
      clover_diag F64;
      clover_tri F32;
    |]

let leaf_diag = 8
let leaf_tri = 9

let leaves_of fields =
  Array.append fields
    [|
      Expr.const (Shape.lattice_spin_matrix Shape.F64) (Array.init 32 float_of_int);
      Expr.const_real ~prec:Shape.F32 0.5;
      Expr.const_complex 0.25 (-1.0);
      Expr.embedded_real ~prec:Shape.F16 2.0;
    |]

let shape_leaves = leaves_of (Array.map (fun s -> Expr.field (Field.create s geom)) leaf_shapes)

(* A tree as a recipe over leaf indices, so one draw builds the same tree
   over any leaf pool of the same shapes (one per rank below). *)
type recipe =
  | R_leaf of int
  | R_unop of int * recipe  (** index into [key_unops] *)
  | R_binop of int * recipe * recipe  (** index into [key_binops] *)
  | R_shift of int * int * recipe
  | R_clover of recipe  (** diag and tri are the pool's clover leaves *)

let gen_recipe =
  let open QCheck.Gen in
  let index a = int_bound (Array.length a - 1) in
  let leaf = map (fun i -> R_leaf i) (index shape_leaves) in
  sized_size (int_bound 16)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (3, map2 (fun i r -> R_unop (i, r)) (index key_unops) (self (n - 1)));
               (4, map3 (fun i a b -> R_binop (i, a, b)) (index key_binops) (self (n / 2)) (self (n / 2)));
               ( 2,
                 map3 (fun dim dir r -> R_shift (dim, dir, r)) (int_bound 3) (oneofl [ 1; -1 ]) (self (n - 1)) );
               (1, map (fun r -> R_clover r) (self (n - 1)));
             ])

(* Builds a recipe through the smart constructors only, so every result
   is well-typed: a node takes the first operator, cycling from the drawn
   one, whose constructor accepts its operands, and collapses to its
   (first) operand if none does.  The error property below checks the
   rejections themselves. *)
let build leaves r =
  let first_accepted ops i make fallback =
    let n = Array.length ops in
    let rec go k =
      if k = n then fallback
      else try make ops.((i + k) mod n) with Linalg.Algebra.Type_error _ -> go (k + 1)
    in
    go 0
  in
  let rec go = function
    | R_leaf i -> leaves.(i)
    | R_unop (i, r) ->
        let e = go r in
        first_accepted key_unops i (fun op -> smart_unop op e) e
    | R_binop (i, a, b) ->
        let a = go a and b = go b in
        first_accepted key_binops i (fun op -> smart_binop op a b) a
    | R_shift (dim, dir, r) -> Expr.shift (go r) ~dim ~dir
    | R_clover r ->
        let psi = go r in
        try Expr.clover ~diag:leaves.(leaf_diag) ~tri:leaves.(leaf_tri) psi
        with Linalg.Algebra.Type_error _ -> psi
  in
  go r

let print_recipe r = Expr.render (build shape_leaves r)

let stored_shape_property =
  QCheck.Test.make ~name:"stored shapes equal the recursive oracle" ~count:1000
    (QCheck.make ~print:print_recipe gen_recipe) (fun r ->
      match shapes_match_oracle (build shape_leaves r) with
      | ok -> ok
      | exception Linalg.Algebra.Type_error m -> QCheck.Test.fail_reportf "oracle rejects: %s" m)

(* One node over random well-typed operands, mostly an ill-typed
   combination: the constructor must fail exactly when the oracle does,
   with its message, and otherwise carry the oracle's shape. *)
type combination =
  | C_unop of Expr.unop * recipe
  | C_binop of Expr.binop * recipe * recipe
  | C_clover of recipe * recipe * recipe

let combination_property =
  let gen =
    let open QCheck.Gen in
    let pick a = map (Array.get a) (int_bound (Array.length a - 1)) in
    frequency
      [
        (2, map2 (fun op r -> C_unop (op, r)) (pick key_unops) gen_recipe);
        (3, map3 (fun op a b -> C_binop (op, a, b)) (pick key_binops) gen_recipe gen_recipe);
        (1, map3 (fun d t p -> C_clover (d, t, p)) gen_recipe gen_recipe gen_recipe);
      ]
  in
  let node = function
    | C_unop (op, r) ->
        let e = build shape_leaves r in
        ((fun () -> smart_unop op e), raw_unary op e)
    | C_binop (op, a, b) ->
        let a = build shape_leaves a and b = build shape_leaves b in
        ((fun () -> smart_binop op a b), raw_binary op a b)
    | C_clover (d, t, p) ->
        let diag = build shape_leaves d and tri = build shape_leaves t and psi = build shape_leaves p in
        ((fun () -> Expr.clover ~diag ~tri psi), Expr.Clover (diag, tri, psi))
  in
  let print c =
    let _, raw = node c in
    Expr.render raw
  in
  QCheck.Test.make ~name:"constructors reject what the oracle rejects" ~count:1000
    (QCheck.make ~print gen) (fun c ->
      let smart, raw = node c in
      let outcome f = try Ok (f ()) with Linalg.Algebra.Type_error m -> Error m in
      match (outcome (fun () -> Expr.shape (smart ())), outcome (fun () -> oracle_shape raw)) with
      | Ok s, Ok s' -> Shape.equal s s'
      | Error m, Error m' -> String.equal m m'
      | Ok _, Error m -> QCheck.Test.fail_reportf "constructor accepts, oracle rejects (%s)" m
      | Error m, Ok _ -> QCheck.Test.fail_reportf "constructor rejects (%s), oracle accepts" m)

(* Lowering over a rank grid split along dimension 0 rebuilds every node
   above an exchanged shift; each rank's lowered tree must keep its
   source's shape at the root and the oracle's at every node.  The drawn
   tree r is lowered as shift(r, dim 0) + neg(r) (operator 0 of each
   pool). *)
let multi_lowering_property =
  let m = lazy (Qdpjit.Multi.create ~global_dims:[| 4; 2; 2; 2 |] ~rank_dims:[| 2; 1; 1; 1 |] ()) in
  let rank_leaves =
    lazy
      (let m = Lazy.force m in
       let fields = Array.map (Qdpjit.Multi.create_field m) leaf_shapes in
       Array.init (Qdpjit.Multi.nranks m) (fun rank ->
           leaves_of (Array.map (fun (df : Qdpjit.Multi.dfield) -> Expr.field df.locals.(rank)) fields)))
  in
  let gen = QCheck.Gen.map (fun r -> R_binop (0, R_shift (0, 1, r), R_unop (0, r))) gen_recipe in
  QCheck.Test.make ~name:"multi-rank lowering keeps shapes" ~count:40
    (QCheck.make ~print:print_recipe gen) (fun r ->
      let leaves = Lazy.force rank_leaves in
      let lowered = Qdpjit.Multi.lowered (Lazy.force m) (fun rank -> build leaves.(rank) r) in
      Array.for_all Fun.id
        (Array.mapi
           (fun rank low ->
             Shape.equal (Expr.shape low) (Expr.shape (build leaves.(rank) r)) && shapes_match_oracle low)
           lowered))

(* Construction is linear in the tree size: a left-deep sum of 2N terms
   allocates at most 2.2x the minor words of N terms (re-checking each
   new node's whole subtree, as construction once did, makes it ~4x), and
   reading the root's shape allocates nothing.  Exact GC counters, no
   clock. *)
let test_linear_construction () =
  let psi = Expr.field (fermion ()) in
  let words f =
    let w0 = Gc.minor_words () in
    let r = Sys.opaque_identity (f ()) in
    let w1 = Gc.minor_words () in
    (r, w1 -. w0)
  in
  let chain n () =
    let e = ref psi in
    for _ = 2 to n do
      e := Expr.add !e psi
    done;
    !e
  in
  let _, w_n = words (chain 256) in
  let e, w_2n = words (chain 512) in
  Alcotest.(check bool)
    (Printf.sprintf "2N terms cost %.0f words, N terms %.0f (ratio %.2f <= 2.2)" w_2n w_n (w_2n /. w_n))
    true
    (w_2n <= 2.2 *. w_n);
  let _, w_none = words (fun () -> psi) in
  let _, w_shape = words (fun () -> Expr.shape e) in
  Alcotest.(check (float 0.0)) "Expr.shape allocates nothing" 0.0 (w_shape -. w_none)

(* ------------------------------ eval --------------------------------- *)

let test_eval_identity_mul () =
  let psi = fermion () in
  let ident = Field.create (Shape.lattice_color_matrix Shape.F64) geom in
  for site = 0 to Geometry.volume geom - 1 do
    Field.set_site ident ~site (Linalg.Su3.identity ())
  done;
  let out = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Qdp.Eval_cpu.eval out (Expr.mul (Expr.field ident) (Expr.field psi));
  for site = 0 to Geometry.volume geom - 1 do
    if Field.get_site out ~site <> Field.get_site psi ~site then
      Alcotest.failf "identity multiplication changed site %d" site
  done

let test_eval_shift_semantics () =
  let psi = fermion () in
  let out = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Qdp.Eval_cpu.eval out (Expr.shift (Expr.field psi) ~dim:1 ~dir:1);
  for site = 0 to Geometry.volume geom - 1 do
    let src = Geometry.neighbor geom site ~dim:1 ~dir:1 in
    if Field.get_site out ~site <> Field.get_site psi ~site:src then
      Alcotest.failf "shift wrong at site %d" site
  done

let test_shift_inverse () =
  let psi = fermion () in
  let tmp = Field.create (Shape.lattice_fermion Shape.F64) geom in
  let out = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Qdp.Eval_cpu.eval tmp (Expr.shift (Expr.field psi) ~dim:3 ~dir:1);
  Qdp.Eval_cpu.eval out (Expr.shift (Expr.field tmp) ~dim:3 ~dir:(-1));
  let d = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field out) (Expr.field psi)) in
  Alcotest.(check (float 0.0)) "shift then unshift" 0.0 d

let test_subset_eval () =
  let psi = fermion () in
  let out = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Field.fill_constant out 9.0;
  Qdp.Eval_cpu.eval ~subset:Subset.Even out (Expr.field psi);
  Array.iter
    (fun site ->
      if Field.get_site out ~site <> Field.get_site psi ~site then
        Alcotest.failf "even site %d not written" site)
    (Subset.sites geom Subset.Even);
  Array.iter
    (fun site ->
      if Field.get out ~site ~spin:0 ~color:0 ~reality:0 <> 9.0 then
        Alcotest.failf "odd site %d overwritten" site)
    (Subset.sites geom Subset.Odd)

let test_norm2_manual () =
  let psi = fermion () in
  let manual = ref 0.0 in
  for site = 0 to Geometry.volume geom - 1 do
    Array.iter (fun x -> manual := !manual +. (x *. x)) (Field.get_site psi ~site)
  done;
  Alcotest.(check (float 1e-6)) "norm2" !manual (Qdp.Eval_cpu.norm2 (Expr.field psi))

let test_inner_conjugate_symmetry () =
  let a = fermion () and b = fermion () in
  let re1, im1 = Qdp.Eval_cpu.inner (Expr.field a) (Expr.field b) in
  let re2, im2 = Qdp.Eval_cpu.inner (Expr.field b) (Expr.field a) in
  Alcotest.(check (float 1e-9)) "re symmetric" re1 re2;
  Alcotest.(check (float 1e-9)) "im antisymmetric" im1 (-.im2)

let test_sum_components_linear () =
  let a = fermion () in
  let s1 = Qdp.Eval_cpu.sum_components (Expr.field a) in
  let s2 = Qdp.Eval_cpu.sum_components (Expr.mul (Expr.const_real 2.0) (Expr.field a)) in
  Array.iteri (fun i x -> Alcotest.(check (float 1e-9)) "linear" (2.0 *. x) s2.(i)) s1

(* a random well-typed expression generator for property tests *)
let rec random_expr depth fields =
  let u, _psi = fields in
  if depth = 0 then
    match Prng.int_below rng 3 with
    | 0 -> Expr.field u
    | 1 -> Expr.mul (Expr.field u) (Expr.field u)
    | _ -> Expr.adj (Expr.field u)
  else
    match Prng.int_below rng 5 with
    | 0 -> Expr.add (random_expr (depth - 1) fields) (random_expr (depth - 1) fields)
    | 1 -> Expr.mul (random_expr (depth - 1) fields) (random_expr (depth - 1) fields)
    | 2 -> Expr.adj (random_expr (depth - 1) fields)
    | 3 -> Expr.shift (random_expr (depth - 1) fields) ~dim:(Prng.int_below rng 4) ~dir:1
    | _ -> Expr.neg (random_expr (depth - 1) fields)

let test_random_exprs_shape_stable () =
  let u = cmatrix () and psi = fermion () in
  for _ = 1 to 50 do
    let e = random_expr 3 (u, psi) in
    (* shape inference must agree with actual evaluation *)
    let sh = Expr.shape e in
    let out = Field.create sh geom in
    Qdp.Eval_cpu.eval out e;
    Alcotest.(check bool) "evaluates" true (Field.volume out = Geometry.volume geom)
  done

let () =
  Alcotest.run "qdp"
    [
      ( "field",
        [
          Alcotest.test_case "get/set" `Quick test_field_get_set;
          Alcotest.test_case "site roundtrip" `Quick test_field_site_roundtrip;
          Alcotest.test_case "reproducible noise" `Quick test_fill_gaussian_decomposition_independent;
          Alcotest.test_case "version bump" `Quick test_version_bumps;
        ] );
      ( "expr",
        [
          Alcotest.test_case "shape inference" `Quick test_expr_shapes;
          Alcotest.test_case "type errors" `Quick test_expr_type_errors;
          Alcotest.test_case "precision promotion" `Quick test_precision_promotion;
          Alcotest.test_case "leaf dedup" `Quick test_leaves_dedup;
          Alcotest.test_case "structure key" `Quick test_structure_key_field_independent;
          Alcotest.test_case "param values erased" `Quick test_param_key_value_independent;
          Alcotest.test_case "key edge cases" `Quick test_key_edges;
          QCheck_alcotest.to_alcotest key_oracle_property;
          Alcotest.test_case "key size gate" `Quick test_key_size_gate;
          Alcotest.test_case "shift dirs" `Quick test_shift_dirs;
          QCheck_alcotest.to_alcotest stored_shape_property;
          QCheck_alcotest.to_alcotest combination_property;
          QCheck_alcotest.to_alcotest multi_lowering_property;
          Alcotest.test_case "linear construction" `Quick test_linear_construction;
        ] );
      ( "eval",
        [
          Alcotest.test_case "identity mul" `Quick test_eval_identity_mul;
          Alcotest.test_case "shift semantics" `Quick test_eval_shift_semantics;
          Alcotest.test_case "shift inverse" `Quick test_shift_inverse;
          Alcotest.test_case "subset eval" `Quick test_subset_eval;
          Alcotest.test_case "norm2 manual" `Quick test_norm2_manual;
          Alcotest.test_case "inner symmetry" `Quick test_inner_conjugate_symmetry;
          Alcotest.test_case "sum linear" `Quick test_sum_components_linear;
          Alcotest.test_case "random exprs" `Quick test_random_exprs_shape_stable;
        ] );
    ]
