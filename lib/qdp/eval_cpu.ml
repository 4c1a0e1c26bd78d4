(** The original implementation's evaluator (QDP++ semantics): walk the
    AST once per lattice site, computing with concrete floats.  In C++ the
    per-site walk is what the inlined expression-template operator() does;
    here it is the {!Linalg.Site} algebra instantiated at
    {!Linalg.Scalar.Float_scalar}.  This evaluator is the reference the
    JIT pipeline is tested against, and the baseline of the CPU
    configurations in Fig. 7. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module FSite = Linalg.Site.Make (Linalg.Scalar.Float_scalar)

let rec eval_site geom (e : Expr.t) site : FSite.value =
  match e with
  | Expr.Leaf f ->
      if Geometry.volume f.Field.geom <> Geometry.volume geom then
        invalid_arg "Eval_cpu: field volume mismatch";
      FSite.of_array f.Field.shape (Field.get_site f ~site)
  | Expr.Const (s, v) | Expr.Param (s, v) -> FSite.of_floats s v
  | Expr.Unary (op, e, _) -> (
      let v = eval_site geom e site in
      match op with
      | Expr.Neg -> FSite.neg v
      | Expr.Conj -> FSite.conj v
      | Expr.Adj -> FSite.adj v
      | Expr.Transpose -> FSite.transpose v
      | Expr.Times_i -> FSite.times_i v
      | Expr.Trace_color -> FSite.trace_color v
      | Expr.Trace_spin -> FSite.trace_spin v
      | Expr.Real -> FSite.real v
      | Expr.Imag -> FSite.imag v
      | Expr.Norm2_local -> FSite.norm2_local v
      | Expr.Compress -> FSite.compress v
      | Expr.Reconstruct -> FSite.reconstruct v)
  | Expr.Binary (op, a, b, _) -> (
      let va = eval_site geom a site and vb = eval_site geom b site in
      match op with
      | Expr.Add -> FSite.add va vb
      | Expr.Sub -> FSite.sub va vb
      | Expr.Mul -> FSite.mul va vb
      | Expr.Outer_color -> FSite.outer_color va vb
      | Expr.Inner_local -> FSite.inner_local va vb)
  | Expr.Shift (e, dim, dir) ->
      (* shift(e, dim, FORWARD) at x reads e at x + mu (periodic). *)
      eval_site geom e (Geometry.neighbor geom site ~dim ~dir)
  | Expr.Clover (diag, tri, psi) ->
      FSite.clover_apply ~diag:(eval_site geom diag site) ~tri:(eval_site geom tri site)
        (eval_site geom psi site)

let check_dest dest expr =
  let es = Expr.shape expr in
  if not (Shape.equal_modulo_prec dest.Field.shape es) then
    raise
      (Linalg.Algebra.Type_error
         (Printf.sprintf "assignment shape mismatch: %s = %s"
            (Shape.to_string dest.Field.shape) (Shape.to_string es)))

(* dest = expr on the subset; assignment across precision rounds at store,
   as in Sec. III-D. *)
let eval ?(subset = Subset.All) dest expr =
  check_dest dest expr;
  let geom = dest.Field.geom in
  let dof = Field.dof dest in
  dest.Field.before_host_write dest;
  dest.Field.version <- dest.Field.version + 1;
  let sites = Subset.sites geom subset in
  Array.iter
    (fun site ->
      let v = eval_site geom expr site in
      for k = 0 to dof - 1 do
        Field.raw_set dest ((site * dof) + k) v.FSite.data.(k)
      done)
    sites

(* Deterministic global reductions.  The summation order is the balanced
   radix-8 tree the engine's reduction kernels use (in-kernel block
   aggregation followed by a radix-8 fold chain): each level pads the
   value list to a multiple of 8 with +0.0 and sums every block of 8 as
   ((x0+x1)+(x2+x3)) + ((x4+x5)+(x6+x7)), recursing until one value
   remains.  Sharing one tree makes CPU and engine reductions agree bit
   for bit whenever the per-site values do. *)
let tree_sum xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let fold a =
      let m = Array.length a in
      Array.init ((m + 7) / 8) (fun blk ->
          let g j =
            let i = (8 * blk) + j in
            if i < m then a.(i) else 0.0
          in
          ((g 0 +. g 1) +. (g 2 +. g 3)) +. ((g 4 +. g 5) +. (g 6 +. g 7)))
    in
    let r = ref (fold xs) in
    while Array.length !r > 1 do
      r := fold !r
    done;
    !r.(0)
  end

let norm2 ?(subset = Subset.All) expr =
  let shape = Expr.shape expr in
  ignore shape;
  let geom =
    match Expr.leaves expr with
    | f :: _ -> f.Field.geom
    | [] -> invalid_arg "Eval_cpu.norm2: expression has no fields"
  in
  let sites = Subset.sites geom subset in
  tree_sum
    (Array.map
       (fun site -> (FSite.norm2_local (eval_site geom expr site)).FSite.data.(0))
       sites)

let inner ?(subset = Subset.All) a b =
  let geom =
    match Expr.leaves a @ Expr.leaves b with
    | f :: _ -> f.Field.geom
    | [] -> invalid_arg "Eval_cpu.inner: expressions have no fields"
  in
  let sites = Subset.sites geom subset in
  let ps =
    Array.map
      (fun site ->
        FSite.inner_local (eval_site geom a site) (eval_site geom b site))
      sites
  in
  ( tree_sum (Array.map (fun p -> p.FSite.data.(0)) ps),
    tree_sum (Array.map (fun p -> p.FSite.data.(1)) ps) )

(* Sum every component over the subset; returns the summed element in
   canonical component order. *)
let sum_components ?(subset = Subset.All) expr =
  let shape = Expr.shape expr in
  let geom =
    match Expr.leaves expr with
    | f :: _ -> f.Field.geom
    | [] -> invalid_arg "Eval_cpu.sum_components: expression has no fields"
  in
  let sites = Subset.sites geom subset in
  let vs = Array.map (fun site -> (eval_site geom expr site).FSite.data) sites in
  Array.init (Shape.dof shape) (fun k -> tree_sum (Array.map (fun v -> v.(k)) vs))
