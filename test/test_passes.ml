(* The optimizing middle-end: per-pass unit tests on hand-built kernels,
   the dataflow validator, the acceptance properties on the real Table II
   kernels, and a three-way qcheck property — the full pipeline
   (codegen -> passes -> print -> parse -> regalloc -> VM) must stay
   bit-exact against [~optimize:false] and against the CPU evaluator. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr
module Engine = Qdpjit.Engine
module D = Ptx.Dataflow
module P = Ptx.Passes
open Ptx.Types

let r t id = { rtype = t; id }

let kern ?(params = [ { pname = "dest"; ptype = U64 } ]) body =
  { kname = "test_kernel"; params; body }

let len k = List.length k.body

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let index_of pred k =
  let rec go i = function
    | [] -> Alcotest.fail "expected instruction not found"
    | x :: tl -> if pred x then i else go (i + 1) tl
  in
  go 0 k.body

(* ------------------------------------------------------------------ *)
(* Constant folding + copy propagation *)

let test_const_fold () =
  let a = r S32 0 and b = r S32 1 and c = r S32 2 and d = r S32 3 in
  let addr = r U64 0 in
  let k =
    kern
      [
        Ld_param { dst = addr; param_index = 0 };
        Mov { dst = a; src = Imm_int 4 };
        Mov { dst = b; src = Imm_int 6 };
        Add { dtype = S32; dst = c; a = Reg a; b = Reg b };
        Mov { dst = d; src = Reg c };
        St_global { dtype = S32; addr; offset = 0; src = Reg d };
        Ret;
      ]
  in
  let k' = P.constant_fold k in
  (* a + b folds to 10, and the store reads the constant through the copy. *)
  ignore (index_of (function Mov { dst; src = Imm_int 10 } -> dst = c | _ -> false) k');
  ignore
    (index_of (function St_global { src = Imm_int 10; _ } -> true | _ -> false) k');
  (* DCE then strips the now-unread defs. *)
  let k'' = P.dce k' in
  Alcotest.(check int) "only store, param load and ret survive" 3 (len k'')

let test_strength_reduce () =
  let a = r S64 0 and b = r S64 1 and c = r S64 2 in
  let k =
    kern
      [
        Mul { dtype = S64; dst = b; a = Reg a; b = Imm_int 8 };
        Mul { dtype = S64; dst = c; a = Reg a; b = Imm_int 3 };
        Ret;
      ]
  in
  let k' = P.strength_reduce k in
  ignore
    (index_of (function Shl { dst; amount = 3; _ } -> dst = b | _ -> false) k');
  (* x3 is not a power of two: untouched. *)
  ignore (index_of (function Mul { dst; _ } -> dst = c | _ -> false) k')

let test_shl_print_parse_roundtrip () =
  let addr = r U64 0 and v = r S64 0 and sh = r S64 1 in
  let k =
    kern
      [
        Ld_param { dst = addr; param_index = 0 };
        Ld_global { dtype = S64; dst = v; addr; offset = 0 };
        Shl { dtype = S64; dst = sh; a = Reg v; amount = 3 };
        St_global { dtype = S64; addr; offset = 8; src = Reg sh };
        Ret;
      ]
  in
  let parsed = Ptx.Parse.kernel (Ptx.Print.kernel k) in
  Ptx.Validate.kernel parsed;
  ignore
    (index_of
       (function
         | Shl { dtype = S64; dst; a = Reg src; amount = 3 } -> dst = sh && src = v
         | _ -> false)
       parsed)

(* ------------------------------------------------------------------ *)
(* Dense register numbering *)

(* [(F32, 3)] and [(S32, 3)] share an id but not a class: their counts
   and use sites must stay apart. *)
let test_dense_ids_keep_classes_apart () =
  let addr = r U64 0 and f3 = r F32 3 and s3 = r S32 3 and f0 = r F32 0 in
  let body =
    [|
      Ld_param { dst = addr; param_index = 0 };
      Ld_global { dtype = F32; dst = f3; addr; offset = 0 };
      Mov { dst = s3; src = Imm_int 1 };
      Mov { dst = s3; src = Imm_int 2 };
      Mul { dtype = F32; dst = f0; a = Reg f3; b = Reg f3 };
      St_global { dtype = F32; addr; offset = 4; src = Reg f0 };
      St_global { dtype = S32; addr; offset = 8; src = Reg s3 };
      Ret;
    |]
  in
  let rg = D.regs body in
  Alcotest.(check int) "table size: 4 f32 + 4 s32 + 1 u64" 9 (D.nregs rg);
  Alcotest.(check bool) "distinct indices" true (D.index rg f3 <> D.index rg s3);
  let counts = D.def_counts rg body in
  List.iter
    (fun (name, x, n) -> Alcotest.(check int) (name ^ " definitions") n counts.(D.index rg x))
    [ ("f3", f3, 1); ("s3", s3, 2); ("f0", f0, 1); ("addr", addr, 1); ("f1", r F32 1, 0) ];
  Alcotest.(check bool) "f3 single-def" true (D.single_def rg counts f3);
  Alcotest.(check bool) "s3 multi-def" false (D.single_def rg counts s3);
  let ch = D.chains rg body in
  List.iter
    (fun (name, x, sites) -> Alcotest.(check (list int)) (name ^ " uses") sites (D.uses_of_reg rg ch x))
    [ ("f3", f3, [ 4; 4 ]); ("s3", s3, [ 6 ]); ("f0", f0, [ 5 ]); ("addr", addr, [ 1; 5; 6 ]); ("f1", r F32 1, []) ]

(* A numbering answers only for the body it numbered: a register past
   its class's extent, of an absent class, or with a negative id raises
   instead of aliasing another register's entry ([%f4] would otherwise
   land on [%r0]'s index). *)
let test_index_rejects_foreign_registers () =
  let addr = r U64 0 in
  let body =
    [|
      Ld_param { dst = addr; param_index = 0 };
      Ld_global { dtype = F32; dst = r F32 3; addr; offset = 0 };
      Mov { dst = r S32 0; src = Imm_int 1 };
      St_global { dtype = F32; addr; offset = 4; src = Reg (r F32 3) };
      St_global { dtype = S32; addr; offset = 8; src = Reg (r S32 0) };
      Ret;
    |]
  in
  let rg = D.regs body in
  Alcotest.(check (list int)) "extents f32, s32, u32, u64" [ 4; 1; 0; 1 ]
    (List.map (D.extent rg) [ F32; S32; U32; U64 ]);
  List.iter
    (fun x ->
      match D.index rg x with
      | i -> Alcotest.failf "%s got index %d" (reg_name x) i
      | exception Invalid_argument m ->
          if not (contains m (reg_name x)) then
            Alcotest.failf "message %S does not name %s" m (reg_name x))
    [ r F32 4; r U32 0; r S32 1; r F64 0; r F32 (-1) ];
  (* The same registers are fine in a body that holds them. *)
  let wider = Array.append [| Mov { dst = r F32 4; src = Imm_float 0.0 } |] body in
  Alcotest.(check int) "%f4 in a wider body" 4 (D.index (D.regs wider) (r F32 4))

(* ------------------------------------------------------------------ *)
(* CSE *)

let test_cse_dedupes_loads () =
  let addr = r U64 0 in
  let x1 = r F64 0 and x2 = r F64 1 and s = r F64 2 in
  let k =
    kern
      [
        Ld_param { dst = addr; param_index = 0 };
        Ld_global { dtype = F64; dst = x1; addr; offset = 0 };
        Ld_global { dtype = F64; dst = x2; addr; offset = 0 };
        Add { dtype = F64; dst = s; a = Reg x1; b = Reg x2 };
        St_global { dtype = F64; addr; offset = 8; src = Reg s };
        Ret;
      ]
  in
  let k' = P.cse k in
  Alcotest.(check int) "duplicate load dropped" (len k - 1) (len k');
  ignore
    (index_of
       (function Add { a = Reg a; b = Reg b; _ } -> a = x1 && b = x1 | _ -> false)
       k')

let test_cse_store_invalidates_loads () =
  let addr = r U64 0 in
  let x1 = r F64 0 and x2 = r F64 1 and s = r F64 2 in
  let k =
    kern
      [
        Ld_param { dst = addr; param_index = 0 };
        Ld_global { dtype = F64; dst = x1; addr; offset = 0 };
        St_global { dtype = F64; addr; offset = 0; src = Imm_float 3.0 };
        (* Reloads the stored-over location: must NOT reuse x1. *)
        Ld_global { dtype = F64; dst = x2; addr; offset = 0 };
        Add { dtype = F64; dst = s; a = Reg x1; b = Reg x2 };
        St_global { dtype = F64; addr; offset = 8; src = Reg s };
        Ret;
      ]
  in
  let k' = P.cse k in
  Alcotest.(check int) "nothing deduped across the store" (len k) (len k')

let test_cse_requires_single_def () =
  let b = r S32 0 and c = r S32 1 and d = r S32 2 in
  let addr = r U64 0 in
  let k =
    kern
      [
        Ld_param { dst = addr; param_index = 0 };
        Mov { dst = b; src = Imm_int 1 };
        Add { dtype = S32; dst = c; a = Reg b; b = Imm_int 5 };
        Mov { dst = b; src = Imm_int 2 };
        (* Textually identical to the first add, but b changed in between:
           the multi-def operand blocks value numbering. *)
        Add { dtype = S32; dst = d; a = Reg b; b = Imm_int 5 };
        St_global { dtype = S32; addr; offset = 0; src = Reg c };
        St_global { dtype = S32; addr; offset = 4; src = Reg d };
        Ret;
      ]
  in
  let k' = P.cse k in
  Alcotest.(check int) "multi-def operand not deduped" (len k) (len k')

let test_cse_leaves_float_arith_alone () =
  (* Policy: float arithmetic is rematerialized rather than deduped, so
     repeated negations do not stretch a register's live range across the
     whole site computation. *)
  let addr = r U64 0 in
  let x = r F64 0 and n1 = r F64 1 and n2 = r F64 2 in
  let k =
    kern
      [
        Ld_param { dst = addr; param_index = 0 };
        Ld_global { dtype = F64; dst = x; addr; offset = 0 };
        Neg { dtype = F64; dst = n1; a = Reg x };
        Neg { dtype = F64; dst = n2; a = Reg x };
        St_global { dtype = F64; addr; offset = 8; src = Reg n1 };
        St_global { dtype = F64; addr; offset = 16; src = Reg n2 };
        Ret;
      ]
  in
  let k' = P.cse k in
  Alcotest.(check int) "both negations kept" (len k) (len k')

(* ------------------------------------------------------------------ *)
(* fma contraction *)

let test_fma_contract () =
  let addr = r U64 0 in
  let x = r F64 0 and y = r F64 1 and w = r F64 2 and t = r F64 3 and z = r F64 4 in
  let k =
    kern
      [
        Ld_param { dst = addr; param_index = 0 };
        Ld_global { dtype = F64; dst = x; addr; offset = 0 };
        Ld_global { dtype = F64; dst = y; addr; offset = 8 };
        Ld_global { dtype = F64; dst = w; addr; offset = 16 };
        Mul { dtype = F64; dst = t; a = Reg x; b = Reg y };
        Add { dtype = F64; dst = z; a = Reg t; b = Reg w };
        St_global { dtype = F64; addr; offset = 24; src = Reg z };
        Ret;
      ]
  in
  let k' = P.dce (P.fma_contract k) in
  ignore
    (index_of
       (function
         | Fma { dst; a = Reg a; b = Reg b; c = Reg c; _ } ->
             dst = z && a = x && b = y && c = w
         | _ -> false)
       k');
  Alcotest.(check int) "mul deleted after contraction" (len k - 1) (len k')

let test_fma_not_contracted_when_reused () =
  let addr = r U64 0 in
  let x = r F64 0 and y = r F64 1 and t = r F64 2 and z1 = r F64 3 and z2 = r F64 4 in
  let k =
    kern
      [
        Ld_param { dst = addr; param_index = 0 };
        Ld_global { dtype = F64; dst = x; addr; offset = 0 };
        Ld_global { dtype = F64; dst = y; addr; offset = 8 };
        Mul { dtype = F64; dst = t; a = Reg x; b = Reg y };
        Add { dtype = F64; dst = z1; a = Reg t; b = Imm_float 1.0 };
        Add { dtype = F64; dst = z2; a = Reg t; b = Imm_float 2.0 };
        St_global { dtype = F64; addr; offset = 16; src = Reg z1 };
        St_global { dtype = F64; addr; offset = 24; src = Reg z2 };
        Ret;
      ]
  in
  let k' = P.dce (P.fma_contract k) in
  Alcotest.(check int) "multi-use product stays a mul" (len k) (len k');
  ignore (index_of (function Mul { dst; _ } -> dst = t | _ -> false) k')

(* ------------------------------------------------------------------ *)
(* DCE *)

let test_dce () =
  let addr = r U64 0 in
  let live = r F64 0 and dead1 = r F64 1 and dead2 = r F64 2 in
  let k =
    kern
      [
        Ld_param { dst = addr; param_index = 0 };
        Ld_global { dtype = F64; dst = live; addr; offset = 0 };
        Ld_global { dtype = F64; dst = dead1; addr; offset = 8 };
        Add { dtype = F64; dst = dead2; a = Reg dead1; b = Imm_float 1.0 };
        St_global { dtype = F64; addr; offset = 16; src = Reg live };
        Ret;
      ]
  in
  let k' = P.dce k in
  Alcotest.(check int) "dead chain removed" (len k - 2) (len k')

(* ------------------------------------------------------------------ *)
(* Code sinking *)

let test_sink_moves_load_to_first_use () =
  let addr = r U64 0 in
  let x = r F64 0 and y = r F64 1 and z = r F64 2 and s1 = r F64 3 and s2 = r F64 4 in
  let k =
    kern
      [
        Ld_param { dst = addr; param_index = 0 };
        Ld_global { dtype = F64; dst = x; addr; offset = 0 };
        Ld_global { dtype = F64; dst = y; addr; offset = 8 };
        Ld_global { dtype = F64; dst = z; addr; offset = 16 };
        Add { dtype = F64; dst = s1; a = Reg y; b = Reg z };
        Add { dtype = F64; dst = s2; a = Reg s1; b = Reg x };
        St_global { dtype = F64; addr; offset = 24; src = Reg s2 };
        Ret;
      ]
  in
  let k' = P.sink k in
  let load_x = index_of (function Ld_global { dst; _ } -> dst = x | _ -> false) k' in
  let use_x = index_of (function Add { dst; _ } -> dst = s2 | _ -> false) k' in
  Alcotest.(check int) "x loaded just before its use" (use_x - 1) load_x;
  Alcotest.(check bool) "pressure not increased" true
    (D.register_demand k' <= D.register_demand k)

let test_sink_load_never_crosses_store () =
  let addr = r U64 0 in
  let x = r F64 0 and s = r F64 1 in
  let k =
    kern
      [
        Ld_param { dst = addr; param_index = 0 };
        Ld_global { dtype = F64; dst = x; addr; offset = 0 };
        St_global { dtype = F64; addr; offset = 0; src = Imm_float 9.0 };
        Add { dtype = F64; dst = s; a = Reg x; b = Reg x };
        St_global { dtype = F64; addr; offset = 8; src = Reg s };
        Ret;
      ]
  in
  let k' = P.sink k in
  let load = index_of (function Ld_global _ -> true | _ -> false) k' in
  let store = index_of (function St_global { offset = 0; _ } -> true | _ -> false) k' in
  Alcotest.(check bool) "load stays above the aliasing store" true (load < store)

let test_sink_is_pressure_aware () =
  (* Moving this add would drag two dying f64 inputs (4 units) down to
     save one f64 def (2 units): the pass must leave it alone. *)
  let addr = r U64 0 in
  let x = r F64 0 and y = r F64 1 and w = r F64 2 and s = r F64 3 and s2 = r F64 4 in
  let k =
    kern
      [
        Ld_param { dst = addr; param_index = 0 };
        Ld_global { dtype = F64; dst = x; addr; offset = 0 };
        Ld_global { dtype = F64; dst = y; addr; offset = 8 };
        Add { dtype = F64; dst = s; a = Reg x; b = Reg y };
        Ld_global { dtype = F64; dst = w; addr; offset = 16 };
        Add { dtype = F64; dst = s2; a = Reg w; b = Reg s };
        St_global { dtype = F64; addr; offset = 24; src = Reg s2 };
        Ret;
      ]
  in
  let k' = P.sink k in
  Alcotest.(check int) "add with dying inputs not moved" 3
    (index_of (function Add { dst; _ } -> dst = s | _ -> false) k')

(* ------------------------------------------------------------------ *)
(* Dataflow validation *)

let diamond ~def_before_branch =
  let n = r S32 0 and addr = r U64 0 and p = r Pred 0 in
  let x = r F64 0 and y = r F64 1 in
  kern
    ~params:[ { pname = "n"; ptype = S32 }; { pname = "out"; ptype = U64 } ]
    ([
       Ld_param { dst = n; param_index = 0 };
       Ld_param { dst = addr; param_index = 1 };
     ]
    @ (if def_before_branch then [ Mov { dst = x; src = Imm_float 2.0 } ] else [])
    @ [
        Setp { cmp = Ge; dtype = S32; dst = p; a = Reg n; b = Imm_int 0 };
        Bra { label = "L"; pred = Some p };
        Mov { dst = x; src = Imm_float 3.0 };
        Label "L";
        Add { dtype = F64; dst = y; a = Reg x; b = Imm_float 1.0 };
        St_global { dtype = F64; addr; offset = 0; src = Reg y };
        Ret;
      ])

let test_validate_dataflow_catches_branch_undef () =
  let k = diamond ~def_before_branch:false in
  (* The textual written-before-read rule is satisfied... *)
  Ptx.Validate.kernel k;
  (* ...but on the taken branch x is never assigned. *)
  match Ptx.Validate.dataflow k with
  | exception Ptx.Validate.Invalid _ -> ()
  | () -> Alcotest.fail "use of a maybe-unassigned register accepted"

let test_validate_dataflow_accepts_dominating_def () =
  let k = diamond ~def_before_branch:true in
  Ptx.Validate.kernel k;
  Ptx.Validate.dataflow k

(* The VM refuses what its executors cannot run: a maybe-unassigned
   read (SoA register rows are never zeroed) and a backward branch. *)
let test_vm_compile_checks () =
  let rejects what ~says k =
    match Gpusim.Vm.compile k with
    | exception Gpusim.Vm.Fault m ->
        if not (contains m says) then Alcotest.failf "%s: fault %S does not say %S" what m says
    | _ -> Alcotest.failf "Vm.compile accepted %s" what
  in
  rejects "a branch-path undef" ~says:"may be read before written"
    (diamond ~def_before_branch:false);
  ignore (Gpusim.Vm.compile (diamond ~def_before_branch:true));
  let addr = r U64 0 and x = r F64 0 and p = r Pred 0 in
  rejects "a backward branch" ~says:"not forward"
    (kern
       [
         Ld_param { dst = addr; param_index = 0 };
         Mov { dst = x; src = Imm_float 1.0 };
         Label "L";
         Add { dtype = F64; dst = x; a = Reg x; b = Imm_float 1.0 };
         Setp { cmp = Lt; dtype = F64; dst = p; a = Reg x; b = Imm_float 4.0 };
         Bra { label = "L"; pred = Some p };
         St_global { dtype = F64; addr; offset = 0; src = Reg x };
         Ret;
       ]);
  (* A negative id (the parser reads [%fd-1]) has no place in the dense
     numbering: an invalid kernel, not an index error. *)
  rejects "a negative register id" ~says:"negative id"
    (kern
       [
         Ld_param { dst = addr; param_index = 0 };
         Mov { dst = r F64 (-1); src = Imm_float 1.0 };
         St_global { dtype = F64; addr; offset = 0; src = Reg (r F64 (-1)) };
         Ret;
       ])

(* ------------------------------------------------------------------ *)
(* Acceptance on the real Table II kernels *)

let geom = Geometry.create [| 4; 4; 4; 2 |]
let rng = Prng.create ~seed:4242L

let fresh shape =
  let f = Field.create shape geom in
  Field.fill_gaussian f rng;
  f

let cm = Shape.lattice_color_matrix Shape.F64
let fm = Shape.lattice_fermion Shape.F64
let sm = Shape.lattice_spin_matrix Shape.F64
let u = fresh cm
let u2 = fresh cm
let u3 = fresh cm
let psi = fresh fm
let phi = fresh fm
let g1 = fresh sm
let g2 = fresh sm

let table2_cases () =
  let ad = fresh (Shape.clover_diag Shape.F64) and at = fresh (Shape.clover_tri Shape.F64) in
  let f = Expr.field in
  [
    ("lcm", Expr.mul (f u2) (f u3), cm);
    ("upsi", Expr.mul (f u) (f psi), fm);
    ("spmat", Expr.mul (f g1) (f g2), sm);
    ("matvec", Expr.add (Expr.mul (f u) (f psi)) (Expr.mul (f u) (f phi)), fm);
    ("clover", Expr.clover ~diag:(f ad) ~tri:(f at) (f psi), fm);
  ]

let test_pipeline_improves_table2_kernels () =
  List.iter
    (fun (name, expr, dest_shape) ->
      let b =
        Qdpjit.Codegen.build ~kname:("acc_" ^ name) ~dest_shape ~expr
          ~nsites:(Geometry.volume geom) ~use_sitelist:false ()
      in
      let raw = b.Qdpjit.Codegen.raw and opt = b.Qdpjit.Codegen.kernel in
      let ri = List.length raw.body and oi = List.length opt.body in
      let rr = D.register_demand raw and orr = D.register_demand opt in
      let strict = List.mem name [ "upsi"; "spmat"; "matvec"; "clover" ] in
      if b.Qdpjit.Codegen.passes = [] then Alcotest.failf "%s: no pass changed the kernel" name;
      if oi > ri || (strict && oi >= ri) then
        Alcotest.failf "%s: instructions raw %d -> opt %d" name ri oi;
      if orr > rr || (strict && orr >= rr) then
        Alcotest.failf "%s: register demand raw %d -> opt %d" name rr orr;
      let rb = (Ptx.Analysis.kernel raw).Ptx.Analysis.load_bytes in
      let ob = (Ptx.Analysis.kernel opt).Ptx.Analysis.load_bytes in
      if ob > rb then Alcotest.failf "%s: load bytes raw %d -> opt %d" name rb ob;
      (* matvec reads U once per AST occurrence in the raw stream; the
         middle-end dedupes it (the global-load-bytes criterion). *)
      if name = "matvec" && ob >= rb then
        Alcotest.failf "matvec: load bytes not reduced (raw %d, opt %d)" rb ob)
    (table2_cases ())

let test_optimize_false_escape_hatch () =
  let b =
    Qdpjit.Codegen.build ~optimize:false ~kname:"raw_path" ~dest_shape:fm
      ~expr:(Expr.mul (Expr.field u) (Expr.field psi))
      ~nsites:(Geometry.volume geom) ~use_sitelist:false ()
  in
  Alcotest.(check bool) "kernel is the raw stream" true
    (compare b.Qdpjit.Codegen.kernel b.Qdpjit.Codegen.raw = 0);
  Alcotest.(check int) "no passes applied" 0 (List.length b.Qdpjit.Codegen.passes)

(* The pass as it was before it kept the body as a linked list: it
   renumbers every instruction a move hops over, so it is quadratic on
   fused kernels.  Kept as the oracle the linear pass must match. *)
let reference_sink (k : kernel) =
  let body = Array.of_list k.body in
  let n = Array.length body in
  let rg = D.regs body in
  let sd = D.single_def rg (D.def_counts rg body) in
  let movable i =
    (not (D.is_side_effecting i))
    && (match i with Call _ -> false | _ -> true)
    &&
    match D.def_of i with
    | Some d -> sd d && List.for_all sd (D.uses_of i)
    | None -> false
  in
  (* One backward sweep, moving each definition at most once.  The chains
     are maintained incrementally: a move only renumbers the window
     between the definition and its first use, so only the window
     instructions' recorded positions change — rebuilding the chains (and
     rescanning the body) after every move made this pass quadratic on
     the several-thousand-instruction Dslash kernels. *)
  let ch = D.chains rg body in
  let reposition instr ~from ~to_ =
    List.iter
      (fun r ->
        let x = D.index rg r in
        let rec go = function
          | [] -> []
          | y :: tl -> if y = from then to_ :: tl else y :: go tl
        in
        ch.(x) <- List.sort compare (go ch.(x)))
      (D.uses_of instr)
  in
  let do_move p f =
    let instr = body.(p) in
    for q = p + 1 to f - 1 do
      reposition body.(q) ~from:q ~to_:(q - 1)
    done;
    reposition instr ~from:p ~to_:(f - 1);
    for j = p to f - 2 do
      body.(j) <- body.(j + 1)
    done;
    body.(f - 1) <- instr
  in
  let changed = ref false in
  for i = n - 2 downto 0 do
    if movable body.(i) then
      let d = Option.get (D.def_of body.(i)) in
      match D.uses_of_reg rg ch d with
      | first :: _ when first > i + 1 ->
          let barrier = ref false in
          let is_load =
            match body.(i) with Ld_global _ | Ld_global_f16 _ -> true | _ -> false
          in
          for j = i + 1 to first - 1 do
            match body.(j) with
            | Label _ | Bra _ | Call _ | Ret -> barrier := true
            | (St_global _ | St_global_f16 _) when is_load -> barrier := true
            | _ -> ()
          done;
          (* Weight of operands the move would stretch: any input whose
             last use apart from this instruction lies above the target
             now has to stay live down to it.  Requiring the stretched
             weight to stay within the sunk definition's weight makes
             the move pointwise non-increasing in pressure: over the
             vacated span the definition's units are gone, and the
             stretched units never exceed them. *)
          let cost =
            let rec drop_one = function
              | [] -> []
              | x :: tl -> if x = i then tl else x :: drop_one tl
            in
            List.fold_left
              (fun acc r ->
                let last_other = List.fold_left max (-1) (drop_one (D.uses_of_reg rg ch r)) in
                if last_other < first - 1 then acc + D.weight r.rtype else acc)
              0
              (List.sort_uniq compare (D.uses_of body.(i)))
          in
          (* If everything in the gap already feeds the same consumer,
             the cluster is packed: hopping over those neighbours would
             gain nothing and two such values could swap forever. *)
          let settled = ref true in
          for j = i + 1 to first - 1 do
            match D.def_of body.(j) with
            | Some dj when not (D.is_side_effecting body.(j)) -> (
                match D.uses_of_reg rg ch dj with
                | f :: _ when f = first -> ()
                | _ -> settled := false)
            | _ -> settled := false
          done;
          if (not !barrier) && (not !settled) && cost <= D.weight d.rtype then begin
            do_move i first;
            changed := true
          end
      | _ -> ()
  done;
  if !changed then { k with body = Array.to_list body } else k

(* Random forward-branching kernels: duplicate operands, multi-def
   registers, loads and stores through a few aliased addresses, address
   arithmetic, labels, predicated and plain branches, calls. *)
let random_kernel seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let pick l = List.nth l (int (List.length l)) in
  let serial = ref 0 in
  let pools = Hashtbl.create 8 in
  let pool t = Option.value ~default:[] (Hashtbl.find_opt pools t) in
  let fresh t =
    incr serial;
    let x = r t !serial in
    Hashtbl.replace pools t (x :: pool t);
    x
  in
  (* One definition in five rewrites an existing register. *)
  let dst t = if pool t <> [] && int 5 = 0 then pick (pool t) else fresh t in
  let src t = pick (pool t) in
  let opnd t = if int 8 = 0 then Imm_float (float_of_int (int 4)) else Reg (src t) in
  let offset () = 8 * int 3 in
  let body = ref [] and labels = ref 0 and pending = ref false in
  let emit i = body := i :: !body in
  let place_label () =
    emit (Label (Printf.sprintf "L%d" !labels));
    incr labels;
    pending := false
  in
  emit (Ld_param { dst = fresh U64; param_index = 0 });
  emit (Ld_param { dst = fresh U64; param_index = 1 });
  emit (Ld_param { dst = fresh S32; param_index = 2 });
  emit (Mov { dst = fresh F64; src = Imm_float 1.0 });
  emit (Mov { dst = fresh F32; src = Imm_float 2.0 });
  for _ = 1 to 10 + int 70 do
    match int 20 with
    | 0 | 1 | 2 | 3 ->
        emit (Ld_global { dtype = F64; dst = dst F64; addr = src U64; offset = offset () })
    | 4 -> emit (St_global { dtype = F64; addr = src U64; offset = offset (); src = opnd F64 })
    | 5 -> emit (Ld_global_f16 { dst = dst F32; addr = src U64; offset = offset () })
    | 6 -> emit (St_global_f16 { addr = src U64; offset = offset (); src = opnd F32 })
    | 7 | 8 | 9 ->
        let a = opnd F64 in
        let b = if int 3 = 0 then a else opnd F64 in
        let dtype = F64 and dst = dst F64 in
        emit
          (match int 3 with
          | 0 -> Add { dtype; dst; a; b }
          | 1 -> Mul { dtype; dst; a; b }
          | _ -> Sub { dtype; dst; a; b })
    | 10 -> emit (Fma { dtype = F64; dst = dst F64; a = opnd F64; b = opnd F64; c = opnd F64 })
    | 11 -> emit (Add { dtype = U64; dst = dst U64; a = Reg (src U64); b = Imm_int (8 * int 4) })
    | 12 -> emit (Cvt { dst = dst F32; src = src F64 })
    | 13 -> emit (Mul { dtype = F32; dst = dst F32; a = opnd F32; b = opnd F32 })
    | 14 ->
        let p = fresh Pred in
        emit (Setp { cmp = Lt; dtype = S32; dst = p; a = Reg (src S32); b = Imm_int (int 9) });
        emit (Bra { label = Printf.sprintf "L%d" !labels; pred = Some p });
        pending := true
    | 15 ->
        emit (Bra { label = Printf.sprintf "L%d" !labels; pred = None });
        pending := true
    | 16 -> place_label ()
    | 17 -> emit (Call { func = "sin"; ret = dst F64; arg = src F64 })
    | 18 -> emit (Neg { dtype = F64; dst = dst F64; a = opnd F64 })
    | _ -> emit (Mov { dst = dst F64; src = Reg (src F64) })
  done;
  if !pending then place_label ();
  List.iter
    (fun x ->
      if int 2 = 0 then emit (St_global { dtype = F64; addr = src U64; offset = 0; src = Reg x }))
    (pool F64);
  emit Ret;
  kern
    ~params:
      [
        { pname = "a"; ptype = U64 }; { pname = "b"; ptype = U64 }; { pname = "n"; ptype = S32 };
      ]
    (List.rev !body)

let qcheck_sink_matches_reference =
  QCheck.Test.make ~name:"random kernels: sink = reference sink" ~count:1000
    QCheck.(make ~print:(fun s -> Ptx.Print.kernel (random_kernel s)) Gen.(int_bound 1_000_000))
    (fun seed ->
      let k = random_kernel seed in
      compare (P.sink k) (reference_sink k) = 0)

(* The property is only as strong as the moves its kernels make. *)
let test_random_kernels_sink () =
  let moved = ref 0 in
  for seed = 0 to 199 do
    let k = random_kernel seed in
    if compare (reference_sink k) k <> 0 then incr moved
  done;
  if !moved < 100 then Alcotest.failf "only %d of 200 random kernels sink anything" !moved

(* The kernels a fused Wilson CG and a 2^4 HMC trajectory launch, parsed
   back from their PTX text: optimized, or the raw streams of an
   [~optimize:false] engine. *)
let workload_kernels ~optimize =
  let wilson =
    let eng = Engine.create ~optimize () in
    let links = Lqcd.Gauge.create_links geom in
    Lqcd.Gauge.random_gauge ~epsilon:0.3 links (Prng.create ~seed:11L);
    let ops = Solvers.Ops.jit eng fm geom in
    let nop = Solvers.Ops.normal_op ops ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa:0.115 links) in
    let x = ops.Solvers.Ops.fresh () in
    ignore (Solvers.Cg.solve ops nop ~b:psi ~x ~max_iter:3 ());
    Engine.kernel_texts eng
  in
  let hmc =
    let eng = Engine.create ~optimize () in
    let g = Geometry.create [| 2; 2; 2; 2 |] in
    let ctx = Hmc.Context.create ~backend:(Hmc.Context.jit_backend eng) ~seed:7L g in
    Lqcd.Gauge.random_gauge ~epsilon:0.25 ctx.Hmc.Context.u (Prng.create ~seed:17L);
    let monomials =
      [
        Hmc.Gauge_monomial.create ctx ~beta:5.6 ~aniso:1.0 ();
        Hmc.Two_flavor.create ctx ~kappa:0.10 ();
      ]
    in
    ignore
      (Hmc.Driver.run_trajectory ctx monomials
         { Hmc.Driver.steps = 1; dt = 0.05; scheme = Hmc.Integrator.Omelyan });
    Engine.kernel_texts eng
  in
  List.map Ptx.Parse.kernel (wilson @ hmc)

let raw_workload = lazy (workload_kernels ~optimize:false)
let opt_workload = lazy (workload_kernels ~optimize:true)

(* Every sink call the middle-end makes on those kernels, checked
   against the reference: the pipeline once on each raw stream, and one
   more sink on each optimized kernel. *)
let test_sink_matches_reference_on_workloads () =
  let calls = ref 0 and moved = ref 0 in
  let checked k =
    let k' = P.sink k in
    incr calls;
    if compare k' (reference_sink k) <> 0 then
      Alcotest.failf "sink differs from the reference on %s (%d instructions)" k.kname (len k);
    if compare k' k <> 0 then incr moved;
    k'
  in
  let pipeline =
    List.map (fun (name, pass) -> if name = "sink" then (name, checked) else (name, pass))
      (P.default_pipeline ())
  in
  List.iter (fun k -> ignore (P.run_pipeline pipeline k)) (Lazy.force raw_workload);
  List.iter (fun k -> ignore (checked k)) (Lazy.force opt_workload);
  if !moved = 0 then Alcotest.failf "no sink call moved anything (%d calls)" !calls

(* The middle-end as it was before it applied its pipeline once: whole
   rounds until one changes nothing, at most four.  Only sink still
   changes a kernel after the first round, and on most kernels it still
   moves something in the fourth.  Kept as the oracle for the one-round
   [P.run]. *)
let reference_run (k : kernel) =
  let round k = List.fold_left (fun k (_, pass) -> pass k) k (P.default_pipeline ()) in
  let rec go rounds k =
    let k' = round k in
    if compare k k' = 0 || rounds >= 4 then k' else go (rounds + 1) k'
  in
  go 1 k

(* One round gives the same instruction count, register demand and
   driver register estimate as four on every workload kernel; only the
   order of some instructions differs. *)
let test_one_round_matches_reference_run () =
  let regs k = (Gpusim.Jit.compile (Ptx.Print.kernel k)).Gpusim.Jit.regs_per_thread in
  let reordered = ref 0 in
  List.iter
    (fun k ->
      let one = (P.run k).P.kernel and four = reference_run k in
      if compare one four <> 0 then incr reordered;
      List.iter
        (fun (what, f) ->
          let a = f one and b = f four in
          if a <> b then Alcotest.failf "%s: %s %d after one round, %d after four" k.kname what a b)
        [ ("instructions", len); ("register demand", D.register_demand); ("regs per thread", regs) ])
    (Lazy.force raw_workload);
  if !reordered = 0 then Alcotest.fail "the extra rounds changed no kernel: the oracle is vacuous"

(* Each pass runs exactly once per lowering, counted through a wrapped
   pipeline, and [Codegen.lower] is one [P.run]: a second round would
   sink further on most of these kernels (see the oracle above). *)
let test_each_pass_runs_once () =
  let pipeline = P.default_pipeline () in
  let calls = Array.make (List.length pipeline) 0 in
  let counted =
    List.mapi
      (fun j (name, pass) ->
        ( name,
          fun k ->
            calls.(j) <- calls.(j) + 1;
            pass k ))
      pipeline
  in
  List.iter
    (fun k ->
      Array.fill calls 0 (Array.length calls) 0;
      let r = P.run_pipeline counted k in
      Alcotest.(check (array int))
        (k.kname ^ ": calls per pass")
        (Array.make (Array.length calls) 1)
        calls;
      if compare (Qdpjit.Codegen.lower k) (r.P.kernel, r.P.applied) <> 0 then
        Alcotest.failf "%s: Codegen.lower differs from one pipeline round" k.kname)
    (Lazy.force raw_workload)

(* [n] members spliced into one fused chain, as an engine flush does:
   each writes its own destination from the same two leaves, so CSE
   dedupes the leaf loads and address chains across members. *)
let fused_chain n =
  let b =
    Qdpjit.Codegen.build ~optimize:false ~kname:"member" ~dest_shape:fm
      ~expr:(Expr.mul (Expr.field u) (Expr.field psi))
      ~nsites:(Geometry.volume geom) ~use_sitelist:false ()
  in
  (* Destinations take slots [0, n); the other parameters are shared. *)
  let shared = List.filter (( <> ) Qdpjit.Codegen.Dest) b.Qdpjit.Codegen.plan in
  let source m =
    {
      Ptx.Fuse.kernel = b.Qdpjit.Codegen.raw;
      slots =
        Array.of_list
          (List.map
             (function
               | Qdpjit.Codegen.Dest -> m
               | p -> n + Option.get (List.find_index (( = ) p) shared))
             b.Qdpjit.Codegen.plan);
      use_sitelist = false;
      subst_from = [];
      drop_stores = false;
      reduction = false;
    }
  in
  fst (Ptx.Fuse.fuse ~kname:"chain" (List.init n source))

(* [Codegen.lower] is linear in the chain length: 2N members may
   allocate at most 2.2x the minor words of N.  Exact GC counters, no
   clock; a pass that rescans the body per member gives 4x. *)
let test_lower_allocates_linearly () =
  let words n =
    let raw = fused_chain n in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Qdpjit.Codegen.lower raw));
    (Gc.minor_words () -. w0, List.length raw.body)
  in
  let w_n, len_n = words 8 and w_2n, len_2n = words 16 in
  if len_2n < 2 * len_n - 64 then Alcotest.failf "chain bodies %d and %d: not doubled" len_n len_2n;
  Alcotest.(check bool)
    (Printf.sprintf "2N members cost %.0f words, N members %.0f (ratio %.2f <= 2.2)" w_2n w_n
       (w_2n /. w_n))
    true
    (w_2n <= 2.2 *. w_n)

(* [Gpusim.Jit.compile] — parse, validate, allocate, decode, register
   demand — is linear too: on the printed text of a fused chain, 2N
   members may allocate at most 2.2x the minor words of N.  A set that
   copies itself per instruction or a table rescanned per member breaks
   it. *)
let test_jit_compile_allocates_linearly () =
  let words n =
    let text = Ptx.Print.kernel (fused_chain n) in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Gpusim.Jit.compile text));
    Gc.minor_words () -. w0
  in
  let w_n = words 8 and w_2n = words 16 in
  Alcotest.(check bool)
    (Printf.sprintf "2N members cost %.0f words, N members %.0f (ratio %.2f <= 2.2)" w_2n w_n
       (w_2n /. w_n))
    true
    (w_2n <= 2.2 *. w_n)

(* The text boundary allocates little besides its own output.  On every
   workload kernel, raw and optimized, [Ptx.Parse.kernel] may allocate
   at most twice the words reachable from the kernel it returns (a
   parser that cuts substrings per line or operand allocates 7-10x), and
   [Ptx.Print.kernel] at most one minor word per byte of text (a format
   string per instruction costs about 6.5).  Exact GC counters, no
   clock. *)
let test_text_round_trip_allocates_its_output () =
  List.iter
    (fun k ->
      let w0 = Gc.minor_words () in
      let text = Sys.opaque_identity (Ptx.Print.kernel k) in
      let print_words = Gc.minor_words () -. w0 in
      let w0 = Gc.minor_words () in
      let parsed = Sys.opaque_identity (Ptx.Parse.kernel text) in
      let parse_words = Gc.minor_words () -. w0 in
      let bytes = String.length text and out = Obj.reachable_words (Obj.repr parsed) in
      if print_words > float_of_int bytes then
        Alcotest.failf "%s: printing %d bytes allocated %.0f minor words" k.kname bytes
          print_words;
      if parse_words > 2.0 *. float_of_int out then
        Alcotest.failf "%s: parsing allocated %.0f minor words for a %d-word kernel" k.kname
          parse_words out)
    (Lazy.force raw_workload @ Lazy.force opt_workload)

(* The text boundary is lossless: parsing a printed kernel gives the
   kernel back, on random kernels (duplicate operands, float and integer
   immediates, predicated branches, labels, calls, f16 memory) and on
   every workload kernel. *)
let roundtrips k = compare (Ptx.Parse.kernel (Ptx.Print.kernel k)) k = 0

let qcheck_print_parse_roundtrip =
  QCheck.Test.make ~name:"random kernels: parse (print k) = k" ~count:300
    QCheck.(make ~print:(fun s -> Ptx.Print.kernel (random_kernel s)) Gen.(int_bound 1_000_000))
    (fun seed -> roundtrips (random_kernel seed))

let test_workload_kernels_roundtrip () =
  List.iter
    (fun k -> if not (roundtrips k) then Alcotest.failf "%s: parse (print k) <> k" k.kname)
    (Lazy.force raw_workload @ Lazy.force opt_workload)

(* Every workload kernel, raw and optimized, printed: the [.reg] lines
   declare what a plain max-id fold over the body counts, and the VM
   decodes the kernel and its [Parse (Print k)] round trip alike. *)
let test_print_declares_max_ids () =
  List.iter
    (fun k ->
      let text = Ptx.Print.kernel k in
      let max_id = Hashtbl.create 8 in
      List.iter
        (D.iter_regs (fun x ->
             let m = Option.value ~default:(-1) (Hashtbl.find_opt max_id x.rtype) in
             Hashtbl.replace max_id x.rtype (max m x.id)))
        k.body;
      let expected =
        List.filter_map
          (fun dt ->
            Option.map
              (fun m ->
                Printf.sprintf "\t.reg .%s \t%s<%d>;" (dtype_suffix dt) (reg_prefix dt) (m + 1))
              (Hashtbl.find_opt max_id dt))
          [ Pred; S32; U32; S64; U64; F32; F64 ]
      in
      let declared =
        List.filter (fun l -> contains l "\t.reg ") (String.split_on_char '\n' text)
      in
      Alcotest.(check (list string)) (k.kname ^ ": .reg declarations") expected declared;
      let decoded k =
        let p = Gpusim.Vm.compile k in
        (Gpusim.Vm.superinsn_stats p, Gpusim.Vm.decoded_instructions p)
      in
      if decoded k <> decoded (Ptx.Parse.kernel text) then
        Alcotest.failf "%s: decoded differently after a print/parse round trip" k.kname)
    (Lazy.force raw_workload @ Lazy.force opt_workload)

(* The neg sinks past the store of [a], until then [a]'s last reader,
   and becomes the last reader itself.  When the cvt then goes to the
   same consumer it does not stretch [a], so the f32 [t] may move
   although [a] weighs more. *)
let test_sink_moved_use_becomes_last () =
  let addr = r U64 0 and a = r F64 0 and s = r F64 1 and u = r F64 2 and t = r F32 0 in
  let k =
    kern
      [
        Ld_param { dst = addr; param_index = 0 };
        Ld_global { dtype = F64; dst = a; addr; offset = 0 };
        Cvt { dst = t; src = a };
        Neg { dtype = F64; dst = s; a = Reg a };
        St_global { dtype = F64; addr; offset = 8; src = Reg a };
        St_global { dtype = F64; addr; offset = 16; src = Imm_float 0.0 };
        Add { dtype = F64; dst = u; a = Reg s; b = Reg t };
        St_global { dtype = F64; addr; offset = 24; src = Reg u };
        Ret;
      ]
  in
  let k' = P.sink k in
  Alcotest.(check bool) "= reference" true (compare k' (reference_sink k) = 0);
  Alcotest.(check int) "neg sank past both stores" 4
    (index_of (function Neg _ -> true | _ -> false) k');
  Alcotest.(check int) "cvt sank to the add" 5 (index_of (function Cvt _ -> true | _ -> false) k')

(* A 64-long chain sinks below [st0] one link at a time, each insert
   halving the same label gap, so the labels run out and are reassigned
   mid-pass.  After that the loads of [v0] and [w] must still see [st0]
   between them and their first uses, deep inside the chain. *)
let test_sink_chain_outlasts_label_gap () =
  let m = 64 and kw = 8 in
  let addr = r U64 0 and w = r F64 (m + 1) and v j = r F64 j in
  let chain =
    List.init m (fun j ->
        let j = j + 1 in
        if j = kw then Add { dtype = F64; dst = v j; a = Reg (v (j - 1)); b = Reg w }
        else Neg { dtype = F64; dst = v j; a = Reg (v (j - 1)) })
  in
  let dead = List.init 4 (fun q -> Mov_sreg { dst = r U32 q; src = Tid_x }) in
  let k =
    kern
      ([
         Ld_param { dst = addr; param_index = 0 };
         Ld_global { dtype = F64; dst = w; addr; offset = 16 };
         Ld_global { dtype = F64; dst = v 0; addr; offset = 0 };
       ]
      @ chain @ dead
      @ [
          St_global { dtype = F64; addr; offset = 8; src = Imm_float 0.0 };
          St_global { dtype = F64; addr; offset = 0; src = Reg (v m) };
          St_global { dtype = F64; addr; offset = 24; src = Reg (v (kw - 1)) };
          Ret;
        ])
  in
  let k' = P.sink k in
  Alcotest.(check bool) "= reference" true (compare k' (reference_sink k) = 0);
  let st0 = index_of (function St_global { offset = 8; _ } -> true | _ -> false) k' in
  Alcotest.(check int) "loads stay above the store" 2
    (index_of (function Ld_global { dst; _ } -> dst = v 0 | _ -> false) k');
  List.iteri
    (fun j _ ->
      Alcotest.(check int) (Printf.sprintf "link %d in order below the store" (j + 1)) (st0 + 1 + j)
        (index_of (fun i -> D.def_of i = Some (v (j + 1))) k'))
    chain

(* A straight-line kernel of [n] instructions: loads [x0 .. x(m-1)],
   then the ladder [add0 = x0 + 1], [addj = add(j-1) + xj], then a
   store.  Each load sinks past all the adds above its own. *)
let sink_ladder n =
  let addr = r U64 0 and m = (n - 3) / 2 in
  let x j = r F64 j and s j = r F64 (m + j) in
  let loads = List.init m (fun j -> Ld_global { dtype = F64; dst = x j; addr; offset = 8 * j }) in
  let adds =
    List.init m (fun j ->
        if j = 0 then Add { dtype = F64; dst = s 0; a = Reg (x 0); b = Imm_float 1.0 }
        else Add { dtype = F64; dst = s j; a = Reg (s (j - 1)); b = Reg (x j) })
  in
  kern
    ((Ld_param { dst = addr; param_index = 0 } :: loads)
    @ adds
    @ [ St_global { dtype = F64; addr; offset = 0; src = Reg (s (m - 1)) }; Ret ])

(* No wall-clock bound, only a ratio: quadrupling the body costs a
   linear pass 4x and a quadratic one 16x. *)
let test_sink_scales_linearly () =
  let time n =
    let k = sink_ladder n in
    (* Every load ends just above its first use, except [x1]: [add0],
       the only instruction between, already feeds [add1]. *)
    let rec sunk = function
      | Ld_global { dst; _ } :: (i :: _ as tl) when List.mem dst (D.uses_of i) -> 1 + sunk tl
      | _ :: tl -> sunk tl
      | [] -> 0
    in
    if sunk (P.sink k).body <> ((n - 3) / 2) - 1 then
      Alcotest.failf "ladder %d: not every load sank" n;
    let best = ref infinity in
    for _ = 1 to 3 do
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (P.sink k));
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let t8 = time 8_192 and t32 = time 32_768 in
  if t32 > 8.0 *. t8 then
    Alcotest.failf "sink time 32k/8k = %.1f (8k %.4f s, 32k %.4f s): not near-linear" (t32 /. t8) t8
      t32

(* Register demand as it was computed before the running weight: the
   whole live set re-folded at every instruction, over the test-local
   liveness of [Ref_dataflow]. *)
let reference_register_demand body =
  let module S = Ref_dataflow.RSet in
  let blks, _ = D.blocks body in
  if Array.length blks = 0 then 0
  else begin
    let _, live_out = Ref_dataflow.liveness body blks in
    let set_weight s = S.fold (fun r acc -> acc + D.weight r.rtype) s 0 in
    let peak = ref 0 in
    Array.iteri
      (fun bi (blk : D.block) ->
        let live = ref live_out.(bi) in
        for i = blk.D.last downto blk.D.first do
          let instr = body.(i) in
          let at_point = match D.def_of instr with Some r -> S.add r !live | None -> !live in
          peak := max !peak (set_weight at_point);
          (match D.def_of instr with Some r -> live := S.remove r !live | None -> ());
          List.iter (fun r -> live := S.add r !live) (D.uses_of instr)
        done)
      blks;
    !peak
  end

(* [k] with one read-before-write injected: a [mov] from some register,
   into a register no one else uses, placed right before that register's
   first definition.  Every path from the entry to that point crosses only
   earlier instructions (the kernels branch forward), so the read is
   undefined wherever the point is reachable. *)
let inject_undefined_read seed (k : kernel) =
  let st = Random.State.make [| seed; 7 |] in
  let body = Array.of_list k.body in
  let rg = D.regs body in
  let seen = Array.make (D.nregs rg) false in
  let firsts = ref [] in
  Array.iteri
    (fun at i ->
      match D.def_of i with
      | Some d when not seen.(D.index rg d) ->
          seen.(D.index rg d) <- true;
          firsts := (at, d) :: !firsts
      | _ -> ())
    body;
  let at, d = List.nth !firsts (Random.State.int st (List.length !firsts)) in
  let read = Mov { dst = { d with id = D.extent rg d.rtype }; src = Reg d } in
  { k with body = List.concat (List.mapi (fun i x -> if i = at then [ read; x ] else [ x ]) k.body) }

let qcheck_undefined_uses_matches_oracle =
  QCheck.Test.make ~name:"random kernels: undefined uses = set-based oracle" ~count:500
    QCheck.(make ~print:(fun s -> Ptx.Print.kernel (random_kernel s)) Gen.(int_bound 1_000_000))
    (fun seed ->
      let k = random_kernel seed in
      List.for_all
        (fun k -> D.undefined_uses k = Ref_dataflow.undefined_uses k)
        [ k; inject_undefined_read seed k ])

(* The injection is only a test if it usually adds a violation (the
   random kernels may already read a register defined on one arm only,
   and code after an unconditional branch is unreachable). *)
let test_injected_reads_are_caught () =
  let caught = ref 0 in
  for seed = 0 to 199 do
    let k = random_kernel seed in
    let k' = inject_undefined_read seed k in
    if List.length (D.undefined_uses k') > List.length (D.undefined_uses k) then incr caught
  done;
  if !caught < 100 then Alcotest.failf "only %d of 200 injected reads caught" !caught

let qcheck_register_demand_matches_fold =
  QCheck.Test.make ~name:"random kernels: register demand = re-folded live sets" ~count:500
    QCheck.(make ~print:(fun s -> Ptx.Print.kernel (random_kernel s)) Gen.(int_bound 1_000_000))
    (fun seed ->
      let k = random_kernel seed in
      let k' = (P.run k).P.kernel in
      List.for_all
        (fun k ->
          let body = Array.of_list k.body in
          D.register_demand_body body = reference_register_demand body)
        [ k; k' ])

(* ------------------------------------------------------------------ *)
(* QCheck: optimized JIT = raw JIT = CPU, bit-exact *)

let eng_opt = Engine.create ()
let eng_raw = Engine.create ~optimize:false ()

let rec gen_matrix_expr rng depth =
  if depth = 0 then
    match Prng.int_below rng 3 with
    | 0 -> Expr.field u
    | 1 -> Expr.field u2
    | _ -> Expr.adj (Expr.field u)
  else
    match Prng.int_below rng 7 with
    | 0 -> Expr.add (gen_matrix_expr rng (depth - 1)) (gen_matrix_expr rng (depth - 1))
    | 1 -> Expr.sub (gen_matrix_expr rng (depth - 1)) (gen_matrix_expr rng (depth - 1))
    | 2 -> Expr.mul (gen_matrix_expr rng (depth - 1)) (gen_matrix_expr rng (depth - 1))
    | 3 -> Expr.adj (gen_matrix_expr rng (depth - 1))
    | 4 ->
        Expr.shift (gen_matrix_expr rng (depth - 1)) ~dim:(Prng.int_below rng 4)
          ~dir:(if Prng.int_below rng 2 = 0 then 1 else -1)
    | 5 -> Expr.times_i (gen_matrix_expr rng (depth - 1))
    | _ ->
        Expr.mul
          (Expr.const_real (Prng.uniform rng ~lo:(-2.0) ~hi:2.0))
          (gen_matrix_expr rng (depth - 1))

let gen_expr rng =
  let m = gen_matrix_expr rng 3 in
  match Prng.int_below rng 4 with
  | 0 -> m
  | 1 -> Expr.mul m (Expr.field psi)
  | 2 -> Expr.real (Expr.trace_color m)
  | _ -> Expr.norm2_local (Expr.mul m (Expr.field psi))

let qcheck_pipeline_bit_exact =
  QCheck.Test.make ~name:"random expressions: optimized = raw = CPU (bit exact)" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed:(Int64.of_int seed) in
      let expr = gen_expr rng in
      let shape = Expr.shape expr in
      let cpu = Field.create shape geom in
      let opt = Field.create shape geom in
      let raw = Field.create shape geom in
      Qdp.Eval_cpu.eval cpu expr;
      Engine.eval eng_opt opt expr;
      Engine.eval eng_raw raw expr;
      Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field cpu) (Expr.field opt)) = 0.0
      && Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field raw) (Expr.field opt)) = 0.0)

let () =
  Alcotest.run "passes"
    [
      ( "const-fold",
        [
          Alcotest.test_case "fold + copy propagation" `Quick test_const_fold;
          Alcotest.test_case "strength reduction" `Quick test_strength_reduce;
          Alcotest.test_case "shl print/parse roundtrip" `Quick test_shl_print_parse_roundtrip;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "dense ids keep classes apart" `Quick
            test_dense_ids_keep_classes_apart;
          Alcotest.test_case "index rejects foreign registers" `Quick
            test_index_rejects_foreign_registers;
          QCheck_alcotest.to_alcotest qcheck_undefined_uses_matches_oracle;
          Alcotest.test_case "injected reads are caught" `Quick test_injected_reads_are_caught;
          Alcotest.test_case "print declares max ids" `Quick test_print_declares_max_ids;
        ] );
      ( "cse",
        [
          Alcotest.test_case "dedupes repeated loads" `Quick test_cse_dedupes_loads;
          Alcotest.test_case "store invalidates loads" `Quick test_cse_store_invalidates_loads;
          Alcotest.test_case "multi-def blocks dedup" `Quick test_cse_requires_single_def;
          Alcotest.test_case "float arith left alone" `Quick test_cse_leaves_float_arith_alone;
        ] );
      ( "fma",
        [
          Alcotest.test_case "mul+add contracts" `Quick test_fma_contract;
          Alcotest.test_case "reused mul stays" `Quick test_fma_not_contracted_when_reused;
        ] );
      ("dce", [ Alcotest.test_case "dead chains removed" `Quick test_dce ]);
      ( "sink",
        [
          Alcotest.test_case "load sinks to first use" `Quick test_sink_moves_load_to_first_use;
          Alcotest.test_case "load never crosses store" `Quick test_sink_load_never_crosses_store;
          Alcotest.test_case "pressure-aware" `Quick test_sink_is_pressure_aware;
          Alcotest.test_case "moved use becomes the last use" `Quick
            test_sink_moved_use_becomes_last;
          Alcotest.test_case "chain outlasts the label gap" `Quick
            test_sink_chain_outlasts_label_gap;
          Alcotest.test_case "random kernels move" `Quick test_random_kernels_sink;
          QCheck_alcotest.to_alcotest qcheck_sink_matches_reference;
          Alcotest.test_case "workload kernels = reference" `Quick
            test_sink_matches_reference_on_workloads;
          Alcotest.test_case "near-linear in body length" `Quick test_sink_scales_linearly;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "one round = four rounds (counts, demand)" `Quick
            test_one_round_matches_reference_run;
          Alcotest.test_case "each pass runs once per lower" `Quick test_each_pass_runs_once;
          Alcotest.test_case "lower allocates linearly" `Quick test_lower_allocates_linearly;
          Alcotest.test_case "jit compile allocates linearly" `Quick
            test_jit_compile_allocates_linearly;
          Alcotest.test_case "print and parse allocate their output" `Quick
            test_text_round_trip_allocates_its_output;
        ] );
      ( "text",
        [
          QCheck_alcotest.to_alcotest qcheck_print_parse_roundtrip;
          Alcotest.test_case "workload kernels round-trip" `Quick test_workload_kernels_roundtrip;
        ] );
      ( "reg-demand",
        [ QCheck_alcotest.to_alcotest qcheck_register_demand_matches_fold ] );
      ( "validate",
        [
          Alcotest.test_case "branch-path undef caught" `Quick
            test_validate_dataflow_catches_branch_undef;
          Alcotest.test_case "dominating def accepted" `Quick
            test_validate_dataflow_accepts_dominating_def;
          Alcotest.test_case "Vm.compile rejects undef and backward branch" `Quick
            test_vm_compile_checks;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "table II kernels improve" `Quick
            test_pipeline_improves_table2_kernels;
          Alcotest.test_case "optimize:false escape hatch" `Quick
            test_optimize_false_escape_hatch;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_pipeline_bit_exact ]);
    ]
