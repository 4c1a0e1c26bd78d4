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
        let n = String.length m and l = String.length says in
        let rec has i = i + l <= n && (String.sub m i l = says || has (i + 1)) in
        if not (has 0) then Alcotest.failf "%s: fault %S does not say %S" what m says
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
      let strict = List.mem name [ "spmat"; "matvec"; "clover" ] in
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

let test_engine_records_jit_stats () =
  let eng = Engine.create () in
  let dest = Field.create fm geom in
  Engine.eval eng dest (Expr.mul (Expr.field u) (Expr.field psi));
  Engine.eval eng dest (Expr.mul (Expr.field u2) (Expr.field psi));
  (* Second eval hits the kernel cache: still exactly one scorecard. *)
  match Engine.jit_stats eng with
  | [ s ] ->
      Alcotest.(check bool) "optimization shrank the kernel" true
        (s.Engine.opt_instructions < s.Engine.raw_instructions);
      Alcotest.(check bool) "passes recorded" true (s.Engine.passes <> [])
  | l -> Alcotest.failf "expected one scorecard, got %d" (List.length l)

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
        ] );
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
          Alcotest.test_case "engine jit stats" `Quick test_engine_records_jit_stats;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_pipeline_bit_exact ]);
    ]
