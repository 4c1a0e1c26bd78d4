open Ptx.Types

(* A hand-written kernel exercising every instruction form:
   daxpy-with-guard  y[i] = a * x[i] + y[i]. *)
let daxpy_kernel =
  let reg t id = { rtype = t; id } in
  {
    kname = "daxpy";
    params =
      [
        { pname = "x"; ptype = U64 };
        { pname = "y"; ptype = U64 };
        { pname = "a"; ptype = F64 };
        { pname = "n"; ptype = S32 };
      ];
    body =
      [
        Ld_param { dst = reg U64 0; param_index = 0 };
        Ld_param { dst = reg U64 1; param_index = 1 };
        Ld_param { dst = reg F64 0; param_index = 2 };
        Ld_param { dst = reg S32 0; param_index = 3 };
        Mov_sreg { dst = reg S32 1; src = Tid_x };
        Mov_sreg { dst = reg S32 2; src = Ntid_x };
        Mov_sreg { dst = reg S32 3; src = Ctaid_x };
        Fma { dtype = S32; dst = reg S32 4; a = Reg (reg S32 3); b = Reg (reg S32 2); c = Reg (reg S32 1) };
        Setp { cmp = Ge; dtype = S32; dst = reg Pred 0; a = Reg (reg S32 4); b = Reg (reg S32 0) };
        Bra { label = "EXIT"; pred = Some (reg Pred 0) };
        Mul { dtype = S32; dst = reg S32 5; a = Reg (reg S32 4); b = Imm_int 8 };
        Cvt { dst = reg S64 0; src = reg S32 5 };
        Cvt { dst = reg U64 2; src = reg S64 0 };
        Add { dtype = U64; dst = reg U64 3; a = Reg (reg U64 0); b = Reg (reg U64 2) };
        Add { dtype = U64; dst = reg U64 4; a = Reg (reg U64 1); b = Reg (reg U64 2) };
        Ld_global { dtype = F64; dst = reg F64 1; addr = reg U64 3; offset = 0 };
        Ld_global { dtype = F64; dst = reg F64 2; addr = reg U64 4; offset = 0 };
        Fma { dtype = F64; dst = reg F64 3; a = Reg (reg F64 0); b = Reg (reg F64 1); c = Reg (reg F64 2) };
        St_global { dtype = F64; addr = reg U64 4; offset = 0; src = Reg (reg F64 3) };
        Label "EXIT";
        Ret;
      ];
  }

let test_print_parse_roundtrip () =
  let text = Ptx.Print.kernel daxpy_kernel in
  let parsed = Ptx.Parse.kernel text in
  Alcotest.(check string) "name" daxpy_kernel.kname parsed.kname;
  Alcotest.(check int) "params" (List.length daxpy_kernel.params) (List.length parsed.params);
  Alcotest.(check bool) "body identical" true (parsed.body = daxpy_kernel.body)

let test_roundtrip_idempotent () =
  let text = Ptx.Print.kernel daxpy_kernel in
  let text2 = Ptx.Print.kernel (Ptx.Parse.kernel text) in
  Alcotest.(check string) "print.parse.print fixed point" text text2

let test_float_immediates_bit_exact () =
  let vals = [ 1.0; -0.5; 3.141592653589793; 1e-300; -0.0; 0.1 ] in
  List.iter
    (fun v ->
      let k =
        {
          kname = "imm";
          params = [ { pname = "p"; ptype = U64 } ];
          body =
            [
              Ld_param { dst = { rtype = U64; id = 0 }; param_index = 0 };
              Mov { dst = { rtype = F64; id = 0 }; src = Imm_float v };
              St_global
                { dtype = F64; addr = { rtype = U64; id = 0 }; offset = 0; src = Reg { rtype = F64; id = 0 } };
              Ret;
            ];
        }
      in
      let parsed = Ptx.Parse.kernel (Ptx.Print.kernel k) in
      match parsed.body with
      | _ :: Mov { src = Imm_float v'; _ } :: _ ->
          Alcotest.(check bool) "bit exact" true (Int64.bits_of_float v = Int64.bits_of_float v')
      | _ -> Alcotest.fail "unexpected body shape")
    vals

let test_header_format () =
  let text = Ptx.Print.kernel daxpy_kernel in
  List.iter
    (fun needle ->
      if not (String.length text > 0) then Alcotest.fail "empty";
      let found =
        let nl = String.length needle in
        let rec go i = i + nl <= String.length text && (String.sub text i nl = needle || go (i + 1)) in
        go 0
      in
      if not found then Alcotest.failf "missing %S in PTX text" needle)
    [ ".version 3.1"; ".target sm_35"; ".address_size 64"; ".visible .entry daxpy"; ".reg .f64"; "fma.rn.f64" ]

let test_validate_accepts () = Ptx.Validate.kernel daxpy_kernel

let test_validate_use_before_def () =
  let k =
    {
      kname = "bad";
      params = [];
      body =
        [
          Add
            {
              dtype = F64;
              dst = { rtype = F64; id = 0 };
              a = Reg { rtype = F64; id = 1 };
              b = Imm_float 1.0;
            };
          Ret;
        ];
    }
  in
  match Ptx.Validate.kernel k with
  | exception Ptx.Validate.Invalid _ -> ()
  | () -> Alcotest.fail "use before def accepted"

let test_validate_missing_label () =
  let k = { kname = "bad"; params = []; body = [ Bra { label = "NOWHERE"; pred = None }; Ret ] } in
  match Ptx.Validate.kernel k with
  | exception Ptx.Validate.Invalid _ -> ()
  | () -> Alcotest.fail "missing label accepted"

let test_validate_type_mismatch () =
  let k =
    {
      kname = "bad";
      params = [];
      body =
        [
          Mov { dst = { rtype = F32; id = 0 }; src = Imm_float 1.0 };
          Add
            {
              dtype = F64;
              dst = { rtype = F64; id = 0 };
              a = Reg { rtype = F32; id = 0 };
              b = Imm_float 1.0;
            };
          Ret;
        ];
    }
  in
  match Ptx.Validate.kernel k with
  | exception Ptx.Validate.Invalid _ -> ()
  | () -> Alcotest.fail "class mismatch accepted"

let test_validate_int_float_immediate () =
  let k =
    {
      kname = "bad";
      params = [];
      body =
        [
          Mov { dst = { rtype = S32; id = 0 }; src = Imm_float 1.5 };
          Ret;
        ];
    }
  in
  match Ptx.Validate.kernel k with
  | exception Ptx.Validate.Invalid _ -> ()
  | () -> Alcotest.fail "float immediate in integer mov accepted"

let test_analysis_counts () =
  let a = Ptx.Analysis.kernel daxpy_kernel in
  Alcotest.(check int) "loads" 16 a.Ptx.Analysis.load_bytes;
  Alcotest.(check int) "stores" 8 a.Ptx.Analysis.store_bytes;
  (* one f64 fma = 2 flops; integer fma/mul are int ops *)
  Alcotest.(check int) "flops" 2 a.Ptx.Analysis.flops;
  Alcotest.(check bool) "int ops counted" true (a.Ptx.Analysis.int_ops >= 3);
  Alcotest.(check (float 1e-9)) "flop/byte" (2.0 /. 24.0) (Ptx.Analysis.flop_per_byte a)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_parse_errors () =
  (match Ptx.Parse.kernel "garbage" with
  | exception Ptx.Parse.Error _ -> ()
  | _ -> Alcotest.fail "garbage accepted");
  let bad_op =
    ".version 3.1\n.target sm_35\n.address_size 64\n.visible .entry k()\n{\n\tfrobnicate.f64 %fd1, %fd2;\n}\n"
  in
  (match Ptx.Parse.kernel bad_op with
  | exception Ptx.Parse.Error _ -> ()
  | _ -> Alcotest.fail "unknown opcode accepted");
  (* One malformed statement as the first body line (line 8): the error
     names that line and what is wrong with it. *)
  let rejects stmt what =
    let text =
      ".version 3.1\n.target sm_35\n.address_size 64\n.visible .entry k(\n\t.param .u64 p\n)\n{\n"
      ^ stmt ^ "\n\tret;\n}\n"
    in
    match Ptx.Parse.kernel text with
    | exception Ptx.Parse.Error msg ->
        let prefix = "line 8: " in
        if not (String.starts_with ~prefix msg && contains msg what) then
          Alcotest.failf "%S: error %S, expected %S naming %S" stmt msg prefix what
    | _ -> Alcotest.failf "%S accepted" stmt
  in
  rejects "\tadd.f64 \t%fd1, %qd2, %fd3;" "bad register";
  rejects "\tadd.f64 \t%fd1, %fd, %fd3;" "bad register";
  rejects "\tadd.f65 \t%fd1, %fd2, %fd3;" "unknown type suffix";
  rejects "\tadd.f64 \t%fd1 %fd2, %fd3;" "expected ','";
  rejects "\tadd.f64 \t%fd1, %fd2, %fd3; %fd4" "trailing text";
  rejects "\tld.param.u64 \t%rd1, [q];" "unknown parameter";
  rejects "\tmov.f32 \t%f1, 0f3F80;" "bad float immediate";
  rejects "\tmov.f64 \t%fd1, 0d3FF00000;" "bad float immediate";
  rejects "\tfrobnicate.f64 \t%fd1, %fd2;" "unknown opcode"

(* Generated-kernel roundtrips: every codegen output must parse back to an
   identical kernel (this is the boundary the simulated driver consumes). *)
let test_generated_roundtrip () =
  let module Shape = Layout.Shape in
  let geom = Layout.Geometry.create [| 2; 2; 2; 2 |] in
  let u = Qdp.Field.create (Shape.lattice_color_matrix Shape.F64) geom in
  let psi = Qdp.Field.create (Shape.lattice_fermion Shape.F64) geom in
  let exprs =
    [
      Qdp.Expr.mul (Qdp.Expr.field u) (Qdp.Expr.field psi);
      Lqcd.Wilson.hopping_expr [| u; u; u; u |] psi;
      Qdp.Expr.norm2_local (Qdp.Expr.field psi);
    ]
  in
  List.iter
    (fun expr ->
      let b =
        Qdpjit.Codegen.build ~kname:"rt" ~dest_shape:(Qdp.Expr.shape expr) ~expr
          ~nsites:(Layout.Geometry.volume geom) ~use_sitelist:true ()
      in
      let parsed = Ptx.Parse.kernel (Ptx.Print.kernel b.Qdpjit.Codegen.kernel) in
      Alcotest.(check bool) "roundtrip equal" true (parsed = b.Qdpjit.Codegen.kernel))
    exprs

let () =
  Alcotest.run "ptx"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "print/parse" `Quick test_print_parse_roundtrip;
          Alcotest.test_case "idempotent" `Quick test_roundtrip_idempotent;
          Alcotest.test_case "float immediates" `Quick test_float_immediates_bit_exact;
          Alcotest.test_case "header format" `Quick test_header_format;
        ] );
      ( "validate",
        [
          Alcotest.test_case "accepts daxpy" `Quick test_validate_accepts;
          Alcotest.test_case "use before def" `Quick test_validate_use_before_def;
          Alcotest.test_case "missing label" `Quick test_validate_missing_label;
          Alcotest.test_case "type mismatch" `Quick test_validate_type_mismatch;
          Alcotest.test_case "immediate class" `Quick test_validate_int_float_immediate;
        ] );
      ( "analysis",
        [ Alcotest.test_case "daxpy counts" `Quick test_analysis_counts ] );
      ("parse", [ Alcotest.test_case "errors" `Quick test_parse_errors ]);
      ( "generated",
        [ Alcotest.test_case "codegen roundtrip" `Quick test_generated_roundtrip ] );
    ]
