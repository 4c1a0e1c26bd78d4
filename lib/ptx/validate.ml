(** Static checks a real assembler would perform: every register is written
    before it is read (the generators emit forward-branching straight-line
    code, so textual order is execution order), branch targets exist, and
    operand/instruction types agree. *)

open Types

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let check_operand_type dtype = function
  | Reg r ->
      if r.rtype <> dtype then
        fail "operand register %s used at type %s" (reg_name r) (dtype_suffix dtype)
  | Imm_float _ ->
      if not (is_float dtype) then fail "float immediate used at type %s" (dtype_suffix dtype)
  | Imm_int _ ->
      if not (is_int dtype) then fail "integer immediate used at type %s" (dtype_suffix dtype)

let kernel (k : kernel) =
  let labels = Hashtbl.create 8 in
  List.iter (function Label l -> Hashtbl.replace labels l () | _ -> ()) k.body;
  let params = Array.of_list k.params in
  let rg = Dataflow.regs (Array.of_list k.body) in
  let defined = Array.make (Dataflow.nregs rg) false in
  let index r =
    if r.id < 0 then fail "register %s has a negative id" (reg_name r);
    Dataflow.index rg r
  in
  let def r = defined.(index r) <- true in
  let use r = if not defined.(index r) then fail "register %s read before written" (reg_name r) in
  let use_op = function Reg r -> use r | Imm_float _ | Imm_int _ -> () in
  let check_arith dtype dst ops =
    if dtype = Pred then fail "arithmetic on predicate registers";
    if dst.rtype <> dtype then
      fail "destination %s does not match instruction type %s" (reg_name dst)
        (dtype_suffix dtype);
    List.iter (fun o -> check_operand_type dtype o) ops;
    List.iter use_op ops;
    def dst
  in
  List.iter
    (fun i ->
      match i with
      | Ld_param { dst; param_index } ->
          if param_index < 0 || param_index >= Array.length params then
            fail "parameter index %d out of range" param_index;
          let p = params.(param_index) in
          if p.ptype <> dst.rtype then
            fail "ld.param type mismatch for %s: %s vs %s" p.pname (dtype_suffix p.ptype)
              (dtype_suffix dst.rtype);
          def dst
      | Ld_global { dtype; dst; addr; offset } ->
          if addr.rtype <> U64 then fail "ld.global address %s is not u64" (reg_name addr);
          if dst.rtype <> dtype then fail "ld.global destination type mismatch";
          if offset < 0 then fail "negative ld.global offset";
          use addr;
          def dst
      | Ld_global_f16 { dst; addr; offset } ->
          if addr.rtype <> U64 then fail "ld.global.f16 address %s is not u64" (reg_name addr);
          if dst.rtype <> F32 then
            fail "ld.global.f16 destination %s is not f32" (reg_name dst);
          if offset < 0 then fail "negative ld.global.f16 offset";
          use addr;
          def dst
      | St_global_f16 { addr; offset; src } ->
          if addr.rtype <> U64 then fail "st.global.f16 address %s is not u64" (reg_name addr);
          (* The source may be f32 or f64: the store itself narrows with a
             single rounding, like cvt.rn.f16.f32/f64. *)
          (match src with
          | Reg r when r.rtype <> F32 && r.rtype <> F64 ->
              fail "st.global.f16 source %s is not a float register" (reg_name r)
          | Reg _ | Imm_float _ | Imm_int _ -> ());
          if offset < 0 then fail "negative st.global.f16 offset";
          use addr;
          use_op src
      | St_global { dtype; addr; offset; src } ->
          if addr.rtype <> U64 then fail "st.global address %s is not u64" (reg_name addr);
          check_operand_type dtype src;
          if offset < 0 then fail "negative st.global offset";
          use addr;
          use_op src
      | Mov { dst; src } ->
          (match src with
          | Reg r when r.rtype <> dst.rtype -> fail "mov class mismatch %s" (reg_name dst)
          | _ -> check_operand_type dst.rtype src);
          use_op src;
          def dst
      | Mov_sreg { dst; _ } ->
          if dst.rtype <> U32 && dst.rtype <> S32 then
            fail "special register moved into non-32-bit register %s" (reg_name dst);
          def dst
      | Add { dtype; dst; a; b } | Sub { dtype; dst; a; b } | Mul { dtype; dst; a; b }
      | Div { dtype; dst; a; b } ->
          check_arith dtype dst [ a; b ]
      | Fma { dtype; dst; a; b; c } -> check_arith dtype dst [ a; b; c ]
      | Shl { dtype; dst; a; amount } ->
          if not (is_int dtype) then fail "shl on non-integer type %s" (dtype_suffix dtype);
          if amount < 0 || amount > 62 then fail "shl amount %d out of range" amount;
          check_arith dtype dst [ a ]
      | Neg { dtype; dst; a } -> check_arith dtype dst [ a ]
      | Cvt { dst; src } ->
          if dst.rtype = src.rtype then fail "cvt between identical types";
          if dst.rtype = Pred || src.rtype = Pred then fail "cvt involving predicates";
          use src;
          def dst
      | Setp { dtype; dst; a; b; _ } ->
          if dst.rtype <> Pred then fail "setp destination %s is not a predicate" (reg_name dst);
          check_operand_type dtype a;
          check_operand_type dtype b;
          use_op a;
          use_op b;
          def dst
      | Bra { label; pred } ->
          if not (Hashtbl.mem labels label) then fail "undefined label %S" label;
          Option.iter
            (fun p ->
              if p.rtype <> Pred then fail "branch predicate %s is not a predicate" (reg_name p);
              use p)
            pred
      | Call { ret; arg; _ } ->
          if not (is_float ret.rtype && is_float arg.rtype) then
            fail "math subroutine call with non-float registers";
          use arg;
          def ret
      | Label _ | Ret -> ())
    k.body

(* The textual-order rule above is exact for the straight-line code the
   generators emit, but optimization passes are allowed to move code, and
   hand-written kernels may branch: check definite assignment on the real
   control-flow graph instead. *)
let dataflow (k : kernel) =
  match Dataflow.undefined_uses k with
  | [] -> ()
  | (i, r) :: _ ->
      fail "register %s may be read before written (instruction %d of %s)" (reg_name r) i k.kname
