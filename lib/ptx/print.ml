(** PTX text emission.  The output follows NVCC's dialect closely enough
    that reading it next to the ISA manual is unremarkable; floating-point
    immediates use the exact hexadecimal forms ([0f...]/[0d...]) so the
    parse/print round trip is bit-exact. *)

open Types

let imm_float dtype v =
  match dtype with
  | F32 -> Printf.sprintf "0f%08lX" (Int32.bits_of_float v)
  | F64 -> Printf.sprintf "0d%016LX" (Int64.bits_of_float v)
  | _ -> invalid_arg "Ptx.Print: float immediate with integer type"

let operand dtype = function
  | Reg r -> reg_name r
  | Imm_float v -> imm_float dtype v
  | Imm_int i -> string_of_int i

(* cvt rounding modifiers: float results from narrowing or from integers
   need .rn; integer results from floats truncate with .rzi. *)
let cvt_modifier ~dst ~src =
  match (dst, src) with
  | F32, F64 -> ".rn"
  | (F32 | F64), (S32 | U32 | S64 | U64) -> ".rn"
  | (S32 | U32 | S64 | U64), (F32 | F64) -> ".rzi"
  | _ -> ""

let instr ~params buf i =
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string buf ("\t" ^ s ^ "\n")) fmt in
  match i with
  | Ld_param { dst; param_index } ->
      let pname =
        match List.nth_opt params param_index with
        | Some prm -> prm.pname
        | None -> invalid_arg "Ptx.Print: parameter index out of range"
      in
      p "ld.param.%s \t%s, [%s];" (dtype_suffix dst.rtype) (reg_name dst) pname
  | Ld_global { dtype; dst; addr; offset } ->
      p "ld.global.%s \t%s, [%s+%d];" (dtype_suffix dtype) (reg_name dst) (reg_name addr) offset
  | St_global { dtype; addr; offset; src } ->
      p "st.global.%s \t[%s+%d], %s;" (dtype_suffix dtype) (reg_name addr) offset
        (operand dtype src)
  (* The f16 flavours carry the widening/narrowing convert: the data
     register is F32, the memory word is a 16-bit binary16 payload. *)
  | Ld_global_f16 { dst; addr; offset } ->
      p "ld.global.f16 \t%s, [%s+%d];" (reg_name dst) (reg_name addr) offset
  | St_global_f16 { addr; offset; src } ->
      (* Immediates print in the 0d double form: the store's own rounding
         is the only one allowed, so the text round-trip must not narrow
         the value to f32 first. *)
      p "st.global.f16 \t[%s+%d], %s;" (reg_name addr) offset (operand F64 src)
  | Mov { dst; src } ->
      p "mov.%s \t%s, %s;" (dtype_suffix dst.rtype) (reg_name dst) (operand dst.rtype src)
  | Mov_sreg { dst; src } -> p "mov.u32 \t%s, %s;" (reg_name dst) (sreg_name src)
  | Add { dtype; dst; a; b } ->
      p "add.%s \t%s, %s, %s;" (dtype_suffix dtype) (reg_name dst) (operand dtype a)
        (operand dtype b)
  | Sub { dtype; dst; a; b } ->
      p "sub.%s \t%s, %s, %s;" (dtype_suffix dtype) (reg_name dst) (operand dtype a)
        (operand dtype b)
  | Mul { dtype; dst; a; b } ->
      let op = if is_float dtype then "mul" else "mul.lo" in
      p "%s.%s \t%s, %s, %s;" op (dtype_suffix dtype) (reg_name dst) (operand dtype a)
        (operand dtype b)
  | Div { dtype; dst; a; b } ->
      let op = if is_float dtype then "div.rn" else "div" in
      p "%s.%s \t%s, %s, %s;" op (dtype_suffix dtype) (reg_name dst) (operand dtype a)
        (operand dtype b)
  | Fma { dtype; dst; a; b; c } ->
      let op = if is_float dtype then "fma.rn" else "mad.lo" in
      p "%s.%s \t%s, %s, %s, %s;" op (dtype_suffix dtype) (reg_name dst) (operand dtype a)
        (operand dtype b) (operand dtype c)
  | Shl { dtype; dst; a; amount } ->
      p "shl.%s \t%s, %s, %d;" (dtype_suffix dtype) (reg_name dst) (operand dtype a) amount
  | Neg { dtype; dst; a } ->
      p "neg.%s \t%s, %s;" (dtype_suffix dtype) (reg_name dst) (operand dtype a)
  | Cvt { dst; src } ->
      p "cvt%s.%s.%s \t%s, %s;"
        (cvt_modifier ~dst:dst.rtype ~src:src.rtype)
        (dtype_suffix dst.rtype) (dtype_suffix src.rtype) (reg_name dst) (reg_name src)
  | Setp { cmp; dtype; dst; a; b } ->
      p "setp.%s.%s \t%s, %s, %s;" (cmp_name cmp) (dtype_suffix dtype) (reg_name dst)
        (operand dtype a) (operand dtype b)
  | Bra { label; pred = None } -> p "bra.uni \t%s;" label
  | Bra { label; pred = Some pr } -> p "@%s bra \t%s;" (reg_name pr) label
  | Label l -> Buffer.add_string buf (l ^ ":\n")
  | Call { func; ret; arg } ->
      p "call.uni \t(%s), %s, (%s);" (reg_name ret) func (reg_name arg)
  | Ret -> p "ret;"

let reg_declarations buf body =
  let rg = Dataflow.regs (Array.of_list body) in
  List.iter
    (fun dt ->
      let n = Dataflow.extent rg dt in
      if n > 0 then
        Buffer.add_string buf
          (Printf.sprintf "\t.reg .%s \t%s<%d>;\n" (dtype_suffix dt) (reg_prefix dt) n))
    [ Pred; S32; U32; S64; U64; F32; F64 ]

let kernel k =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "//\n// Generated by QDP-JIT/PTX (OCaml reproduction)\n//\n";
  Buffer.add_string buf ".version 3.1\n.target sm_35\n.address_size 64\n\n";
  Buffer.add_string buf (Printf.sprintf ".visible .entry %s(\n" k.kname);
  let nparams = List.length k.params in
  List.iteri
    (fun i prm ->
      Buffer.add_string buf
        (Printf.sprintf "\t.param .%s %s%s\n" (dtype_suffix prm.ptype) prm.pname
           (if i = nparams - 1 then "" else ",")))
    k.params;
  Buffer.add_string buf ")\n{\n";
  reg_declarations buf k.body;
  Buffer.add_string buf "\n";
  List.iter (fun i -> instr ~params:k.params buf i) k.body;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
