(** PTX text emission.  The output follows NVCC's dialect closely enough
    that reading it next to the ISA manual is unremarkable; floating-point
    immediates use the exact hexadecimal forms ([0f...]/[0d...]) so the
    parse/print round trip is bit-exact.

    The whole kernel is written into one buffer sized up front from the
    body length, with decimal and hexadecimal digits emitted by hand: no
    format string is interpreted and no intermediate string is built per
    instruction. *)

open Types

(* Decimal digits of [n]; negative values are walked as negatives so
   [min_int] needs no special case. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 55 + d)

(* The low [4 * n] bits of [v] as [n] upper-case hex digits, zero-padded. *)
let add_hex buf v n =
  for i = n - 1 downto 0 do
    Buffer.add_char buf (hex_digit ((v lsr (4 * i)) land 15))
  done

let add_reg buf r =
  Buffer.add_string buf (reg_prefix r.rtype);
  add_int buf r.id

let add_imm_float buf dtype v =
  match dtype with
  | F32 ->
      Buffer.add_string buf "0f";
      add_hex buf (Int32.to_int (Int32.bits_of_float v)) 8
  | F64 ->
      let bits = Int64.bits_of_float v in
      Buffer.add_string buf "0d";
      add_hex buf (Int64.to_int (Int64.shift_right_logical bits 32)) 8;
      add_hex buf (Int64.to_int bits) 8
  | _ -> invalid_arg "Ptx.Print: float immediate with integer type"

let add_operand buf dtype = function
  | Reg r -> add_reg buf r
  | Imm_float v -> add_imm_float buf dtype v
  | Imm_int i -> add_int buf i

(* cvt rounding modifiers: float results from narrowing or from integers
   need .rn; integer results from floats truncate with .rzi. *)
let cvt_modifier ~dst ~src =
  match (dst, src) with
  | F32, F64 -> ".rn"
  | (F32 | F64), (S32 | U32 | S64 | U64) -> ".rn"
  | (S32 | U32 | S64 | U64), (F32 | F64) -> ".rzi"
  | _ -> ""

(* "\t<op>.<suffix> \t" *)
let add_opcode buf op suffix =
  Buffer.add_char buf '\t';
  Buffer.add_string buf op;
  Buffer.add_char buf '.';
  Buffer.add_string buf suffix;
  Buffer.add_string buf " \t"

(* "[%rd<n>+<offset>]" *)
let add_address buf addr offset =
  Buffer.add_char buf '[';
  add_reg buf addr;
  Buffer.add_char buf '+';
  add_int buf offset;
  Buffer.add_char buf ']'

(* "<dst>, <a>" *)
let add_operands2 buf dtype dst a =
  add_reg buf dst;
  Buffer.add_string buf ", ";
  add_operand buf dtype a

(* "<dst>, <a>, <b>" *)
let add_operands3 buf dtype dst a b =
  add_operands2 buf dtype dst a;
  Buffer.add_string buf ", ";
  add_operand buf dtype b

let add_load buf suffix dst addr offset =
  add_opcode buf "ld.global" suffix;
  add_reg buf dst;
  Buffer.add_string buf ", ";
  add_address buf addr offset

let add_store buf suffix addr offset dtype src =
  add_opcode buf "st.global" suffix;
  add_address buf addr offset;
  Buffer.add_string buf ", ";
  add_operand buf dtype src

let instr ~params buf i =
  let s = Buffer.add_string buf in
  (match i with
  | Ld_param { dst; param_index } ->
      if param_index < 0 || param_index >= Array.length params then
        invalid_arg "Ptx.Print: parameter index out of range";
      add_opcode buf "ld.param" (dtype_suffix dst.rtype);
      add_reg buf dst;
      s ", [";
      s params.(param_index).pname;
      s "]"
  | Ld_global { dtype; dst; addr; offset } -> add_load buf (dtype_suffix dtype) dst addr offset
  | St_global { dtype; addr; offset; src } ->
      add_store buf (dtype_suffix dtype) addr offset dtype src
  (* The f16 flavours carry the widening/narrowing convert: the data
     register is F32, the memory word is a 16-bit binary16 payload.  A
     stored immediate prints in the 0d double form: the store's own
     rounding is the only one allowed, so the text round trip must not
     narrow the value to f32 first. *)
  | Ld_global_f16 { dst; addr; offset } -> add_load buf "f16" dst addr offset
  | St_global_f16 { addr; offset; src } -> add_store buf "f16" addr offset F64 src
  | Mov { dst; src } ->
      add_opcode buf "mov" (dtype_suffix dst.rtype);
      add_operands2 buf dst.rtype dst src
  | Mov_sreg { dst; src } ->
      s "\tmov.u32 \t";
      add_reg buf dst;
      s ", ";
      s (sreg_name src)
  | Add { dtype; dst; a; b } ->
      add_opcode buf "add" (dtype_suffix dtype);
      add_operands3 buf dtype dst a b
  | Sub { dtype; dst; a; b } ->
      add_opcode buf "sub" (dtype_suffix dtype);
      add_operands3 buf dtype dst a b
  | Mul { dtype; dst; a; b } ->
      add_opcode buf (if is_float dtype then "mul" else "mul.lo") (dtype_suffix dtype);
      add_operands3 buf dtype dst a b
  | Div { dtype; dst; a; b } ->
      add_opcode buf (if is_float dtype then "div.rn" else "div") (dtype_suffix dtype);
      add_operands3 buf dtype dst a b
  | Fma { dtype; dst; a; b; c } ->
      add_opcode buf (if is_float dtype then "fma.rn" else "mad.lo") (dtype_suffix dtype);
      add_operands3 buf dtype dst a b;
      s ", ";
      add_operand buf dtype c
  | Shl { dtype; dst; a; amount } ->
      add_opcode buf "shl" (dtype_suffix dtype);
      add_operands2 buf dtype dst a;
      s ", ";
      add_int buf amount
  | Neg { dtype; dst; a } ->
      add_opcode buf "neg" (dtype_suffix dtype);
      add_operands2 buf dtype dst a
  | Cvt { dst; src } ->
      s "\tcvt";
      s (cvt_modifier ~dst:dst.rtype ~src:src.rtype);
      s ".";
      s (dtype_suffix dst.rtype);
      s ".";
      s (dtype_suffix src.rtype);
      s " \t";
      add_reg buf dst;
      s ", ";
      add_reg buf src
  | Setp { cmp; dtype; dst; a; b } ->
      s "\tsetp.";
      s (cmp_name cmp);
      s ".";
      s (dtype_suffix dtype);
      s " \t";
      add_operands3 buf dtype dst a b
  | Bra { label; pred = None } ->
      s "\tbra.uni \t";
      s label
  | Bra { label; pred = Some pr } ->
      s "\t@";
      add_reg buf pr;
      s " bra \t";
      s label
  | Label l -> s l
  | Call { func; ret; arg } ->
      s "\tcall.uni \t(";
      add_reg buf ret;
      s "), ";
      s func;
      s ", (";
      add_reg buf arg;
      s ")"
  | Ret -> s "\tret");
  s (match i with Label _ -> ":\n" | _ -> ";\n")

let reg_declarations buf body =
  let rg = Dataflow.regs (Array.of_list body) in
  List.iter
    (fun dt ->
      let n = Dataflow.extent rg dt in
      if n > 0 then begin
        Buffer.add_string buf "\t.reg .";
        Buffer.add_string buf (dtype_suffix dt);
        Buffer.add_string buf " \t";
        Buffer.add_string buf (reg_prefix dt);
        Buffer.add_char buf '<';
        add_int buf n;
        Buffer.add_string buf ">;\n"
      end)
    [ Pred; S32; U32; S64; U64; F32; F64 ]

(* Bytes per printed instruction, generous for the common forms (the
   workload kernels average about 42), so the buffer rarely grows. *)
let bytes_per_instr = 48

let kernel k =
  let params = Array.of_list k.params in
  let size =
    Array.fold_left
      (fun acc p -> acc + String.length p.pname + 16)
      (256 + String.length k.kname)
      params
    + (bytes_per_instr * List.length k.body)
  in
  let buf = Buffer.create size in
  let s = Buffer.add_string buf in
  s "//\n// Generated by QDP-JIT/PTX (OCaml reproduction)\n//\n";
  s ".version 3.1\n.target sm_35\n.address_size 64\n\n";
  s ".visible .entry ";
  s k.kname;
  s "(\n";
  let nparams = Array.length params in
  Array.iteri
    (fun i prm ->
      s "\t.param .";
      s (dtype_suffix prm.ptype);
      s " ";
      s prm.pname;
      s (if i = nparams - 1 then "\n" else ",\n"))
    params;
  s ")\n{\n";
  reg_declarations buf k.body;
  s "\n";
  List.iter (instr ~params buf) k.body;
  s "}\n";
  Buffer.contents buf
