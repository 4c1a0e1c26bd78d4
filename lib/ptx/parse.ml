(** PTX text parser — the front half of the simulated driver JIT.

    Accepts the dialect produced by {!Print} (the code generators emit
    nothing else), with free-form whitespace.  Errors raise {!Error} with a
    line number, as a real assembler would.

    One cursor walks the text once.  Opcodes, type suffixes, registers and
    immediates are matched in place, so the only blocks an instruction
    allocates are the ones the parsed kernel keeps; labels and call
    targets are interned, so every use of a name shares one string. *)

open Types

exception Error of string

let fail line fmt = Printf.ksprintf (fun s -> raise (Error (Printf.sprintf "line %d: %s" line s))) fmt

(* The text, the read position, the line it is on, the last word
   scanned as [tok, tok + tlen), and the operands of the last [dst, a,
   b] triple ({!three}) and of the last address ({!address}): the
   scanners hand back results through the cursor rather than in
   tuples. *)
type cursor = {
  s : string;
  mutable pos : int;
  mutable line : int;
  mutable tok : int;
  mutable tlen : int;
  mutable dst : reg;
  mutable a : operand;
  mutable b : operand;
  mutable addr : reg;
  mutable off : int;
}

(* The end of the text reads as one more line end. *)
let peek c = if c.pos < String.length c.s then String.unsafe_get c.s c.pos else '\n'

let peek_at c k =
  let i = c.pos + k in
  if i < String.length c.s then String.unsafe_get c.s i else '\n'

let advance c = c.pos <- c.pos + 1
let is_blank = function ' ' | '\t' | '\r' | '\012' -> true | _ -> false

let is_word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let skip_blanks c =
  while is_blank (peek c) do
    advance c
  done

(* At the end of the line's content: a line end or a [//] comment. *)
let at_eol c =
  skip_blanks c;
  match peek c with '\n' -> true | '/' -> peek_at c 1 = '/' | _ -> false

(* Past the next line end. *)
let next_line c =
  let len = String.length c.s in
  while c.pos < len && String.unsafe_get c.s c.pos <> '\n' do
    advance c
  done;
  if c.pos < len then begin
    advance c;
    c.line <- c.line + 1
  end

let word c =
  c.tok <- c.pos;
  while is_word_char (peek c) do
    advance c
  done;
  c.tlen <- c.pos - c.tok

let rec tok_eq c lit i =
  i = c.tlen
  || (String.unsafe_get c.s (c.tok + i) = String.unsafe_get lit i && tok_eq c lit (i + 1))

let tok_is c lit = c.tlen = String.length lit && tok_eq c lit 0

(* Text from [start] to the next blank, separator or line end: error
   messages only. *)
let text_from c start =
  let len = String.length c.s in
  let stop = ref start in
  while
    !stop < len
    && match c.s.[!stop] with ' ' | '\t' | '\r' | '\n' | ',' | ';' | ']' | ')' -> false | _ -> true
  do
    incr stop
  done;
  String.sub c.s start (!stop - start)

let rest_of_line c =
  let len = String.length c.s in
  let stop = ref c.pos in
  while !stop < len && c.s.[!stop] <> '\n' do
    incr stop
  done;
  String.sub c.s c.pos (!stop - c.pos)

let tok_text c = String.sub c.s c.tok c.tlen

(* The next dot-separated part of an opcode; empty when none follows. *)
let part c =
  if peek c = '.' then begin
    advance c;
    word c
  end
  else c.tlen <- 0

let dtype_of_tok c =
  let s = c.s and i = c.tok in
  let d =
    if c.tlen = 3 then
      match (String.unsafe_get s i, String.unsafe_get s (i + 1), String.unsafe_get s (i + 2)) with
      | 'f', '3', '2' -> Some F32
      | 'f', '6', '4' -> Some F64
      | 's', '3', '2' -> Some S32
      | 'u', '3', '2' -> Some U32
      | 's', '6', '4' -> Some S64
      | 'u', '6', '4' -> Some U64
      | _ -> None
    else if tok_is c "pred" then Some Pred
    else None
  in
  match d with Some d -> d | None -> fail c.line "unknown type suffix %S" (tok_text c)

let suffix c =
  part c;
  dtype_of_tok c

let expect c ch what =
  skip_blanks c;
  if peek c <> ch then fail c.line "expected %s before %S" what (rest_of_line c);
  advance c

let comma c = expect c ',' "','"

let int_lit c =
  skip_blanks c;
  let start = c.pos in
  let neg = peek c = '-' in
  if neg then advance c;
  if not (is_digit (peek c)) then fail c.line "bad integer %S" (text_from c start);
  (* Accumulated as a negative number, so [min_int] round-trips. *)
  let n = ref 0 in
  while is_digit (peek c) do
    let d = Char.code (peek c) - 48 in
    if !n < (min_int + d) / 10 then fail c.line "integer out of range %S" (text_from c start);
    n := (!n * 10) - d;
    advance c
  done;
  if neg then !n
  else if !n = min_int then fail c.line "integer out of range %S" (text_from c start)
  else - !n

let bad_reg c start = fail c.line "bad register %S" (text_from c start)

let reg c =
  skip_blanks c;
  let start = c.pos in
  if peek c <> '%' then bad_reg c start;
  advance c;
  let rtype =
    match peek c with
    | 'f' ->
        advance c;
        if peek c = 'd' then (advance c; F64) else F32
    | 'r' -> (
        advance c;
        match peek c with
        | 'u' -> advance c; U32
        | 'd' -> advance c; U64
        | 's' -> advance c; S64
        | _ -> S32)
    | 'p' -> advance c; Pred
    | _ -> bad_reg c start
  in
  if not (is_digit (peek c)) then bad_reg c start;
  let id = int_lit c in
  if is_word_char (peek c) then bad_reg c start;
  { rtype; id }

let hex_value = function
  | '0' .. '9' as ch -> Char.code ch - 48
  | 'A' .. 'F' as ch -> Char.code ch - 55
  | 'a' .. 'f' as ch -> Char.code ch - 87
  | _ -> -1

let hex8 c start =
  let v = ref 0 in
  for _ = 1 to 8 do
    let d = hex_value (peek c) in
    if d < 0 then fail c.line "bad float immediate %S" (text_from c start);
    v := (!v lsl 4) lor d;
    advance c
  done;
  !v

(* [0f] + 8 or [0d] + 16 hex digits: the bits of an f32 or f64. *)
let float_imm c =
  let start = c.pos in
  let single = match peek_at c 1 with 'f' | 'F' -> true | _ -> false in
  c.pos <- c.pos + 2;
  let v =
    if single then Int32.float_of_bits (Int32.of_int (hex8 c start))
    else
      let hi = hex8 c start in
      let lo = hex8 c start in
      Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
  in
  if is_word_char (peek c) then fail c.line "bad float immediate %S" (text_from c start);
  v

let operand c =
  skip_blanks c;
  match peek c with
  | '%' -> Reg (reg c)
  | '0' when (match peek_at c 1 with 'f' | 'F' | 'd' | 'D' -> true | _ -> false) ->
      Imm_float (float_imm c)
  | '-' | '0' .. '9' -> Imm_int (int_lit c)
  | _ -> fail c.line "bad operand %S" (text_from c c.pos)

(* [%rd3+16] into the cursor's [addr] and [off]; the offset may be
   absent. *)
let address c =
  expect c '[' "'['";
  c.addr <- reg c;
  skip_blanks c;
  c.off <-
    (if peek c = '+' then begin
       advance c;
       int_lit c
     end
     else 0);
  expect c ']' "']'"

let sreg c =
  skip_blanks c;
  let start = c.pos in
  advance c;
  word c;
  let sr =
    if tok_is c "tid" then Some Tid_x
    else if tok_is c "ntid" then Some Ntid_x
    else if tok_is c "ctaid" then Some Ctaid_x
    else if tok_is c "nctaid" then Some Nctaid_x
    else None
  in
  part c;
  match sr with
  | Some sr when tok_is c "x" && not (is_word_char (peek c)) -> sr
  | _ -> fail c.line "bad special register %S" (text_from c start)

let is_sreg c =
  skip_blanks c;
  peek c = '%' && match peek_at c 1 with 't' | 'n' | 'c' -> true | _ -> false

(* Labels and call targets: one string per distinct name. *)
let name c names =
  skip_blanks c;
  word c;
  if c.tlen = 0 then fail c.line "expected a name before %S" (rest_of_line c);
  match List.find_opt (tok_is c) !names with
  | Some n -> n
  | None ->
      let n = tok_text c in
      names := n :: !names;
      n

(* The parameter named at the cursor, up to the closing bracket. *)
let param_index c params =
  skip_blanks c;
  let start = c.pos in
  while match peek c with ']' | ' ' | '\t' | '\r' | '\n' -> false | _ -> true do
    advance c
  done;
  c.tok <- start;
  c.tlen <- c.pos - start;
  let rec find i =
    if i = Array.length params then fail c.line "unknown parameter %S" (tok_text c)
    else if tok_is c params.(i).pname then i
    else find (i + 1)
  in
  find 0

let unknown_opcode c start = fail c.line "unknown opcode %S" (text_from c start)

(* The opcode must end at a blank, the statement end or the line end. *)
let end_opcode c start =
  match peek c with ' ' | '\t' | '\r' | '\012' | ';' | '\n' -> () | _ -> unknown_opcode c start

let setp_cmp c =
  part c;
  if tok_is c "eq" then Eq
  else if tok_is c "ne" then Ne
  else if tok_is c "lt" then Lt
  else if tok_is c "le" then Le
  else if tok_is c "gt" then Gt
  else if tok_is c "ge" then Ge
  else fail c.line "unknown comparison %S" (tok_text c)

(* [dst, a, b] of an arithmetic instruction, into the cursor. *)
let three c =
  c.dst <- reg c;
  comma c;
  c.a <- operand c;
  comma c;
  c.b <- operand c

(* One statement, from its optional [@%p] guard to its operands; the
   cursor is on its first character. *)
let instr c ~params ~names =
  let start = c.pos in
  let pred =
    if peek c = '@' then begin
      advance c;
      let p = reg c in
      skip_blanks c;
      Some p
    end
    else None
  in
  let op = c.pos in
  word c;
  if Option.is_some pred && not (tok_is c "bra") then
    fail c.line "only bra may be predicated: %S" (text_from c start);
  let i =
    if tok_is c "ld" then begin
      part c;
      if tok_is c "param" then begin
        ignore (suffix c : dtype);
        end_opcode c op;
        let dst = reg c in
        comma c;
        expect c '[' "'['";
        let param_index = param_index c params in
        expect c ']' "']'";
        Ld_param { dst; param_index }
      end
      else if tok_is c "global" then begin
        part c;
        (* The f16 flavour is not a [dtype] (compute registers are F32). *)
        let f16 = tok_is c "f16" in
        let dtype = if f16 then F32 else dtype_of_tok c in
        end_opcode c op;
        let dst = reg c in
        comma c;
        address c;
        let addr = c.addr and offset = c.off in
        if f16 then Ld_global_f16 { dst; addr; offset } else Ld_global { dtype; dst; addr; offset }
      end
      else unknown_opcode c op
    end
    else if tok_is c "st" then begin
      part c;
      if not (tok_is c "global") then unknown_opcode c op;
      part c;
      let f16 = tok_is c "f16" in
      let dtype = if f16 then F32 else dtype_of_tok c in
      end_opcode c op;
      address c;
      let addr = c.addr and offset = c.off in
      comma c;
      let src = operand c in
      if f16 then St_global_f16 { addr; offset; src } else St_global { dtype; addr; offset; src }
    end
    else if tok_is c "mov" then begin
      ignore (suffix c : dtype);
      end_opcode c op;
      let dst = reg c in
      comma c;
      if is_sreg c then Mov_sreg { dst; src = sreg c } else Mov { dst; src = operand c }
    end
    else if tok_is c "add" then (
      let dtype = suffix c in
      end_opcode c op;
      three c;
      Add { dtype; dst = c.dst; a = c.a; b = c.b })
    else if tok_is c "sub" then (
      let dtype = suffix c in
      end_opcode c op;
      three c;
      Sub { dtype; dst = c.dst; a = c.a; b = c.b })
    else if tok_is c "mul" then begin
      part c;
      let dtype = if tok_is c "lo" then suffix c else dtype_of_tok c in
      end_opcode c op;
      three c;
      Mul { dtype; dst = c.dst; a = c.a; b = c.b }
    end
    else if tok_is c "div" then begin
      part c;
      let dtype = if tok_is c "rn" then suffix c else dtype_of_tok c in
      end_opcode c op;
      three c;
      Div { dtype; dst = c.dst; a = c.a; b = c.b }
    end
    else if tok_is c "fma" || tok_is c "mad" then begin
      let fma = tok_is c "fma" in
      part c;
      if not (tok_is c (if fma then "rn" else "lo")) then unknown_opcode c op;
      let dtype = suffix c in
      end_opcode c op;
      three c;
      comma c;
      Fma { dtype; dst = c.dst; a = c.a; b = c.b; c = operand c }
    end
    else if tok_is c "shl" then begin
      let dtype = suffix c in
      end_opcode c op;
      let dst = reg c in
      comma c;
      let a = operand c in
      comma c;
      skip_blanks c;
      if not (is_digit (peek c) || peek c = '-') then
        fail c.line "shl amount must be an immediate, got %S" (text_from c c.pos);
      Shl { dtype; dst; a; amount = int_lit c }
    end
    else if tok_is c "neg" then begin
      let dtype = suffix c in
      end_opcode c op;
      let dst = reg c in
      comma c;
      Neg { dtype; dst; a = operand c }
    end
    else if tok_is c "cvt" then begin
      (* cvt[.rn|.rzi].<dst>.<src> *)
      part c;
      if tok_is c "rn" || tok_is c "rzi" then part c;
      ignore (dtype_of_tok c : dtype);
      ignore (suffix c : dtype);
      end_opcode c op;
      let dst = reg c in
      comma c;
      Cvt { dst; src = reg c }
    end
    else if tok_is c "setp" then begin
      let cmp = setp_cmp c in
      let dtype = suffix c in
      end_opcode c op;
      three c;
      Setp { cmp; dtype; dst = c.dst; a = c.a; b = c.b }
    end
    else if tok_is c "bra" then begin
      part c;
      if not (c.tlen = 0 || tok_is c "uni") then unknown_opcode c op;
      end_opcode c op;
      Bra { label = name c names; pred }
    end
    else if tok_is c "call" then begin
      part c;
      if not (tok_is c "uni") then unknown_opcode c op;
      end_opcode c op;
      expect c '(' "'('";
      let ret = reg c in
      expect c ')' "')'";
      comma c;
      let func = name c names in
      comma c;
      expect c '(' "'('";
      let arg = reg c in
      expect c ')' "')'";
      Call { func; ret; arg }
    end
    else if tok_is c "ret" then begin
      end_opcode c op;
      Ret
    end
    else unknown_opcode c op
  in
  skip_blanks c;
  if peek c = ';' then advance c;
  if not (at_eol c) then fail c.line "trailing text %S" (rest_of_line c);
  i

(* [.param .<t> <name>[,]] *)
let param_decl c =
  skip_blanks c;
  let start = c.pos in
  if peek c <> '.' then fail c.line "bad .param line %S" (rest_of_line c);
  advance c;
  word c;
  let ptype = dtype_of_tok c in
  if not (is_blank (peek c)) then fail c.line "bad .param line %S" (text_from c start);
  skip_blanks c;
  let n0 = c.pos in
  while match peek c with ',' | ' ' | '\t' | '\r' | '\012' | '\n' -> false | _ -> true do
    advance c
  done;
  if c.pos = n0 then fail c.line "bad .param line %S" (text_from c start);
  let pname = String.sub c.s n0 (c.pos - n0) in
  skip_blanks c;
  if peek c = ',' then advance c;
  if not (at_eol c) then fail c.line "bad .param line %S" (rest_of_line c);
  { pname; ptype }

let no_reg = { rtype = Pred; id = 0 }

let kernel text =
  let c =
    {
      s = text;
      pos = 0;
      line = 1;
      tok = 0;
      tlen = 0;
      dst = no_reg;
      a = Imm_int 0;
      b = Imm_int 0;
      addr = no_reg;
      off = 0;
    }
  in
  let kname = ref "" and params = ref [] and body = ref [] in
  let param_table = ref [||] and names = ref [] in
  let in_body = ref false in
  while c.pos < String.length text do
    if at_eol c then ()
    else if peek c = '{' then begin
      advance c;
      in_body := true;
      param_table := Array.of_list (List.rev !params)
    end
    else if peek c = '}' then begin
      advance c;
      in_body := false
    end
    else if peek c = '.' then begin
      advance c;
      word c;
      if !in_body then begin
        if not (tok_is c "reg") then fail c.line "unexpected directive %S" (rest_of_line c)
      end
      else if tok_is c "version" || tok_is c "target" || tok_is c "address_size" then ()
      else if tok_is c "visible" then begin
        skip_blanks c;
        if peek c <> '.' then fail c.line "unexpected header line %S" (rest_of_line c);
        advance c;
        word c;
        if not (tok_is c "entry") then fail c.line "unexpected header line %S" (rest_of_line c);
        skip_blanks c;
        word c;
        kname := tok_text c
      end
      else if tok_is c "param" then params := param_decl c :: !params
      else fail c.line "unexpected header line %S" (rest_of_line c)
    end
    else if not !in_body then begin
      if peek c = ')' then () else fail c.line "unexpected header line %S" (rest_of_line c)
    end
    else begin
      (* A label is a word and a colon; anything else is a statement. *)
      let start = c.pos in
      word c;
      skip_blanks c;
      if c.tlen > 0 && peek c = ':' then begin
        c.pos <- start;
        let l = name c names in
        expect c ':' "':'";
        if not (at_eol c) then fail c.line "trailing text %S" (rest_of_line c);
        body := Label l :: !body
      end
      else begin
        c.pos <- start;
        body := instr c ~params:!param_table ~names :: !body
      end
    end;
    next_line c
  done;
  if !kname = "" then raise (Error "no .entry found");
  { kname = !kname; params = List.rev !params; body = List.rev !body }
