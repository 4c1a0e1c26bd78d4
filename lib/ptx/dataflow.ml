(** SSA-flavoured dataflow analysis over the PTX IR.

    The code generators emit forward-branching code with fresh virtual
    registers, so most registers have exactly one static definition; this
    module makes that precise instead of assumed.  It provides the def/use
    view of every instruction (the single instruction-walk the printer, the
    VM, the register estimator and the optimization passes all share),
    basic-block splitting over the existing [Label]/[Bra] instructions,
    block-level liveness, the weighted register demand an allocator would
    need, and a definitely-assigned analysis for the validator. *)

open Types

(** Destination register written by an instruction, if any. *)
let def_of = function
  | Ld_param { dst; _ }
  | Ld_global { dst; _ }
  | Ld_global_f16 { dst; _ }
  | Mov { dst; _ }
  | Mov_sreg { dst; _ }
  | Add { dst; _ }
  | Sub { dst; _ }
  | Mul { dst; _ }
  | Div { dst; _ }
  | Fma { dst; _ }
  | Shl { dst; _ }
  | Neg { dst; _ }
  | Cvt { dst; _ }
  | Setp { dst; _ }
  | Call { ret = dst; _ } ->
      Some dst
  | St_global _ | St_global_f16 _ | Bra _ | Label _ | Ret -> None

let iter_op f = function Reg r -> f r | Imm_float _ | Imm_int _ -> ()

(** Registers read by an instruction (operands, addresses, predicates),
    one at a time, building no list. *)
let iter_uses f = function
  | Ld_param _ | Mov_sreg _ | Label _ | Ret -> ()
  | Ld_global { addr; _ } | Ld_global_f16 { addr; _ } -> f addr
  | St_global { addr; src; _ } | St_global_f16 { addr; src; _ } ->
      f addr;
      iter_op f src
  | Mov { src; _ } -> iter_op f src
  | Add { a; b; _ } | Sub { a; b; _ } | Mul { a; b; _ } | Div { a; b; _ } | Setp { a; b; _ } ->
      iter_op f a;
      iter_op f b
  | Fma { a; b; c; _ } ->
      iter_op f a;
      iter_op f b;
      iter_op f c
  | Shl { a; _ } | Neg { a; _ } -> iter_op f a
  | Cvt { src; _ } -> f src
  | Bra { pred; _ } -> Option.iter f pred
  | Call { arg; _ } -> f arg

let uses_of i =
  let acc = ref [] in
  iter_uses (fun r -> acc := r :: !acc) i;
  List.rev !acc

(** [def_of] then [uses_of], one register at a time. *)
let iter_regs f i =
  Option.iter f (def_of i);
  iter_uses f i

(** Instructions whose effect is not captured by their destination
    register: memory writes, control flow, the exit. *)
let is_side_effecting = function
  | St_global _ | St_global_f16 _ | Bra _ | Label _ | Ret -> true
  | Ld_param _ | Ld_global _ | Ld_global_f16 _ | Mov _ | Mov_sreg _ | Add _ | Sub _ | Mul _
  | Div _ | Fma _ | Shl _ | Neg _ | Cvt _ | Setp _ | Call _ ->
      false

(* Hardware registers are 32-bit: 64-bit virtual registers occupy two; the
   predicate bank is separate. *)
let weight = function F64 | S64 | U64 -> 2 | F32 | S32 | U32 -> 1 | Pred -> 0

(* ------------------------------------------------------------------ *)
(* Dense register numbering                                            *)

let classes = [| F32; F64; S32; U32; S64; U64; Pred |]
let class_index = function F32 -> 0 | F64 -> 1 | S32 -> 2 | U32 -> 3 | S64 -> 4 | U64 -> 5 | Pred -> 6

(* [base.(c)] is the index of register 0 of class [c]; [base.(7)] the
   table size.  The emitters number each class from 0, so the tables are
   dense. *)
type regs = int array

let regs body =
  let base = Array.make 8 0 in
  let see r =
    let c = class_index r.rtype + 1 in
    if r.id >= base.(c) then base.(c) <- r.id + 1
  in
  Array.iter (iter_regs see) body;
  for c = 1 to 7 do
    base.(c) <- base.(c) + base.(c - 1)
  done;
  base

let nregs (rg : regs) = rg.(7)

let extent (rg : regs) dt =
  let c = class_index dt in
  rg.(c + 1) - rg.(c)

let index (rg : regs) r =
  let c = class_index r.rtype in
  if r.id < 0 || r.id >= rg.(c + 1) - rg.(c) then
    invalid_arg ("Ptx.Dataflow.index: register " ^ reg_name r ^ " is not in the numbered body");
  rg.(c) + r.id

(* ------------------------------------------------------------------ *)
(* Def counts (the single-static-definition test)                      *)

let def_counts rg body =
  let counts = Array.make (nregs rg) 0 in
  Array.iter
    (fun i ->
      match def_of i with
      | Some r ->
          let x = index rg r in
          counts.(x) <- counts.(x) + 1
      | None -> ())
    body;
  counts

let single_def rg counts r = counts.(index rg r) = 1

(* ------------------------------------------------------------------ *)
(* Basic blocks                                                        *)

type block = {
  first : int;  (** index of the leader instruction *)
  last : int;  (** inclusive *)
  succs : int list;  (** successor block ids *)
  preds : int list;
}

(** Split a body into basic blocks.  Returns the block array and a map
    from instruction index to owning block id. *)
let blocks body =
  let n = Array.length body in
  if n = 0 then ([||], [||])
  else begin
    let label_pos = Hashtbl.create 8 in
    Array.iteri
      (fun i instr -> match instr with Label l -> Hashtbl.replace label_pos l i | _ -> ())
      body;
    let leader = Array.make n false in
    leader.(0) <- true;
    Array.iteri
      (fun i instr ->
        match instr with
        | Label _ -> leader.(i) <- true
        | Bra { label; _ } ->
            if i + 1 < n then leader.(i + 1) <- true;
            (match Hashtbl.find_opt label_pos label with
            | Some t -> leader.(t) <- true
            | None -> ())
        | Ret -> if i + 1 < n then leader.(i + 1) <- true
        | _ -> ())
      body;
    let block_of = Array.make n 0 in
    let nblocks = ref 0 in
    for i = 0 to n - 1 do
      if leader.(i) && i > 0 then incr nblocks;
      block_of.(i) <- !nblocks
    done;
    let nblocks = !nblocks + 1 in
    let first = Array.make nblocks 0 and last = Array.make nblocks 0 in
    for i = n - 1 downto 0 do
      first.(block_of.(i)) <- i
    done;
    for i = 0 to n - 1 do
      last.(block_of.(i)) <- i
    done;
    let succs =
      Array.init nblocks (fun b ->
          let fallthrough = if b + 1 < nblocks then [ b + 1 ] else [] in
          match body.(last.(b)) with
          | Ret -> []
          | Bra { label; pred } -> (
              match Hashtbl.find_opt label_pos label with
              | Some t -> (
                  let target = block_of.(t) in
                  match pred with
                  | None -> [ target ]
                  | Some _ -> target :: List.filter (fun s -> s <> target) fallthrough)
              | None -> fallthrough)
          | _ -> fallthrough)
    in
    let preds = Array.make nblocks [] in
    Array.iteri (fun b ss -> List.iter (fun s -> preds.(s) <- b :: preds.(s)) ss) succs;
    let arr =
      Array.init nblocks (fun b ->
          { first = first.(b); last = last.(b); succs = succs.(b); preds = preds.(b) })
    in
    (arr, block_of)
  end

(* ------------------------------------------------------------------ *)
(* Use chains                                                          *)

type chains = int list array

let chains rg body =
  let uses = Array.make (nregs rg) [] in
  for i = Array.length body - 1 downto 0 do
    iter_uses
      (fun r ->
        let x = index rg r in
        uses.(x) <- i :: uses.(x))
      body.(i)
  done;
  uses

let uses_of_reg rg (ch : chains) r = ch.(index rg r)

(* ------------------------------------------------------------------ *)
(* Dense register sets                                                 *)

(* A set of {!index}es: 32 per int, so word ops stay cheap shifts.  The
   fixpoints below update whole words; each bit evolves independently,
   so word-at-a-time iteration reaches the same fixpoint as set-at-a-time
   iteration would. *)
module Bits = struct
  let words rg = (nregs rg + 31) lsr 5
  let create rg = Array.make (words rg) 0
  let mem s x = s.(x lsr 5) land (1 lsl (x land 31)) <> 0
  let add s x = s.(x lsr 5) <- s.(x lsr 5) lor (1 lsl (x land 31))
  let remove s x = s.(x lsr 5) <- s.(x lsr 5) land lnot (1 lsl (x land 31))
end

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)

(* Block-level use (upward-exposed reads) and def sets. *)
let block_use_def rg body (b : block) =
  let use = Bits.create rg and def = Bits.create rg in
  for i = b.first to b.last do
    iter_uses
      (fun r ->
        let x = index rg r in
        if not (Bits.mem def x) then Bits.add use x)
      body.(i);
    Option.iter (fun r -> Bits.add def (index rg r)) (def_of body.(i))
  done;
  (use, def)

(** [live_out] per block, to fixpoint. *)
let liveness rg body (blks : block array) =
  let n = Array.length blks in
  let use_def = Array.map (block_use_def rg body) blks in
  let live_in = Array.init n (fun _ -> Bits.create rg)
  and live_out = Array.init n (fun _ -> Bits.create rg) in
  let rec union j acc = function [] -> acc | s :: ss -> union j (acc lor live_in.(s).(j)) ss in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = n - 1 downto 0 do
      let use, def = use_def.(b) in
      for j = 0 to Bits.words rg - 1 do
        let out = union j 0 blks.(b).succs in
        let inn = use.(j) lor (out land lnot def.(j)) in
        if out <> live_out.(b).(j) || inn <> live_in.(b).(j) then begin
          live_out.(b).(j) <- out;
          live_in.(b).(j) <- inn;
          changed := true
        end
      done
    done
  done;
  live_out

(* Weighted size of a set, class by class. *)
let set_weight rg s =
  let w = ref 0 in
  Array.iteri
    (fun c dt ->
      for x = rg.(c) to rg.(c + 1) - 1 do
        if Bits.mem s x then w := !w + weight dt
      done)
    classes;
  !w

(** Peak weighted register pressure (32-bit units) over every program
    point: what an allocator that reuses registers perfectly would need.
    Unlike {!Gpusim}'s capped occupancy estimate, this is the raw demand,
    so pass-pipeline savings are visible even on huge kernels. *)
let register_demand_body body =
  let blks, _ = blocks body in
  if Array.length blks = 0 then 0
  else begin
    let rg = regs body in
    let live_out = liveness rg body blks in
    let peak = ref 0 in
    Array.iteri
      (fun bi blk ->
        (* Invariant: [!w = set_weight rg live]. *)
        let live = live_out.(bi) in
        let w = ref (set_weight rg live) in
        for i = blk.last downto blk.first do
          let instr = body.(i) in
          (* The destination occupies a register at the def point even if it
             is never read afterwards. *)
          (match def_of instr with
          | Some r ->
              let x = index rg r in
              if Bits.mem live x then begin
                peak := max !peak !w;
                Bits.remove live x;
                w := !w - weight r.rtype
              end
              else peak := max !peak (!w + weight r.rtype)
          | None -> peak := max !peak !w);
          iter_uses
            (fun r ->
              let x = index rg r in
              if not (Bits.mem live x) then begin
                Bits.add live x;
                w := !w + weight r.rtype
              end)
            instr
        done)
      blks;
    !peak
  end

let register_demand (k : kernel) = register_demand_body (Array.of_list k.body)

(* ------------------------------------------------------------------ *)
(* Definitely-assigned analysis                                        *)

(** Registers possibly read before any write reaches them, as
    [(instruction index, register)] in program order.  A forward
    must-analysis: a use is safe only if a definition reaches it along
    {e every} path from the entry — stricter than textual order when the
    code branches. *)
let undefined_uses (k : kernel) =
  let body = Array.of_list k.body in
  let blks, _ = blocks body in
  let n = Array.length blks in
  if n = 0 then []
  else begin
    let rg = regs body in
    let block_defs = Array.map (fun blk -> snd (block_use_def rg body blk)) blks in
    let universe = Bits.create rg in
    Array.iter (fun i -> Option.iter (fun r -> Bits.add universe (index rg r)) (def_of i)) body;
    let inn = Array.init n (fun _ -> Array.copy universe)
    and out = Array.init n (fun _ -> Array.copy universe) in
    let rec inter j acc = function [] -> acc | q :: qs -> inter j (acc land out.(q).(j)) qs in
    let changed = ref true in
    while !changed do
      changed := false;
      for b = 0 to n - 1 do
        for j = 0 to Bits.words rg - 1 do
          let i =
            if b = 0 then 0
            else
              match blks.(b).preds with
              | [] -> universe.(j) (* unreachable: vacuously fine *)
              | p :: ps -> inter j out.(p).(j) ps
          in
          let o = i lor block_defs.(b).(j) in
          if i <> inn.(b).(j) || o <> out.(b).(j) then begin
            inn.(b).(j) <- i;
            out.(b).(j) <- o;
            changed := true
          end
        done
      done
    done;
    let violations = ref [] in
    Array.iteri
      (fun bi blk ->
        let defined = inn.(bi) in
        for i = blk.first to blk.last do
          iter_uses
            (fun r ->
              if not (Bits.mem defined (index rg r)) then violations := (i, r) :: !violations)
            body.(i);
          Option.iter (fun r -> Bits.add defined (index rg r)) (def_of body.(i))
        done)
      blks;
    List.rev !violations
  end
