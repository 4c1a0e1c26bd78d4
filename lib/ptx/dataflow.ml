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

type key = dtype * int

let key r = (r.rtype, r.id)

module KSet = Set.Make (struct
  type t = key

  let compare = compare
end)

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
let index (rg : regs) r = rg.(class_index r.rtype) + r.id

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
(* Liveness                                                            *)

(* Block-level use (upward-exposed reads) and def sets. *)
let block_use_def body (b : block) =
  let use = ref KSet.empty and def = ref KSet.empty in
  for i = b.first to b.last do
    List.iter
      (fun r ->
        let k = key r in
        if not (KSet.mem k !def) then use := KSet.add k !use)
      (uses_of body.(i));
    match def_of body.(i) with Some r -> def := KSet.add (key r) !def | None -> ()
  done;
  (!use, !def)

(** [live_in], [live_out] per block, to fixpoint. *)
let liveness body (blks : block array) =
  let n = Array.length blks in
  let use = Array.make n KSet.empty and def = Array.make n KSet.empty in
  Array.iteri
    (fun b blk ->
      let u, d = block_use_def body blk in
      use.(b) <- u;
      def.(b) <- d)
    blks;
  let live_in = Array.make n KSet.empty and live_out = Array.make n KSet.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = n - 1 downto 0 do
      let out =
        List.fold_left (fun acc s -> KSet.union acc live_in.(s)) KSet.empty blks.(b).succs
      in
      let inn = KSet.union use.(b) (KSet.diff out def.(b)) in
      if not (KSet.equal out live_out.(b) && KSet.equal inn live_in.(b)) then begin
        live_out.(b) <- out;
        live_in.(b) <- inn;
        changed := true
      end
    done
  done;
  (live_in, live_out)

let set_weight s = KSet.fold (fun (dt, _) acc -> acc + weight dt) s 0

(** Peak weighted register pressure (32-bit units) over every program
    point: what an allocator that reuses registers perfectly would need.
    Unlike {!Gpusim}'s capped occupancy estimate, this is the raw demand,
    so pass-pipeline savings are visible even on huge kernels. *)
let register_demand_body body =
  let blks, _ = blocks body in
  if Array.length blks = 0 then 0
  else begin
    let _, live_out = liveness body blks in
    let peak = ref 0 in
    Array.iteri
      (fun bi blk ->
        (* Invariant: [!w = set_weight !live]. *)
        let live = ref live_out.(bi) in
        let w = ref (set_weight !live) in
        for i = blk.last downto blk.first do
          let instr = body.(i) in
          (* The destination occupies a register at the def point even if it
             is never read afterwards. *)
          (match def_of instr with
          | Some r ->
              let k = key r in
              if KSet.mem k !live then begin
                peak := max !peak !w;
                live := KSet.remove k !live;
                w := !w - weight r.rtype
              end
              else peak := max !peak (!w + weight r.rtype)
          | None -> peak := max !peak !w);
          List.iter
            (fun r ->
              let k = key r in
              if not (KSet.mem k !live) then begin
                live := KSet.add k !live;
                w := !w + weight r.rtype
              end)
            (uses_of instr)
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
    let universe =
      Array.fold_left
        (fun acc i -> match def_of i with Some r -> KSet.add (key r) acc | None -> acc)
        KSet.empty body
    in
    let block_defs =
      Array.map
        (fun blk ->
          let d = ref KSet.empty in
          for i = blk.first to blk.last do
            match def_of body.(i) with Some r -> d := KSet.add (key r) !d | None -> ()
          done;
          !d)
        blks
    in
    let inn = Array.make n universe and out = Array.make n universe in
    inn.(0) <- KSet.empty;
    out.(0) <- block_defs.(0);
    let changed = ref true in
    while !changed do
      changed := false;
      for b = 0 to n - 1 do
        let i =
          if b = 0 then KSet.empty
          else
            match blks.(b).preds with
            | [] -> universe (* unreachable: vacuously fine *)
            | p :: ps -> List.fold_left (fun acc q -> KSet.inter acc out.(q)) out.(p) ps
        in
        let o = KSet.union i block_defs.(b) in
        if not (KSet.equal i inn.(b) && KSet.equal o out.(b)) then begin
          inn.(b) <- i;
          out.(b) <- o;
          changed := true
        end
      done
    done;
    let violations = ref [] in
    Array.iteri
      (fun bi blk ->
        let defined = ref inn.(bi) in
        for i = blk.first to blk.last do
          List.iter
            (fun r -> if not (KSet.mem (key r) !defined) then violations := (i, r) :: !violations)
            (uses_of body.(i));
          match def_of body.(i) with Some r -> defined := KSet.add (key r) !defined | None -> ()
        done)
      blks;
    List.rev !violations
  end
