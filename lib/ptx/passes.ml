(** The optimizing middle-end: composable rewrites over {!Types.kernel}.

    The code generators deliberately unparse the expression tree naively
    (one load per leaf visit, one address chain per access) the way the
    paper's expression-template unparser does, and the paper then leans on
    the NVIDIA driver JIT to clean the stream up.  These passes are that
    clean-up, made explicit and measurable: constant folding with copy
    propagation, local common-subexpression elimination (which is what
    dedupes repeated leaf loads and [byte_address] chains), mul+add→fma
    contraction, power-of-two strength reduction, and dead-code
    elimination.

    Every pass preserves VM semantics bit-exactly, which constrains them:

    - Floating-point expressions are never re-associated, and float
      constants are never folded or propagated: an [Imm_float] in an f32
      instruction is printed rounded to f32 while an f32 {e register}
      carries its value unrounded until a store (see {!Gpusim.Vm}), so
      turning a register into an immediate could change stored bits.
      Integer folding is exact and unrestricted.
    - mul+add→fma is bit-exact {e in the VM} because the VM evaluates
      [Fma] as [(a*b)+c] in double precision, exactly like the separate
      instructions.  Real hardware fuses the rounding; there the
      contraction would change low bits, as every real compiler's
      [-ffp-contract=fast] does.
    - CSE reuses a computed value only when the reused register and every
      operand have a single static definition (SSA values, which is almost
      everything the emitter produces), only within an extended basic
      block (the value-number table resets at every [Label]), and load
      value numbers are invalidated by any [St_global] so aliased
      destinations (e.g. in-place axpy) stay exact. *)

open Types
module D = Dataflow

let version = 3

(** Value provenance handed down by the emitting builder: the proof CSE
    needs that a register is an SSA value.  When absent, passes recompute
    it from the body; builder-recorded counts can only over-count (passes
    only delete definitions), so both are sound. *)
type provenance = { single_def : reg -> bool }

type report = { pass : string; before : int; after : int }

type result = { kernel : kernel; applied : report list }

(* ------------------------------------------------------------------ *)
(* Rewriting helpers                                                   *)

(* Rewrite the inputs of one instruction: [op] at operand positions,
   [reg] at register-only positions (addresses, cvt/call sources, branch
   predicates).  Destinations are never touched. *)
let rewrite ~(op : operand -> operand) ~(reg : reg -> reg) (i : instr) =
  match i with
  | Ld_param _ | Mov_sreg _ | Label _ | Ret -> i
  | Ld_global { dtype; dst; addr; offset } -> Ld_global { dtype; dst; addr = reg addr; offset }
  | St_global { dtype; addr; offset; src } ->
      St_global { dtype; addr = reg addr; offset; src = op src }
  | Ld_global_f16 { dst; addr; offset } -> Ld_global_f16 { dst; addr = reg addr; offset }
  | St_global_f16 { addr; offset; src } ->
      St_global_f16 { addr = reg addr; offset; src = op src }
  | Mov { dst; src } -> Mov { dst; src = op src }
  | Add { dtype; dst; a; b } -> Add { dtype; dst; a = op a; b = op b }
  | Sub { dtype; dst; a; b } -> Sub { dtype; dst; a = op a; b = op b }
  | Mul { dtype; dst; a; b } -> Mul { dtype; dst; a = op a; b = op b }
  | Div { dtype; dst; a; b } -> Div { dtype; dst; a = op a; b = op b }
  | Fma { dtype; dst; a; b; c } -> Fma { dtype; dst; a = op a; b = op b; c = op c }
  | Shl { dtype; dst; a; amount } -> Shl { dtype; dst; a = op a; amount }
  | Neg { dtype; dst; a } -> Neg { dtype; dst; a = op a }
  | Cvt { dst; src } -> Cvt { dst; src = reg src }
  | Setp { cmp; dtype; dst; a; b } -> Setp { cmp; dtype; dst; a = op a; b = op b }
  | Bra { label; pred } -> Bra { label; pred = Option.map reg pred }
  | Call { func; ret; arg } -> Call { func; ret; arg = reg arg }

(* Replace the destination register (used to canonicalize an instruction
   into a CSE lookup key). *)
let with_dst (d : reg) (i : instr) =
  match i with
  | Ld_param x -> Ld_param { x with dst = d }
  | Ld_global { dtype; dst = _; addr; offset } -> Ld_global { dtype; dst = d; addr; offset }
  | Ld_global_f16 { dst = _; addr; offset } -> Ld_global_f16 { dst = d; addr; offset }
  | Mov { dst = _; src } -> Mov { dst = d; src }
  | Mov_sreg { dst = _; src } -> Mov_sreg { dst = d; src }
  | Add { dtype; dst = _; a; b } -> Add { dtype; dst = d; a; b }
  | Sub { dtype; dst = _; a; b } -> Sub { dtype; dst = d; a; b }
  | Mul { dtype; dst = _; a; b } -> Mul { dtype; dst = d; a; b }
  | Div { dtype; dst = _; a; b } -> Div { dtype; dst = d; a; b }
  | Fma { dtype; dst = _; a; b; c } -> Fma { dtype; dst = d; a; b; c }
  | Shl { dtype; dst = _; a; amount } -> Shl { dtype; dst = d; a; amount }
  | Neg { dtype; dst = _; a } -> Neg { dtype; dst = d; a }
  | Cvt { dst = _; src } -> Cvt { dst = d; src }
  | Setp { cmp; dtype; dst = _; a; b } -> Setp { cmp; dtype; dst = d; a; b }
  | Call { func; ret = _; arg } -> Call { func; ret = d; arg }
  | St_global _ | St_global_f16 _ | Bra _ | Label _ | Ret -> i

(* ------------------------------------------------------------------ *)
(* Constant folding + copy propagation                                 *)

(* Integer-only constant propagation/folding (exact in the VM: OCaml int
   arithmetic both sides) plus register copy propagation for every class
   (moving a register is exact for floats too).  Folded instructions
   become Movs; DCE deletes the ones that end up unread. *)
let constant_fold (k : kernel) =
  let body = Array.of_list k.body in
  let rg = D.regs body in
  let sd = D.single_def rg (D.def_counts rg body) in
  let consts = Array.make (D.nregs rg) None and copies = Array.make (D.nregs rg) None in
  let changed = ref false in
  let subst_reg r =
    match copies.(D.index rg r) with
    | Some r' ->
        changed := true;
        r'
    | None -> r
  in
  let subst_op = function
    | Reg r -> (
        let r = subst_reg r in
        match consts.(D.index rg r) with
        | Some v ->
            changed := true;
            Imm_int v
        | None -> Reg r)
    | o -> o
  in
  let record i =
    match i with
    | Mov { dst; src = Imm_int v } when is_int dst.rtype && sd dst ->
        consts.(D.index rg dst) <- Some v
    | Mov { dst; src = Reg r } when sd dst && sd r && dst.rtype = r.rtype ->
        (* [r] is already canonical: the src was rewritten first. *)
        copies.(D.index rg dst) <- Some r
    | _ -> ()
  in
  let fold i =
    match i with
    | Add { dtype; dst; a = Imm_int x; b = Imm_int y } when is_int dtype ->
        Mov { dst; src = Imm_int (x + y) }
    | Add { dtype; dst; a; b = Imm_int 0 } | Add { dtype; dst; a = Imm_int 0; b = a }
      when is_int dtype ->
        Mov { dst; src = a }
    | Sub { dtype; dst; a = Imm_int x; b = Imm_int y } when is_int dtype ->
        Mov { dst; src = Imm_int (x - y) }
    | Sub { dtype; dst; a; b = Imm_int 0 } when is_int dtype -> Mov { dst; src = a }
    | Mul { dtype; dst; a = Imm_int x; b = Imm_int y } when is_int dtype ->
        Mov { dst; src = Imm_int (x * y) }
    | Mul { dtype; dst; a; b = Imm_int 1 } | Mul { dtype; dst; a = Imm_int 1; b = a }
      when is_int dtype ->
        Mov { dst; src = a }
    | Mul { dtype; dst; a = _; b = Imm_int 0 } | Mul { dtype; dst; a = Imm_int 0; b = _ }
      when is_int dtype ->
        Mov { dst; src = Imm_int 0 }
    | Div { dtype; dst; a = Imm_int x; b = Imm_int y } when is_int dtype && y <> 0 ->
        Mov { dst; src = Imm_int (x / y) }
    | Div { dtype; dst; a; b = Imm_int 1 } when is_int dtype -> Mov { dst; src = a }
    | Fma { dtype; dst; a = Imm_int x; b = Imm_int y; c = Imm_int z } when is_int dtype ->
        Mov { dst; src = Imm_int ((x * y) + z) }
    | Shl { dtype; dst; a = Imm_int x; amount } when is_int dtype ->
        Mov { dst; src = Imm_int (x lsl amount) }
    | Shl { dtype; dst; a; amount = 0 } when is_int dtype -> Mov { dst; src = a }
    | Neg { dtype; dst; a = Imm_int x } when is_int dtype -> Mov { dst; src = Imm_int (-x) }
    | i -> i
  in
  let out =
    Array.map
      (fun i ->
        let i = rewrite ~op:subst_op ~reg:subst_reg i in
        let i' = fold i in
        if i' != i then changed := true;
        record i';
        i')
      body
  in
  if !changed then { k with body = Array.to_list out } else k

(* ------------------------------------------------------------------ *)
(* Common-subexpression elimination                                    *)

let cse ?provenance (k : kernel) =
  let body = Array.of_list k.body in
  let rg = D.regs body in
  let sd =
    match provenance with
    | None -> D.single_def rg (D.def_counts rg body)
    | Some p ->
        (* One provenance query per register, not per operand. *)
        let known = Array.make (D.nregs rg) 0 in
        fun r ->
          let x = D.index rg r in
          if known.(x) = 0 then known.(x) <- (if p.single_def r then 1 else 2);
          known.(x) = 1
  in
  (* Canonical dst → replacement dst for dropped duplicates. *)
  let subst = Array.make (D.nregs rg) None in
  let subst_reg r = match subst.(D.index rg r) with Some r' -> r' | None -> r in
  let subst_op = function Reg r -> Reg (subst_reg r) | o -> o in
  (* Separate tables so stores invalidate only the load values. *)
  let vn_pure : (instr, reg) Hashtbl.t = Hashtbl.create 64 in
  let vn_load : (instr, reg) Hashtbl.t = Hashtbl.create 64 in
  let out = ref [] and dropped = ref false in
  let keep i = out := i :: !out in
  Array.iter
    (fun i0 ->
      let i = rewrite ~op:subst_op ~reg:subst_reg i0 in
      match i with
      | Label _ ->
          (* Join point: values from the fallthrough path are not
             guaranteed on the branch path. *)
          Hashtbl.reset vn_pure;
          Hashtbl.reset vn_load;
          keep i
      | St_global _ | St_global_f16 _ ->
          (* The store may alias any loaded location (in-place updates
             do): every remembered load value dies. *)
          Hashtbl.reset vn_load;
          keep i
      | _ when D.is_side_effecting i -> keep i
      | _ -> (
          match D.def_of i with
          | None -> keep i
          | Some dst ->
              (* Float arithmetic is never deduped: reusing a float value
                 across distant consumers extends its live range through
                 the whole site computation, costing exactly the register
                 demand (occupancy, Sec. VI) the middle-end is buying
                 back, to save a one-cycle rematerializable instruction.
                 Loads of any type are fair game — dedup there is the
                 bandwidth win. *)
              let cseable =
                match i with
                | Ld_global _ | Ld_global_f16 _ -> true
                | _ -> not (is_float dst.rtype)
              in
              if cseable && sd dst && List.for_all sd (D.uses_of i) then begin
                let tbl =
                  match i with Ld_global _ | Ld_global_f16 _ -> vn_load | _ -> vn_pure
                in
                let key_i = with_dst { rtype = dst.rtype; id = -1 } i in
                match Hashtbl.find_opt tbl key_i with
                | Some prior ->
                    (* drop [i] *)
                    subst.(D.index rg dst) <- Some prior;
                    dropped := true
                | None ->
                    Hashtbl.replace tbl key_i dst;
                    keep i
              end
              else keep i))
    body;
  if !dropped then { k with body = List.rev !out } else k

(* ------------------------------------------------------------------ *)
(* mul+add → fma contraction                                           *)

let fma_contract (k : kernel) =
  let body = Array.of_list k.body in
  let n = Array.length body in
  let rg = D.regs body in
  let sd = D.single_def rg (D.def_counts rg body) in
  let ch = D.chains rg body in
  (* Extended-basic-block ids: a contraction moves the multiply down to
     its consumer, which is only valid when no join point lies between. *)
  let ebb = Array.make n 0 in
  let cur = ref 0 in
  for i = 0 to n - 1 do
    (match body.(i) with Label _ -> incr cur | _ -> ());
    ebb.(i) <- !cur
  done;
  let op_stable = function Reg r -> sd r | Imm_float _ | Imm_int _ -> true in
  let changed = ref false in
  for i = 0 to n - 1 do
    match body.(i) with
    | Mul { dtype; dst = t; a; b } when dtype <> Pred && sd t && op_stable a && op_stable b -> (
        match D.uses_of_reg rg ch t with
        | [ j ] when j > i && ebb.(j) = ebb.(i) -> (
            match body.(j) with
            | Add { dtype = dt2; dst; a = x; b = y } when dt2 = dtype ->
                let other =
                  if x = Reg t then Some y else if y = Reg t then Some x else None
                in
                (match other with
                | Some c ->
                    (* [t] becomes dead; DCE deletes the mul. *)
                    body.(j) <- Fma { dtype; dst; a; b; c };
                    changed := true
                | None -> ())
            | _ -> ())
        | _ -> ())
    | _ -> ()
  done;
  if !changed then { k with body = Array.to_list body } else k

(* ------------------------------------------------------------------ *)
(* Strength reduction                                                  *)

(* Integer multiplications by power-of-two immediates — the field-stride
   scaling inside every byte-address chain — become shifts.  Exact for
   OCaml ints (two's complement), which is what the VM computes with. *)
let strength_reduce (k : kernel) =
  let log2 = function
    | Imm_int n when n > 1 && n land (n - 1) = 0 ->
        let rec lg n acc = if n <= 1 then acc else lg (n lsr 1) (acc + 1) in
        Some (lg n 0)
    | _ -> None
  in
  let changed = ref false in
  let shl dtype dst a n =
    changed := true;
    Shl { dtype; dst; a; amount = n }
  in
  let body =
    List.map
      (fun i ->
        match i with
        | Mul { dtype; dst; a; b } when is_int dtype -> (
            match (log2 b, log2 a) with
            | Some n, _ -> shl dtype dst a n
            | None, Some n -> shl dtype dst b n
            | None, None -> i)
        | i -> i)
      k.body
  in
  if !changed then { k with body } else k

(* ------------------------------------------------------------------ *)
(* Dead-code elimination                                               *)

(* Backward sweep: keep side-effecting instructions and definitions of
   registers read later.  One sweep reaches the fixpoint on the forward-
   branching code every producer in this repository emits. *)
let dce (k : kernel) =
  let body = Array.of_list k.body in
  let rg = D.regs body in
  let used = Array.make (D.nregs rg) false in
  let mark r = used.(D.index rg r) <- true in
  let out = ref [] and dropped = ref false in
  for j = Array.length body - 1 downto 0 do
    let i = body.(j) in
    let keep =
      D.is_side_effecting i
      || match D.def_of i with Some d -> used.(D.index rg d) | None -> true
    in
    if keep then begin
      D.iter_uses mark i;
      out := i :: !out
    end
    else dropped := true
  done;
  if !dropped then { k with body = !out } else k

(* ------------------------------------------------------------------ *)
(* Code sinking (register-pressure reduction)                          *)

(* The generators front-load work — every component of a leaf is loaded
   when the node is first visited — and CSE stretches ranges further by
   making one early value serve late uses.  Sinking moves a pure,
   single-def instruction down to just before its first use, shrinking
   its live range without changing any computed value: the operands are
   single-def, so they hold the same values at the new point.  Loads
   never cross stores (the destination may alias a source field, as in an
   in-place axpy) and nothing crosses control flow or calls.  Each
   definition moves at most once per invocation, which bounds the work
   and keeps two values wanted by the same consumer from trading places
   forever.

   One invocation is the contract, not its fixpoint.  The sweep decides
   each definition once, against the order at that moment.  Definitions
   above it are decided later, and one of them can move into a gap the
   sweep found settled (to just before a gap member that is its own
   first use), so the gap no longer feeds one consumer.  A second sweep
   moves such a definition, and then the definitions feeding it follow
   it down.  On the workload kernels about a sixth of a second sweep's
   moves are such definitions, nearly three quarters follow a use that
   moved earlier in the same sweep, none was refused on [cost] by the
   first sweep, and most kernels still move something in a fourth
   sweep.  Those moves change
   no instruction count, and on the workload kernels no register demand
   either (the test suite checks both against the old four-round loop),
   so the middle-end sinks once.

   Sinking is not free: when an operand's last use apart from the moved
   instruction lies above the target, that operand's own live range
   stretches down to the new position.  A move happens only when the
   stretched weight stays within the sunk definition's weight, which
   keeps every move pointwise non-increasing in register pressure — true
   for a leaf load (the address register is shared by the whole
   element's loads) and false deep in an arithmetic chain, where moving
   one add would drag two dying inputs along with it. *)
let sink (k : kernel) =
  let body = Array.of_list k.body in
  let n = Array.length body in
  (* One backward sweep over original indices, moving each definition at
     most once: when the sweep reaches index [i], everything at or above
     it is still in original order, so [i] is the instruction to decide
     on.  The body is a doubly linked list over original indices; a move
     is an unlink plus an insert before the first use.  Order queries
     compare integer labels ([gap] apart, halved by each insert, and
     reassigned along the whole list only when a gap runs out), so no
     move renumbers the instructions it hops over.

     Registers get dense ids, with their definition counts and static
     use lists naming instructions by original index.  Per id the pass
     keeps the current first and last use.  A move changes the position
     of the moved instruction only, and always downwards: it can become
     the last use of what it reads, and it stops being the first use of
     those it was the first use of — a rescan of that use list, which
     happens at most once per register because every other use lies
     below and has already been decided.  Every decision is a constant
     number of label comparisons plus the settled scan below, so the
     pass is linear in the body apart from the rare relabelling. *)
  let rg = D.regs body in
  let nkeys = D.nregs rg in
  let kweight = Array.make nkeys 0 in
  let id_of (r : reg) =
    let id = D.index rg r in
    kweight.(id) <- D.weight r.rtype;
    id
  in
  let def_id = Array.map (fun i -> match D.def_of i with Some d -> id_of d | None -> -1) body in
  let reads = Array.map (fun i -> List.sort_uniq Int.compare (List.map id_of (D.uses_of i))) body in
  let ndefs = D.def_counts rg body and uses = Array.make nkeys [] in
  for i = n - 1 downto 0 do
    List.iter (fun id -> uses.(id) <- i :: uses.(id)) reads.(i)
  done;
  let sites = Array.map Array.of_list uses in
  let single id = ndefs.(id) = 1 in
  let movable i =
    let d = def_id.(i) in
    (not (D.is_side_effecting body.(i)))
    && (match body.(i) with Call _ -> false | _ -> true)
    && d >= 0 && single d && sites.(d) <> [||]
    && List.for_all single reads.(i)
  in
  let gap = 1 lsl 32 in
  let label = Array.init n (fun i -> i * gap) in
  let next = Array.init n (fun i -> i + 1) and prev = Array.init n (fun i -> i - 1) in
  let head = ref 0 in
  let relabel () =
    let rec go j l =
      if j < n then begin
        label.(j) <- l;
        go next.(j) (l + gap)
      end
    in
    go !head 0
  in
  let first = Array.map (fun s -> if s = [||] then -1 else s.(0)) sites in
  let last = Array.map (fun s -> if s = [||] then -1 else s.(Array.length s - 1)) sites in
  let rescan_first id =
    first.(id) <-
      Array.fold_left (fun b u -> if label.(u) < label.(b) then u else b) sites.(id).(0) sites.(id)
  in
  (* Barriers never move and no move crosses one, so the first barrier
     below [i] in the current order is the first one below it in the
     original body.  Stores stop loads only (the destination may alias a
     source field, as in an in-place axpy); labels, branches, calls and
     the exit stop everything. *)
  let next_ctrl = Array.make n n and next_ctrl_or_store = Array.make n n in
  for i = n - 2 downto 0 do
    let c = i + 1 in
    let ctrl, store =
      match body.(c) with
      | Label _ | Bra _ | Call _ | Ret -> (true, true)
      | St_global _ | St_global_f16 _ -> (false, true)
      | _ -> (false, false)
    in
    next_ctrl.(i) <- (if ctrl then c else next_ctrl.(c));
    next_ctrl_or_store.(i) <- (if store then c else next_ctrl_or_store.(c))
  done;
  let move i f =
    let p = prev.(i) and nx = next.(i) in
    if p >= 0 then next.(p) <- nx else head := nx;
    prev.(nx) <- p;
    let pf = prev.(f) in
    if label.(f) - label.(pf) < 2 then relabel ();
    label.(i) <- (label.(pf) + label.(f)) / 2;
    next.(pf) <- i;
    prev.(i) <- pf;
    next.(i) <- f;
    prev.(f) <- i;
    List.iter
      (fun id ->
        if label.(i) > label.(last.(id)) then last.(id) <- i;
        if first.(id) = i then rescan_first id)
      reads.(i)
  in
  let changed = ref false in
  for i = n - 2 downto 0 do
    if movable i && label.(first.(def_id.(i))) > label.(i) then begin
      let f = first.(def_id.(i)) in
      let barrier =
        let b =
          match body.(i) with
          | Ld_global _ | Ld_global_f16 _ -> next_ctrl_or_store.(i)
          | _ -> next_ctrl.(i)
        in
        b < n && label.(b) < label.(f)
      in
      (* Weight of operands the move would stretch: any input whose last
         use lies above the target (this instruction's own use does) now
         has to stay live down to it.  Requiring the stretched weight to
         stay within the sunk definition's weight makes the move
         pointwise non-increasing in pressure: over the vacated span the
         definition's units are gone, and the stretched units never
         exceed them. *)
      let cost () =
        let target = label.(prev.(f)) in
        List.fold_left
          (fun acc id -> if label.(last.(id)) < target then acc + kweight.(id) else acc)
          0 reads.(i)
      in
      (* If everything in the gap already feeds the same consumer, the
         cluster is packed: hopping over those neighbours would gain
         nothing and two such values could swap forever.  An empty gap
         (the use is already next) is packed too. *)
      let rec settled j =
        j = f
        || (not (D.is_side_effecting body.(j)))
           && def_id.(j) >= 0
           && first.(def_id.(j)) = f
           && settled next.(j)
      in
      if (not barrier) && (not (settled next.(i))) && cost () <= kweight.(def_id.(i)) then begin
        move i f;
        changed := true
      end
    end
  done;
  if !changed then begin
    let out = ref [] in
    let rec walk j =
      if j < n then begin
        out := body.(j) :: !out;
        walk next.(j)
      end
    in
    walk !head;
    { k with body = List.rev !out }
  end
  else k

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)

let default_pipeline ?provenance () =
  [
    ("const-fold", constant_fold);
    ("cse", fun k -> cse ?provenance k);
    ("fma-contract", fma_contract);
    ("strength-reduce", strength_reduce);
    ("dce", dce);
    ("sink", sink);
  ]

(* Each pass returns its argument itself when it changes nothing, so
   physical equality is the change signal. *)
let run_pipeline pipeline (k : kernel) =
  let kernel, applied =
    List.fold_left
      (fun (k, applied) (pass, apply) ->
        let k' = apply k in
        if k' == k then (k, applied)
        else (k', { pass; before = List.length k.body; after = List.length k'.body } :: applied))
      (k, []) pipeline
  in
  { kernel; applied = List.rev applied }

let run ?provenance k = run_pipeline (default_pipeline ?provenance ()) k
