(** Pre-decoded executable form of a PTX kernel and its multicore
    interpreter.

    The back half of the simulated driver JIT.  [compile] lowers a
    validated kernel into a flat program: int-coded opcodes with operand
    *indices* in four parallel arrays, labels compacted away (branch
    targets are instruction indices), and immediates promoted into
    constant-pool slots appended to the register files — so the hot loop
    is a jump table over plain array reads, with no closures and no
    per-operand dispatch.  A program is immutable plain data: no parsed
    IR (only the kernel's name survives decode), no closures (math
    calls index one static table) and no scratch.  Registers live in
    three flat files (floats: f32 and f64; ints: s32/u32/s64/u64;
    predicates), each program needing the physical slots a linear-scan
    allocator assigns at decode ([allocate_registers]) — a few hundred
    rows where virtual ids run to thousands.  The files belong to the
    executing domain: one arena per domain, grown to the largest program
    it has run and reused across threads, launches and programs.

    [run_batch] executes an ordered run of launches, each launch either
    sequentially or split across {!Vm_backend} workers in whole-cta
    chunks.  A decode-time provenance analysis classifies every global
    access (uniform / affine-in-thread-index / via-sitelist /
    gathered); launches whose stores all target the issuing work item's
    own slot — and whose same-buffer read-backs stay within the radix-8
    reduction-tail contract — may split, because chunks then touch
    disjoint output ranges and the result is bit-identical to the
    sequential sweep.  Anything else (e.g. the in-place [p = shift p]
    gather) runs sequentially, in one-lane tiles.  Chunk boundaries are
    aligned to multiples of 8 work items so a reduction tail always
    aggregates partials its own chunk wrote.  Faults are recorded per
    worker and the lowest (ctaid, tid) fault is re-raised on the
    launching thread, enriched with kernel name and thread coordinates,
    so error reporting stays deterministic.

    Every launch runs on the superinstruction (SoA) executor, a cta at a
    time in tiles of lanes, lock-step over register rows, with branches
    handled by parking lanes at their targets ([exec_cta_soa]).  The
    same analysis picks the tile width: a launch it admits runs 64-lane
    tiles, and a launch it rejects runs one-lane tiles, which is the
    sequential (cta, tid) sweep by construction.  The scalar interpreter
    ([exec_thread], one thread at a time) is not a runtime path: it is
    the reference the SoA executor is tested against, reached only
    through [run_reference] (a [Device.Reference] device).

    Modeling note: f32 register arithmetic is performed in double and
    rounded only when stored through an f32 buffer — the same convention
    the CPU reference evaluator uses — which makes CPU-vs-JIT
    comparisons exact instead of differing in f32 rounding of
    intermediates.  Real Kepler hardware rounds every f32 operation; the
    difference is far below the tolerances of any physics in this
    library. *)

type param_value = Ptr of Buffer.t | Int of int | Float of float

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

open Ptx.Types

(* ------------------------------------------------------------------ *)
(* Opcodes.  The interpreter matches on these literal values; keep the
   two tables in sync.

    0 ret
    1 add.f    f[a] <- f[b] +. f[c]        7 add.i    i[a] <- i[b] + i[c]
    2 sub.f                                8 sub.i
    3 mul.f                                9 mul.i
    4 div.f                               10 div.i  (faults on 0)
    5 fma.f    f[a] <- f[b]*f[c] +. f[d]  11 fma.i
    6 neg.f                               12 shl.i  i[a] <- i[b] lsl c (literal)
                                          13 neg.i
   14 mov.f    f[a] <- f[b]               15 mov.i
   16 cvt.f32  f[a] <- round32 f[b]       17 cvt.i2f  18 cvt.f2i
   19..24 setp.f  p[a] <- f[b] cmp f[c]   (eq ne lt le gt ge)
   25..30 setp.i  p[a] <- i[b] cmp i[c]
   31 bra pc<-a   32 bra.pred  if p[a] then pc<-b   (forward only)
   33 tid  34 ntid  35 ctaid  36 nctaid   (i[a] <- sreg)
   37 ld.param.ptr  38 ld.param.int  39 ld.param.f   (param slot b)
   40 ld.g.f32  41 ld.g.f64  42 ld.g.i32  (reg a <- mem[i[b]+c])
   43 st.g.f32  44 st.g.f64  45 st.g.i32  (mem[i[b]+c] <- reg a)
   46 call.f64  f[a] <- math_table[c] f[b]  47 call.f32 (rounds result)
   48 ld.g.f16  f[a] <- decode16 mem      49 st.g.f16  mem <- encode16 f[a]
      (binary16 payloads decode exactly on load; stores round to nearest,
      ties to even — the same convention [Field.raw_set] uses, so CPU and
      VM runs of an f16 kernel stay bit-identical)

   Loads and stores share one operand layout — value register in [a],
   address register in [b], byte offset in [c] — so the SoA executor
   and the reference interpreter drive them through the one per-lane
   routine [mem_lane].  The opcode classes the planner and the SoA
   control loop test: *)

let is_ret o = o = 0
let is_div_i o = o = 10
let is_bra o = o = 31
let is_branch o = o = 31 || o = 32
let is_ctrl o = o = 0 || is_branch o
let is_mem o = (o >= 40 && o <= 45) || o = 48 || o = 49

(* ------------------------------------------------------------------ *)
(* Static provenance of global accesses, used to decide whether a launch
   may be split across workers.  Classes form a lattice ordered by how
   little we know about the address:

   - [Uniform]: same for every thread (params, nctaid, constants).
   - [Affine]:  derived from tid/ctaid arithmetic — the canonical
     "my own work item" indexing of generated streaming kernels.
   - [Slist]:   loaded from a parameter named [sitelist*] at an affine
     index — the subset indirection; injective by construction.
   - [Gather]:  any other memory-derived value (neighbour tables,
     arbitrary indirection). *)

type access_class = Uniform | Affine | Slist | Gather

type access = {
  a_param : int;  (** param slot the address derives from; -1 unknown *)
  a_class : access_class;
  a_store : bool;
}

(* ------------------------------------------------------------------ *)
(* Superinstruction plan: decode-time structure for the SoA executor.

   Every program has one.  Control flow is restricted to forward
   branches ([compile] rejects the rest), so textual order is a
   topological order of every lane's path, and the maximal runs of
   non-control opcodes that no branch lands inside ("spans") can be
   executed as superinstructions over flat unboxed register rows
   (register [r]'s value for lane [l] lives at [r * tile + l]).
   Branches split the active lanes (see [exec_cta_soa]); spans end at
   control instructions and at branch targets, where parked lanes
   rejoin.

   Each span is further partitioned into fused dispatch *units*:

   - a *chain* (kind 0): a maximal mixed run of lane-local ALU work —
     float and integer arithmetic, address mad/shl/add chains, cvt,
     setp, mov, sreg and parameter reads, math calls.  One fault scope
     and one dispatch per chain; the per-instruction inner loops walk
     the lanes in [lane_block]-wide unrolled blocks on the dense fast
     path.  Only lane-uniform faults can occur inside a chain
     (parameter-class mismatches), so a single [try] per unit replaces
     the old per-instruction one.
   - a *memory-terminated chain* (kind 1): a chain whose last
     instruction is a global load/store.  The terminator executes
     column-resident: lane addresses are snapshotted into a scratch
     column, the buffer is resolved *once* for the whole tile, and the
     gather/scatter runs as a tight per-lane loop, falling back to the
     per-lane slow path (bit-identical fault reporting) on any
     cross-buffer divergence.
   - an *island* (kind 2): a single per-lane-faultable non-memory op
     (integer division), kept under its own per-lane fault handler.

   [span_end.(k)] is the index of the next control instruction or
   branch target after [k]; a span starting at a non-control [k] covers
   [k, span_end.(k)).  [u_end.(s)]/[u_kind.(s)] are valid at unit-start
   indices [s] and give the unit's end (exclusive) and kind.  The
   counters summarize the plan for the dispatch-rate metric: [s_spans]
   spans containing [s_covered] instructions in [s_units] fused
   dispatch units. *)

type soa_plan = {
  span_end : int array;
  u_end : int array;
  u_kind : int array;
  s_spans : int;
  s_units : int;
  s_covered : int;
}

(* Lanes per SoA tile: a cta runs as consecutive tiles of this many
   lanes, so register rows cost [tile] slots whatever the block size. *)
let tile = 64

(* SoA register files: one row of [tile] lanes per register, constant
   pools broadcast across their rows before each span.
   [act] holds the ids of the lanes still running, in lane order
   (faulted lanes, lanes that reached [ret] and parked lanes are
   removed).  [park.(l)] is the branch target lane [l] waits at, or -1.
   [sa] is the address scratch column for memory-terminated units:
   lane addresses are snapshotted there before the gather/scatter runs,
   which makes the column pass restartable (the slow fallback re-reads
   the same addresses even when a load's destination aliases its
   address register). *)
type soa_ctx = {
  sf : float array;
  si : int array;
  sp : bool array;
  act : int array;
  park : int array;
  sa : int array;
}

type program = {
  kname : string;  (** the kernel's entry name, for fault messages *)
  co : int array;  (** opcodes *)
  ca : int array;
  cb : int array;
  cc : int array;
  cd : int array;  (** operand indices / literals *)
  nfreg : int;  (** allocated register slots per file (see [allocate_registers]) *)
  nireg : int;
  npred : int;
  virtual_rows : int;  (** register rows the three files would need sized by virtual id *)
  fpool : float array;  (** float constants, installed at [nfreg..] *)
  ipool : int array;  (** int constants, installed at [nireg..] *)
  accesses : access array;
  soa : soa_plan;  (** superinstruction plan *)
}

(* The SoA executor is the only runtime path; the interface says why
   this constant stays. *)
let superinstructions_enabled () = true

type soa_stats = {
  spans : int;
  units : int;
  covered : int;
  total : int;
  rows : int;
  virtual_rows : int;
}

let superinsn_stats (p : program) =
  let s = p.soa in
  {
    spans = s.s_spans;
    units = s.s_units;
    covered = s.s_covered;
    total = Array.length p.co;
    rows = p.nfreg + p.nireg + p.npred;
    virtual_rows = p.virtual_rows;
  }

let math_functions : (string * (float -> float)) list =
  [
    ("sin", sin);
    ("cos", cos);
    ("tan", tan);
    ("exp", exp);
    ("log", log);
    ("sqrt", sqrt);
    ("rsqrt", fun x -> 1.0 /. sqrt x);
    ("fabs", abs_float);
    ("asin", asin);
    ("acos", acos);
    ("atan", atan);
  ]

(* Call targets.  A [Call] operand holds its function's index in this
   table, so the table's order is part of the decoded format: reorder or
   insert entries only together with a [decoder_version] bump. *)
let math_table = Array.of_list (List.map snd math_functions)

let lookup_math func =
  (* Subroutine names: qdpjit_<fn>_<f32|f64>. *)
  let rec find i = function
    | [] -> fault "unknown math subroutine %S" func
    | (n, _) :: rest ->
        if "qdpjit_" ^ n ^ "_f32" = func || "qdpjit_" ^ n ^ "_f64" = func then i
        else find (i + 1) rest
  in
  find 0 math_functions

(* ------------------------------------------------------------------ *)
(* Provenance analysis: a forward fixpoint over the body (generated
   kernels only branch forward, so this converges in a couple of
   passes).  Tracks per register (class, defining pointer param). *)

let rank = function Uniform -> 0 | Affine -> 1 | Slist -> 2 | Gather -> 3
let join a b = if rank a >= rank b then a else b

let analyze (k : kernel) =
  let params = Array.of_list k.params in
  let is_sitelist_param i =
    i >= 0
    && i < Array.length params
    &&
    let n = params.(i).pname in
    String.length n >= 8 && String.sub n 0 8 = "sitelist"
  in
  let prov : (dtype * int, access_class) Hashtbl.t = Hashtbl.create 64 in
  let base : (dtype * int, int option) Hashtbl.t = Hashtbl.create 16 in
  let changed = ref true in
  let getp r = match Hashtbl.find_opt prov (r.rtype, r.id) with Some c -> c | None -> Uniform in
  let getb r = match Hashtbl.find_opt base (r.rtype, r.id) with Some b -> b | None -> None in
  let setp_ r c =
    if rank c > rank (getp r) then begin
      Hashtbl.replace prov (r.rtype, r.id) c;
      changed := true
    end
  in
  (* Base lattice: unseen -> Some slot -> None (conflicting or derived). *)
  let setb r b =
    let key = (r.rtype, r.id) in
    match Hashtbl.find_opt base key with
    | None -> if b <> None then (Hashtbl.replace base key b; changed := true)
    | Some cur when cur = b -> ()
    | Some None -> ()
    | Some (Some _) ->
        Hashtbl.replace base key None;
        changed := true
  in
  let op_prov = function Reg r -> getp r | Imm_float _ | Imm_int _ -> Uniform in
  let op_base = function Reg r -> getb r | Imm_float _ | Imm_int _ -> None in
  let merge_base a b =
    match (a, b) with
    | (Some _ as p), None | None, (Some _ as p) -> p
    | None, None | Some _, Some _ -> None
  in
  let step instr =
    match instr with
    | Label _ | Ret | Bra _ | Setp _ | St_global _ | St_global_f16 _ -> ()
    | Ld_param { dst; param_index } ->
        setb dst
          (if
             param_index >= 0
             && param_index < Array.length params
             && params.(param_index).ptype = U64
           then Some param_index
           else None)
    | Mov { dst; src } ->
        setp_ dst (op_prov src);
        setb dst (op_base src)
    | Mov_sreg { dst; src } -> (
        match src with Tid_x | Ctaid_x -> setp_ dst Affine | Ntid_x | Nctaid_x -> ())
    | Add { dst; a; b; _ } ->
        setp_ dst (join (op_prov a) (op_prov b));
        setb dst (merge_base (op_base a) (op_base b))
    | Sub { dst; a; b; _ } | Mul { dst; a; b; _ } | Div { dst; a; b; _ } ->
        setp_ dst (join (op_prov a) (op_prov b))
    | Fma { dst; a; b; c; _ } -> setp_ dst (join (op_prov a) (join (op_prov b) (op_prov c)))
    | Shl { dst; a; _ } | Neg { dst; a; _ } -> setp_ dst (op_prov a)
    | Cvt { dst; src } ->
        setp_ dst (getp src);
        setb dst (getb src)
    | Call { ret; arg; _ } -> setp_ ret (getp arg)
    | Ld_global { dst; addr; _ } | Ld_global_f16 { dst; addr; _ } ->
        let cls =
          match getb addr with
          | Some p when is_sitelist_param p && rank (getp addr) <= rank Affine -> Slist
          | _ -> Gather
        in
        setp_ dst cls
  in
  while !changed do
    changed := false;
    List.iter step k.body
  done;
  let accs = ref [] in
  List.iter
    (fun instr ->
      match instr with
      | Ld_global { addr; _ } | Ld_global_f16 { addr; _ } ->
          accs :=
            {
              a_param = (match getb addr with Some p -> p | None -> -1);
              a_class = getp addr;
              a_store = false;
            }
            :: !accs
      | St_global { addr; _ } | St_global_f16 { addr; _ } ->
          accs :=
            {
              a_param = (match getb addr with Some p -> p | None -> -1);
              a_class = getp addr;
              a_store = true;
            }
            :: !accs
      | _ -> ())
    k.body;
  Array.of_list (List.rev !accs)

(* ------------------------------------------------------------------ *)
(* Superinstruction plan.  Spans end at every control instruction and
   at every branch target, so a lane parked at a target rejoins before
   the span that starts there; a kernel whose only branches exit to
   [ret] therefore has exactly the spans of its straight-line pieces. *)

let plan_soa co ca cb ninstr =
  let target = Array.make ninstr false in
  for k = 0 to ninstr - 1 do
    if is_bra co.(k) then target.(ca.(k)) <- true
    else if is_branch co.(k) then target.(cb.(k)) <- true
  done;
  let span_end = Array.make ninstr 0 in
  let next_stop = ref ninstr in
  for k = ninstr - 1 downto 0 do
    span_end.(k) <- !next_stop;
    if is_ctrl co.(k) || target.(k) then next_stop := k
  done;
  (* Unit partition.  Within a span, everything except integer
     division fuses into mixed chains; a global load/store terminates
     the chain it feeds (absorbing its address arithmetic) as a
     memory-terminated unit, and div.i sits in a one-instruction island
     under its own per-lane fault handler. *)
  let u_end = Array.make ninstr 0 and u_kind = Array.make ninstr 0 in
  let spans = ref 0 and units = ref 0 and covered = ref 0 in
  let k = ref 0 in
  while !k < ninstr do
    if is_ctrl co.(!k) then incr k
    else begin
      let e = span_end.(!k) in
      incr spans;
      covered := !covered + (e - !k);
      let j = ref !k in
      while !j < e do
        let s = !j in
        if is_div_i co.(s) then begin
          u_end.(s) <- s + 1;
          u_kind.(s) <- 2;
          j := s + 1
        end
        else begin
          let q = ref s and stop = ref false and kind = ref 0 in
          while (not !stop) && !q < e do
            let o = co.(!q) in
            if is_div_i o then stop := true
            else if is_mem o then begin
              incr q;
              kind := 1;
              stop := true
            end
            else incr q
          done;
          u_end.(s) <- !q;
          u_kind.(s) <- !kind;
          j := !q
        end;
        incr units
      done;
      k := e
    end
  done;
  { span_end; u_end; u_kind; s_spans = !spans; s_units = !units; s_covered = !covered }

(* ------------------------------------------------------------------ *)
(* Register allocation.  The generators hand out about one virtual
   register per instruction, so files sized by virtual id would carry
   rows that are almost never live together.  [compile] instead packs
   each register file — floats (f32 and f64 share one), integers
   (s32/u32/s64/u64 share one) and predicates — by linear scan over
   live intervals.

   A virtual register's interval is [first occurrence, last occurrence]
   in instruction order, defs and uses alike (a dead redefinition past
   the last read still needs a slot nobody live is using).  No CFG is
   needed for soundness: branches only jump forward and every read is
   definitely assigned ([compile] checks both), so if [r] is live at
   [p] — some path continues from [p] to a read of [r] without a
   redefinition — then a definition of [r] precedes [p] on the path
   that reached it, and textual order is path order, so [p] lies inside
   [r]'s interval.  Two registers whose intervals are disjoint are
   therefore never live together, on any lane, parked or not; and
   since a lane's path is a textually increasing walk, the slot a lane
   reads holds the value its own path last wrote to that register, so
   rows still need no zeroing.

   A slot freed by a register's last read at instruction [k] may be
   taken by [k]'s own destination.  That is sound because every
   executor arm is elementwise: it reads lane [l]'s sources before it
   writes lane [l]'s destination and touches no other lane of the
   destination row — the unrolled dense ladders go lane by lane, a
   dense mov is an [Array.blit] (a no-op on identical rows), and a load
   whose destination is its own address register reads the address from
   the [sa] snapshot, so its fast-pass-then-replay path never sees the
   overwritten row.  A register that is only written (first = last =
   [k]) is freed after [k]'s allocation, never shared with a value
   [k] reads.

   Free slots are kept in a LIFO per file, so the slot just released is
   the next one handed out and the hot rows stay few.  The whole pass is
   linear in the body and builds no per-instruction lists: intervals in
   one walk, then one sweep that at each instruction frees the
   intervals ending there, assigns the one starting there, and frees it
   again at once if it is never read. *)

let class_index = function
  | F32 -> 0
  | F64 -> 1
  | S32 -> 2
  | U32 -> 3
  | S64 -> 4
  | U64 -> 5
  | Pred -> 6

(* Register file of each class: 0 floats, 1 integers, 2 predicates. *)
let file_of_class = [| 0; 0; 1; 1; 1; 1; 2 |]

type allocation = {
  phys : int array array;  (** per class, virtual id -> slot in its file; -1 unused *)
  files : int array;  (** allocated slots per file: floats, integers, predicates *)
  virtual_files : int array;  (** the same files sized by virtual id *)
}

let allocate_registers (k : kernel) =
  let body = Array.of_list k.body in
  let maxid = Array.make 7 (-1) in
  Array.iter
    (Ptx.Dataflow.iter_regs (fun r ->
         let c = class_index r.rtype in
         if r.id > maxid.(c) then maxid.(c) <- r.id))
    body;
  let per_class () = Array.map (fun m -> Array.make (m + 1) (-1)) maxid in
  let first = per_class () and last = per_class () and phys = per_class () in
  let at = ref 0 in
  let touch r =
    let c = class_index r.rtype in
    if first.(c).(r.id) < 0 then first.(c).(r.id) <- !at;
    last.(c).(r.id) <- !at
  in
  Array.iteri
    (fun i instr ->
      at := i;
      Ptx.Dataflow.iter_regs touch instr)
    body;
  let free = Array.make 3 [] and files = Array.make 3 0 in
  (* A released register's [last] becomes -1, so a register read twice
     by one instruction is freed once. *)
  let release ~starts_here r =
    let c = class_index r.rtype in
    if last.(c).(r.id) = !at && (first.(c).(r.id) = !at) = starts_here then begin
      let f = file_of_class.(c) in
      free.(f) <- phys.(c).(r.id) :: free.(f);
      last.(c).(r.id) <- -1
    end
  in
  let assign r =
    let c = class_index r.rtype in
    if first.(c).(r.id) = !at && phys.(c).(r.id) < 0 then begin
      let f = file_of_class.(c) in
      match free.(f) with
      | s :: rest ->
          free.(f) <- rest;
          phys.(c).(r.id) <- s
      | [] ->
          phys.(c).(r.id) <- files.(f);
          files.(f) <- files.(f) + 1
    end
  in
  let release_ending = release ~starts_here:false
  and release_unread = release ~starts_here:true in
  Array.iteri
    (fun i instr ->
      at := i;
      Ptx.Dataflow.iter_regs release_ending instr;
      Ptx.Dataflow.iter_regs assign instr;
      Ptx.Dataflow.iter_regs release_unread instr)
    body;
  let virtual_files = Array.make 3 0 in
  Array.iteri
    (fun c m ->
      let f = file_of_class.(c) in
      virtual_files.(f) <- virtual_files.(f) + m + 1)
    maxid;
  { phys; files; virtual_files }

let slot a r = a.phys.(class_index r.rtype).(r.id)

(* ------------------------------------------------------------------ *)
(* Decode. *)

(* [compile] checks the executors' preconditions once, here: the
   validator's typing and textual def-before-use rules, branches that
   only jump forward to an instruction, a final [ret], and definite
   assignment on the real control-flow graph.  The last is what lets
   SoA register rows go unzeroed between lanes, tiles and ctas — no
   lane ever reads a register it did not write on its own path. *)
let compile (kernel : kernel) =
  let invalid f = try f kernel with Ptx.Validate.Invalid m -> fault "invalid kernel: %s" m in
  invalid Ptx.Validate.kernel;
  let alloc = allocate_registers kernel in
  let nfreg = alloc.files.(0) and nireg = alloc.files.(1) in
  let npred = max 1 alloc.files.(2) in
  let freg r =
    if is_float r.rtype then slot alloc r else invalid_arg "Vm: float access to integer class"
  in
  let ireg r =
    if is_int r.rtype then slot alloc r else invalid_arg "Vm: integer access to float class"
  in
  (* Immediates become constant-pool slots past the register files, so
     every operand is a plain index into the same flat file. *)
  let fpool = ref [] and fpool_n = ref 0 and fpool_tbl = Hashtbl.create 8 in
  let fconst v =
    let key = Int64.bits_of_float v in
    match Hashtbl.find_opt fpool_tbl key with
    | Some slot -> slot
    | None ->
        let slot = nfreg + !fpool_n in
        incr fpool_n;
        fpool := v :: !fpool;
        Hashtbl.add fpool_tbl key slot;
        slot
  in
  let ipool = ref [] and ipool_n = ref 0 and ipool_tbl = Hashtbl.create 8 in
  let iconst v =
    match Hashtbl.find_opt ipool_tbl v with
    | Some slot -> slot
    | None ->
        let slot = nireg + !ipool_n in
        incr ipool_n;
        ipool := v :: !ipool;
        Hashtbl.add ipool_tbl v slot;
        slot
  in
  let fop = function
    | Reg r -> freg r
    | Imm_float v -> fconst v
    | Imm_int i -> fconst (float_of_int i)
  in
  let iop = function
    | Reg r -> ireg r
    | Imm_int i -> iconst i
    | Imm_float _ -> invalid_arg "Vm: float immediate in integer instruction"
  in
  (* Compact labels away; branch targets become instruction indices. *)
  let body = Array.of_list kernel.body in
  let n = Array.length body in
  let idx_of = Array.make n 0 in
  let labels = Hashtbl.create 8 in
  let ninstr = ref 0 in
  for i = 0 to n - 1 do
    idx_of.(i) <- !ninstr;
    match body.(i) with Label l -> Hashtbl.replace labels l i | _ -> incr ninstr
  done;
  let ninstr = !ninstr in
  let label_pos l =
    match Hashtbl.find_opt labels l with
    | Some i -> idx_of.(i)
    | None -> fault "undefined label %S" l
  in
  let sz = max 1 ninstr in
  let co = Array.make sz 0
  and ca = Array.make sz 0
  and cb = Array.make sz 0
  and cc = Array.make sz 0
  and cd = Array.make sz 0 in
  let j = ref 0 in
  let emit o a b c d =
    co.(!j) <- o;
    ca.(!j) <- a;
    cb.(!j) <- b;
    cc.(!j) <- c;
    cd.(!j) <- d;
    incr j
  in
  Array.iter
    (fun instr ->
      match instr with
      | Label _ -> ()
      | Ret -> emit 0 0 0 0 0
      | Add { dtype; dst; a; b } ->
          if is_float dtype then emit 1 (freg dst) (fop a) (fop b) 0
          else emit 7 (ireg dst) (iop a) (iop b) 0
      | Sub { dtype; dst; a; b } ->
          if is_float dtype then emit 2 (freg dst) (fop a) (fop b) 0
          else emit 8 (ireg dst) (iop a) (iop b) 0
      | Mul { dtype; dst; a; b } ->
          if is_float dtype then emit 3 (freg dst) (fop a) (fop b) 0
          else emit 9 (ireg dst) (iop a) (iop b) 0
      | Div { dtype; dst; a; b } ->
          if is_float dtype then emit 4 (freg dst) (fop a) (fop b) 0
          else emit 10 (ireg dst) (iop a) (iop b) 0
      | Fma { dtype; dst; a; b; c } ->
          if is_float dtype then emit 5 (freg dst) (fop a) (fop b) (fop c)
          else emit 11 (ireg dst) (iop a) (iop b) (iop c)
      | Neg { dtype; dst; a } ->
          if is_float dtype then emit 6 (freg dst) (fop a) 0 0 else emit 13 (ireg dst) (iop a) 0 0
      | Shl { dtype; dst; a; amount } ->
          if is_float dtype then fault "shl on float registers"
          else emit 12 (ireg dst) (iop a) amount 0
      | Mov { dst; src } -> (
          match dst.rtype with
          | F32 | F64 -> emit 14 (freg dst) (fop src) 0 0
          | S32 | U32 | S64 | U64 -> emit 15 (ireg dst) (iop src) 0 0
          | Pred -> fault "mov on predicates unsupported")
      | Cvt { dst; src } -> (
          match (is_float dst.rtype, is_float src.rtype) with
          | true, true ->
              if dst.rtype = F32 then emit 16 (freg dst) (freg src) 0 0
              else emit 14 (freg dst) (freg src) 0 0
          | true, false -> emit 17 (freg dst) (ireg src) 0 0
          | false, true -> emit 18 (ireg dst) (freg src) 0 0
          | false, false -> emit 15 (ireg dst) (ireg src) 0 0)
      | Setp { cmp; dtype; dst; a; b } ->
          let off = match cmp with Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5 in
          if is_float dtype then emit (19 + off) (slot alloc dst) (fop a) (fop b) 0
          else emit (25 + off) (slot alloc dst) (iop a) (iop b) 0
      | Bra { label; pred } -> (
          let target = label_pos label in
          if target <= !j || target >= ninstr then
            fault "branch to %S at instruction %d is not forward within %s" label !j
              kernel.kname;
          match pred with
          | None -> emit 31 target 0 0 0
          | Some p -> emit 32 (slot alloc p) target 0 0)
      | Mov_sreg { dst; src } ->
          let code = match src with Tid_x -> 33 | Ntid_x -> 34 | Ctaid_x -> 35 | Nctaid_x -> 36 in
          emit code (ireg dst) 0 0 0
      | Ld_param { dst; param_index } -> (
          match dst.rtype with
          | U64 -> emit 37 (ireg dst) param_index 0 0
          | S32 | U32 -> emit 38 (ireg dst) param_index 0 0
          | F32 | F64 -> emit 39 (freg dst) param_index 0 0
          | S64 | Pred -> fault "unsupported ld.param class")
      | Ld_global { dtype; dst; addr; offset } -> (
          match dtype with
          | F32 -> emit 40 (freg dst) (ireg addr) offset 0
          | F64 -> emit 41 (freg dst) (ireg addr) offset 0
          | S32 | U32 -> emit 42 (ireg dst) (ireg addr) offset 0
          | S64 | U64 | Pred -> fault "unsupported ld.global class")
      | St_global { dtype; addr; offset; src } -> (
          match dtype with
          | F32 -> emit 43 (fop src) (ireg addr) offset 0
          | F64 -> emit 44 (fop src) (ireg addr) offset 0
          | S32 | U32 -> emit 45 (iop src) (ireg addr) offset 0
          | S64 | U64 | Pred -> fault "unsupported st.global class")
      | Ld_global_f16 { dst; addr; offset } -> emit 48 (freg dst) (ireg addr) offset 0
      | St_global_f16 { addr; offset; src } -> emit 49 (fop src) (ireg addr) offset 0
      | Call { func; ret; arg } ->
          let fi = lookup_math func in
          if ret.rtype = F32 then emit 47 (freg ret) (freg arg) fi 0
          else emit 46 (freg ret) (freg arg) fi 0)
    body;
  if ninstr > 0 && not (is_ret co.(ninstr - 1)) then
    fault "kernel %s does not end in ret" kernel.kname;
  invalid Ptx.Validate.dataflow;
  {
    kname = kernel.kname;
    co;
    ca;
    cb;
    cc;
    cd;
    nfreg;
    nireg;
    npred;
    virtual_rows =
      alloc.virtual_files.(0) + alloc.virtual_files.(1) + max 1 alloc.virtual_files.(2);
    fpool = Array.of_list (List.rev !fpool);
    ipool = Array.of_list (List.rev !ipool);
    accesses = analyze kernel;
    soa = plan_soa co ca cb ninstr;
  }

(* ------------------------------------------------------------------ *)
(* Version 7: a program keeps the kernel's name instead of its parsed
   IR, [Call] operands index [math_table] instead of a per-program
   closure table, and no scratch rides on the program.  Version 6:
   operand indices are physical slots from [allocate_registers], and the
   register files and constant pools are sized by allocated slots
   instead of virtual ids.  Either change alters the marshalled shape,
   so the bump makes stale jitcache entries miss. *)
let decoder_version = 7

(* ------------------------------------------------------------------ *)
(* Register files.  Each domain owns one SoA arena that only it grows,
   to the largest program it has run, so nothing needs sizing before
   workers start.  Programs share the rows, so every span installs its
   program's constant pools before it runs.  The arena is per domain,
   not per worker index, because [Multi.par_ranks] runs several ranks'
   sweeps at once, each inline as worker 0 on its own domain. *)

let new_arena ~nf ~ni ~np =
  {
    sf = Array.make (nf * tile) 0.0;
    si = Array.make (ni * tile) 0;
    sp = Array.make (np * tile) false;
    act = Array.make tile 0;
    park = Array.make tile (-1);
    sa = Array.make tile 0;
  }

let arena_key = Domain.DLS.new_key (fun () -> new_arena ~nf:0 ~ni:0 ~np:0)

(* The calling domain's arena, grown to fit [p]'s rows per file:
   registers, then constant pools. *)
let arena p =
  let a = Domain.DLS.get arena_key in
  let nf = p.nfreg + Array.length p.fpool and ni = p.nireg + Array.length p.ipool in
  let rows v = Array.length v / tile in
  if nf <= rows a.sf && ni <= rows a.si && p.npred <= rows a.sp then a
  else begin
    let a =
      new_arena ~nf:(max nf (rows a.sf)) ~ni:(max ni (rows a.si)) ~np:(max p.npred (rows a.sp))
    in
    Domain.DLS.set arena_key a;
    a
  end

(* SoA rows for a span of [p]: [tile] lanes per physical slot, constant
   pools broadcast across their rows past the allocated slots.  No
   zeroing is ever needed, not even between programs: [compile] proved
   every register is written before it is read on each path, and the
   allocator never lets another register write a slot between a
   register's definition and its reads on any path — which is also why
   the one-lane tiles of a rejected launch can reuse lane 0's rows for
   every thread of the span. *)
let bind_soa p =
  let s = arena p in
  Array.iteri (fun pi v -> Array.fill s.sf ((p.nfreg + pi) * tile) tile v) p.fpool;
  Array.iteri (fun pi v -> Array.fill s.si ((p.nireg + pi) * tile) tile v) p.ipool;
  s

(* ------------------------------------------------------------------ *)
(* Per-lane memory access and the reference interpreter. *)

let round32 v = Int32.float_of_bits (Int32.bits_of_float v)

(* One global load or store for one lane, shared by the SoA executor
   and the reference interpreter: [o] is the memory opcode, [addr] the
   effective byte address and [r] the value register's index into [f]
   (float classes) or [i] (i32).  Buffer lookup, kind check and
   alignment check run in that order, so a lane faults with the same
   message whichever of the two runs it. *)
let mem_lane lookup o addr (f : float array) (i : int array) r =
  let off = addr land Buffer.offset_mask in
  match (o, lookup (addr lsr Buffer.offset_bits)) with
  | 40, Buffer.F32 a ->
      if off land 3 <> 0 then fault "misaligned f32 load";
      f.(r) <- Bigarray.Array1.get a (off lsr 2)
  | 41, Buffer.F64 a ->
      if off land 7 <> 0 then fault "misaligned f64 load";
      f.(r) <- Bigarray.Array1.get a (off lsr 3)
  | 42, Buffer.I32 a ->
      if off land 3 <> 0 then fault "misaligned i32 load";
      i.(r) <- Int32.to_int (Bigarray.Array1.get a (off lsr 2))
  | 43, Buffer.F32 a ->
      if off land 3 <> 0 then fault "misaligned f32 store";
      Bigarray.Array1.set a (off lsr 2) f.(r)
  | 44, Buffer.F64 a ->
      if off land 7 <> 0 then fault "misaligned f64 store";
      Bigarray.Array1.set a (off lsr 3) f.(r)
  | 45, Buffer.I32 a ->
      if off land 3 <> 0 then fault "misaligned i32 store";
      Bigarray.Array1.set a (off lsr 2) (Int32.of_int i.(r))
  | 48, Buffer.F16 a ->
      if off land 1 <> 0 then fault "misaligned f16 load";
      f.(r) <- Half.float_of_bits (Bigarray.Array1.get a (off lsr 1))
  | 49, Buffer.F16 a ->
      if off land 1 <> 0 then fault "misaligned f16 store";
      Bigarray.Array1.set a (off lsr 1) (Half.bits_of_float f.(r))
  | 42, _ -> fault "typed integer load does not match buffer kind"
  | 45, _ -> fault "typed integer store does not match buffer kind"
  | (40 | 41 | 48), _ -> fault "typed load does not match buffer kind"
  | _ -> fault "typed store does not match buffer kind"

(* The reference interpreter: one thread at a time over scalar register
   files, a plain reading of the decoded program.  No runtime path
   reaches it; [run_reference] drives it for the tests and the bench
   A/B that hold the SoA executor to it. *)
type wctx = { wf : float array; wi : int array; wp : bool array }

let exec_thread p (lookup : int -> Buffer.data) (args : param_value array) (w : wctx) ~tid
    ~ctaid ~ntid ~nctaid =
  let co = p.co and ca = p.ca and cb = p.cb and cc = p.cc and cd = p.cd in
  let f = w.wf and i = w.wi and pr = w.wp in
  let pc = ref 0 in
  while !pc >= 0 do
    let k = !pc in
    let next = k + 1 in
    match co.(k) with
    | 0 -> pc := -1
    | 1 ->
        f.(ca.(k)) <- f.(cb.(k)) +. f.(cc.(k));
        pc := next
    | 2 ->
        f.(ca.(k)) <- f.(cb.(k)) -. f.(cc.(k));
        pc := next
    | 3 ->
        f.(ca.(k)) <- f.(cb.(k)) *. f.(cc.(k));
        pc := next
    | 4 ->
        f.(ca.(k)) <- f.(cb.(k)) /. f.(cc.(k));
        pc := next
    | 5 ->
        f.(ca.(k)) <- (f.(cb.(k)) *. f.(cc.(k))) +. f.(cd.(k));
        pc := next
    | 6 ->
        f.(ca.(k)) <- -.f.(cb.(k));
        pc := next
    | 7 ->
        i.(ca.(k)) <- i.(cb.(k)) + i.(cc.(k));
        pc := next
    | 8 ->
        i.(ca.(k)) <- i.(cb.(k)) - i.(cc.(k));
        pc := next
    | 9 ->
        i.(ca.(k)) <- i.(cb.(k)) * i.(cc.(k));
        pc := next
    | 10 ->
        let d = i.(cc.(k)) in
        if d = 0 then fault "integer division by zero";
        i.(ca.(k)) <- i.(cb.(k)) / d;
        pc := next
    | 11 ->
        i.(ca.(k)) <- (i.(cb.(k)) * i.(cc.(k))) + i.(cd.(k));
        pc := next
    | 12 ->
        i.(ca.(k)) <- i.(cb.(k)) lsl cc.(k);
        pc := next
    | 13 ->
        i.(ca.(k)) <- -i.(cb.(k));
        pc := next
    | 14 ->
        f.(ca.(k)) <- f.(cb.(k));
        pc := next
    | 15 ->
        i.(ca.(k)) <- i.(cb.(k));
        pc := next
    | 16 ->
        f.(ca.(k)) <- round32 f.(cb.(k));
        pc := next
    | 17 ->
        f.(ca.(k)) <- float_of_int i.(cb.(k));
        pc := next
    | 18 ->
        i.(ca.(k)) <- int_of_float f.(cb.(k));
        pc := next
    | 19 ->
        pr.(ca.(k)) <- f.(cb.(k)) = f.(cc.(k));
        pc := next
    | 20 ->
        pr.(ca.(k)) <- f.(cb.(k)) <> f.(cc.(k));
        pc := next
    | 21 ->
        pr.(ca.(k)) <- f.(cb.(k)) < f.(cc.(k));
        pc := next
    | 22 ->
        pr.(ca.(k)) <- f.(cb.(k)) <= f.(cc.(k));
        pc := next
    | 23 ->
        pr.(ca.(k)) <- f.(cb.(k)) > f.(cc.(k));
        pc := next
    | 24 ->
        pr.(ca.(k)) <- f.(cb.(k)) >= f.(cc.(k));
        pc := next
    | 25 ->
        pr.(ca.(k)) <- i.(cb.(k)) = i.(cc.(k));
        pc := next
    | 26 ->
        pr.(ca.(k)) <- i.(cb.(k)) <> i.(cc.(k));
        pc := next
    | 27 ->
        pr.(ca.(k)) <- i.(cb.(k)) < i.(cc.(k));
        pc := next
    | 28 ->
        pr.(ca.(k)) <- i.(cb.(k)) <= i.(cc.(k));
        pc := next
    | 29 ->
        pr.(ca.(k)) <- i.(cb.(k)) > i.(cc.(k));
        pc := next
    | 30 ->
        pr.(ca.(k)) <- i.(cb.(k)) >= i.(cc.(k));
        pc := next
    | 31 -> pc := ca.(k)
    | 32 -> pc := if pr.(ca.(k)) then cb.(k) else next
    | 33 ->
        i.(ca.(k)) <- tid;
        pc := next
    | 34 ->
        i.(ca.(k)) <- ntid;
        pc := next
    | 35 ->
        i.(ca.(k)) <- ctaid;
        pc := next
    | 36 ->
        i.(ca.(k)) <- nctaid;
        pc := next
    | 37 ->
        (match args.(cb.(k)) with
        | Ptr b -> i.(ca.(k)) <- Buffer.address b
        | Int _ | Float _ -> fault "ld.param.u64 on non-pointer parameter");
        pc := next
    | 38 ->
        (match args.(cb.(k)) with
        | Int v -> i.(ca.(k)) <- v
        | Ptr _ | Float _ -> fault "ld.param.%%r on non-integer parameter");
        pc := next
    | 39 ->
        (match args.(cb.(k)) with
        | Float v -> f.(ca.(k)) <- v
        | Ptr _ | Int _ -> fault "ld.param float on non-float parameter");
        pc := next
    | 40 | 41 | 42 | 43 | 44 | 45 | 48 | 49 ->
        mem_lane lookup co.(k) (i.(cb.(k)) + cc.(k)) f i ca.(k);
        pc := next
    | 46 ->
        f.(ca.(k)) <- math_table.(cc.(k)) f.(cb.(k));
        pc := next
    | 47 ->
        f.(ca.(k)) <- round32 (math_table.(cc.(k)) f.(cb.(k)));
        pc := next
    | _ -> fault "corrupt opcode"
  done

(* ------------------------------------------------------------------ *)
(* Superinstruction (structure-of-arrays) execution of one cta.

   A cta runs as consecutive tiles of [lanes] lanes ([tile] or 1), in
   lane order, lane [l] of the tile at base [b] being thread [b + l].
   Register rows keep their [tile] stride whatever the width, so a
   one-lane tile simply uses lane 0 of every row.  Inside a tile
   every active lane advances through the program lock-step, one fused
   dispatch per plan unit (see [soa_plan]): mixed ALU chains run their
   instructions back-to-back over the flat register rows, with the
   dense fast path walking lanes in [lane_block]-wide unrolled blocks;
   memory-terminated chains snapshot lane addresses into the [sa]
   scratch column and resolve the target buffer once per tile; and
   integer-division islands keep their per-lane fault handler.

   Branches work by lane parking, the way predicated SIMT lanes idle
   until their branch target.  A [bra.pred] removes the lanes whose
   predicate holds from the active set and parks them at its target;
   an unconditional [bra] parks every active lane.  When the walk
   reaches a target, the lanes parked there merge back into the active
   set in lane order.  When no lane is active the walk jumps to the
   nearest target that has parked lanes.  [ret] retires the active
   lanes, and a branch to a [ret] retires its lanes at once: parked
   lanes that would never come back.  Since branches only go forward,
   the walk visits every instruction at most once per tile and each
   lane executes exactly its own path, in its order.

   One-lane tiles run each thread's whole path before the next thread
   starts, which is the scalar (lane-major) sweep by construction; the
   launches [parallel_ok] rejects run that way, so cross-thread
   dependences such as the in-place [p = shift p] gather see exactly the
   sequential order.  For launches [parallel_ok] admits, 64-lane tiles
   are bit-identical to the same sweep: lanes are independent except
   for the radix-8 reduction-tail contract, whose only cross-lane
   reads-after-writes flow from lower lanes at earlier program points
   to a later lane at a later program point — an order lock-step
   preserves within a tile, and lower tiles finish before higher ones
   start.

   Fault determinism: lanes that fault are recorded and deactivated,
   the rest of the tile (parked lanes included) runs on, and the
   *lowest* faulted lane is reported; the cta stops after the first
   tile that faults.  Lanes below the lowest fault complete and behave
   exactly as in the scalar sweep (they read nothing from higher
   lanes), so the lowest fault is the fault the scalar sweep would hit
   first — same lane, same message.  Memory past that fault is
   unspecified, as in the scalar contract.  Faults raised outside a
   per-lane handler (parameter-class mismatches, corrupt opcodes —
   conditions uniform across lanes) retire every active lane and are
   charged to the lowest, which is the lane the scalar sweep would
   fault on among them.  The column-resident fast pass of a memory unit
   may partially execute before bailing to the per-lane slow pass; that
   is safe because the unit is idempotent once [sa] is snapshotted —
   re-running a lane's load or store reads the same address and the
   same unchanged source column, so the slow pass reproduces the exact
   per-lane outcomes (values and fault messages) of the scalar sweep.

   Returns the lowest faulted [(tid, exn)], or [None]. *)

let lane_block = 8

(* Lane-blocked dense float ladder bodies.  On the dense fast path the
   active set is the identity prefix [0, n), so these run over
   contiguous column segments in [lane_block]-wide unrolled blocks of
   unsafe accesses — no per-lane indirection or branching, the bounds
   reasoning amortized across the block.  Callers pass row origins
   ([reg * tile]) and guarantee [n <= tile], so every touched index is in
   bounds.  Lanes are independent columns, so a block is safe even when
   the destination row aliases a source row. *)

let add_dense sf ba bb bc n =
  let nb = n - (n land (lane_block - 1)) in
  let l = ref 0 in
  while !l < nb do
    let i = !l in
    Array.unsafe_set sf (ba + i)
      (Array.unsafe_get sf (bb + i) +. Array.unsafe_get sf (bc + i));
    Array.unsafe_set sf (ba + i + 1)
      (Array.unsafe_get sf (bb + i + 1) +. Array.unsafe_get sf (bc + i + 1));
    Array.unsafe_set sf (ba + i + 2)
      (Array.unsafe_get sf (bb + i + 2) +. Array.unsafe_get sf (bc + i + 2));
    Array.unsafe_set sf (ba + i + 3)
      (Array.unsafe_get sf (bb + i + 3) +. Array.unsafe_get sf (bc + i + 3));
    Array.unsafe_set sf (ba + i + 4)
      (Array.unsafe_get sf (bb + i + 4) +. Array.unsafe_get sf (bc + i + 4));
    Array.unsafe_set sf (ba + i + 5)
      (Array.unsafe_get sf (bb + i + 5) +. Array.unsafe_get sf (bc + i + 5));
    Array.unsafe_set sf (ba + i + 6)
      (Array.unsafe_get sf (bb + i + 6) +. Array.unsafe_get sf (bc + i + 6));
    Array.unsafe_set sf (ba + i + 7)
      (Array.unsafe_get sf (bb + i + 7) +. Array.unsafe_get sf (bc + i + 7));
    l := i + lane_block
  done;
  for i = nb to n - 1 do
    Array.unsafe_set sf (ba + i)
      (Array.unsafe_get sf (bb + i) +. Array.unsafe_get sf (bc + i))
  done

let sub_dense sf ba bb bc n =
  let nb = n - (n land (lane_block - 1)) in
  let l = ref 0 in
  while !l < nb do
    let i = !l in
    Array.unsafe_set sf (ba + i)
      (Array.unsafe_get sf (bb + i) -. Array.unsafe_get sf (bc + i));
    Array.unsafe_set sf (ba + i + 1)
      (Array.unsafe_get sf (bb + i + 1) -. Array.unsafe_get sf (bc + i + 1));
    Array.unsafe_set sf (ba + i + 2)
      (Array.unsafe_get sf (bb + i + 2) -. Array.unsafe_get sf (bc + i + 2));
    Array.unsafe_set sf (ba + i + 3)
      (Array.unsafe_get sf (bb + i + 3) -. Array.unsafe_get sf (bc + i + 3));
    Array.unsafe_set sf (ba + i + 4)
      (Array.unsafe_get sf (bb + i + 4) -. Array.unsafe_get sf (bc + i + 4));
    Array.unsafe_set sf (ba + i + 5)
      (Array.unsafe_get sf (bb + i + 5) -. Array.unsafe_get sf (bc + i + 5));
    Array.unsafe_set sf (ba + i + 6)
      (Array.unsafe_get sf (bb + i + 6) -. Array.unsafe_get sf (bc + i + 6));
    Array.unsafe_set sf (ba + i + 7)
      (Array.unsafe_get sf (bb + i + 7) -. Array.unsafe_get sf (bc + i + 7));
    l := i + lane_block
  done;
  for i = nb to n - 1 do
    Array.unsafe_set sf (ba + i)
      (Array.unsafe_get sf (bb + i) -. Array.unsafe_get sf (bc + i))
  done

let mul_dense sf ba bb bc n =
  let nb = n - (n land (lane_block - 1)) in
  let l = ref 0 in
  while !l < nb do
    let i = !l in
    Array.unsafe_set sf (ba + i)
      (Array.unsafe_get sf (bb + i) *. Array.unsafe_get sf (bc + i));
    Array.unsafe_set sf (ba + i + 1)
      (Array.unsafe_get sf (bb + i + 1) *. Array.unsafe_get sf (bc + i + 1));
    Array.unsafe_set sf (ba + i + 2)
      (Array.unsafe_get sf (bb + i + 2) *. Array.unsafe_get sf (bc + i + 2));
    Array.unsafe_set sf (ba + i + 3)
      (Array.unsafe_get sf (bb + i + 3) *. Array.unsafe_get sf (bc + i + 3));
    Array.unsafe_set sf (ba + i + 4)
      (Array.unsafe_get sf (bb + i + 4) *. Array.unsafe_get sf (bc + i + 4));
    Array.unsafe_set sf (ba + i + 5)
      (Array.unsafe_get sf (bb + i + 5) *. Array.unsafe_get sf (bc + i + 5));
    Array.unsafe_set sf (ba + i + 6)
      (Array.unsafe_get sf (bb + i + 6) *. Array.unsafe_get sf (bc + i + 6));
    Array.unsafe_set sf (ba + i + 7)
      (Array.unsafe_get sf (bb + i + 7) *. Array.unsafe_get sf (bc + i + 7));
    l := i + lane_block
  done;
  for i = nb to n - 1 do
    Array.unsafe_set sf (ba + i)
      (Array.unsafe_get sf (bb + i) *. Array.unsafe_get sf (bc + i))
  done

let fma_dense sf ba bb bc bd n =
  let nb = n - (n land (lane_block - 1)) in
  let l = ref 0 in
  while !l < nb do
    let i = !l in
    Array.unsafe_set sf (ba + i)
      ((Array.unsafe_get sf (bb + i) *. Array.unsafe_get sf (bc + i))
      +. Array.unsafe_get sf (bd + i));
    Array.unsafe_set sf (ba + i + 1)
      ((Array.unsafe_get sf (bb + i + 1) *. Array.unsafe_get sf (bc + i + 1))
      +. Array.unsafe_get sf (bd + i + 1));
    Array.unsafe_set sf (ba + i + 2)
      ((Array.unsafe_get sf (bb + i + 2) *. Array.unsafe_get sf (bc + i + 2))
      +. Array.unsafe_get sf (bd + i + 2));
    Array.unsafe_set sf (ba + i + 3)
      ((Array.unsafe_get sf (bb + i + 3) *. Array.unsafe_get sf (bc + i + 3))
      +. Array.unsafe_get sf (bd + i + 3));
    Array.unsafe_set sf (ba + i + 4)
      ((Array.unsafe_get sf (bb + i + 4) *. Array.unsafe_get sf (bc + i + 4))
      +. Array.unsafe_get sf (bd + i + 4));
    Array.unsafe_set sf (ba + i + 5)
      ((Array.unsafe_get sf (bb + i + 5) *. Array.unsafe_get sf (bc + i + 5))
      +. Array.unsafe_get sf (bd + i + 5));
    Array.unsafe_set sf (ba + i + 6)
      ((Array.unsafe_get sf (bb + i + 6) *. Array.unsafe_get sf (bc + i + 6))
      +. Array.unsafe_get sf (bd + i + 6));
    Array.unsafe_set sf (ba + i + 7)
      ((Array.unsafe_get sf (bb + i + 7) *. Array.unsafe_get sf (bc + i + 7))
      +. Array.unsafe_get sf (bd + i + 7));
    l := i + lane_block
  done;
  for i = nb to n - 1 do
    Array.unsafe_set sf (ba + i)
      ((Array.unsafe_get sf (bb + i) *. Array.unsafe_get sf (bc + i))
      +. Array.unsafe_get sf (bd + i))
  done

let exec_cta_soa p (lookup : int -> Buffer.data) (args : param_value array) (s : soa_ctx)
    ~lanes ~ctaid ~block ~grid =
  let plan = p.soa in
  let ninstr = Array.length plan.span_end in
  let co = p.co and ca = p.ca and cb = p.cb and cc = p.cc and cd = p.cd in
  let sf = s.sf and si = s.si and sp = s.sp and act = s.act and park = s.park and sa = s.sa in
  let nl = tile in
  let obits = Buffer.offset_bits and omask = Buffer.offset_mask in
  (* The current tile is threads [base, base + width). *)
  let base = ref 0 and width = ref 0 in
  let nact = ref 0 in
  (* [act] stays sorted (it starts as the identity, and compaction and
     merging preserve lane order), so it is the identity prefix — and
     the hot arms can skip the indirection — exactly when its last
     entry equals its index.  That is the common case: a full tile
     whose bounds guard retires no lane stays dense for the whole
     program. *)
  let dense = ref true in
  let set_dense () = dense := !nact = 0 || act.(!nact - 1) = !nact - 1 in
  (* The nearest branch target some lane is parked at; max_int if none. *)
  let next_merge = ref max_int in
  let fmin = ref max_int and fexn = ref None in
  let faulted = ref false in
  let record l e =
    if l < !fmin then begin
      fmin := l;
      fexn := Some e
    end;
    faulted := true
  in
  (* Drop lanes a per-lane fault handler marked with -1. *)
  let compact () =
    let keep = ref 0 in
    for ai = 0 to !nact - 1 do
      let l = act.(ai) in
      if l >= 0 then begin
        act.(!keep) <- l;
        incr keep
      end
    done;
    nact := !keep;
    set_dense ();
    faulted := false
  in
  (* One mixed ALU chain: instructions [k0, k1) executed back-to-back.
     Every chain op is either non-faulting or lane-uniform
     (parameter-class mismatches), so the caller wraps the whole chain
     in a single uniform-fault scope and no per-lane handler runs on
     this path.  [n] and [d] are chain-invariant: nothing inside a
     chain retires or faults individual lanes. *)
  let exec_chain k0 k1 =
    let n = !nact in
    let d = !dense in
    for k = k0 to k1 - 1 do
      match co.(k) with
      | 1 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then add_dense sf ba bb bc n
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l)
                (Array.unsafe_get sf (bb + l) +. Array.unsafe_get sf (bc + l))
            done
      | 2 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then sub_dense sf ba bb bc n
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l)
                (Array.unsafe_get sf (bb + l) -. Array.unsafe_get sf (bc + l))
            done
      | 3 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then mul_dense sf ba bb bc n
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l)
                (Array.unsafe_get sf (bb + l) *. Array.unsafe_get sf (bc + l))
            done
      | 4 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sf (ba + l)
                (Array.unsafe_get sf (bb + l) /. Array.unsafe_get sf (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l)
                (Array.unsafe_get sf (bb + l) /. Array.unsafe_get sf (bc + l))
            done
      | 5 ->
          (* the hot one: dslash/clover bodies are mostly fma chains *)
          let ba = ca.(k) * nl
          and bb = cb.(k) * nl
          and bc = cc.(k) * nl
          and bd = cd.(k) * nl in
          if d then fma_dense sf ba bb bc bd n
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l)
                ((Array.unsafe_get sf (bb + l) *. Array.unsafe_get sf (bc + l))
                +. Array.unsafe_get sf (bd + l))
            done
      | 6 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sf (ba + l) (-.Array.unsafe_get sf (bb + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l) (-.Array.unsafe_get sf (bb + l))
            done
      | 7 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l)
                (Array.unsafe_get si (bb + l) + Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l)
                (Array.unsafe_get si (bb + l) + Array.unsafe_get si (bc + l))
            done
      | 8 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l)
                (Array.unsafe_get si (bb + l) - Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l)
                (Array.unsafe_get si (bb + l) - Array.unsafe_get si (bc + l))
            done
      | 9 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l)
                (Array.unsafe_get si (bb + l) * Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l)
                (Array.unsafe_get si (bb + l) * Array.unsafe_get si (bc + l))
            done
      | 11 ->
          let ba = ca.(k) * nl
          and bb = cb.(k) * nl
          and bc = cc.(k) * nl
          and bd = cd.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l)
                ((Array.unsafe_get si (bb + l) * Array.unsafe_get si (bc + l))
                + Array.unsafe_get si (bd + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l)
                ((Array.unsafe_get si (bb + l) * Array.unsafe_get si (bc + l))
                + Array.unsafe_get si (bd + l))
            done
      | 12 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and amount = cc.(k) in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l) (Array.unsafe_get si (bb + l) lsl amount)
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) (Array.unsafe_get si (bb + l) lsl amount)
            done
      | 13 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l) (-Array.unsafe_get si (bb + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) (-Array.unsafe_get si (bb + l))
            done
      | 14 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          if d then Array.blit sf bb sf ba n
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l) (Array.unsafe_get sf (bb + l))
            done
      | 15 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          if d then Array.blit si bb si ba n
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) (Array.unsafe_get si (bb + l))
            done
      | 16 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sf (ba + l) (round32 (Array.unsafe_get sf (bb + l)))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l) (round32 (Array.unsafe_get sf (bb + l)))
            done
      | 17 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sf (ba + l) (float_of_int (Array.unsafe_get si (bb + l)))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sf (ba + l) (float_of_int (Array.unsafe_get si (bb + l)))
            done
      | 18 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l) (int_of_float (Array.unsafe_get sf (bb + l)))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) (int_of_float (Array.unsafe_get sf (bb + l)))
            done
      | 19 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) = Array.unsafe_get sf (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) = Array.unsafe_get sf (bc + l))
            done
      | 20 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) <> Array.unsafe_get sf (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) <> Array.unsafe_get sf (bc + l))
            done
      | 21 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) < Array.unsafe_get sf (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) < Array.unsafe_get sf (bc + l))
            done
      | 22 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) <= Array.unsafe_get sf (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) <= Array.unsafe_get sf (bc + l))
            done
      | 23 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) > Array.unsafe_get sf (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) > Array.unsafe_get sf (bc + l))
            done
      | 24 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) >= Array.unsafe_get sf (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get sf (bb + l) >= Array.unsafe_get sf (bc + l))
            done
      | 25 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) = Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) = Array.unsafe_get si (bc + l))
            done
      | 26 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) <> Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) <> Array.unsafe_get si (bc + l))
            done
      | 27 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) < Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) < Array.unsafe_get si (bc + l))
            done
      | 28 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) <= Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) <= Array.unsafe_get si (bc + l))
            done
      | 29 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) > Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) > Array.unsafe_get si (bc + l))
            done
      | 30 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) >= Array.unsafe_get si (bc + l))
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set sp (ba + l)
                (Array.unsafe_get si (bb + l) >= Array.unsafe_get si (bc + l))
            done
      | 33 ->
          let ba = ca.(k) * nl and b = !base in
          if d then
            for l = 0 to n - 1 do
              Array.unsafe_set si (ba + l) (b + l)
            done
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) (b + l)
            done
      | 34 ->
          let ba = ca.(k) * nl in
          if d then Array.fill si ba n block
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) block
            done
      | 35 ->
          let ba = ca.(k) * nl in
          if d then Array.fill si ba n ctaid
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) ctaid
            done
      | 36 ->
          let ba = ca.(k) * nl in
          if d then Array.fill si ba n grid
          else
            for ai = 0 to n - 1 do
              let l = Array.unsafe_get act ai in
              Array.unsafe_set si (ba + l) grid
            done
      | 37 -> (
          match args.(cb.(k)) with
          | Ptr b ->
              let v = Buffer.address b and ba = ca.(k) * nl in
              if d then Array.fill si ba n v
              else
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  Array.unsafe_set si (ba + l) v
                done
          | Int _ | Float _ -> fault "ld.param.u64 on non-pointer parameter")
      | 38 -> (
          match args.(cb.(k)) with
          | Int v ->
              let ba = ca.(k) * nl in
              if d then Array.fill si ba n v
              else
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  Array.unsafe_set si (ba + l) v
                done
          | Ptr _ | Float _ -> fault "ld.param.%%r on non-integer parameter")
      | 39 -> (
          match args.(cb.(k)) with
          | Float v ->
              let ba = ca.(k) * nl in
              if d then Array.fill sf ba n v
              else
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  Array.unsafe_set sf (ba + l) v
                done
          | Ptr _ | Int _ -> fault "ld.param float on non-float parameter")
      | 46 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          let fn = math_table.(cc.(k)) in
          for ai = 0 to n - 1 do
            let l = Array.unsafe_get act ai in
            Array.unsafe_set sf (ba + l) (fn (Array.unsafe_get sf (bb + l)))
          done
      | 47 ->
          let ba = ca.(k) * nl and bb = cb.(k) * nl in
          let fn = math_table.(cc.(k)) in
          for ai = 0 to n - 1 do
            let l = Array.unsafe_get act ai in
            Array.unsafe_set sf (ba + l) (round32 (fn (Array.unsafe_get sf (bb + l))))
          done
      | _ -> fault "corrupt opcode"
    done
  in
  (* Integer-division island: the only per-lane-faultable non-memory
     op, kept under its own handler exactly as the scalar sweep would
     fault it. *)
  let exec_div k =
    let n = !nact in
    let ba = ca.(k) * nl and bb = cb.(k) * nl and bc = cc.(k) * nl in
    for ai = 0 to n - 1 do
      let l = Array.unsafe_get act ai in
      try
        let d = Array.unsafe_get si (bc + l) in
        if d = 0 then fault "integer division by zero";
        Array.unsafe_set si (ba + l) (Array.unsafe_get si (bb + l) / d)
      with e ->
        record l e;
        act.(ai) <- -1
    done
  in
  (* Column-resident memory unit, two passes over the active lanes.
     Pass 1 snapshots every lane's effective address into the [sa]
     scratch column — after that the unit is idempotent, so the fast
     pass may bail at any point and the slow pass restart from
     scratch.  Pass 2 resolves the *first* active lane's buffer once
     for the whole tile and runs the gather/scatter as a tight per-lane
     loop; any lane addressing a different buffer, misaligning, or
     indexing out of bounds aborts to [mem_slow], which runs
     [mem_lane] per lane under its own fault handler. *)
  let snap ab off0 n =
    if !dense then
      for l = 0 to n - 1 do
        Array.unsafe_set sa l (Array.unsafe_get si (ab + l) + off0)
      done
    else
      for ai = 0 to n - 1 do
        let l = Array.unsafe_get act ai in
        Array.unsafe_set sa l (Array.unsafe_get si (ab + l) + off0)
      done
  in
  let mem_slow k n =
    let o = co.(k) and r = ca.(k) * nl in
    for ai = 0 to n - 1 do
      let l = Array.unsafe_get act ai in
      try mem_lane lookup o (Array.unsafe_get sa l) sf si (r + l)
      with e ->
        record l e;
        act.(ai) <- -1
    done
  in
  let exec_mem k =
    let n = !nact in
    let o = co.(k) and r = ca.(k) * nl in
    snap (cb.(k) * nl) cc.(k) n;
    let bid0 = Array.unsafe_get sa (Array.unsafe_get act 0) lsr obits in
    let fast =
      match lookup bid0 with
      | exception _ -> false
      | data -> (
          try
            match (o, data) with
            | 40, Buffer.F32 a ->
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 || addr land 3 <> 0 then raise Exit;
                  Array.unsafe_set sf (r + l) (Bigarray.Array1.get a ((addr land omask) lsr 2))
                done;
                true
            | 41, Buffer.F64 a ->
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 || addr land 7 <> 0 then raise Exit;
                  Array.unsafe_set sf (r + l) (Bigarray.Array1.get a ((addr land omask) lsr 3))
                done;
                true
            | 42, Buffer.I32 a ->
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 || addr land 3 <> 0 then raise Exit;
                  Array.unsafe_set si (r + l)
                    (Int32.to_int (Bigarray.Array1.get a ((addr land omask) lsr 2)))
                done;
                true
            | 43, Buffer.F32 a ->
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 || addr land 3 <> 0 then raise Exit;
                  Bigarray.Array1.set a ((addr land omask) lsr 2) (Array.unsafe_get sf (r + l))
                done;
                true
            | 44, Buffer.F64 a ->
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 || addr land 7 <> 0 then raise Exit;
                  Bigarray.Array1.set a ((addr land omask) lsr 3) (Array.unsafe_get sf (r + l))
                done;
                true
            | 45, Buffer.I32 a ->
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 || addr land 3 <> 0 then raise Exit;
                  Bigarray.Array1.set a ((addr land omask) lsr 2)
                    (Int32.of_int (Array.unsafe_get si (r + l)))
                done;
                true
            | 48, Buffer.F16 a ->
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 || addr land 1 <> 0 then raise Exit;
                  Array.unsafe_set sf (r + l)
                    (Half.float_of_bits (Bigarray.Array1.get a ((addr land omask) lsr 1)))
                done;
                true
            | 49, Buffer.F16 a ->
                for ai = 0 to n - 1 do
                  let l = Array.unsafe_get act ai in
                  let addr = Array.unsafe_get sa l in
                  if addr lsr obits <> bid0 || addr land 1 <> 0 then raise Exit;
                  Bigarray.Array1.set a ((addr land omask) lsr 1)
                    (Half.bits_of_float (Array.unsafe_get sf (r + l)))
                done;
                true
            | _ -> false
          with _ -> false)
    in
    if not fast then mem_slow k n
  in
  (* Walk a span unit by unit: one uniform-fault scope per chain, the
     per-lane handlers confined to memory terminators and islands,
     compaction once per faulted unit (units never re-execute a lane's
     instruction non-idempotently, so deferring compaction to unit
     boundaries preserves the scalar sweep's outcomes). *)
  let exec_span k0 k1 =
    let u = ref k0 in
    while !u < k1 && !nact > 0 do
      let s0 = !u in
      let ue = Array.unsafe_get plan.u_end s0 in
      (match Array.unsafe_get plan.u_kind s0 with
      | 0 -> (
          try exec_chain s0 ue
          with e ->
            (* Lane-uniform fault: the scalar sweep would hit it on the
               lowest active lane first. *)
            record act.(0) e;
            nact := 0)
      | 1 -> (
          try
            exec_chain s0 (ue - 1);
            exec_mem (ue - 1)
          with e ->
            record act.(0) e;
            nact := 0)
      | _ -> exec_div s0);
      if !faulted then compact ();
      u := ue
    done
  in
  (* Lanes parked at [k] rejoin: the active lanes are marked as parked
     there too, and one scan in lane order rebuilds [act] and finds the
     next target that still has lanes waiting. *)
  let merge k =
    for ai = 0 to !nact - 1 do
      park.(act.(ai)) <- k
    done;
    let n = ref 0 and nm = ref max_int in
    for l = 0 to !width - 1 do
      let t = park.(l) in
      if t = k then begin
        park.(l) <- -1;
        act.(!n) <- l;
        incr n
      end
      else if t >= 0 && t < !nm then nm := t
    done;
    nact := !n;
    next_merge := !nm;
    set_dense ()
  in
  (* A branch to [t]: the active lanes [leaves] picks park at [t], or
     retire at once when [t] is a [ret]. *)
  let branch t leaves =
    let parks = not (is_ret co.(t)) in
    let keep = ref 0 in
    for ai = 0 to !nact - 1 do
      let l = act.(ai) in
      if leaves l then (if parks then park.(l) <- t)
      else begin
        act.(!keep) <- l;
        incr keep
      end
    done;
    if parks && !keep < !nact then next_merge := min !next_merge t;
    nact := !keep;
    set_dense ()
  in
  (* Spans end at every branch target, so the walk lands on each target
     where lanes wait; every parked lane has rejoined by the end. *)
  let run_tile () =
    let pc = ref 0 in
    while !pc < ninstr do
      let k = !pc in
      if k = !next_merge then merge k;
      if !nact = 0 then pc := !next_merge
      else begin
        let o = co.(k) in
        if is_ctrl o then begin
          if is_ret o then nact := 0
          else if is_bra o then branch ca.(k) (fun _ -> true)
          else begin
            let pb = ca.(k) * nl in
            branch cb.(k) (fun l -> sp.(pb + l))
          end;
          pc := k + 1
        end
        else begin
          let e = plan.span_end.(k) in
          exec_span k e;
          pc := e
        end
      end
    done
  in
  let rec tiles b =
    if b >= block then None
    else begin
      base := b;
      width := min lanes (block - b);
      for l = 0 to !width - 1 do
        act.(l) <- l
      done;
      nact := !width;
      dense := true;
      run_tile ();
      match !fexn with Some e -> Some (b + !fmin, e) | None -> tiles (b + lanes)
    end
  in
  tiles 0

(* ------------------------------------------------------------------ *)
(* Access resolution, once per launch: every access's param slot is
   resolved to the bound buffer, and the launch's loads and stores are
   gathered per buffer id with the union of their provenance classes.
   Both the split verdict and the batch's dependency edges read these
   tables. *)

let class_bit = function Uniform -> 1 | Affine -> 2 | Slist -> 4 | Gather -> 8

type access_sets = {
  loads : (int, int) Hashtbl.t;  (** buffer id -> class bits of its loads *)
  stores : (int, int) Hashtbl.t;  (** buffer id -> class bits of its stores *)
  unknown : bool;  (** some access's base buffer is unresolvable *)
  any_store : bool;
}

let access_sets p (params : param_value array) =
  let loads = Hashtbl.create 8 and stores = Hashtbl.create 8 in
  let unknown = ref false in
  Array.iter
    (fun a ->
      let bid =
        if a.a_param < 0 || a.a_param >= Array.length params then None
        else match params.(a.a_param) with Ptr b -> Some b.Buffer.id | Int _ | Float _ -> None
      in
      match bid with
      | None -> unknown := true
      | Some bid ->
          let tbl = if a.a_store then stores else loads in
          let cur = match Hashtbl.find_opt tbl bid with Some m -> m | None -> 0 in
          Hashtbl.replace tbl bid (cur lor class_bit a.a_class))
    p.accesses;
  { loads; stores; unknown = !unknown; any_store = Array.exists (fun a -> a.a_store) p.accesses }

(* Parallel-safety decision for one launch: per stored buffer (a) all
   stores must use own-slot indexing (Affine or Slist — never
   Gather/Uniform), and (b) any read-back of a stored buffer must use
   the *same* per-work-item indexing on both sides, which the 8-aligned
   chunk boundaries then keep chunk-local (the reduction-tail
   contract).  An access whose target buffer is unknown could alias any
   store, so it forces sequential execution whenever the kernel stores
   at all — this is what keeps the in-place [p = shift p] gather in the
   one-lane tiles whose sequential order its wrap-around semantics
   depend on. *)
let parallel_ok s =
  not (s.unknown && s.any_store)
  && Hashtbl.fold
       (fun bid smask ok ->
         ok
         && smask land (class_bit Uniform lor class_bit Gather) = 0
         &&
         match Hashtbl.find_opt s.loads bid with
         | None -> true
         | Some lmask ->
             let union = smask lor lmask in
             union = class_bit Affine || union = class_bit Slist)
       s.stores true

(* ------------------------------------------------------------------ *)
(* Grid execution. *)

let enrich p e ~ctaid ~tid =
  match e with
  | Fault msg ->
      Fault (Printf.sprintf "%s [kernel %s, ctaid %d, tid %d]" msg p.kname ctaid tid)
  | e -> e

(* One cta span, executed in (cta, tid) order on the domain's SoA
   rows, in tiles of [lanes].  [key] is the span's position in the flat
   batch schedule (launch-major, cta-ordered), so the first fault
   recorded at the lowest key is exactly the fault a sequential sweep of
   the whole batch would hit first.  Recording a fault lowers [stop] so
   spans with higher keys (later ctas / later launches) bail out;
   lower-keyed spans run to completion. *)
let run_span p lookup args ~lanes ~block ~grid ~c0 ~c1 ~key ~(stop : int Atomic.t)
    (faults : (int * int * exn) option array) =
  let s = bind_soa p in
  try
    for cta = c0 to c1 - 1 do
      if Atomic.get stop < key then raise Exit;
      match exec_cta_soa p lookup args s ~lanes ~ctaid:cta ~block ~grid with
      | None -> ()
      | Some (tid, e) ->
          faults.(key) <- Some (cta, tid, e);
          let rec lower () =
            let cur = Atomic.get stop in
            if key < cur && not (Atomic.compare_and_set stop cur key) then lower ()
          in
          lower ();
          raise Exit
    done
  with Exit -> ()

(* Launches smaller than this run inline: the pool handoff costs more
   than it buys on tiny grids (and keeps the default-parallel test suite
   fast on many-core hosts). *)
let min_parallel_threads = 1024

let gcd a b =
  let rec go a b = if b = 0 then a else go b (a mod b) in
  go a b

(* ------------------------------------------------------------------ *)
(* Batched launch sweeps.  A batch is an ordered run of launches (the
   device's queue at a drain point).  Each launch is pre-partitioned
   into cta spans — whole ctas, multiples of 8 work items — and the
   flattened (launch, span) schedule is drained by workers pulling
   items off a single atomic cursor, so the pool is woken once per
   batch instead of once per launch.

   A launch may start before its predecessors complete iff its loads
   don't alias any predecessor's pending stores.  The per-launch
   read/write buffer sets are the [access_sets] the split verdict
   reads; edges are conservative per-buffer RAW, WAW and WAR — WAR
   included because a later writer overtaking an in-flight reader is
   just as racy.  Accesses whose base
   buffer can't be resolved make the launch a full barrier in both
   directions. *)

type launch = {
  l_prog : program;
  l_grid : int;
  l_block : int;
  l_threads : int;
  l_params : param_value array;
}

(* Must launch [j] wait for earlier launch [i]?  RAW / WAW / WAR on any
   shared buffer, or either side touching memory it can't account for. *)
let conflicts i j =
  i.unknown || j.unknown
  || Hashtbl.fold
       (fun b _ acc -> acc || Hashtbl.mem j.loads b || Hashtbl.mem j.stores b)
       i.stores false
  || Hashtbl.fold (fun b _ acc -> acc || Hashtbl.mem i.loads b) j.stores false

(* Spans for one launch: 8-aligned whole-cta chunks, gated by a
   small-launch threshold and the store-disjointness verdict, so a
   launch that must run as one sequential sweep still overlaps *other*
   independent launches in the batch. *)
let spans_of workers l ~safe =
  if l.l_grid <= 0 || l.l_block <= 0 then [||]
  else begin
    let align = 8 / gcd l.l_block 8 in
    let units = l.l_grid / align in
    let w =
      if workers <= 1 || units < 2 || l.l_threads < min_parallel_threads || not safe
      then 1
      else min workers units
    in
    let bound k = if k >= w then l.l_grid else units * k / w * align in
    Array.init w (fun k -> (bound k, bound (k + 1)))
  end

let run_batch ?(workers = 1) ~lookup (launches : launch array) =
  let nl = Array.length launches in
  if nl > 0 then begin
    let sets = Array.map (fun l -> access_sets l.l_prog l.l_params) launches in
    let safe = Array.map parallel_ok sets in
    let spans = Array.mapi (fun li l -> spans_of workers l ~safe:safe.(li)) launches in
    (* Flat schedule: launch-major, cta-ordered — item index IS the
       deterministic fault priority. *)
    let items =
      Array.concat
        (Array.to_list
           (Array.mapi (fun li s -> Array.map (fun (c0, c1) -> (li, c0, c1)) s) spans))
    in
    let nitems = Array.length items in
    (* Per-launch tile width: the store-disjointness gate that admits
       worker splitting is exactly the cross-lane independence 64-lane
       lock-step relies on; a launch it rejects runs one-lane tiles,
       the sequential sweep. *)
    let lanes = Array.map (fun ok -> if ok then tile else 1) safe in
    if nitems > 0 then begin
      let preds =
        Array.init nl (fun j ->
            let acc = ref [] in
            for i = j - 1 downto 0 do
              if conflicts sets.(i) sets.(j) then acc := i :: !acc
            done;
            Array.of_list !acc)
      in
      (* remaining.(l) counts l's unfinished spans; <= 0 means done.
         Atomic reads double as the release/acquire edge that makes a
         predecessor's buffer stores visible to its dependents. *)
      let remaining = Array.map (fun s -> Atomic.make (Array.length s)) spans in
      let m = Mutex.create () and cv = Condition.create () in
      let launch_done l = Atomic.get remaining.(l) <= 0 in
      let deps_met j = Array.for_all launch_done preds.(j) in
      let wait_deps j =
        if not (deps_met j) then begin
          Mutex.lock m;
          while not (deps_met j) do
            Condition.wait cv m
          done;
          Mutex.unlock m
        end
      in
      let complete l =
        if Atomic.fetch_and_add remaining.(l) (-1) = 1 then begin
          Mutex.lock m;
          Condition.broadcast cv;
          Mutex.unlock m
        end
      in
      (* A batch too small in total to pay for the pool handoff runs
         inline, as a single small launch does in [spans_of]. *)
      let threads = Array.fold_left (fun acc l -> acc + l.l_threads) 0 launches in
      let w = if threads < min_parallel_threads then 1 else min workers nitems in
      let stop = Atomic.make max_int in
      let faults = Array.make nitems None in
      let cursor = Atomic.make 0 in
      let worker _ =
        let rec loop () =
          let idx = Atomic.fetch_and_add cursor 1 in
          if idx < nitems then begin
            let li, c0, c1 = items.(idx) in
            let l = launches.(li) in
            (* Never deadlocks: spans are claimed in flat order and
               every predecessor's spans precede this one, so the
               lowest unclaimed item always has its deps running or
               done.  Bailed-out spans (fault upstream) still count
               down [remaining], so waiters always wake. *)
            wait_deps li;
            run_span l.l_prog lookup l.l_params ~lanes:lanes.(li) ~block:l.l_block
              ~grid:l.l_grid ~c0 ~c1 ~key:idx ~stop faults;
            complete li;
            loop ()
          end
        in
        loop ()
      in
      Vm_backend.run ~workers:w worker;
      (* Lowest (launch index, ctaid, tid) wins, batch-wide: the flat
         schedule is launch-major and cta-ordered, and within a span the
         sweep is sequential, so the first recorded fault in item order
         is the sequential batch's first fault — same message, same
         site. *)
      let first = ref None and fli = ref 0 in
      Array.iteri
        (fun idx fa ->
          if !first = None then
            match fa with
            | Some _ ->
                first := fa;
                let li, _, _ = items.(idx) in
                fli := li
            | None -> ())
        faults;
      match !first with
      | Some (cta, t, e) -> raise (enrich launches.(!fli).l_prog e ~ctaid:cta ~tid:t)
      | None -> ()
    end
  end

(* The oracle: every launch, cta and thread in order on the reference
   interpreter, with fresh register files per launch (allocated slots
   zeroed, constant pools past them).  No pool, no atomics and no
   dependency edges, so it shares nothing with the runtime's scheduler;
   the first fault is raised at once, enriched as [run_batch] enriches
   it. *)
let run_reference ~lookup (launches : launch array) =
  Array.iter
    (fun l ->
      let p = l.l_prog in
      let w =
        {
          wf = Array.append (Array.make p.nfreg 0.0) p.fpool;
          wi = Array.append (Array.make p.nireg 0) p.ipool;
          wp = Array.make p.npred false;
        }
      in
      for ctaid = 0 to l.l_grid - 1 do
        for tid = 0 to l.l_block - 1 do
          try exec_thread p lookup l.l_params w ~tid ~ctaid ~ntid:l.l_block ~nctaid:l.l_grid
          with e -> raise (enrich p e ~ctaid ~tid)
        done
      done)
    launches

let decoded_instructions p = Array.length p.co
let kname p = p.kname
let parallelizable p ~params = parallel_ok (access_sets p params)
