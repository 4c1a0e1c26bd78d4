(** PTX emission context: fresh registers, parameters and an instruction
    stream, accumulated while the code generators walk an expression.

    The emitted stream also yields value provenance — how many times each
    register is defined — which the builder hands to the optimization passes
    as the proof that a register is an SSA value, the precondition for
    CSE to be sound across anything the functorised site algebra emits
    (including deliberately multi-defined registers like reduction
    accumulators, which provenance excludes from reuse). *)

open Ptx.Types

type t = {
  kname : string;
  mutable body_rev : instr list;
  mutable params_rev : param list;
  mutable nparams : int;
  counters : int array;  (** next id per register class, by {!Ptx.Dataflow.class_index} *)
  mutable nlabels : int;
}

let create ~kname =
  {
    kname;
    body_rev = [];
    params_rev = [];
    nparams = 0;
    counters = Array.make (Array.length Ptx.Dataflow.classes) 0;
    nlabels = 0;
  }

let fresh t dtype =
  let c = Ptx.Dataflow.class_index dtype in
  let id = t.counters.(c) in
  t.counters.(c) <- id + 1;
  { rtype = dtype; id }

let emit t i = t.body_rev <- i :: t.body_rev

let add_param t dtype name =
  let index = t.nparams in
  t.nparams <- index + 1;
  t.params_rev <- { pname = name; ptype = dtype } :: t.params_rev;
  index

let fresh_label t prefix =
  let n = t.nlabels in
  t.nlabels <- n + 1;
  Printf.sprintf "%s_%d" prefix n

let finish t = { kname = t.kname; params = List.rev t.params_rev; body = List.rev t.body_rev }

(** Emission-time value provenance: the definition counts of everything
    emitted so far, before any dead-code elimination.  A register
    reported single-def here has at most one definition in any later
    (pass-shrunk) form of the kernel — the conservative direction — and
    every register of such a form is one this body numbers. *)
let provenance t =
  let body = Array.of_list (List.rev t.body_rev) in
  let rg = Ptx.Dataflow.regs body in
  { Ptx.Passes.single_def = Ptx.Dataflow.single_def rg (Ptx.Dataflow.def_counts rg body) }

(* Dead-code elimination: drop instructions whose destination is never
   consumed.  The generators load every component of a referenced element;
   operations like traceColor use only some of them, and constant folding
   orphans more.  Now shared with the pass pipeline. *)
let eliminate_dead_code = Ptx.Passes.dce
