(** SSA-flavoured dataflow analysis over the PTX IR: the shared def/use
    view of every instruction, basic-block splitting over [Label]/[Bra],
    block-level liveness, allocator register demand, and a
    definitely-assigned analysis.  The printer, the VM, the driver-JIT
    register estimator and the optimization passes all build on this one
    instruction-walk. *)

(** A register class + index pair, usable as a hash/set key. *)
type key = Types.dtype * int

val key : Types.reg -> key

module KSet : Set.S with type elt = key

(** Destination register written by an instruction, if any. *)
val def_of : Types.instr -> Types.reg option

(** Registers read by an instruction: operands, addresses, predicates,
    call arguments. *)
val uses_of : Types.instr -> Types.reg list

(** [uses_of] one register at a time, without building a list. *)
val iter_uses : (Types.reg -> unit) -> Types.instr -> unit

(** [def_of] then [uses_of] in order, one register at a time, without
    building a list (a register read twice is visited twice). *)
val iter_regs : (Types.reg -> unit) -> Types.instr -> unit

(** Memory writes, control flow and the exit — instructions whose effect
    is not captured by a destination register and which DCE must keep. *)
val is_side_effecting : Types.instr -> bool

(** 32-bit register units occupied by one virtual register of this class
    (64-bit classes take two; predicates live in a separate bank). *)
val weight : Types.dtype -> int

(** Dense numbering of one body's registers: class by class, each class
    indexed by register id (the emitters number each class from 0). *)
type regs

val regs : Types.instr array -> regs

(** Size of the numbering: tables indexed by {!index} have this length. *)
val nregs : regs -> int

(** Index of a register that occurs in the numbered body. *)
val index : regs -> Types.reg -> int

(** Static definition count per register, indexed by {!index}. *)
val def_counts : regs -> Types.instr array -> int array

(** [single_def rg counts r]: [r] has exactly one static definition, i.e.
    it is an SSA value whose definition dominates every (validated) use. *)
val single_def : regs -> int array -> Types.reg -> bool

type block = {
  first : int;  (** index of the leader instruction *)
  last : int;  (** inclusive *)
  succs : int list;  (** successor block ids *)
  preds : int list;
}

(** Basic blocks of a body, plus the instruction-index → block-id map. *)
val blocks : Types.instr array -> block array * int array

(** Use sites per register, indexed by {!index}: instruction indices,
    ascending, one entry per read (an instruction reading a register
    twice appears twice). *)
type chains = int list array

val chains : regs -> Types.instr array -> chains

(** Use sites of a register, ascending; empty if never read. *)
val uses_of_reg : regs -> chains -> Types.reg -> int list

(** Per-block [live_in], [live_out] register sets, iterated to fixpoint. *)
val liveness : Types.instr array -> block array -> KSet.t array * KSet.t array

(** Peak weighted register pressure (32-bit units) over all program
    points — the demand a perfect allocator would still need.  Uncapped,
    unlike the occupancy estimate in [Gpusim.Jit], so pass-pipeline
    savings stay visible on large kernels. *)
val register_demand_body : Types.instr array -> int

val register_demand : Types.kernel -> int

(** Registers possibly read before any write reaches them, as
    [(instruction index, register)] in program order: a use is safe only
    if a definition reaches it along every path from the entry. *)
val undefined_uses : Types.kernel -> (int * Types.reg) list
