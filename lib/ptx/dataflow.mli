(** SSA-flavoured dataflow analysis over the PTX IR: the shared def/use
    view of every instruction, the one dense register numbering
    ({!regs}), basic-block splitting over [Label]/[Bra], allocator
    register demand, and a definitely-assigned analysis.  The printer,
    the validator, the VM, the driver-JIT register estimator, the fusion
    splicer and the optimization passes all build on this one
    instruction-walk, and every per-register table among them is an
    array indexed by {!index}. *)

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

(** The register classes in numbering order: [classes.(class_index dt) = dt]. *)
val classes : Types.dtype array

val class_index : Types.dtype -> int

(** Dense numbering of one body's registers: class by class, each class
    indexed by register id (the emitters number each class from 0). *)
type regs

val regs : Types.instr array -> regs

(** Size of the numbering: tables indexed by {!index} have this length. *)
val nregs : regs -> int

(** Ids the numbering covers in one class: the largest id of that class
    in the body plus one, 0 if the class does not occur. *)
val extent : regs -> Types.dtype -> int

(** Index of a register of the numbered body (any id below its class's
    {!extent}).  Raises [Invalid_argument] naming the register when its
    id lies outside that range, rather than alias another class's
    entry. *)
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

(** Peak weighted register pressure (32-bit units) over all program
    points, from block-level liveness iterated to fixpoint on the
    control-flow graph — the demand a perfect allocator would still need.  Uncapped,
    unlike the occupancy estimate in [Gpusim.Jit], so pass-pipeline
    savings stay visible on large kernels. *)
val register_demand_body : Types.instr array -> int

val register_demand : Types.kernel -> int

(** Registers possibly read before any write reaches them, as
    [(instruction index, register)] in program order: a use is safe only
    if a definition reaches it along every path from the entry. *)
val undefined_uses : Types.kernel -> (int * Types.reg) list
