(** The simulated compute-compile driver (the "Linux driver" stage of the
    paper's Fig. 2).

    Takes PTX *text* — the same interface boundary the paper relies on —
    parses it, validates it, estimates the hardware register allocation by
    liveness analysis, and compiles it to the VM's executable form.  The
    modeled compile time follows the measured range of Sec. III-D
    (0.05–0.22 s per kernel, growing with kernel size). *)

type prec = Timing.prec = Sp | Dp

type compiled = {
  program : Vm.program;
  analysis : Ptx.Analysis.t;
  regs_per_thread : int;  (** liveness estimate, capped at the Kepler sweet spot *)
  prec : prec;  (** dominant floating-point precision of the kernel *)
  compile_time : float;  (** modeled driver-JIT seconds *)
  instructions : int;
  text : string;  (** the source PTX, kept for inspection *)
}

val estimate_registers : Ptx.Types.instr list -> int
val dominant_prec : Ptx.Types.instr list -> prec

val compile : string -> compiled
(** Parse, validate and compile PTX text; raises [Ptx.Parse.Error] or
    {!Vm.Fault} on malformed input (see {!Vm.compile}). *)

type portable
(** A {!compiled} stripped to plain [Marshal]-safe data (the pre-decoded
    program travels as {!Vm.portable}).  This is what the persistent JIT
    cache serializes. *)

val to_portable : compiled -> portable

val of_portable : portable -> compiled
(** Rehydrate a cached kernel without re-parsing or re-decoding; the
    result executes bit-identically to a fresh {!compile} of the same
    text. *)
