(** The simulated compute-compile driver (the "Linux driver" stage of the
    paper's Fig. 2).

    Takes PTX *text* — the same interface boundary the paper relies on —
    parses it, validates it, estimates the hardware register allocation by
    liveness analysis, and compiles it to the VM's executable form.  The
    modeled compile time follows the measured range of Sec. III-D
    (0.05–0.22 s per kernel, growing with kernel size).

    A {!compiled} kernel is immutable plain data (the pre-decoded
    {!Vm.program} holds no closures and no scratch), so the persistent
    JIT cache marshals it as it is.  Like a real driver's function
    handle it keeps no copy of its source: the text is read once and
    dropped. *)

type prec = Timing.prec = Sp | Dp

type compiled = {
  program : Vm.program;
  analysis : Ptx.Analysis.t;  (** [instructions] counts every body element, labels included *)
  regs_per_thread : int;  (** liveness estimate, capped at the Kepler sweet spot *)
  prec : prec;  (** dominant floating-point precision of the kernel *)
  compile_time : float;  (** modeled driver-JIT seconds *)
}

val compile : string -> compiled
(** Parse, validate and compile PTX text; raises [Ptx.Parse.Error] or
    {!Vm.Fault} on malformed input (see {!Vm.compile}). *)
