(** The simulated compute-compile driver (Fig. 2's "Linux driver" stage).

    Takes PTX *text* — the same interface boundary the paper relies on —
    parses it, validates it, estimates the hardware register allocation by
    liveness analysis, and compiles it to the VM's executable form.  The
    modeled compile time follows the measured range of Sec. III-D
    (0.05–0.22 s per kernel, growing with kernel size). *)

type prec = Timing.prec = Sp | Dp

type compiled = {
  program : Vm.program;
  analysis : Ptx.Analysis.t;
  regs_per_thread : int;
  prec : prec;
  compile_time : float;  (** modeled driver JIT time, seconds *)
}

open Ptx.Types

(* Hardware registers are 32-bit: f64/s64/u64 virtual registers occupy two.
   Peak liveness-derived demand ({!Ptx.Dataflow.register_demand_body}, on
   the real control-flow graph) approximates what the SASS allocator would
   use.  The allocator needs scratch beyond the live values, but a real
   compiler also reuses registers far more aggressively than a max-live
   bound over unscheduled code suggests, spilling beyond ~64; cap there
   (Kepler's sweet spot) rather than model spill traffic. *)
(* Not [Vm.allocate_registers]: that packs host SoA rows, not hardware registers. *)
let estimate_registers body =
  let demand = Ptx.Dataflow.register_demand_body (Array.of_list body) in
  min 64 (max 16 (demand + 6))

let dominant_prec analysis_body =
  let has_f64 =
    List.exists
      (fun i ->
        match i with
        | Add { dtype = F64; _ } | Sub { dtype = F64; _ } | Mul { dtype = F64; _ }
        | Div { dtype = F64; _ } | Fma { dtype = F64; _ } | Neg { dtype = F64; _ }
        | Ld_global { dtype = F64; _ } | St_global { dtype = F64; _ } ->
            true
        | _ -> false)
      analysis_body
  in
  if has_f64 then Dp else Sp

let compile text =
  let kernel = Ptx.Parse.kernel text in
  let program = Vm.compile kernel in
  let analysis = Ptx.Analysis.kernel kernel in
  {
    program;
    analysis;
    regs_per_thread = estimate_registers kernel.body;
    prec = dominant_prec kernel.body;
    compile_time = 0.045 +. (7.5e-5 *. float_of_int analysis.Ptx.Analysis.instructions);
  }
