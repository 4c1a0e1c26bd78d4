(** Stand-in for the QUDA library (Refs. 2, 9, 10, 12): hand-optimised
    Dirac solvers the framework interfaces with.

    Functionally this repository's solvers already serve (QUDA's GCR and
    mixed-precision CG are implemented in {!Gcr} and {!Mixed}); what QUDA
    adds over generated kernels is hand tuning.  Sec. VIII-C measures that
    headroom on the same hardware: QUDA's Dslash reaches 346 GFLOPS (SP,
    V=40^4) and 171 GFLOPS (DP, V=32^4) against 197 / 90 for the
    generated operator — factors 1.76 / 1.9 with identical arithmetic
    (no gauge compression).  This module carries those measured factors
    and the QUDA-side performance model used by the Fig. 7 analysis. *)

type precision = Sp | Dp

(* Hand-tuning headroom over generated kernels (Sec. VIII-C). *)
let headroom = function Sp -> 1.76 | Dp -> 1.9

(* Paper-measured QUDA Dslash throughput on K20m (ECC on), overlapping
   communications, compute capability 3.5, uncompressed gauge fields. *)
let dslash_gflops_measured = function Sp -> 346.0 | Dp -> 171.0

let generated_dslash_gflops prec = dslash_gflops_measured prec /. headroom prec
