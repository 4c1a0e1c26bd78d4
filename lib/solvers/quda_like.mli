(** Stand-in for the QUDA library (the paper's Refs. 2, 9, 10, 12):
    hand-optimised Dirac solvers the framework interfaces with.

    Functionally this repository's solvers already serve; what QUDA adds
    is hand tuning, whose measured headroom (Sec. VIII-C: 346-vs-197
    GFLOPS SP, 171-vs-90 DP — factors 1.76x/1.9x with identical work) is
    carried here and feeds the Fig. 7 analysis. *)

type precision = Sp | Dp

val headroom : precision -> float
val dslash_gflops_measured : precision -> float
val generated_dslash_gflops : precision -> float
