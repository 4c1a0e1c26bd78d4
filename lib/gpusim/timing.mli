(** Analytic kernel timing.

    The generated kernels are memory-bandwidth bound (Sec. VIII-B), so the
    model is a latency + throughput law,

      time = base_overhead + max(bytes / achieved_bw, flops / peak_flops),

    with achieved bandwidth set by how much memory-level parallelism the
    launch exposes: resident warps (occupancy, limited by registers and
    block geometry) each keep a few load transactions in flight, and DRAM
    latency is hidden only once enough 128-byte lines are outstanding;
    small blocks additionally starve instruction issue.  This reproduces
    the rise-shoulder-plateau curves of Figs. 4/5 (79 % of peak), the weak
    block-size dependence of Sec. VII, and the launch failures the
    auto-tuner probes. *)

type prec = Sp | Dp

val launch_fits : Machine.t -> regs_per_thread:int -> block:int -> bool
(** False when the block exceeds hardware limits or register pressure
    leaves no resident block — the {!Device.Launch_failure} condition. *)

val kernel_time_ns :
  Machine.t ->
  analysis:Ptx.Analysis.t ->
  regs_per_thread:int ->
  prec:prec ->
  nthreads:int ->
  block:int ->
  float

val sustained_bandwidth :
  Machine.t ->
  analysis:Ptx.Analysis.t ->
  regs_per_thread:int ->
  prec:prec ->
  nthreads:int ->
  block:int ->
  float
(** bytes moved / modeled time — the Figs. 4/5 metric. *)

val transfer_time_ns : Machine.t -> bytes:int -> float
(** PCIe host<->device transfer model. *)
