(** GPU hardware descriptions for the simulated device.

    Parameters follow the NVIDIA GK110 (Kepler) data sheets used in the
    paper's experiments; the behavioural knobs ([bw_efficiency],
    [saturation_lines], [issue_threads], [base_overhead_ns]) are calibrated
    so the analytic timing model reproduces the measured shapes of
    Figs. 4–6. *)

type t = {
  name : string;
  sm_count : int;
  max_threads_per_block : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  regs_per_sm : int;  (** 32-bit registers per SM *)
  max_regs_per_thread : int;
  peak_bw : float;  (** bytes/s *)
  peak_flops_sp : float;
  peak_flops_dp : float;
  bw_efficiency : float;  (** achievable fraction of peak bandwidth (0.79) *)
  saturation_lines : int;
      (** 128-byte transactions in flight needed to hide DRAM latency *)
  issue_threads : int;
      (** resident threads per SM below which instruction issue starves *)
  base_overhead_ns : float;  (** launch + first-wave memory latency *)
  memory_bytes : int;
  pcie_bw : float;
  pcie_latency_ns : float;
}

val k20x_ecc_off : t
(** Tesla K20X, ECC disabled: the Figs. 4/5 and Fig. 7 device. *)

val k20m_ecc_on : t
(** Tesla K20m, ECC enabled: the Fig. 6 testbed. *)

val host_domains : ?vm_domains:int -> unit -> int
(** Workers for the parallel VM back-end: [vm_domains] if given, else
    the [REPRO_VM_DOMAINS] environment override, else the hardware count
    {!Vm_backend.available_domains} reports.  Clamped to [1, 64].  A
    malformed override (zero, negative or non-numeric) falls back to the
    hardware count with a note on stderr rather than being trusted. *)
