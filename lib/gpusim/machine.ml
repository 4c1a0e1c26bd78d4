(** GPU hardware descriptions for the simulated device.

    Parameters follow the NVIDIA GK110 (Kepler) data sheets used in the
    paper's experiments; the behavioural knobs ([bw_efficiency],
    [saturation_threads], [base_overhead_ns]) are calibrated so the
    analytic timing model reproduces the measured shapes of Figs. 4–6:
    sustained bandwidth rising with volume to a shoulder and a plateau at
    ~79 % of peak. *)

type t = {
  name : string;
  sm_count : int;
  max_threads_per_block : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  regs_per_sm : int;  (** 32-bit registers per SM *)
  max_regs_per_thread : int;
  peak_bw : float;  (** bytes/s *)
  peak_flops_sp : float;  (** flop/s single precision *)
  peak_flops_dp : float;
  bw_efficiency : float;  (** achievable fraction of peak bandwidth *)
  saturation_lines : int;
      (** 128-byte memory transactions that must be in flight to hide the
          DRAM latency (peak_bw * latency / 128B) *)
  issue_threads : int;
      (** resident threads per SM below which instruction issue starves *)
  base_overhead_ns : float;  (** launch + first-wave memory latency *)
  memory_bytes : int;  (** device memory capacity *)
  pcie_bw : float;  (** host<->device bytes/s *)
  pcie_latency_ns : float;
}

(* Tesla K20X, GK110, ECC disabled: 14 SMX, 250 GB/s, 1.31/3.95 TFlops. *)
let k20x_ecc_off =
  {
    name = "K20x_eccoff";
    sm_count = 14;
    max_threads_per_block = 1024;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 16;
    regs_per_sm = 65536;
    max_regs_per_thread = 255;
    peak_bw = 250.0e9;
    peak_flops_sp = 3.95e12;
    peak_flops_dp = 1.31e12;
    bw_efficiency = 0.79;
    saturation_lines = 900;
    issue_threads = 768;
    base_overhead_ns = 9000.0;
    memory_bytes = 6 * 1024 * 1024 * 1024;
    pcie_bw = 6.0e9;
    pcie_latency_ns = 10_000.0;
  }

(* Tesla K20m with ECC enabled (the Fig. 6 testbed): 13 SMX, 208 GB/s peak
   with an ECC tax on achievable bandwidth. *)
let k20m_ecc_on =
  {
    k20x_ecc_off with
    name = "K20m_eccon";
    sm_count = 13;
    peak_bw = 208.0e9;
    peak_flops_sp = 3.52e12;
    peak_flops_dp = 1.17e12;
    bw_efficiency = 0.72;
    memory_bytes = 5 * 1024 * 1024 * 1024;
  }

let by_name = function
  | "K20x_eccoff" -> Some k20x_ecc_off
  | "K20m_eccon" -> Some k20m_ecc_on
  | _ -> None

(* Worker-count resolution for the parallel VM back-end: explicit
   argument > REPRO_VM_DOMAINS environment override > hardware count
   reported by the back-end.  A malformed override (zero, negative,
   non-numeric) is never trusted: it falls back to the hardware count
   with a note on stderr, so a typo'd CI pin degrades loudly instead of
   silently serializing (or crashing) every launch. *)
let host_domains ?vm_domains () =
  let avail = Vm_backend.available_domains () in
  let n =
    match vm_domains with
    | Some n -> n
    | None -> (
        match Sys.getenv_opt "REPRO_VM_DOMAINS" with
        | Some s -> (
            match int_of_string_opt (String.trim s) with
            | Some v when v >= 1 -> v
            | Some _ | None ->
                Printf.eprintf
                  "gpusim: REPRO_VM_DOMAINS=%S is not a positive integer; using the hardware \
                   count (%d)\n\
                   %!"
                  s avail;
                avail)
        | None -> avail)
  in
  max 1 (min n 64)
