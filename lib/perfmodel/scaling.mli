(** Strong-scaling trajectory-time model for the three software
    configurations of the paper's Fig. 7 (and the Blue Waters / Titan
    comparison of Fig. 8).

    A trajectory moves solver traffic and "everything else" traffic (both
    proportional to the global volume; the iteration structure comes from
    running this repository's RHMC).  Each part runs at the bandwidth of
    where it executes — CPU socket, or GPU with a local-volume-dependent
    efficiency capturing strong-scaling losses — plus explicit PCIe
    transfer and layout-change terms for "CPU+QUDA", which pays them on
    every solver call (Sec. VIII-D).  Constants are calibrated against the
    paper's anchor measurements; EXPERIMENTS.md records the calibration
    and the residual deviations. *)

type config = Cpu_only | Cpu_quda | Qdpjit_quda

type constants = {
  cpu_solver_bw : float;  (** hand-optimised CPU solver, bytes/s/socket *)
  cpu_qdp_bw : float;  (** QDP++ CPU expression evaluation, bytes/s/socket *)
  gpu_bw : float;  (** sustained device bandwidth (79 % of peak) *)
  solver_half_volume : float;  (** sites at which GPU solver efficiency is 1/2 *)
  qdp_half_volume : float;  (** same for the generated expression kernels *)
  cpu_half_volume : float;  (** CPU strong-scaling saturation *)
  transfer_bytes_per_site : float;  (** CPU+QUDA per-solve field traffic *)
  layout_change_bw : float;  (** CPU-side reorder rate, bytes/s *)
}

val trajectory_time :
  ?constants:constants -> machine:Nodes.machine -> config:config -> Workload.t -> nodes:int -> float
(** Seconds per trajectory on [nodes] XK nodes / XE sockets. *)

val node_hours : machine:Nodes.machine -> config:config -> Workload.t -> nodes:int -> float

val speedup : machine:Nodes.machine -> Workload.t -> config:config -> nodes:int -> float
(** Relative to CPU-only at the same node count (the Sec. VIII-D
    factors). *)
