(** Strong-scaling trajectory-time model for the three software
    configurations of Fig. 7 (and the Blue Waters / Titan comparison of
    Fig. 8).

    Structure: a trajectory moves [W_solver] bytes of solver traffic and
    [W_qdp] bytes of everything-else traffic (both proportional to the
    global volume; iteration counts come from running this repository's
    RHMC).  Each part runs at the engine bandwidth of where it executes —
    CPU socket, or GPU with a local-volume-dependent efficiency
    [V_l / (V_l + C)] capturing the strong-scaling losses (halo packing,
    synchronisation, sub-shoulder kernel volumes of Figs. 4/5) — plus
    explicit PCIe transfer and layout-change terms for the "CPU+QUDA"
    configuration, which pays them on every solver call (Sec. VIII-D).
    The half-volume constants are calibrated against the paper's anchor
    measurements; EXPERIMENTS.md records the calibration. *)

type config = Cpu_only | Cpu_quda | Qdpjit_quda

(* Calibration constants (see EXPERIMENTS.md). *)
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

(* Calibrated against the paper's anchor measurements (see EXPERIMENTS.md):
   trajectory time 16100 s on 128 XE sockets CPU-only, speedups 2.2x
   (CPU+QUDA) and 11.0x (QDP-JIT+QUDA) at 128, 3.7x at 800, and the
   258-vs-52 node-hour cost at the most efficient machine size. *)
let default_constants =
  {
    cpu_solver_bw = 13.6e9;
    cpu_qdp_bw = 4.0e9;
    gpu_bw = 0.79 *. 250.0e9;
    solver_half_volume = 2_000.0;
    qdp_half_volume = 685_000.0;
    cpu_half_volume = 5_000.0;
    transfer_bytes_per_site = 1700.0;
    layout_change_bw = 5.0e9;
  }

(* Per-site traffic of one trajectory, split solver / non-solver. *)
type traffic = {
  solver_bytes_per_site : float;
  qdp_bytes_per_site : float;
  solves : int;
}

let traffic_of_workload (w : Workload.t) =
  {
    solver_bytes_per_site =
      float_of_int w.Workload.solver_iterations
      *. ((2.0 *. w.Workload.dslash_bytes_per_site) +. w.Workload.solver_linalg_bytes_per_site);
    qdp_bytes_per_site =
      float_of_int w.Workload.md_force_evals *. w.Workload.qdp_bytes_per_site_per_force;
    solves = w.Workload.solves;
  }

let vl_efficiency ~half v_local = v_local /. (v_local +. half)

(* Trajectory time in seconds on [nodes] XK nodes / XE sockets. *)
let trajectory_time ?(constants = default_constants) ~(machine : Nodes.machine) ~config
    (w : Workload.t) ~nodes =
  if nodes <= 0 then invalid_arg "Scaling.trajectory_time: nodes must be positive";
  let c = constants in
  let tr = traffic_of_workload w in
  let v_local = float_of_int w.Workload.volume /. float_of_int nodes in
  let solver_bytes_local = tr.solver_bytes_per_site *. v_local in
  let qdp_bytes_local = tr.qdp_bytes_per_site *. v_local in
  let gpu_solver_time =
    solver_bytes_local /. (c.gpu_bw *. vl_efficiency ~half:c.solver_half_volume v_local)
  in
  let gpu_qdp_time =
    qdp_bytes_local /. (c.gpu_bw *. vl_efficiency ~half:c.qdp_half_volume v_local)
  in
  let cpu_eff = vl_efficiency ~half:c.cpu_half_volume v_local in
  let cpu_solver_time = solver_bytes_local /. (c.cpu_solver_bw *. cpu_eff) in
  let cpu_qdp_time = qdp_bytes_local /. (c.cpu_qdp_bw *. cpu_eff) in
  (* CPU+QUDA: every solver call round-trips the fields over PCIe and
     re-orders the layout on the CPU (Sec. VIII-D: "repeated copying of
     data fields between the CPU and the GPU and changing data layouts"). *)
  let transfer_time =
    float_of_int tr.solves
    *. v_local *. c.transfer_bytes_per_site
    *. ((1.0 /. Gpusim.Machine.k20x_ecc_off.Gpusim.Machine.pcie_bw) +. (2.0 /. c.layout_change_bw))
  in
  let base =
    match config with
    | Cpu_only -> cpu_solver_time +. cpu_qdp_time
    | Cpu_quda -> gpu_solver_time +. transfer_time +. cpu_qdp_time
    | Qdpjit_quda -> gpu_solver_time +. gpu_qdp_time
  in
  base *. machine.Nodes.jitter

let node_hours ~machine ~config w ~nodes =
  trajectory_time ~machine ~config w ~nodes *. float_of_int nodes /. 3600.0

(* The headline factors of Sec. VIII-D, derived from the model. *)
let speedup ~machine w ~config ~nodes =
  trajectory_time ~machine ~config:Cpu_only w ~nodes
  /. trajectory_time ~machine ~config w ~nodes
