(** The simulated CUDA device: memory, launches, and a simulated clock.

    Functional mode queues every launch and runs the queue on real
    buffers through the VM when the host next synchronizes or touches
    device memory; reference mode does the same on the VM's scalar
    oracle ([Vm.run_reference]); model-only mode skips execution (used
    by the paper-scale benchmark sweeps, where only the clock matters).
    The modeled time of a launch or copy is returned to the caller: the
    stream scheduler owns the clock. *)

type mode = Functional | Reference | Model_only

exception Out_of_device_memory
exception Launch_failure of string

type stats = {
  mutable launches : int;
  mutable launch_failures : int;
  mutable kernel_ns : float;
  mutable h2d_bytes : int;
  mutable d2h_bytes : int;
  mutable transfers : int;
  mutable transfer_ns : float;
  mutable allocs : int;
  mutable frees : int;
}

type t = {
  machine : Machine.t;
  mode : mode;
  vm_domains : int;
  mutable clock_ns : float;
  mutable used_bytes : int;
  mutable buffers : Buffer.t option array;
  mutable next_id : int;
  mutable batch : Vm.launch list; (* queued launches, most recent first *)
  stats : stats;
}

let create ?(mode = Functional) ?vm_domains machine =
  {
    machine;
    mode;
    vm_domains = Machine.host_domains ?vm_domains ();
    clock_ns = 0.0;
    used_bytes = 0;
    buffers = Array.make 64 None;
    next_id = 0;
    batch = [];
    stats =
      {
        launches = 0;
        launch_failures = 0;
        kernel_ns = 0.0;
        h2d_bytes = 0;
        d2h_bytes = 0;
        transfers = 0;
        transfer_ns = 0.0;
        allocs = 0;
        frees = 0;
      };
  }

let clock_ns t = t.clock_ns
let used_bytes t = t.used_bytes
let free_bytes t = t.machine.Machine.memory_bytes - t.used_bytes
let stats t = t.stats

let grow t =
  let bigger = Array.make (2 * Array.length t.buffers) None in
  Array.blit t.buffers 0 bigger 0 (Array.length t.buffers);
  t.buffers <- bigger

let register t make bytes =
  if t.used_bytes + bytes > t.machine.Machine.memory_bytes then raise Out_of_device_memory;
  if t.next_id >= Array.length t.buffers then grow t;
  let id = t.next_id in
  t.next_id <- id + 1;
  let buf = make id in
  t.buffers.(id) <- Some buf;
  t.used_bytes <- t.used_bytes + bytes;
  t.stats.allocs <- t.stats.allocs + 1;
  buf

(* A model-only device never executes a kernel and the memory cache never
   copies into its buffers, so its float buffers carry their byte count
   but no storage.  Integer tables keep theirs: the engine fills them on
   the host in either mode. *)
let alloc_float t create width n =
  let len = match t.mode with Functional | Reference -> n | Model_only -> 0 in
  register t (fun id -> { (create id len) with Buffer.bytes = width * n }) (width * n)

let alloc_f16 t n = alloc_float t Buffer.create_f16 2 n
let alloc_f32 t n = alloc_float t Buffer.create_f32 4 n
let alloc_f64 t n = alloc_float t Buffer.create_f64 8 n
let alloc_i32 t n = register t (fun id -> Buffer.create_i32 id n) (4 * n)

let lookup t id =
  if id < 0 || id >= t.next_id then raise (Vm.Fault "buffer id out of range")
  else
    match t.buffers.(id) with
    | Some b -> b.Buffer.data
    | None -> raise (Vm.Fault "use of freed device buffer")

(* Deferred execution: [execute] queues the decoded launch and
   [flush_batch] hands the whole queue to [Vm.run_batch] as one sweep
   ([Vm.run_reference] on a reference device).
   The clock model, stats and launch-fit checks stay at issue (they
   don't depend on buffer contents), so only the VM interpreter work
   moves.  Host synchronization, [free] and host-side blits (memcache
   uploads and page-outs) drain the queue first: queued launches must
   observe buffer contents as of their program point.  The queue is
   emptied before the sweep runs, so a faulting sweep leaves the device
   ready for new launches. *)
let flush_batch t =
  match t.batch with
  | [] -> ()
  | rev -> (
      t.batch <- [];
      let launches = Array.of_list (List.rev rev) in
      match t.mode with
      | Functional -> Vm.run_batch ~workers:t.vm_domains ~lookup:(lookup t) launches
      | Reference -> Vm.run_reference ~lookup:(lookup t) launches
      | Model_only -> ())

let idle t = t.batch = []

let free t (buf : Buffer.t) =
  flush_batch t;
  match t.buffers.(buf.Buffer.id) with
  | Some b when b == buf ->
      t.buffers.(buf.Buffer.id) <- None;
      t.used_bytes <- t.used_bytes - buf.Buffer.bytes;
      t.stats.frees <- t.stats.frees + 1
  | Some _ | None -> invalid_arg "Device.free: stale buffer"

(* Host<->device transfers: account PCIe time; the data movement itself is a
   host-side blit performed by the caller (host and device memory are both
   process memory here).  [transfer_cost] records the traffic and returns
   the modeled duration without touching the clock — copies live on a
   stream timeline owned by the stream scheduler. *)
let transfer_cost t ~bytes ~to_device =
  let ns = Timing.transfer_time_ns t.machine ~bytes in
  t.stats.transfers <- t.stats.transfers + 1;
  t.stats.transfer_ns <- t.stats.transfer_ns +. ns;
  if to_device then t.stats.h2d_bytes <- t.stats.h2d_bytes + bytes
  else t.stats.d2h_bytes <- t.stats.d2h_bytes + bytes;
  ns

let set_clock_ns t ns = t.clock_ns <- ns

(* Queue a compiled kernel over [nthreads] logical threads and return its
   modeled duration without advancing the clock (stream timelines decide
   *when* it runs).  Raises [Launch_failure] when the block geometry or
   register pressure does not fit the machine — the condition the
   auto-tuner (Sec. VII) probes for. *)
let execute t (c : Jit.compiled) ~nthreads ~block ~params =
  if not (Timing.launch_fits t.machine ~regs_per_thread:c.Jit.regs_per_thread ~block) then begin
    t.stats.launch_failures <- t.stats.launch_failures + 1;
    raise
      (Launch_failure
         (Printf.sprintf "block %d with %d regs/thread does not fit %s" block
            c.Jit.regs_per_thread t.machine.Machine.name))
  end;
  let grid = (nthreads + block - 1) / block in
  (match t.mode with
  | Functional | Reference ->
      (* Callers hand over [params] freshly allocated per launch; the
         deferred sweep captures the array as-is. *)
      t.batch <-
        {
          Vm.l_prog = c.Jit.program;
          l_grid = grid;
          l_block = block;
          l_threads = nthreads;
          l_params = params;
        }
        :: t.batch
  | Model_only -> ());
  let ns =
    Timing.kernel_time_ns t.machine ~analysis:c.Jit.analysis
      ~regs_per_thread:c.Jit.regs_per_thread ~prec:c.Jit.prec ~nthreads ~block
  in
  t.stats.launches <- t.stats.launches + 1;
  t.stats.kernel_ns <- t.stats.kernel_ns +. ns;
  ns
