(** Multi-rank SPMD execution with communication/computation overlap
    (Sec. V), expressed with streams and events.

    Every MPI rank of the paper becomes a simulated rank here: its own
    device, memory cache and kernel cache, with the local sub-grid of the
    domain decomposition.  Expressions are lowered bottom-up: each [Shift]
    subtree is materialised by a local kernel (the "gather" compute), its
    face data crosses the fabric, inner sites are rebuilt from the local
    neighbour table, and face sites are filled from the received buffer.

    The overlap itself is CUDA-shaped: each rank runs its compute on the
    engine's default stream and its exchanges on a dedicated "comm"
    stream.  The gather kernel records an event the face export waits on;
    the message arrival (computed by the simulated fabric) completes an
    event the import side waits on; the received-face scatter records a
    [face_ready] event.  With overlap enabled the final kernel is launched
    in two pieces — inner sites run immediately, the face piece waits on
    [face_ready] — and with it disabled the compute stream itself waits on
    [face_ready] before any post-exchange work, serialising comm and
    compute.  No per-rank clock arithmetic: the timeline is whatever the
    stream scheduler produced, observable via {!max_clock}.

    Functional results are identical with overlap on or off; what changes
    is the simulated per-rank timeline, which is what Fig. 6 plots. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Index = Layout.Index
module Field = Qdp.Field
module Expr = Qdp.Expr
module Subset = Qdp.Subset
module Buffer_ = Gpusim.Buffer

type t = {
  grid : Comms.Grid.t;
  fabric : Comms.Fabric.t;
  engines : Engine.t array;
  comm_streams : Streams.stream array;
      (** per-rank dedicated stream for face exchange traffic *)
  mutable overlap : bool;
  mutable comm_bytes : int;
  rank_domains : int;
      (** compute-loop workers: ranks execute concurrently on real
          domains when > 1 (each rank's engine then runs its own
          launches single-worker, so the VM pool is never nested) *)
  shift_pool : (string, dfield * dfield) Hashtbl.t;
      (** reused (tmp, shifted) temporaries per (dim, dir, shape,
          occurrence) — the communication buffers of a real implementation
          are persistent too, and per-eval allocation would thrash memory
          at Fig. 6 volumes *)
  mutable shift_seq : int;  (** occurrence counter within one [eval] *)
  temps : Memcache.arena array;
      (** per rank, the fields Multi itself materializes (the shift
          pool's temporaries), so [drop_temps] can release their device
          allocations *)
}

and dfield = { shape : Layout.Shape.t; locals : Qdp.Field.t array }

let create ?(machine = Gpusim.Machine.k20m_ecc_on) ?(mode = Gpusim.Device.Functional)
    ?(network = Comms.Network.infiniband_qdr) ?(rank_domains = 1) ~global_dims ~rank_dims () =
  let grid = Comms.Grid.create ~global_dims ~rank_dims in
  let nranks = Comms.Grid.nranks grid in
  let rank_domains = max 1 (min rank_domains 64) in
  (* With parallel ranks the domain *is* the unit of parallelism: each
     rank's launches run single-worker so a rank's engine never re-enters
     the shared VM pool from inside a pool worker. *)
  let engines =
    Array.init nranks (fun _ ->
        if rank_domains > 1 then Engine.create ~machine ~mode ~vm_domains:1 ()
        else Engine.create ~machine ~mode ())
  in
  {
    grid;
    fabric = Comms.Fabric.create ~network ~nranks;
    engines;
    comm_streams =
      Array.map (fun eng -> Streams.create_stream ~name:"comm" (Engine.streams eng)) engines;
    overlap = true;
    comm_bytes = 0;
    rank_domains;
    shift_pool = Hashtbl.create 16;
    shift_seq = 0;
    temps =
      Array.mapi
        (fun rank eng ->
          Memcache.create_arena (Engine.memcache eng) ~name:(Printf.sprintf "temps:%d" rank))
        engines;
  }

let nranks t = Comms.Grid.nranks t.grid
let local_geom t = t.grid.Comms.Grid.local
let engine t rank = t.engines.(rank)
let rank_domains t = t.rank_domains
let set_overlap t flag = t.overlap <- flag

(* Run rank-local compute ([f rank] touches only rank [rank]'s
   engine/cache/streams/temporaries arena) across the configured
   domains: ranks are dealt round-robin to workers, so the assignment —
   and every rank's own execution order — is deterministic, and each
   rank is owned by exactly one worker within a sweep.  Cross-rank steps
   (fabric transfers, functional face fills, reduction sums) stay on the
   calling thread, between sweeps.  Each rank drains its device's launch
   queue at the end of its work, so its kernels run in its own domain
   and the face fills that follow read their results. *)
let par_ranks t f =
  let n = nranks t in
  let w = min t.rank_domains n in
  Gpusim.Vm_backend.run ~workers:w (fun k ->
      let rank = ref k in
      while !rank < n do
        f !rank;
        Gpusim.Device.flush_batch (Engine.device t.engines.(!rank));
        rank := !rank + w
      done)

let drop_temps t =
  Array.iteri (fun rank eng -> Memcache.release_arena (Engine.memcache eng) t.temps.(rank)) t.engines

let max_clock t =
  Array.fold_left (fun acc eng -> Float.max acc (Streams.horizon (Engine.streams eng))) 0.0
    t.engines

let reset_clocks t =
  Array.iter
    (fun eng ->
      Streams.reset (Engine.streams eng);
      Memcache.settle (Engine.memcache eng))
    t.engines

let create_field ?name t shape =
  { shape; locals = Array.init (nranks t) (fun _ -> Field.create ?name shape (local_geom t)) }

(* Distribute a global-lattice field over the ranks and back. *)
let scatter t ~(global : Field.t) (df : dfield) =
  let local = local_geom t in
  for rank = 0 to nranks t - 1 do
    for ls = 0 to Geometry.volume local - 1 do
      let gs = Comms.Grid.global_site t.grid ~rank ~local_site:ls in
      Field.set_site df.locals.(rank) ~site:ls (Field.get_site global ~site:gs)
    done
  done

let gather t (df : dfield) ~(global : Field.t) =
  let local = local_geom t in
  for rank = 0 to nranks t - 1 do
    for ls = 0 to Geometry.volume local - 1 do
      let gs = Comms.Grid.global_site t.grid ~rank ~local_site:ls in
      Field.set_site global ~site:gs (Field.get_site df.locals.(rank) ~site:ls)
    done
  done

(* Is the rank grid split along [dim]?  If not, a shift is purely local. *)
let split_along t dim = (Geometry.dims t.grid.Comms.Grid.rank_geom).(dim) > 1

let ctx t rank = Engine.streams t.engines.(rank)
let s0 t rank = Engine.default_stream t.engines.(rank)

(* Functional face fill, device buffer to device buffer (the wrapped local
   neighbour index *is* the partner's local site index).  Going through
   the host API would trip the coherence hooks and page whole fields over
   modeled PCIe — a real implementation scatters the receive buffer on the
   device, and the modeled cost of that traffic is already on the comm
   stream, so the data movement here must be free of modeled time. *)
let fill_face_functional t ~rank ~partner ~face ~dim ~dir (tmp : dfield) (shifted : dfield) =
  let local = local_geom t in
  let shape = shifted.shape in
  let nsites = Geometry.volume local in
  let dst_cache = Engine.memcache t.engines.(rank) in
  let src_cache = Engine.memcache t.engines.(partner) in
  let dst_buf = Memcache.ensure_resident dst_cache shifted.locals.(rank) in
  let src_buf = Memcache.ensure_resident src_cache tmp.locals.(partner) in
  let dof = Shape.dof shape in
  let copy (type a b) (src : (a, b, Bigarray.c_layout) Bigarray.Array1.t)
      (dst : (a, b, Bigarray.c_layout) Bigarray.Array1.t) =
    Array.iter
      (fun x ->
        let src_site = Geometry.neighbor local x ~dim ~dir in
        for lin = 0 to dof - 1 do
          let spin, color, reality = Index.component_of_linear shape lin in
          let src_off = Index.offset Index.Soa shape ~nsites ~site:src_site ~spin ~color ~reality in
          let dst_off = Index.offset Index.Soa shape ~nsites ~site:x ~spin ~color ~reality in
          dst.{dst_off} <- src.{src_off}
        done)
      face
  in
  (match (src_buf.Buffer_.data, dst_buf.Buffer_.data) with
  | Buffer_.F16 s, Buffer_.F16 d -> copy s d
  | Buffer_.F32 s, Buffer_.F32 d -> copy s d
  | Buffer_.F64 s, Buffer_.F64 d -> copy s d
  | _ -> invalid_arg "Multi: face fill precision mismatch");
  Memcache.mark_device_dirty dst_cache shifted.locals.(rank)

(* ---------------------------------------------------------------- *)
(* Expression lowering                                               *)

(* Rewrite per-rank expressions bottom-up, materialising every Shift whose
   direction crosses ranks; collects the off-node face-site set
   contributed by top-level shifts and the [face_ready] events the final
   face piece must wait on. *)
type lowering = {
  mutable face_sets : (int * int) list;  (** exchanged (dim,dir) at top level *)
  mutable nested : bool;  (** saw an exchanged shift below another shift *)
  face_ready : Streams.Event.t list array;  (** per-rank, one per exchange *)
}

(* ---------------------------------------------------------------- *)
(* Shift materialisation                                             *)

(* One exchanged shift: the per-rank result fields. *)
let shift_temps t ~dim ~dir shape =
  (* Distinct shift occurrences within one statement need distinct buffers
     (two nodes may share (dim, dir, shape)); across statements the same
     occurrence sequence reuses them. *)
  t.shift_seq <- t.shift_seq + 1;
  let key = Printf.sprintf "%d:%+d:%s:%d" dim dir (Shape.to_string shape) t.shift_seq in
  match Hashtbl.find_opt t.shift_pool key with
  | Some pair -> pair
  | None ->
      let pair = (create_field t shape, create_field t shape) in
      Hashtbl.replace t.shift_pool key pair;
      pair

let materialize_shift t (low : lowering) (subs : Expr.t array) ~dim ~dir ~depth =
  let local = local_geom t in
  let n = nranks t in
  let shape = Expr.shape subs.(0) in
  let pooled_tmp, shifted = shift_temps t ~dim ~dir shape in
  (* 1. Local "gather" kernel on the compute stream: materialise the
     subtree everywhere — unless it is already a plain field, in which
     case the faces can be sent directly (no copy, no kernel).  The
     [g_done] event marks when the face data is ready to export. *)
  let g_done = Array.init n (fun r -> Streams.Event.create ~name:(Printf.sprintf "gather done r%d" r) ()) in
  let tmp =
    match subs.(0) with
    | Expr.Leaf _ ->
        let tmp =
          { shape; locals = Array.map (function Expr.Leaf f -> f | _ -> assert false) subs }
        in
        for rank = 0 to n - 1 do
          Streams.record_event (ctx t rank) (s0 t rank) g_done.(rank)
        done;
        tmp
    | _ ->
        par_ranks t (fun rank ->
            Engine.eval ~stream:(s0 t rank) t.engines.(rank) pooled_tmp.locals.(rank) subs.(rank);
            Memcache.arena_register t.temps.(rank) pooled_tmp.locals.(rank);
            Streams.record_event (ctx t rank) (s0 t rank) g_done.(rank));
        pooled_tmp
  in
  if not (split_along t dim) then begin
    (* Whole direction lives on-rank: a single local kernel suffices. *)
    par_ranks t (fun rank ->
        Engine.eval ~stream:(s0 t rank) t.engines.(rank) shifted.locals.(rank)
          (Expr.shift (Expr.field tmp.locals.(rank)) ~dim ~dir);
        Memcache.arena_register t.temps.(rank) shifted.locals.(rank));
    shifted
  end
  else begin
    let face = Geometry.face_sites local ~dim ~dir in
    let inner = Geometry.inner_sites local ~dim ~dir in
    let face_bytes = Array.length face * Shape.bytes_per_site shape in
    t.comm_bytes <- t.comm_bytes + (face_bytes * n);
    let cuda_aware = Comms.Fabric.cuda_aware t.fabric in
    (* 2. Face export on the comm stream: wait for the gather, then (for a
       non-CUDA-aware fabric) stage the face through host memory.  The
       comm stream's cursor afterwards is the message post time. *)
    let post = Array.make n 0.0 in
    for rank = 0 to n - 1 do
      let c = ctx t rank and sc = t.comm_streams.(rank) in
      Streams.wait_event c sc g_done.(rank);
      if not cuda_aware then
        ignore (Streams.memcpy_d2h ~name:"face export" c sc ~bytes:face_bytes);
      post.(rank) <- Streams.cursor_ns sc
    done;
    (* 3. The wire: the simulated fabric turns each post time into an
       arrival time at the partner, which completes an event the
       receiver's comm stream waits on. *)
    let arrived =
      Array.init n (fun rank ->
          (* Receiver's message comes from the rank on the *opposite* side. *)
          let sender = Comms.Grid.neighbor_rank t.grid rank ~dim ~dir in
          let arrive_ns =
            Comms.Fabric.transfer t.fabric ~src:sender ~dst:rank ~bytes:face_bytes
              ~post_ns:post.(sender)
          in
          let ev = Streams.Event.create ~name:(Printf.sprintf "msg arrival r%d" rank) () in
          Streams.record_event_at ev ~ns:arrive_ns;
          ev)
    in
    (* 4. Face import + scatter on the comm stream; [face_ready] caps the
       exchange.  Model-only devices skip the data movement.  The scatter
       is a tiny launch-overhead-sized kernel; it is modeled on the copy
       engine rather than the SMs because the engine timelines are FCFS in
       issue order — a late-starting blip on the compute engine would
       otherwise push back every kernel issued after it, which the real
       hardware (running it between kernels) does not do. *)
    for rank = 0 to n - 1 do
      let partner = Comms.Grid.neighbor_rank t.grid rank ~dim ~dir in
      (match (Engine.device t.engines.(rank)).Gpusim.Device.mode with
      | Gpusim.Device.Functional | Gpusim.Device.Reference ->
          fill_face_functional t ~rank ~partner ~face ~dim ~dir tmp shifted
      | Gpusim.Device.Model_only -> ());
      let c = ctx t rank and sc = t.comm_streams.(rank) in
      Streams.wait_event c sc arrived.(rank);
      if not cuda_aware then
        ignore (Streams.memcpy_h2d ~name:"face import" c sc ~bytes:face_bytes);
      let mach = (Engine.device t.engines.(rank)).Gpusim.Device.machine in
      Streams.busy ~cat:"kernel" c sc ~engine:Streams.Copy_h2d ~name:"face scatter"
        ~ns:mach.Gpusim.Machine.base_overhead_ns;
      let ev = Streams.Event.create ~name:(Printf.sprintf "face ready r%d" rank) () in
      Streams.record_event c sc ev;
      (* Overlap off — or an exchange feeding another shift, which the
         paper does not overlap — stalls the compute stream here and now;
         overlap on defers the wait to the final face piece. *)
      if (not t.overlap) || depth > 0 then Streams.wait_event c (s0 t rank) ev
      else low.face_ready.(rank) <- ev :: low.face_ready.(rank)
    done;
    (* 5. Inner sites from the local (periodic) neighbour table, on the
       compute stream — this is the work that hides the messages (with
       overlap off the compute stream just stalled on [face_ready], so
       nothing hides). *)
    par_ranks t (fun rank ->
        Engine.eval ~stream:(s0 t rank) ~subset:(Subset.Custom inner) t.engines.(rank)
          shifted.locals.(rank)
          (Expr.shift (Expr.field tmp.locals.(rank)) ~dim ~dir);
        Memcache.arena_register t.temps.(rank) shifted.locals.(rank));
    if depth = 0 then low.face_sets <- (dim, dir) :: low.face_sets else low.nested <- true;
    shifted
  end

let rec lower t (low : lowering) ~depth (es : Expr.t array) : Expr.t array =
  let n = nranks t in
  let sub1 f = Array.map (fun e -> f e) es in
  match es.(0) with
  | Expr.Leaf _ | Expr.Const _ | Expr.Param _ -> es
  (* Rebuilt nodes keep the source node's shape: lowering replaces an
     exchanged shift by a field of that shift's own shape. *)
  | Expr.Unary (op, _, shape) ->
      let subs = lower t low ~depth (sub1 (function Expr.Unary (_, s, _) -> s | _ -> assert false)) in
      Array.map (fun s -> Expr.Unary (op, s, shape)) subs
  | Expr.Binary (op, _, _, shape) ->
      let lefts = lower t low ~depth (sub1 (function Expr.Binary (_, a, _, _) -> a | _ -> assert false)) in
      let rights = lower t low ~depth (sub1 (function Expr.Binary (_, _, b, _) -> b | _ -> assert false)) in
      Array.init n (fun r -> Expr.Binary (op, lefts.(r), rights.(r), shape))
  | Expr.Clover (_, _, _) ->
      let d = lower t low ~depth (sub1 (function Expr.Clover (a, _, _) -> a | _ -> assert false)) in
      let tr = lower t low ~depth (sub1 (function Expr.Clover (_, b, _) -> b | _ -> assert false)) in
      let p = lower t low ~depth (sub1 (function Expr.Clover (_, _, c) -> c | _ -> assert false)) in
      Array.init n (fun r -> Expr.Clover (d.(r), tr.(r), p.(r)))
  | Expr.Shift (_, dim, dir) ->
      let subs = lower t low ~depth:(depth + 1) (sub1 (function Expr.Shift (s, _, _) -> s | _ -> assert false)) in
      if not (split_along t dim) then
        (* Purely local: keep the shift in the kernel. *)
        Array.map (fun s -> Expr.Shift (s, dim, dir)) subs
      else
        let shifted = materialize_shift t low subs ~dim ~dir ~depth in
        Array.map (fun f -> Expr.field f) shifted.locals

(* ---------------------------------------------------------------- *)
(* Evaluation                                                        *)

type eval_timing = {
  total_ns : float;  (** max over ranks for this statement *)
  comm_overlapped : bool;
}

(* One statement's per-rank expressions, lowered: exchanged shifts are
   materialised and replaced by fields. *)
let lower_statement t (mk : int -> Expr.t) =
  let n = nranks t in
  t.shift_seq <- 0;
  let exprs = Array.init n mk in
  let low = { face_sets = []; nested = false; face_ready = Array.make n [] } in
  (lower t low ~depth:0 exprs, low)

let lowered t mk = fst (lower_statement t mk)

let eval ?(subset = Subset.All) t (dest : dfield) (mk : int -> Expr.t) =
  let lowered, low = lower_statement t mk in
  let local = local_geom t in
  let had_exchange = low.face_sets <> [] || low.nested in
  if not had_exchange then begin
    (* No off-node data: single launch per rank. *)
    par_ranks t (fun rank ->
        Engine.eval ~subset ~stream:(s0 t rank) t.engines.(rank) dest.locals.(rank) lowered.(rank));
    { total_ns = max_clock t; comm_overlapped = false }
  end
  else begin
    (* Split the final kernel: sites whose top-level shifts were all local
       vs sites that consumed received data.  The inner piece launches
       while messages fly; the face piece waits on every [face_ready]
       event first (with overlap off the compute stream already stalled at
       the exchanges, so the waits are no-ops there). *)
    let face_set = Hashtbl.create 64 in
    List.iter
      (fun (dim, dir) ->
        Array.iter (fun s -> Hashtbl.replace face_set s ()) (Geometry.face_sites local ~dim ~dir))
      low.face_sets;
    let requested = Subset.sites local subset in
    let inner_sites =
      Array.of_list (List.filter (fun s -> not (Hashtbl.mem face_set s)) (Array.to_list requested))
    in
    let face_sites =
      Array.of_list (List.filter (fun s -> Hashtbl.mem face_set s) (Array.to_list requested))
    in
    par_ranks t (fun rank ->
        let stream = s0 t rank in
        if Array.length inner_sites > 0 then
          Engine.eval ~subset:(Subset.Custom inner_sites) ~stream t.engines.(rank)
            dest.locals.(rank) lowered.(rank);
        List.iter (Streams.wait_event (ctx t rank) stream) (List.rev low.face_ready.(rank));
        if Array.length face_sites > 0 then
          Engine.eval ~subset:(Subset.Custom face_sites) ~stream t.engines.(rank)
            dest.locals.(rank) lowered.(rank));
    { total_ns = max_clock t; comm_overlapped = t.overlap }
  end

(* Reductions: per-rank engine reductions, summed over ranks (the MPI
   all-reduce of the real implementation).  The device reductions run
   concurrently across rank domains; the cross-rank sum happens on the
   calling thread in rank order, so the accumulation order — and the
   floating-point result — is identical to the sequential sweep.  The
   per-rank expressions are built on the calling thread first: [mk] is
   user code and owes us no thread-safety. *)
let norm2 t (mk : int -> Expr.t) =
  let n = nranks t in
  let es = Array.init n mk in
  let partial = Array.make n 0.0 in
  par_ranks t (fun rank -> partial.(rank) <- Engine.norm2 t.engines.(rank) es.(rank));
  Array.fold_left ( +. ) 0.0 partial

let sum_real t (mk : int -> Expr.t) =
  let n = nranks t in
  let es = Array.init n mk in
  let partial = Array.make n 0.0 in
  par_ranks t (fun rank -> partial.(rank) <- Engine.sum_real t.engines.(rank) es.(rank));
  Array.fold_left ( +. ) 0.0 partial

let inner t (mka : int -> Expr.t) (mkb : int -> Expr.t) =
  let n = nranks t in
  let eas = Array.init n mka and ebs = Array.init n mkb in
  let partial = Array.make n (0.0, 0.0) in
  par_ranks t (fun rank ->
      partial.(rank) <- Engine.inner t.engines.(rank) eas.(rank) ebs.(rank));
  Array.fold_left (fun (re, im) (r, i) -> (re +. r, im +. i)) (0.0, 0.0) partial

let fabric_stats t = Comms.Fabric.stats t.fabric
