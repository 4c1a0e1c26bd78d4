(** The QDP-JIT runtime for one rank: expression evaluation on the
    simulated GPU.

    [eval] is the whole paper in one function: look the expression's
    structure up in the kernel cache (generate + driver-JIT-compile PTX on
    a miss), make every referenced field device-resident through the
    memory cache, bind parameters, and launch through the per-kernel
    auto-tuner.  Reductions evaluate a per-site kernel into engine-owned
    scratch and fold it with a cached radix-8 kernel, finishing the last
    level on the host, keeping results deterministic.

    There is one launch path: every eval launches as a fusion group
    ({!launch_fused}), and an eval launched alone — on an explicit
    stream, from a [~fuse:false] engine, or as the fallback of a group
    that failed — is a group of one.  Every kernel the engine launches,
    group or fold kernel, comes out of one compile path ({!compile}):
    persistent-cache lookup, naming, {!Codegen.lower}, driver JIT,
    publish.  A cache entry keeps only what a launch reads: the compiled
    function, its parameter bindings and its tuner.

    On top of that sits the deferred-launch queue: a default-stream
    [eval] only records the request, and a flush point (reduction,
    host access through the memory cache, queue depth, or an explicit
    {!flush}) runs the fusion planner over the pending evals, one
    (subset, geometry) run at a time.  Field-id dependence analysis
    groups evals that may execute as one kernel — {!Ptx.Fuse} splices
    their bodies, replacing same-site producer→consumer loads with
    register moves — and anything hazardous launches separately, in
    order, on the default stream. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr
module Subset = Qdp.Subset
module Device = Gpusim.Device
module Jit = Gpusim.Jit
module Buffer_ = Gpusim.Buffer
open Ptx.Types

(** Lifetime counters of the deferred-eval queue and fusion planner. *)
type fusion_stats = {
  deferred_evals : int;  (** default-stream evals that entered the queue *)
  flushes : int;
  fused_groups : int;  (** groups of two or more evals launched as one kernel *)
  launches_saved : int;
  eliminated_load_bytes : int;  (** whole-launch global loads removed *)
  eliminated_store_bytes : int;  (** whole-launch global stores removed *)
  fallbacks : int;  (** groups relaunched separately after a fusion failure *)
}

let no_fusion =
  {
    deferred_evals = 0;
    flushes = 0;
    fused_groups = 0;
    launches_saved = 0;
    eliminated_load_bytes = 0;
    eliminated_store_bytes = 0;
    fallbacks = 0;
  }

(* An eval's kernel-cache key, interned per engine by {!eval_key}.  [id]
   keys the in-memory tables; [skey] is the full structural string, read
   only to spell a group's persistent-cache key on an in-memory miss (ids
   are engine-local, so they never reach the disk). *)
type ekey = { id : int; skey : string }

(* The unoptimized per-eval kernel and its plan (fusion source
   material), plus its per-work-item global load/store bytes, which a
   dead group of one reports as eliminated.  Built only for a group
   compile or a dead launch, and never stored on disk. *)
type member = {
  m_raw : kernel;
  m_plan : Codegen.param_plan list;
  m_load_bytes : int;
  m_store_bytes : int;
}

(* Which fields a pending expression reads, and how: a shifted read
   samples neighbour sites, so it must not observe a same-flush write. *)
type read_info = { mutable r_unshifted : bool; mutable r_shifted : bool }

type pending = {
  p_dest : Field.t option;
      (** [None] for a reduction payload: the kernel is built in reduction
          mode and writes the engine's partial-plane and block scratch,
          never a field, so nothing is made resident, marked dirty or
          dropped on its behalf *)
  p_shape : Shape.t;  (** destination shape (f64 for a reduction payload) *)
  p_expr : Expr.t;
  p_key : ekey;  (** computed once, at enqueue *)
  p_leaves : Field.t list;  (** [Expr.leaves p_expr], from the same walk *)
  p_subset : Subset.t;
  p_geom : Geometry.t;
  p_reads : (int, read_info) Hashtbl.t;
  p_retained : Field.t list;  (** memcache references taken at enqueue *)
}

let is_red (ev : pending) = ev.p_dest = None

(* Does [ev] write field [fid]? *)
let writes (ev : pending) fid =
  match ev.p_dest with Some d -> d.Field.id = fid | None -> false

(* Launch-time binding of one fused parameter slot; field identities are
   erased (canonical index into the group's distinct-field walk) so the
   fused kernel is reusable across field sets. *)
type fused_binding =
  | FB_field of int
  | FB_ntable of int * int
  | FB_sitelist
  | FB_nwork
  | FB_scalar of int * int * int  (** member, scalar slot, component *)
  | FB_red_partial  (** the engine's partial-plane scratch buffer *)
  | FB_red_block  (** the engine's block-partial scratch buffer *)

(* What a launch reads, and what the persistent cache stores: the
   driver's function (its analysis drives the byte counters), the binding
   of each parameter slot (empty for the fold kernel, whose caller binds
   its own), a fused group's savings, and the block-size tuner. *)
type entry = {
  compiled : Jit.compiled;
  plan : fused_binding array;
  report : Ptx.Fuse.report;
  tuner : Autotune.t;  (** replaced on a disk load: block limits are the loading engine's *)
}

type t = {
  device : Device.t;
  streams : Streams.t;  (** stream context over [device]; all launches go
                            through it (default stream unless told otherwise) *)
  cache : Memcache.t;
  jit_cache : Jitcache.t option;
      (** persistent store of compiled kernels, shared across engines and
          processes; looked up before every compile *)
  keys : (string * int * bool * bool, ekey) Hashtbl.t;
      (** interned eval keys by (binary {!Expr.structure_key}, nsites,
          site-list flag, reduction flag); ids count up from 0 *)
  fused_kernels : (string, entry) Hashtbl.t;
      (** groups, of one eval or more, by a packed int sequence (see
          {!launch_fused}) *)
  mutable fold : entry option;  (** the fold kernel, compiled on first use *)
  members : (int, member) Hashtbl.t;
      (** unoptimized per-eval kernels by key id: fusion source material
          for group compiles, and dead-launch byte counts *)
  recipes : (string, string * Ptx.Fuse.source list) Hashtbl.t;
      (** the kernel name and splice sources of every group compiled
          here, by the {!fused_kernels} key: enough to re-derive its PTX
          text ({!kernel_texts}); the sources hold member kernels and
          slot numbers, never a field or a pending eval *)
  fused_key : Buffer.t;  (** scratch for building fused-group keys *)
  ntables : (int array * int * int, Buffer_.t) Hashtbl.t;  (** by (dims, dim, dir) *)
  sitelists : (int array * string, Buffer_.t) Hashtbl.t;
      (** by (dims, "even" | "odd" | content digest) *)
  optimize : bool;  (** run the {!Ptx.Passes} middle-end before the driver JIT *)
  fuse : bool;  (** defer default-stream evals and fuse at flush points *)
  fuse_reductions : bool;
      (** let a reduction payload join the trailing fused group instead of
          always launching it standalone *)
  mutable pending_rev : pending list;  (** deferred evals, newest first *)
  mutable pending_n : int;
  mutable in_flush : bool;
  mutable kernels_built : int;
  mutable jit_seconds : float;  (** accumulated modeled driver-JIT time *)
  mutable kernel_serial : int;
  mutable kernel_bytes : int;
      (** modeled global bytes moved by every launched kernel so far *)
  mutable kernel_bytes_f16 : int;
  mutable kernel_bytes_f32 : int;
  mutable kernel_bytes_f64 : int;
      (** the float portion of [kernel_bytes] split by storage precision *)
  red_partial : Buffer_.t option ref;
      (** partial planes the reduction-mode payload kernels write: one
          plane of nsites doubles per component *)
  red_block : Buffer_.t option ref;
      (** block partials the payload kernels aggregate into: one plane of
          ceil(nsites/8) doubles per component *)
  mutable fusion : fusion_stats;
}

let max_pending = 16
let max_group = 6

let device t = t.device
let streams t = t.streams
let default_stream t = Streams.default_stream t.streams
let memcache t = t.cache

let geom_tag geom =
  Geometry.dims geom |> Array.to_list |> List.map string_of_int |> String.concat "x"

(* Neighbour tables (Sec. V's stencil machinery): table[x] = index of the
   site shift(.,dim,dir) reads at x, i.e. the periodic neighbour.  Built
   and uploaded once per geometry and direction. *)
let ntable t geom ~dim ~dir =
  let key = (geom.Geometry.dims, dim, dir) in
  match Hashtbl.find_opt t.ntables key with
  | Some buf -> buf
  | None ->
      let n = Geometry.volume geom in
      let buf = Device.alloc_i32 t.device n in
      (match buf.Buffer_.data with
      | Buffer_.I32 a ->
          for site = 0 to n - 1 do
            a.{site} <- Int32.of_int (Geometry.neighbor geom site ~dim ~dir)
          done
      | _ -> assert false);
      ignore
        (Streams.memcpy_h2d
           ~name:(Printf.sprintf "ntable %s:%d:%+d" (geom_tag geom) dim dir)
           t.streams
           (Streams.default_stream t.streams) ~bytes:buf.Buffer_.bytes);
      Hashtbl.replace t.ntables key buf;
      buf

let upload_sitelist t sites =
  let buf = Device.alloc_i32 t.device (Array.length sites) in
  (match buf.Buffer_.data with
  | Buffer_.I32 a -> Array.iteri (fun i s -> a.{i} <- Int32.of_int s) sites
  | _ -> assert false);
  ignore
    (Streams.memcpy_h2d ~name:"sitelist" t.streams (Streams.default_stream t.streams)
       ~bytes:buf.Buffer_.bytes);
  buf

let sitelist t geom subset =
  match subset with
  | Subset.All -> invalid_arg "Engine.sitelist: All has no site list"
  | Subset.Even | Subset.Odd ->
      let key = (geom.Geometry.dims, if subset = Subset.Even then "even" else "odd") in
      (match Hashtbl.find_opt t.sitelists key with
      | Some buf -> buf
      | None ->
          let buf = upload_sitelist t (Subset.sites geom subset) in
          Hashtbl.replace t.sitelists key buf;
          buf)
  | Subset.Custom sites ->
      (* Repeated subsets (inner/face partitions of the overlap engine) are
         cached by content digest. *)
      let digest =
        let buf = Bytes.create (8 * Array.length sites) in
        Array.iteri (fun i s -> Bytes.set_int64_le buf (8 * i) (Int64.of_int s)) sites;
        Digest.to_hex (Digest.bytes buf)
      in
      let key = (geom.Geometry.dims, digest) in
      (match Hashtbl.find_opt t.sitelists key with
      | Some buf -> buf
      | None ->
          let buf = upload_sitelist t sites in
          Hashtbl.replace t.sitelists key buf;
          buf)

(* ------------------------------------------------------------------ *)
(* The persistent JIT cache.

   Disk keys capture everything a compiled artifact depends on: the
   structural key of what is being compiled (a group's key spelled with
   its members' expression structure keys, see {!launch_fused}, or the
   fixed fold kernel's) under its kind ([fused], [reduce]), the optimize
   flag, and the versions of every stage that shapes the bytes — code
   generator, middle-end, splicer, pre-decoder, expression key — plus the
   OCaml version, since entries travel as [Marshal] images.  An entry is
   the launch-ready {!entry}: a hit restores the driver's output
   (pre-decoded program and analysis), the parameter bindings and the
   fuse report without building a member or running the splicer, the
   passes, the validator or the driver JIT; [kernels_built] and
   [jit_seconds] count only real compiles, so a fully warm engine reports
   zero kernels built.  A payload type change must bump one of the
   versions in [cache_tag]: [Marshal] cannot tell an old payload from a
   new one. *)

let cache_tag =
  Printf.sprintf "qdpjit|ml%s|cg%d|ps%d|fu%d|vm%d|ek%d" Sys.ocaml_version Codegen.version
    Ptx.Passes.version Ptx.Fuse.version Gpusim.Vm.decoder_version Expr.key_version

let no_report = { Ptx.Fuse.subst_load_bytes = 0; dropped_store_bytes = 0 }

(* The PTX text the driver compiles for a raw kernel: the middle-end's
   output, printed.  The text lives only as long as the call that reads
   it. *)
let ptx_text t ?provenance raw =
  Ptx.Print.kernel (fst (Codegen.lower ~optimize:t.optimize ?provenance raw))

(* The one compile path.  [emit kname] produces the raw kernel, the
   emitter's CSE provenance (if any), a fused group's savings report and
   its parameter bindings; it runs only on a persistent-cache miss, after
   the kernel is named: [`Serial p] numbers it [p_<n>] in compile order,
   [`Fixed n] is a constant name. *)
let compile t ~kind ~skey ~name emit =
  let opt = t.optimize in
  let key = Printf.sprintf "%s|opt%b|%s|%s" cache_tag opt kind skey in
  let tuner =
    Autotune.create ~max_block:t.device.Device.machine.Gpusim.Machine.max_threads_per_block ()
  in
  let cached =
    match Option.bind t.jit_cache (fun c -> Jitcache.find c ~key) with
    | None -> None
    | Some data -> ( try Some (Marshal.from_string data 0 : entry) with _ -> None)
  in
  match cached with
  | Some e -> { e with tuner }
  | None ->
      let kname =
        match name with
        | `Fixed n -> n
        | `Serial prefix ->
            t.kernel_serial <- t.kernel_serial + 1;
            Printf.sprintf "%s_%d" prefix t.kernel_serial
      in
      let raw, provenance, report, plan = emit kname in
      let compiled = Jit.compile (ptx_text t ?provenance raw) in
      t.kernels_built <- t.kernels_built + 1;
      t.jit_seconds <- t.jit_seconds +. compiled.Jit.compile_time;
      let e = { compiled; plan; report; tuner } in
      Option.iter (fun c -> Jitcache.store c ~key ~data:(Marshal.to_string e [])) t.jit_cache;
      e

(* Intern an eval's kernel-cache key and collect its leaves, in one walk
   of the expression.  The persistent-cache string is formed only when a
   key is first seen. *)
let eval_key t ~reduction ~dest_shape ~nsites ~use_sitelist expr =
  let skey, leaves = Expr.key_and_leaves ~dest_shape expr in
  let k = (skey, nsites, use_sitelist, reduction) in
  let key =
    match Hashtbl.find_opt t.keys k with
    | Some key -> key
    | None ->
        let key =
          {
            id = Hashtbl.length t.keys;
            skey =
              Printf.sprintf "%s|v%d|%s%s" skey nsites
                (if use_sitelist then "list" else "all")
                (if reduction then "|red" else "");
          }
        in
        Hashtbl.replace t.keys k key;
        key
  in
  (key, leaves)

(* The unoptimized per-eval kernel and its plan, kept as fusion source
   material: the splicer needs the emitter's canonical instruction order,
   which the middle-end (sink in particular) does not preserve. *)
let member t (ev : pending) =
  match Hashtbl.find_opt t.members ev.p_key.id with
  | Some m -> m
  | None ->
      let b =
        Codegen.build ~optimize:false ~reduction:(is_red ev) ~kname:"qdpjit_member"
          ~dest_shape:ev.p_shape ~expr:ev.p_expr ~nsites:(Geometry.volume ev.p_geom)
          ~use_sitelist:(not (Subset.is_all ev.p_subset)) ()
      in
      let a = Ptx.Analysis.kernel b.Codegen.raw in
      let m =
        {
          m_raw = b.Codegen.raw;
          m_plan = b.Codegen.plan;
          m_load_bytes = a.Ptx.Analysis.load_bytes;
          m_store_bytes = a.Ptx.Analysis.store_bytes;
        }
      in
      Hashtbl.replace t.members ev.p_key.id m;
      m

(* Launch through the auto-tuner onto [stream]: resource failures shrink
   the block; the modeled time of successful payload launches drives the
   probe (the stream's queueing delay is excluded from the signal). *)
let tuned_launch t entry ~stream ~nthreads ~params =
  let name = Gpusim.Vm.kname entry.compiled.Jit.program in
  let rec attempt () =
    let block = Autotune.next_block entry.tuner in
    match Streams.launch ~name t.streams stream entry.compiled ~nthreads ~block ~params with
    | ns -> Autotune.report entry.tuner ~block ~ns
    | exception Device.Launch_failure _ ->
        Autotune.on_failure entry.tuner ~block;
        attempt ()
  in
  if nthreads > 0 then begin
    let a = entry.compiled.Jit.analysis in
    t.kernel_bytes <- t.kernel_bytes + ((a.Ptx.Analysis.load_bytes + a.store_bytes) * nthreads);
    t.kernel_bytes_f16 <- t.kernel_bytes_f16 + (a.f16_bytes * nthreads);
    t.kernel_bytes_f32 <- t.kernel_bytes_f32 + (a.f32_bytes * nthreads);
    t.kernel_bytes_f64 <- t.kernel_bytes_f64 + (a.f64_bytes * nthreads);
    attempt ()
  end

(* The reduction scratch buffers, grown on demand (through the memcache's
   spill loop) and never shrunk.  Reductions are synchronous (payload
   launch, then folds, then readback), so one engine buffer of each kind
   serves every reduction and is never live across two. *)
let grow_scratch t s ~words =
  match !s with
  | Some b when b.Buffer_.bytes >= 8 * words -> b
  | prev ->
      Option.iter (Device.free t.device) prev;
      s := None;
      let b = Memcache.alloc_f64_spilling t.cache words in
      s := Some b;
      b

let scratch_buf s =
  match !s with
  | Some b -> b
  | None -> invalid_arg "Engine: reduction kernel launched with no scratch"

(* ------------------------------------------------------------------ *)
(* The fusion planner                                                  *)

(* Which fields [expr] reads, split by whether the read happens through a
   shift (a shifted read samples neighbour sites, so fusing it past a
   same-flush write would observe new data mid-sweep). *)
let reads_of expr =
  let tbl = Hashtbl.create 8 in
  let record (f : Field.t) shifted =
    let r =
      match Hashtbl.find_opt tbl f.Field.id with
      | Some r -> r
      | None ->
          let r = { r_unshifted = false; r_shifted = false } in
          Hashtbl.replace tbl f.Field.id r;
          r
    in
    if shifted then r.r_shifted <- true else r.r_unshifted <- true
  in
  let rec walk shifted = function
    | Expr.Leaf f -> record f shifted
    | Expr.Const _ | Expr.Param _ -> ()
    | Expr.Unary (_, a, _) -> walk shifted a
    | Expr.Binary (_, a, b, _) ->
        walk shifted a;
        walk shifted b
    | Expr.Shift (a, _, _) -> walk true a
    | Expr.Clover (d, tr, p) ->
        walk shifted d;
        walk shifted tr;
        walk shifted p
  in
  walk false expr;
  tbl

(* One eval as a queue entry, keyed here.  [dest] is [None] for a
   reduction payload (kernel in reduction mode, scratch bound at launch).
   It holds no memcache references until {!enqueue} takes them. *)
let pending t ~subset ~geom ~dest_shape dest expr =
  let key, leaves =
    eval_key t ~reduction:(dest = None) ~dest_shape ~nsites:(Geometry.volume geom)
      ~use_sitelist:(not (Subset.is_all subset)) expr
  in
  {
    p_dest = dest;
    p_shape = dest_shape;
    p_expr = expr;
    p_key = key;
    p_leaves = leaves;
    p_subset = subset;
    p_geom = geom;
    p_reads = reads_of expr;
    p_retained = [];
  }

let reads_shifted (ev : pending) fid =
  match Hashtbl.find_opt ev.p_reads fid with Some r -> r.r_shifted | None -> false

(* Two pending evals belong to the same launch run iff they agree on the
   lattice geometry and the subset: one fused kernel has one site space.
   Subsets compare structurally (Even/Odd tags; Custom by site array). *)
let same_run (a : pending) (b : pending) =
  (a.p_geom == b.p_geom || a.p_geom.Geometry.dims = b.p_geom.Geometry.dims)
  && a.p_subset = b.p_subset

(* Greedy in-order grouping.  A group is a run of consecutive evals on
   one (subset, geometry) that one fused kernel executes; a candidate
   joins unless it would
   - belong to a different (subset, geometry) run — the queue no longer
     flushes on such a change, but a fused kernel has one site space, so
     the change closes the group (later same-subset evals start a fresh
     group; program order is never reordered),
   - re-write a field the group already writes (WAW: the group has one
     writer per field, and the overwrite order must survive),
   - read a group-written field through a shift (RAW-shifted: neighbour
     sites of the intermediate would be observed mid-update),
   - have its destination already read through a shift by a member
     (WAR-shifted: earlier threads of the fused sweep would clobber
     neighbour sites the member still needs), or
   - follow a reduction payload (the splicer requires the reduction body
     to be the group's tail).
   Same-site dependences fuse: an unshifted RAW becomes a register
   substitution (f64) or an in-thread store→load (f32); an unshifted WAR
   is ordered within each thread.  Groups launch in program order on the
   in-order default stream, so cross-group hazards — including every
   cross-subset dependence — resolve through global memory exactly as
   the unfused schedule did. *)
let plan_groups (evs : pending array) =
  let n = Array.length evs in
  let groups_rev = ref [] and cur = ref [] and cur_n = ref 0 in
  let close () =
    if !cur <> [] then begin
      groups_rev := Array.of_list (List.rev !cur) :: !groups_rev;
      cur := [];
      cur_n := 0
    end
  in
  for i = 0 to n - 1 do
    let ev = evs.(i) in
    let hazard =
      !cur_n >= max_group
      || (match !cur with [] -> false | j :: _ -> not (same_run evs.(j) ev))
      || List.exists
           (fun j ->
             match evs.(j).p_dest with
             | None -> true
             | Some w ->
                 let w = w.Field.id in
                 writes ev w
                 || reads_shifted ev w
                 || (match ev.p_dest with
                    | Some d -> reads_shifted evs.(j) d.Field.id
                    | None -> false))
           !cur
    in
    if hazard then close ();
    cur := i :: !cur;
    incr cur_n
  done;
  close ();
  List.rev !groups_rev

(* Dead-store analysis over one flush: eval [i]'s stores to its
   destination T are droppable iff a later eval [j] of the same flush and
   the same (subset, geometry) run kind rewrites T and every eval in
   between (j included) either does not read T or reads it only through
   register substitution inside [i]'s own group.  The same-run
   requirement replaces the old subset-homogeneous-flush assumption: it
   is what guarantees [j] rewrites exactly the sites [i] would have
   written.  A mixed-subset intervening reader always keeps the store
   (it sits in another group, which the group test below already
   rejects).  Reduction payloads never drop: the in-kernel block
   aggregation re-reads the partial stores through global memory.

   An eval that reads its own destination through a shift (an in-place
   [p = shift p]) keeps its store: threads sweep sites in order and the
   established CPU/unfused semantics let later sites observe earlier
   in-place stores at the wrap-around, so the store is not dead even
   when every downstream reader is register-substituted. *)
let plan_drops (evs : pending array) group_of =
  let n = Array.length evs in
  let drop = Array.make n false in
  for i = 0 to n - 1 do
    match evs.(i).p_dest with
    | None -> ()
    | Some dest ->
        let dest_id = dest.Field.id in
        let f64 = evs.(i).p_shape.Shape.prec = Shape.F64 in
        let j = ref (-1) in
        let self_shift = reads_shifted evs.(i) dest_id in
        (try
           for k = i + 1 to n - 1 do
             if writes evs.(k) dest_id then begin
               j := k;
               raise Exit
             end
           done
         with Exit -> ());
        if !j >= 0 && (not self_shift) && same_run evs.(i) evs.(!j) then begin
          let ok = ref true in
          for k = i + 1 to !j do
            if Hashtbl.mem evs.(k).p_reads dest_id then
              if group_of.(k) <> group_of.(i) || not f64 then ok := false
          done;
          drop.(i) <- !ok
        end
  done;
  drop

(* Fuse and launch one group onto [stream]: every launched eval goes
   through here, an eval launched alone as a group of one.  Raises
   [Ptx.Fuse.Fusion_failure] or [Device.Out_of_device_memory] (with no
   field left pinned); {!launch_group} falls back to launching a larger
   group's members as groups of one.

   The group's key is a packed sequence, per member: its eval identity,
   the canonical indices of its destination and leaves (how many follows
   from the identity), its substitution pairs and its drop/reduction
   flags.  In memory the identity is the eval's key id; on disk it is
   the eval's structure string, length-prefixed, since ids are
   engine-local.  Either hit needs nothing else: member kernels,
   parameter slots and the splice are built only on a compile.  A group
   of one keeps the singleton kernel name [qdpjit_kernel_<n>], so a
   trace tells it from a fused group. *)
let launch_fused t ~stream (members : pending array) (dropm : bool array) =
  let k = Array.length members in
  let geom = members.(0).p_geom and subset = members.(0).p_subset in
  let nsites = Geometry.volume geom in
  let use_sitelist = not (Subset.is_all subset) in
  (* Canonical distinct-field walk: members' [dest; leaves...] in order (a
     reduction payload has no destination field), which is also the
     order their parameter plans bind them.  The index is the launch-time
     binding identity, so the fused kernel is shared by any group with the
     same structure and alias pattern.  A group binds few fields, so a
     scan of those seen so far (newest first) replaces a lookup table. *)
  let fields_rev = ref [] and nfields = ref 0 in
  let canon (f : Field.t) =
    let rec find ci = function
      | (g : Field.t) :: rest -> if g.Field.id = f.Field.id then ci else find (ci - 1) rest
      | [] ->
          let ci = !nfields in
          incr nfields;
          fields_rev := f :: !fields_rev;
          ci
    in
    find (!nfields - 1) !fields_rev
  in
  let canon_dest = Array.make k None and canon_leaves = Array.make k [] in
  Array.iteri
    (fun mi m ->
      canon_dest.(mi) <- Option.map canon m.p_dest;
      canon_leaves.(mi) <- List.map canon m.p_leaves)
    members;
  (* Same-site producer→consumer substitutions, as (canonical field,
     producer member): an unshifted f64 read of an earlier member's
     destination is served from registers.  The producers are found by
     scanning the earlier members: {!plan_groups} gives a group one writer
     per field. *)
  let subst =
    Array.mapi
      (fun mi (m : pending) ->
        let l = ref [] in
        for pj = mi - 1 downto 0 do
          match (canon_dest.(pj), members.(pj).p_dest) with
          | Some ci, Some d ->
              if
                members.(pj).p_shape.Shape.prec = Shape.F64
                &&
                match Hashtbl.find_opt m.p_reads d.Field.id with
                | Some r -> r.r_unshifted
                | None -> false
              then l := (ci, pj) :: !l
          | _ -> ()
        done;
        List.sort compare !l)
      members
  in
  let group_key ident =
    let b = t.fused_key in
    let add = Expr.add_key_int b in
    Buffer.clear b;
    Array.iteri
      (fun mi m ->
        ident b m.p_key;
        Option.iter add canon_dest.(mi);
        List.iter add canon_leaves.(mi);
        add (List.length subst.(mi));
        List.iter
          (fun (ci, pj) ->
            add ci;
            add pj)
          subst.(mi);
        add ((if dropm.(mi) then 1 else 0) + if is_red m then 2 else 0))
      members;
    Buffer.contents b
  in
  let key = group_key (fun b ek -> Expr.add_key_int b ek.id) in
  let fe =
    match Hashtbl.find_opt t.fused_kernels key with
    | Some fe -> fe
    | None ->
        let skey =
          group_key (fun b ek ->
              Expr.add_key_int b (String.length ek.skey);
              Buffer.add_string b ek.skey)
        in
        let fe =
          compile t ~kind:"fused" ~skey
            ~name:(`Serial (if k = 1 then "qdpjit_kernel" else "qdpjit_fused"))
            (fun kname ->
              let raws = Array.map (member t) members in
              let slot_tbl : (fused_binding, int) Hashtbl.t = Hashtbl.create 32 in
              let plan_rev = ref [] and nslots = ref 0 in
              let slot_of b =
                match Hashtbl.find_opt slot_tbl b with
                | Some s -> s
                | None ->
                    let s = !nslots in
                    incr nslots;
                    Hashtbl.replace slot_tbl b s;
                    plan_rev := b :: !plan_rev;
                    s
              in
              let slots =
                Array.mapi
                  (fun mi (raw : member) ->
                    let leaves = Array.of_list canon_leaves.(mi) in
                    raw.m_plan
                    |> List.map (fun p ->
                           match p with
                           | Codegen.Dest -> slot_of (FB_field (Option.get canon_dest.(mi)))
                           | Codegen.Red_partial -> slot_of FB_red_partial
                           | Codegen.Leaf_ptr li -> slot_of (FB_field leaves.(li))
                           | Codegen.Ntable (dim, dir) -> slot_of (FB_ntable (dim, dir))
                           | Codegen.Sitelist -> slot_of FB_sitelist
                           | Codegen.N_work -> slot_of FB_nwork
                           | Codegen.Block_partial -> slot_of FB_red_block
                           | Codegen.Scalar_param (slot, comp) ->
                               slot_of (FB_scalar (mi, slot, comp)))
                    |> Array.of_list)
                  raws
              in
              let sources =
                List.init k (fun mi ->
                    {
                      Ptx.Fuse.kernel = raws.(mi).m_raw;
                      slots = slots.(mi);
                      use_sitelist;
                      subst_from =
                        List.map (fun (ci, pj) -> (slot_of (FB_field ci), pj)) subst.(mi)
                        |> List.sort compare;
                      drop_stores = dropm.(mi);
                      reduction = is_red members.(mi);
                    })
              in
              let fused_raw, report = Ptx.Fuse.fuse ~kname sources in
              Hashtbl.replace t.recipes key (kname, sources);
              (fused_raw, None, report, Array.of_list (List.rev !plan_rev)))
        in
        Hashtbl.replace t.fused_kernels key fe;
        fe
  in
  let fields = Array.of_list (List.rev !fields_rev) in
  (* A field whose first group use is an all-sites write (and which its
     writer does not read) is fully overwritten in-kernel before any
     member consumes it: its host content need not travel. *)
  let for_write =
    Array.map
      (fun (f : Field.t) ->
        Subset.is_all subset
        &&
        let rec first_writer mi =
          if mi >= k then None
          else if writes members.(mi) f.Field.id then Some mi
          else first_writer (mi + 1)
        in
        match first_writer 0 with
        | None -> false
        | Some p ->
            let read_before = ref false in
            for mi = 0 to p do
              if Hashtbl.mem members.(mi).p_reads f.Field.id then read_before := true
            done;
            not !read_before)
      fields
  in
  let n_work = if use_sitelist then Subset.count geom subset else nsites in
  let scalars =
    Array.map (fun m -> Expr.params m.p_expr |> List.map snd |> Array.of_list) members
  in
  Fun.protect
    ~finally:(fun () -> Memcache.unpin_all t.cache)
    (fun () ->
      let bufs =
        Array.mapi
          (fun ci f ->
            Memcache.ensure_resident ~pin:true ~for_write:for_write.(ci) ~wait_stream:stream
              t.cache f)
          fields
      in
      let params =
        Array.map
          (function
            | FB_field ci -> Gpusim.Vm.Ptr bufs.(ci)
            | FB_ntable (dim, dir) -> Gpusim.Vm.Ptr (ntable t geom ~dim ~dir)
            | FB_sitelist -> Gpusim.Vm.Ptr (sitelist t geom subset)
            | FB_nwork -> Gpusim.Vm.Int n_work
            | FB_red_partial -> Gpusim.Vm.Ptr (scratch_buf t.red_partial)
            | FB_red_block -> Gpusim.Vm.Ptr (scratch_buf t.red_block)
            | FB_scalar (mi, slot, comp) -> Gpusim.Vm.Float scalars.(mi).(slot).(comp))
          fe.plan
      in
      tuned_launch t fe ~stream ~nthreads:n_work ~params;
      Array.iteri
        (fun mi m ->
          if not dropm.(mi) then Option.iter (Memcache.mark_device_dirty t.cache) m.p_dest)
        members);
  if k > 1 then begin
    let s = t.fusion in
    t.fusion <-
      {
        s with
        fused_groups = s.fused_groups + 1;
        launches_saved = s.launches_saved + (k - 1);
        eliminated_load_bytes =
          s.eliminated_load_bytes + (fe.report.Ptx.Fuse.subst_load_bytes * n_work);
        eliminated_store_bytes =
          s.eliminated_store_bytes + (fe.report.Ptx.Fuse.dropped_store_bytes * n_work);
      }
  end

(* One eval outside the queue, as a group of one; [sync] blocks until
   [stream] has run it. *)
let launch_one ~stream ~sync t ev =
  launch_fused t ~stream [| ev |] [| false |];
  if sync then ignore (Streams.stream_synchronize t.streams stream)

(* Launch one planned group on the default stream.  A group of two or
   more that fails to splice or to fit relaunches its members as groups
   of one; a group of one has no fallback and raises. *)
let launch_group t (evs : pending array) (drop : bool array) (g : int array) =
  let stream = Streams.default_stream t.streams in
  if Array.length g = 1 && drop.(g.(0)) then begin
    (* The whole launch is dead: a later eval of this flush rewrites the
       destination before anything reads it. *)
    let ev = evs.(g.(0)) in
    let m = member t ev in
    let n_work =
      if Subset.is_all ev.p_subset then Geometry.volume ev.p_geom
      else Subset.count ev.p_geom ev.p_subset
    in
    let s = t.fusion in
    t.fusion <-
      {
        s with
        launches_saved = s.launches_saved + 1;
        eliminated_load_bytes = s.eliminated_load_bytes + (m.m_load_bytes * n_work);
        eliminated_store_bytes = s.eliminated_store_bytes + (m.m_store_bytes * n_work);
      }
  end
  else
    let members = Array.map (fun i -> evs.(i)) g and dropm = Array.map (fun i -> drop.(i)) g in
    match launch_fused t ~stream members dropm with
    | () -> ()
    | exception (Ptx.Fuse.Fusion_failure _ | Device.Out_of_device_memory)
      when Array.length g > 1 ->
        t.fusion <- { t.fusion with fallbacks = t.fusion.fallbacks + 1 };
        Array.iter (fun i -> launch_one ~stream ~sync:false t evs.(i)) g

let flush t =
  if (not t.in_flush) && t.pending_n > 0 then begin
    (* Free the device copies of collected fields before this flush
       allocates: the device queue was drained by the last
       synchronization (if an explicit-stream launch still waits there,
       [reclaim] leaves the work for later).  Only flushes with work
       reclaim, so a counter read never frees memory. *)
    Memcache.reclaim t.cache;
    t.in_flush <- true;
    Fun.protect
      ~finally:(fun () -> t.in_flush <- false)
      (fun () ->
        let evs = Array.of_list (List.rev t.pending_rev) in
        t.pending_rev <- [];
        t.pending_n <- 0;
        let s = t.fusion in
        t.fusion <-
          { s with flushes = s.flushes + 1; deferred_evals = s.deferred_evals + Array.length evs };
        (* The enqueue-time references only needed to survive until now:
           each launch pins its own fields, and anything spilled between
           groups round-trips through its (hook-guarded) host copy. *)
        Array.iter (fun ev -> List.iter (Memcache.release t.cache) ev.p_retained) evs;
        (* The queue is no longer (subset, geometry)-homogeneous: each
           group carries its own site space, taken from its first member
           (grouping guarantees run homogeneity within a group). *)
        let groups = plan_groups evs in
        let group_of = Array.make (Array.length evs) (-1) in
        List.iteri (fun gi g -> Array.iter (fun i -> group_of.(i) <- gi) g) groups;
        let drop = plan_drops evs group_of in
        (* Group assembly (residency, pins, fused JIT) happens here;
           functional execution waits on the device's queue, and the
           closing synchronize runs the whole flushed run as one VM
           sweep.  Spills and page-outs in between drain the queue
           first, so host-visible contents are always
           as-of-program-point. *)
        List.iter (launch_group t evs drop) groups;
        ignore (Streams.stream_synchronize t.streams (Streams.default_stream t.streams)))
  end

let create ?(machine = Gpusim.Machine.k20x_ecc_off) ?(mode = Device.Functional)
    ?vm_domains ?(optimize = true) ?(fuse = true) ?(fuse_reductions = true) ?jit_cache () =
  let device = Device.create ~mode ?vm_domains machine in
  let streams = Streams.create device in
  let t =
    {
      device;
      streams;
      cache = Memcache.create streams;
      jit_cache = Jitcache.from_env ?default:jit_cache ();
      keys = Hashtbl.create 64;
      fused_kernels = Hashtbl.create 64;
      fold = None;
      members = Hashtbl.create 16;
      recipes = Hashtbl.create 16;
      fused_key = Buffer.create 64;
      ntables = Hashtbl.create 16;
      sitelists = Hashtbl.create 8;
      optimize;
      fuse;
      fuse_reductions;
      pending_rev = [];
      pending_n = 0;
      in_flush = false;
      kernels_built = 0;
      jit_seconds = 0.0;
      kernel_serial = 0;
      kernel_bytes = 0;
      kernel_bytes_f16 = 0;
      kernel_bytes_f32 = 0;
      kernel_bytes_f64 = 0;
      red_partial = ref None;
      red_block = ref None;
      fusion = no_fusion;
    }
  in
  (* Host code about to touch any cached field sees the queue's effects
     first: the flush runs before the dirty-copy page-out. *)
  Memcache.set_pre_access_hook t.cache (fun _ -> flush t);
  t

let kernels_built t =
  flush t;
  t.kernels_built

let jit_seconds t =
  flush t;
  t.jit_seconds

let kernel_bytes_moved t =
  flush t;
  t.kernel_bytes

let kernel_bytes_by_prec t =
  flush t;
  (t.kernel_bytes_f16, t.kernel_bytes_f32, t.kernel_bytes_f64)

let fusion_stats t =
  flush t;
  t.fusion

let jit_cache_stats t = Option.map Jitcache.stats t.jit_cache

(* Rewind the planner counters without touching the kernel caches:
   benchmarks call this between warm-up and measurement so per-solve
   deltas are exact instead of accumulating across the warm-up pass.  Lifetime
   counters ([kernels_built], [jit_seconds], [kernel_bytes_moved]) keep
   counting — callers difference those explicitly. *)
let reset_stats t =
  flush t;
  t.fusion <- no_fusion

let synchronize t =
  flush t;
  Streams.synchronize t.streams

(* Park one eval on the deferred queue.  A subset or geometry change is
   no longer a flush point — the planner groups the queue into
   (subset, geometry) runs at flush time, which is what lets interleaved
   even/odd evals fuse within their own runs. *)
let enqueue t (ev : pending) =
  (* As at a flush: free collected fields' copies before this eval's
     operands allocate. *)
  Memcache.reclaim t.cache;
  let retained = ref [] in
  match
    (* Residency at enqueue time snapshots the host content the eval
       must see and installs the access hooks that make any later
       host touch a flush point. *)
    List.iter
      (fun (f : Field.t) ->
        ignore (Memcache.ensure_resident t.cache f);
        Memcache.retain t.cache f;
        retained := f :: !retained)
      ev.p_leaves;
    Option.iter
      (fun (d : Field.t) ->
        let for_write = Subset.is_all ev.p_subset && not (Hashtbl.mem ev.p_reads d.Field.id) in
        ignore (Memcache.ensure_resident ~for_write t.cache d);
        Memcache.retain t.cache d;
        retained := d :: !retained)
      ev.p_dest
  with
  | () ->
      t.pending_rev <- { ev with p_retained = !retained } :: t.pending_rev;
      t.pending_n <- t.pending_n + 1;
      if t.pending_n >= max_pending then flush t
  | exception Device.Out_of_device_memory ->
      (* Not even enough memory to park the operands: drain the
         queue (freeing its references) and run this eval alone. *)
      List.iter (Memcache.release t.cache) !retained;
      flush t;
      launch_one ~stream:(Streams.default_stream t.streams) ~sync:true t ev

let eval ?(subset = Subset.All) ?stream t dest expr =
  Qdp.Eval_cpu.check_dest dest expr;
  let ev =
    pending t ~subset ~geom:dest.Field.geom ~dest_shape:dest.Field.shape (Some dest) expr
  in
  match stream with
  | Some s ->
      (* Explicit-stream evals bypass the queue but must not overtake it. *)
      flush t;
      launch_one ~stream:s ~sync:false t ev
  | None when t.fuse -> enqueue t ev
  | None -> launch_one ~stream:(Streams.default_stream t.streams) ~sync:true t ev

(* ------------------------------------------------------------------ *)
(* Reductions                                                          *)

(* Hand-assembled radix-8 fold kernel over every plane of a reduction
   at once.  Thread [idx] of [n_total] = planes * n_out folds group [i]
   of plane [p], (p, i) = (idx / n_out, idx mod n_out):
     out[idx] = ((x0+x1)+(x2+x3)) + ((x4+x5)+(x6+x7)),
     xj = in[p*stride + 8i + j] if 8i+j < n_in, else +0.0
   — per plane the same balanced tree (and the same padding) the
   reduction-mode payload kernels apply in their in-kernel block
   aggregation, so the final value is independent of how many fold passes
   run.  The output is compact (plane p's n_out values start at word
   p*n_out), so the next pass reads it with stride n_out; one compiled
   kernel serves every pass of every reduction. *)
let fold_kname = "qdpjit_reduce8_f64"

let build_reduce_kernel kname =
  let e = Emitter.create ~kname in
  let p_src = Emitter.add_param e U64 "src" in
  let p_dst = Emitter.add_param e U64 "dst" in
  let p_stride = Emitter.add_param e S32 "src_stride" in
  let p_nin = Emitter.add_param e S32 "n_in" in
  let p_nout = Emitter.add_param e S32 "n_out" in
  let p_ntotal = Emitter.add_param e S32 "n_total" in
  let src = Emitter.fresh e U64 and dst = Emitter.fresh e U64 in
  let stride = Emitter.fresh e S32 and nin = Emitter.fresh e S32 in
  let nout = Emitter.fresh e S32 and ntotal = Emitter.fresh e S32 in
  Emitter.emit e (Ld_param { dst = src; param_index = p_src });
  Emitter.emit e (Ld_param { dst; param_index = p_dst });
  Emitter.emit e (Ld_param { dst = stride; param_index = p_stride });
  Emitter.emit e (Ld_param { dst = nin; param_index = p_nin });
  Emitter.emit e (Ld_param { dst = nout; param_index = p_nout });
  Emitter.emit e (Ld_param { dst = ntotal; param_index = p_ntotal });
  let tid = Emitter.fresh e S32 and ntid = Emitter.fresh e S32 and ctaid = Emitter.fresh e S32 in
  Emitter.emit e (Mov_sreg { dst = tid; src = Tid_x });
  Emitter.emit e (Mov_sreg { dst = ntid; src = Ntid_x });
  Emitter.emit e (Mov_sreg { dst = ctaid; src = Ctaid_x });
  let idx = Emitter.fresh e S32 in
  Emitter.emit e (Fma { dtype = S32; dst = idx; a = Reg ctaid; b = Reg ntid; c = Reg tid });
  let guard = Emitter.fresh e Pred in
  Emitter.emit e (Setp { cmp = Ge; dtype = S32; dst = guard; a = Reg idx; b = Reg ntotal });
  Emitter.emit e (Bra { label = "EXIT"; pred = Some guard });
  (* plane = idx / n_out; i = idx - plane*n_out; j = 8*i *)
  let plane = Emitter.fresh e S32 in
  Emitter.emit e (Div { dtype = S32; dst = plane; a = Reg idx; b = Reg nout });
  let pbase = Emitter.fresh e S32 in
  Emitter.emit e (Mul { dtype = S32; dst = pbase; a = Reg plane; b = Reg nout });
  let i = Emitter.fresh e S32 in
  Emitter.emit e (Sub { dtype = S32; dst = i; a = Reg idx; b = Reg pbase });
  let j = Emitter.fresh e S32 in
  Emitter.emit e (Mul { dtype = S32; dst = j; a = Reg i; b = Imm_int 8 });
  (* base address = src + (plane*stride + j)*8; element l at offset l*8 *)
  let w = Emitter.fresh e S32 in
  Emitter.emit e (Fma { dtype = S32; dst = w; a = Reg plane; b = Reg stride; c = Reg j });
  let woff = Emitter.fresh e S32 in
  Emitter.emit e (Mul { dtype = S32; dst = woff; a = Reg w; b = Imm_int 8 });
  let woff64 = Emitter.fresh e S64 in
  Emitter.emit e (Cvt { dst = woff64; src = woff });
  let woffu = Emitter.fresh e U64 in
  Emitter.emit e (Cvt { dst = woffu; src = woff64 });
  let a_addr = Emitter.fresh e U64 in
  Emitter.emit e (Add { dtype = U64; dst = a_addr; a = Reg src; b = Reg woffu });
  let xs =
    Array.init 8 (fun l ->
        let x = Emitter.fresh e F64 in
        if l = 0 then
          (* 8*i < n_in holds for every guarded thread. *)
          Emitter.emit e (Ld_global { dtype = F64; dst = x; addr = a_addr; offset = 0 })
        else begin
          (* x = (8*i+l < n_in) ? in[...+l] : 0 *)
          Emitter.emit e (Mov { dst = x; src = Imm_float 0.0 });
          let jl = Emitter.fresh e S32 in
          Emitter.emit e (Add { dtype = S32; dst = jl; a = Reg j; b = Imm_int l });
          let skip = Emitter.fresh e Pred in
          Emitter.emit e (Setp { cmp = Ge; dtype = S32; dst = skip; a = Reg jl; b = Reg nin });
          let lbl = Printf.sprintf "SKIP%d" l in
          Emitter.emit e (Bra { label = lbl; pred = Some skip });
          Emitter.emit e (Ld_global { dtype = F64; dst = x; addr = a_addr; offset = 8 * l });
          Emitter.emit e (Label lbl)
        end;
        x)
  in
  let add a b =
    let d = Emitter.fresh e F64 in
    Emitter.emit e (Add { dtype = F64; dst = d; a = Reg a; b = Reg b });
    d
  in
  let s01 = add xs.(0) xs.(1)
  and s23 = add xs.(2) xs.(3)
  and s45 = add xs.(4) xs.(5)
  and s67 = add xs.(6) xs.(7) in
  let sum = add (add s01 s23) (add s45 s67) in
  (* dst + idx*8 *)
  let doff = Emitter.fresh e S32 in
  Emitter.emit e (Mul { dtype = S32; dst = doff; a = Reg idx; b = Imm_int 8 });
  let doff64 = Emitter.fresh e S64 in
  Emitter.emit e (Cvt { dst = doff64; src = doff });
  let doffu = Emitter.fresh e U64 in
  Emitter.emit e (Cvt { dst = doffu; src = doff64 });
  let d_addr = Emitter.fresh e U64 in
  Emitter.emit e (Add { dtype = U64; dst = d_addr; a = Reg dst; b = Reg doffu });
  Emitter.emit e (St_global { dtype = F64; addr = d_addr; offset = 0; src = Reg sum });
  Emitter.emit e (Label "EXIT");
  Emitter.emit e Ret;
  (Emitter.finish e, e)

(* The hand-built kernel takes the same road as generated ones,
   including the emitter's SSA provenance: the padded accumulators are
   deliberately multi-defined (zero, then a conditional load), which
   provenance reports so CSE leaves them alone.  Its disk key is renamed
   whenever its parameters change, so a stale entry misses instead of
   binding the wrong ones. *)
let fold_entry t =
  match t.fold with
  | Some e -> e
  | None ->
      let e =
        compile t ~kind:"reduce" ~skey:"reduce8_planes_f64" ~name:(`Fixed fold_kname)
          (fun kname ->
            let raw, emitter = build_reduce_kernel kname in
            (raw, Some (Emitter.provenance emitter), no_report, [||]))
      in
      t.fold <- Some e;
      e

(* Each text is re-derived from its recipe, the way {!compile} made it,
   and must decode to the program that was launched. *)
let kernel_texts t =
  flush t;
  let checked (e : entry) text =
    if compare (Jit.compile text).Jit.program e.compiled.Jit.program <> 0 then
      failwith
        ("Engine.kernel_texts: the re-derived text of "
        ^ Gpusim.Vm.kname e.compiled.Jit.program
        ^ " decodes to another program");
    text
  in
  let folds =
    match t.fold with
    | None -> []
    | Some e ->
        let raw, emitter = build_reduce_kernel fold_kname in
        [ checked e (ptx_text t ~provenance:(Emitter.provenance emitter) raw) ]
  in
  Hashtbl.fold
    (fun key e acc ->
      match Hashtbl.find_opt t.recipes key with
      | None -> acc
      | Some (kname, sources) -> checked e (ptx_text t (fst (Ptx.Fuse.fuse ~kname sources))) :: acc)
    t.fused_kernels folds

(* The host is about to read [bytes] of reduction results: one blocking
   D2H copy on the default stream. *)
let sync_readback t ~bytes =
  let s0 = Streams.default_stream t.streams in
  ignore (Streams.memcpy_d2h ~name:"reduce readback" t.streams s0 ~bytes);
  ignore (Streams.stream_synchronize t.streams s0)

(* Evaluate [expr] (any shape, promoted to f64) and sum each component
   over the subset.  Returns the canonical component array, like
   {!Qdp.Eval_cpu.sum_components}.

   The payload kernel runs in reduction mode: it writes compact
   work-item-indexed partial planes into the engine's partial scratch
   {e and} aggregates each group of 8 partials into the block scratch in
   the same launch, so the fold chain starts at ceil(n/8) values per
   plane.  No field is created, so nothing is made resident, dirtied or
   paged out.  With [fuse_reductions] the payload is enqueued like any
   eval and the planner splices it into the trailing fused group — an
   axpy+norm2 step becomes one launch; otherwise it launches standalone,
   as a group of one.

   Each fold pass is one launch over every plane, and the device chain
   stops as soon as each plane has m <= 8 values left.  One D2H copy
   reads every plane back and the host finishes: m = 1 is the sum
   already (one more +0.0-padded fold would turn a -0.0 sum into +0.0);
   otherwise {!Qdp.Eval_cpu.tree_sum} applies the last radix-8 level.
   The partials are dead once the payload has run, so the partial and
   block scratch double as the chain's ping/pong buffers.  Every
   configuration runs the identical tree, so fused, standalone, unfused
   and CPU reductions agree bit for bit. *)
let sum_components ?(subset = Subset.All) t expr =
  let shape = { (Expr.shape expr) with Shape.prec = Shape.F64 } in
  let geom =
    match Expr.leaves expr with
    | f :: _ -> f.Field.geom
    | [] -> invalid_arg "Engine.sum_components: expression has no fields"
  in
  let nsites = Geometry.volume geom in
  let n_work = if Subset.is_all subset then nsites else Subset.count geom subset in
  let dof = Shape.dof shape in
  if n_work = 0 then Array.make dof 0.0
  else begin
    let bstride = (nsites + 7) / 8 in
    let partial = grow_scratch t t.red_partial ~words:(dof * nsites) in
    let block = grow_scratch t t.red_block ~words:(dof * bstride) in
    let stream = Streams.default_stream t.streams in
    let ev = pending t ~subset ~geom ~dest_shape:shape None expr in
    if t.fuse && t.fuse_reductions then enqueue t ev
    else begin
      (* Reduction fusion off: drain the queue first so the payload
         always launches standalone (same kernel, separate launch). *)
      flush t;
      launch_one ~stream ~sync:false t ev
    end;
    (* The folds are a flush point: the payload (and everything queued
       before it) must land before they read the block scratch. *)
    flush t;
    let rec fold ~src ~stride ~m ~dst ~other =
      if m <= 8 then (src, stride, m)
      else begin
        let n_out = (m + 7) / 8 in
        let nthreads = dof * n_out in
        let params =
          Gpusim.Vm.[| Ptr src; Ptr dst; Int stride; Int m; Int n_out; Int nthreads |]
        in
        tuned_launch t (fold_entry t) ~stream ~nthreads ~params;
        fold ~src:dst ~stride:n_out ~m:n_out ~dst:other ~other:dst
      end
    in
    let buf, stride, m =
      fold ~src:block ~stride:bstride ~m:((n_work + 7) / 8) ~dst:partial ~other:block
    in
    sync_readback t ~bytes:(8 * dof * m);
    let sums =
      match buf.Buffer_.data with
      | Buffer_.F64 _ when t.device.Device.mode = Device.Model_only ->
          (* No kernel ran and the scratch has no storage. *)
          Array.make dof 0.0
      | Buffer_.F64 a ->
          Array.init dof (fun p ->
              let x j = a.{(p * stride) + j} in
              if m = 1 then x 0 else Qdp.Eval_cpu.tree_sum (Array.init m x))
      | _ -> assert false
    in
    let ic = Shape.color_extent shape.Shape.color in
    Array.init dof (fun lin ->
        let s, c, r = Layout.Index.component_of_linear shape lin in
        sums.((((r * ic) + c) * Shape.spin_extent shape.Shape.spin) + s))
  end

let norm2 ?(subset = Subset.All) t expr = (sum_components ~subset t (Expr.norm2_local expr)).(0)

let inner ?(subset = Subset.All) t a b =
  let s = sum_components ~subset t (Expr.inner_local a b) in
  (s.(0), s.(1))

let sum_real ?(subset = Subset.All) t expr =
  let shape = Expr.shape expr in
  if Shape.dof shape <> 1 then invalid_arg "Engine.sum_real: expression is not a real scalar";
  (sum_components ~subset t expr).(0)
