(** Automated GPU memory management (Sec. IV).

    Before a kernel launch the JIT layer walks the expression AST, extracts
    the referenced fields and calls {!ensure_resident} for each: data is
    uploaded (with the AoS→SoA layout change of Sec. III-B) if absent or
    stale.  Fields are paged out to host memory either when host code
    touches them (hooks installed on the field) or when an allocation
    cannot be serviced — then the least-recently-used unretained entry is
    spilled, "least recently" meaning the timestamp of the last reference
    from a compute kernel.

    The paper's cache frees a field's device copy in the field's C++
    destructor.  OCaml has none, so entries hold their field weakly and a
    finaliser, registered when the field first becomes resident here,
    queues the field's id once the field is unreachable; {!reclaim}
    frees the queued entries' buffers (no page-out: nobody can read the
    host copy any more). *)

module Shape = Layout.Shape
module Index = Layout.Index
module Field = Qdp.Field
module Device = Gpusim.Device
module Buffer_ = Gpusim.Buffer

type entry = {
  id : int;  (** [Field.id] of the cached field *)
  name : string;  (** [Field.name], for transfer spans *)
  field : Field.t Weak.t;
      (** the field, held weakly (one slot): empty once it was collected *)
  buf : Buffer_.t;
  mutable last_use : int;
  mutable device_dirty : bool;  (** device copy newer than host *)
  mutable host_version : int;  (** [Field.version] captured at upload *)
  mutable retained : int;
      (** reference count held by deferred evals and by the launch being
          assembled; a retained entry is never spilled *)
  mutable inflight : Streams.Event.t option;
      (** completion event of an asynchronous transfer still using the
          buffer — the entry must not spill until it fires *)
}

type stats = {
  mutable hits : int;
  mutable uploads : int;
  mutable pageouts : int;
  mutable spills : int;  (** evictions forced by allocation pressure *)
  mutable inflight_skips : int;
      (** spill candidates passed over because a transfer was in flight *)
}

type arena = {
  mutable arena_rev : Field.t list;  (** registered fields, newest first *)
  arena_ids : (int, unit) Hashtbl.t;
}

type t = {
  device : Device.t;
  ctx : Streams.t;
  xfer : Streams.stream;  (** dedicated stream for the asynchronous copies *)
  entries : (int, entry) Hashtbl.t;
  watched : (int, unit) Hashtbl.t;
      (** ids of the live fields this cache has hooked and registered a
          finaliser on (once per field, at its first residency) *)
  dead : int list Atomic.t;
      (** ids of watched fields found unreachable, pushed by their
          finalisers; drained by {!reclaim} *)
  mutable tick : int;
  mutable pre_access : (Field.t -> unit) option;
      (** called before any host access to a cached field, ahead of the
          dirty-copy page-out — the engine flushes its deferred launch
          queue here so the device copy is current first *)
  stats : stats;
}

let create ctx =
  {
    device = Streams.device ctx;
    ctx;
    xfer = Streams.create_stream ~name:"memcache xfer" ctx;
    entries = Hashtbl.create 64;
    watched = Hashtbl.create 64;
    dead = Atomic.make [];
    tick = 0;
    pre_access = None;
    stats = { hits = 0; uploads = 0; pageouts = 0; spills = 0; inflight_skips = 0 };
  }

let set_pre_access_hook t f = t.pre_access <- Some f

let stats t = t.stats
let resident_count t = Hashtbl.length t.entries

let touch t entry =
  t.tick <- t.tick + 1;
  entry.last_use <- t.tick

(* Has the entry's last asynchronous transfer completed (or was there
   none)?  Clears the marker once the completion event has fired. *)
let inflight_done t entry =
  match entry.inflight with
  | None -> true
  | Some ev ->
      if Streams.event_query t.ctx ev then begin
        entry.inflight <- None;
        true
      end
      else false

(* A timeline reset (Streams.reset, after benchmark warm-up) implies
   every outstanding transfer drained; the entries' completion events now
   hold stale pre-reset timestamps, so clear the markers rather than let
   post-reset work chain-wait on times from the discarded timeline. *)
let settle t = Hashtbl.iter (fun _ e -> e.inflight <- None) t.entries

(* Issue the model side of a transfer asynchronously on the dedicated
   stream, recording a completion event on the entry. *)
let issue_transfer t entry ~to_device ~sync =
  let bytes = entry.buf.Buffer_.bytes in
  let what = if to_device then "upload" else "pageout" in
  let name = Printf.sprintf "%s %s" what entry.name in
  (if to_device then ignore (Streams.memcpy_h2d ~name t.ctx t.xfer ~bytes)
   else ignore (Streams.memcpy_d2h ~name t.ctx t.xfer ~bytes));
  let ev = Streams.Event.create ~name:(name ^ " done") () in
  Streams.record_event t.ctx t.xfer ev;
  entry.inflight <- Some ev;
  (* A synchronous caller (host-access hook, flush) blocks until the
     copy lands. *)
  if sync then begin
    ignore (Streams.stream_synchronize t.ctx t.xfer);
    entry.inflight <- None
  end

(* Copy host AoS -> device SoA.  Host and device storage have the same
   element kind, so the layout converter works directly on both arrays. *)
let upload t entry (f : Field.t) =
  let nsites = Field.volume f in
  (* A queued launch may still read this entry's current device
     contents; drain the queue before the blit overwrites them. *)
  Device.flush_batch t.device;
  (* Model-only devices account the transfer but skip the data movement:
     the paper-scale sweeps only need the clock. *)
  (match t.device.Device.mode with
  | Device.Model_only -> ()
  | Device.Functional | Device.Reference -> (
      match (Field.unsafe_storage f, entry.buf.Buffer_.data) with
      | Field.S16 host, Buffer_.F16 dev ->
          (* binary16 payloads travel as-is: both sides hold the same 16-bit
             encodings, only the site ordering changes. *)
          Index.convert ~src:host ~dst:dev ~from_scheme:Index.Aos ~to_scheme:Index.Soa
            f.Field.shape ~nsites
      | Field.S32 host, Buffer_.F32 dev ->
          Index.convert ~src:host ~dst:dev ~from_scheme:Index.Aos ~to_scheme:Index.Soa
            f.Field.shape ~nsites
      | Field.S64 host, Buffer_.F64 dev ->
          Index.convert ~src:host ~dst:dev ~from_scheme:Index.Aos ~to_scheme:Index.Soa
            f.Field.shape ~nsites
      | _ -> assert false));
  issue_transfer t entry ~to_device:true ~sync:false;
  entry.host_version <- f.Field.version;
  entry.device_dirty <- false;
  t.stats.uploads <- t.stats.uploads + 1

(* Copy device SoA -> host AoS, *without* tripping the host-access hooks.
   [sync] (the default) models a blocking copy — host code is about to
   read the data; spills pass [sync:false] and let the copy drain on the
   transfer stream. *)
let page_out ?(sync = true) t entry (f : Field.t) =
  let nsites = Field.volume f in
  (* The device copy being read back may be the output of launches still
     queued on the device; run them first. *)
  Device.flush_batch t.device;
  (match t.device.Device.mode with
  | Device.Model_only -> ()
  | Device.Functional | Device.Reference -> (
      match (Field.unsafe_storage f, entry.buf.Buffer_.data) with
      | Field.S16 host, Buffer_.F16 dev ->
          Index.convert ~src:dev ~dst:host ~from_scheme:Index.Soa ~to_scheme:Index.Aos
            f.Field.shape ~nsites
      | Field.S32 host, Buffer_.F32 dev ->
          Index.convert ~src:dev ~dst:host ~from_scheme:Index.Soa ~to_scheme:Index.Aos
            f.Field.shape ~nsites
      | Field.S64 host, Buffer_.F64 dev ->
          Index.convert ~src:dev ~dst:host ~from_scheme:Index.Soa ~to_scheme:Index.Aos
            f.Field.shape ~nsites
      | _ -> assert false));
  issue_transfer t entry ~to_device:false ~sync;
  entry.device_dirty <- false;
  (* The page-out changed the host content: bump the version so that any
     *other* cache holding this field re-uploads instead of trusting its
     zero-content shortcut or a stale copy. *)
  f.Field.version <- f.Field.version + 1;
  entry.host_version <- f.Field.version;
  t.stats.pageouts <- t.stats.pageouts + 1

(* Free the entry's buffer, paging a dirty copy out first — unless the
   field is gone, when nobody can read the host copy any more. *)
let evict ?(sync = true) t entry =
  (match Weak.get entry.field 0 with
  | Some f when entry.device_dirty -> page_out ~sync t entry f
  | Some _ | None -> ());
  Device.free t.device entry.buf;
  Hashtbl.remove t.entries entry.id

(* Free the entries of fields whose finalisers have run.  Only while the
   device has no queued launch: one could still name a dead field's
   buffer, and [Device.free] would drain the queue early, splitting the
   VM batch.  A dead field has no pending eval (queued evals hold their
   fields) and no arena (arenas hold theirs), so nothing protects its
   entry; an in-flight transfer only concerns a buffer nobody will
   read again. *)
let reclaim t =
  if Device.idle t.device then
    match Atomic.exchange t.dead [] with
    | [] -> ()
    | ids ->
        List.iter
          (fun id ->
            Hashtbl.remove t.watched id;
            match Hashtbl.find_opt t.entries id with Some e -> evict t e | None -> ())
          ids

(* Spill the least-recently-used unretained entry whose transfers have
   all completed; false if none exists.  An entry whose asynchronous
   upload or pageout is still in flight is pinned by its completion
   event: freeing the buffer under an active copy engine would corrupt
   the transfer. *)
let spill_one t =
  let victim = ref None in
  Hashtbl.iter
    (fun _ e ->
      if e.retained = 0 then begin
        if inflight_done t e then
          match !victim with
          | Some v when v.last_use <= e.last_use -> ()
          | _ -> victim := Some e
        else t.stats.inflight_skips <- t.stats.inflight_skips + 1
      end)
    t.entries;
  match !victim with
  | Some e ->
      t.stats.spills <- t.stats.spills + 1;
      evict ~sync:false t e;
      true
  | None -> false

(* Retry the allocation after spilling LRU entries until it fits or
   nothing is left to spill. *)
let rec alloc_spilling t alloc n =
  match alloc t.device n with
  | buf -> buf
  | exception Device.Out_of_device_memory ->
      if spill_one t then alloc_spilling t alloc n else raise Device.Out_of_device_memory

let alloc_field t f =
  let alloc =
    match f.Field.shape.Shape.prec with
    | Shape.F16 -> Device.alloc_f16
    | Shape.F32 -> Device.alloc_f32
    | Shape.F64 -> Device.alloc_f64
  in
  alloc_spilling t alloc (Field.volume f * Shape.dof f.Field.shape)

(* First residency of [f] in this cache: install the access hooks and
   the finaliser, once for the field's lifetime (an entry evicted and
   made resident again finds both still in place). *)
let watch t (f : Field.t) =
  if not (Hashtbl.mem t.watched f.Field.id) then begin
    Hashtbl.replace t.watched f.Field.id ();
    (* Chain below any hook another cache installed: a field can migrate
       between engines (each pages out its own dirty copy; divergent
       writes on two devices are the caller's error and ensure_resident
       faults). *)
    let prev_read = f.Field.before_host_read in
    let prev_write = f.Field.before_host_write in
    let on_access prev field =
      (match t.pre_access with Some hook -> hook field | None -> ());
      (match Hashtbl.find_opt t.entries field.Field.id with
      | Some e when e.device_dirty -> page_out t e field
      | Some _ | None -> ());
      prev field
    in
    f.Field.before_host_read <- on_access prev_read;
    (* A host write also needs the page-out first (partial writes must
       land on current data); the version bump of the write then marks
       the device copy stale for the next launch. *)
    f.Field.before_host_write <- on_access prev_write;
    (* The finaliser may run at any allocation point, in the middle of
       any cache operation, so it only queues the id; {!reclaim} frees
       the entry at a point where that is safe.  It captures the queue,
       not the field or the cache. *)
    let dead = t.dead and id = f.Field.id in
    let rec push () =
      let cur = Atomic.get dead in
      if not (Atomic.compare_and_set dead cur (id :: cur)) then push ()
    in
    Gc.finalise_last push f
  end

(* Make the consuming stream wait for the entry's in-flight transfer (the
   kernel must not read the buffer before the copy engine delivers it). *)
let chain_wait t entry ~wait_stream =
  match (entry.inflight, wait_stream) with
  | Some ev, Some s -> Streams.wait_event t.ctx s ev
  | _ -> ()

let ensure_resident ?(for_write = false) ?wait_stream t (f : Field.t) =
  match Hashtbl.find_opt t.entries f.Field.id with
  | Some e ->
      if (not for_write) && (not e.device_dirty) && e.host_version <> f.Field.version then
        upload t e f
      else if (not for_write) && e.host_version <> f.Field.version && e.device_dirty then
        (* Host and device both advanced: the hooks prevent this for fields
           created through the public API; fail loudly otherwise. *)
        invalid_arg "Memcache: divergent host and device copies"
      else if e.host_version <> f.Field.version && for_write then
        (* Destination only: stale content is irrelevant, it is overwritten. *)
        e.host_version <- f.Field.version;
      t.stats.hits <- t.stats.hits + 1;
      touch t e;
      chain_wait t e ~wait_stream;
      e.buf
  | None ->
      let buf = alloc_field t f in
      let field = Weak.create 1 in
      Weak.set field 0 (Some f);
      let entry =
        {
          id = f.Field.id;
          name = f.Field.name;
          field;
          buf;
          last_use = 0;
          device_dirty = false;
          host_version = -1;
          retained = 0;
          inflight = None;
        }
      in
      Hashtbl.replace t.entries f.Field.id entry;
      watch t f;
      touch t entry;
      (* A whole-subset destination is fully overwritten by the kernel, and a
         never-written field (version 0) matches the zero-filled allocation;
         neither needs its host content to travel. *)
      if for_write || f.Field.version = 0 then entry.host_version <- f.Field.version
      else upload t entry f;
      chain_wait t entry ~wait_stream;
      entry.buf

let mark_device_dirty t (f : Field.t) =
  match Hashtbl.find_opt t.entries f.Field.id with
  | Some e ->
      e.device_dirty <- true;
      touch t e
  | None -> invalid_arg "Memcache.mark_device_dirty: field not resident"

let retain t (f : Field.t) =
  match Hashtbl.find_opt t.entries f.Field.id with
  | Some e -> e.retained <- e.retained + 1
  | None -> invalid_arg "Memcache.retain: field not resident"

let release t (f : Field.t) =
  match Hashtbl.find_opt t.entries f.Field.id with
  | Some e -> if e.retained > 0 then e.retained <- e.retained - 1
  | None -> ()

let drop t (f : Field.t) =
  match Hashtbl.find_opt t.entries f.Field.id with
  | Some e -> evict t e
  | None -> ()

let is_resident t (f : Field.t) = Hashtbl.mem t.entries f.Field.id

let is_inflight t (f : Field.t) =
  match Hashtbl.find_opt t.entries f.Field.id with
  | Some e -> not (inflight_done t e)
  | None -> false

let is_device_dirty t (f : Field.t) =
  match Hashtbl.find_opt t.entries f.Field.id with Some e -> e.device_dirty | None -> false

(* ------------------------------------------------------------------ *)
(* Arenas: per-session field groups for the serving layer.  An arena is
   only bookkeeping — registration does not touch residency — but it
   remembers every field a session ever owned, so teardown can drop the
   session's retain counts and device allocations in one sweep
   without the session having to track its temporaries. *)

let create_arena _t = { arena_rev = []; arena_ids = Hashtbl.create 16 }

let arena_register a (f : Field.t) =
  if not (Hashtbl.mem a.arena_ids f.Field.id) then begin
    Hashtbl.replace a.arena_ids f.Field.id ();
    a.arena_rev <- f :: a.arena_rev
  end

(* Graceful teardown: clear the retain counts of the session's entries
   and evict them — a dirty entry pages out first, so the host copy is
   current when the session's owner reads results after close.  The
   arena is empty afterwards and may be reused. *)
let release_arena t a =
  List.iter
    (fun (f : Field.t) ->
      match Hashtbl.find_opt t.entries f.Field.id with
      | Some e ->
          e.retained <- 0;
          evict t e
      | None -> ())
    (List.rev a.arena_rev);
  a.arena_rev <- [];
  Hashtbl.reset a.arena_ids
