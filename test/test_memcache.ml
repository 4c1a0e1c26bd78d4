module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Device = Gpusim.Device

let geom = Geometry.create [| 4; 4; 4; 4 |]

let small_device () =
  (* Room for only ~3 fermion fields: forces spilling. *)
  let machine = { Gpusim.Machine.k20x_ecc_off with Gpusim.Machine.memory_bytes = 160_000 } in
  Device.create machine

let fresh_ctx_cache ?(small = false) () =
  let dev = if small then small_device () else Device.create Gpusim.Machine.k20x_ecc_off in
  let ctx = Streams.create dev in
  (ctx, Memcache.create ctx)

let fresh_cache ?small () = snd (fresh_ctx_cache ?small ())

(* Residency followed by a host synchronize, as the engine does at every
   flush: the upload's completion event has fired, so the entry is an
   ordinary spill candidate again. *)
let resident_synced ctx cache f =
  let buf = Memcache.ensure_resident cache f in
  ignore (Streams.synchronize ctx);
  buf

let test_upload_and_hit () =
  let cache = fresh_cache () in
  let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Field.fill_gaussian f (Prng.create ~seed:1L);
  let _ = Memcache.ensure_resident cache f in
  Alcotest.(check int) "one upload" 1 (Memcache.stats cache).Memcache.uploads;
  let _ = Memcache.ensure_resident cache f in
  Alcotest.(check int) "no second upload" 1 (Memcache.stats cache).Memcache.uploads;
  Alcotest.(check bool) "hit counted" true ((Memcache.stats cache).Memcache.hits >= 1)

let test_layout_change_on_upload () =
  let cache = fresh_cache () in
  let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Field.fill_gaussian f (Prng.create ~seed:2L);
  let buf = Memcache.ensure_resident cache f in
  (* Device holds SoA: component (0,0,0) of site s is at word s. *)
  match buf.Gpusim.Buffer.data with
  | Gpusim.Buffer.F64 dev ->
      for site = 0 to 7 do
        Alcotest.(check (float 0.0)) "soa word"
          (Field.get f ~site ~spin:0 ~color:0 ~reality:0)
          dev.{site}
      done
  | _ -> Alcotest.fail "expected f64 buffer"

let test_host_write_invalidates () =
  let cache = fresh_cache () in
  let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Field.fill_constant f 1.0;
  let _ = Memcache.ensure_resident cache f in
  Field.set f ~site:0 ~spin:0 ~color:0 ~reality:0 42.0;
  let buf = Memcache.ensure_resident cache f in
  Alcotest.(check int) "re-uploaded" 2 (Memcache.stats cache).Memcache.uploads;
  match buf.Gpusim.Buffer.data with
  | Gpusim.Buffer.F64 dev -> Alcotest.(check (float 0.0)) "new value on device" 42.0 dev.{0}
  | _ -> Alcotest.fail "expected f64 buffer"

let test_device_dirty_pages_out_on_read () =
  let cache = fresh_cache () in
  let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
  let buf = Memcache.ensure_resident cache f in
  Memcache.mark_device_dirty cache f;
  (* Scribble on the device copy, then read through the host API: the hook
     must page the device data back first. *)
  (match buf.Gpusim.Buffer.data with
  | Gpusim.Buffer.F64 dev -> dev.{0} <- 7.5 (* SoA word 0 = site 0, comp (0,0,0) *)
  | _ -> Alcotest.fail "expected f64");
  let v = Field.get f ~site:0 ~spin:0 ~color:0 ~reality:0 in
  Alcotest.(check (float 0.0)) "device value visible on host" 7.5 v;
  Alcotest.(check int) "pageout counted" 1 (Memcache.stats cache).Memcache.pageouts;
  Alcotest.(check bool) "no longer dirty" false (Memcache.is_device_dirty cache f)

let test_lru_spill () =
  let ctx, cache = fresh_ctx_cache ~small:true () in
  let make i =
    let f = Field.create ~name:(Printf.sprintf "f%d" i) (Shape.lattice_fermion Shape.F64) geom in
    Field.fill_constant f (float_of_int i);
    f
  in
  (* Each fermion field: 256 sites * 192 B = 49 KB; device capacity 160 KB. *)
  let fields = Array.init 5 make in
  Array.iter (fun f -> ignore (resident_synced ctx cache f)) fields;
  Alcotest.(check bool) "spills happened" true ((Memcache.stats cache).Memcache.spills > 0);
  Alcotest.(check bool) "early field evicted" false (Memcache.is_resident cache fields.(0));
  Alcotest.(check bool) "recent field resident" true (Memcache.is_resident cache fields.(4));
  (* Spilled dirty data must round-trip intact. *)
  let f0 = fields.(0) in
  Alcotest.(check (float 0.0)) "content intact" 0.0 (Field.get f0 ~site:3 ~spin:1 ~color:2 ~reality:1)

let test_spill_preserves_dirty_data () =
  let ctx, cache = fresh_ctx_cache ~small:true () in
  let a = Field.create (Shape.lattice_fermion Shape.F64) geom in
  let buf = resident_synced ctx cache a in
  (* Write device-side, mark dirty, then force its eviction. *)
  (match buf.Gpusim.Buffer.data with
  | Gpusim.Buffer.F64 dev -> dev.{5} <- 123.0
  | _ -> assert false);
  Memcache.mark_device_dirty cache a;
  for i = 0 to 4 do
    let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
    Field.fill_constant f (float_of_int i);
    ignore (resident_synced ctx cache f)
  done;
  Alcotest.(check bool) "a evicted" false (Memcache.is_resident cache a);
  (* SoA word 5 = site 5, component (0,0,0). *)
  Alcotest.(check (float 0.0)) "dirty data survived eviction" 123.0
    (Field.get a ~site:5 ~spin:0 ~color:0 ~reality:0)

let test_pinned_not_spilled () =
  let cache = fresh_cache ~small:true () in
  let a = Field.create (Shape.lattice_fermion Shape.F64) geom in
  ignore (Memcache.ensure_resident ~pin:true cache a);
  for i = 0 to 3 do
    let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
    ignore (Memcache.ensure_resident cache f);
    ignore i
  done;
  Alcotest.(check bool) "pinned stays" true (Memcache.is_resident cache a);
  Memcache.unpin_all cache

let test_oom_when_all_pinned () =
  let cache = fresh_cache ~small:true () in
  let pin () =
    let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
    ignore (Memcache.ensure_resident ~pin:true cache f)
  in
  match
    for _ = 1 to 10 do
      pin ()
    done
  with
  | exception Device.Out_of_device_memory -> ()
  | () -> Alcotest.fail "pinning more than device memory should fail"

let test_drop () =
  let cache = fresh_cache () in
  let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
  ignore (Memcache.ensure_resident cache f);
  Alcotest.(check bool) "resident" true (Memcache.is_resident cache f);
  Memcache.drop cache f;
  Alcotest.(check bool) "gone" false (Memcache.is_resident cache f)

let test_fresh_zero_field_skips_upload () =
  let cache = fresh_cache () in
  let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
  ignore (Memcache.ensure_resident cache f);
  Alcotest.(check int) "no upload for never-written field" 0
    (Memcache.stats cache).Memcache.uploads

let test_cross_cache_migration () =
  (* A field written on one device, paged out, must re-upload on another
     cache instead of being treated as never-written zeros. *)
  let cache1 = fresh_cache () and cache2 = fresh_cache () in
  let f = Field.create (Shape.lattice_fermion Shape.F64) geom in
  let buf1 = Memcache.ensure_resident cache1 f in
  (match buf1.Gpusim.Buffer.data with
  | Gpusim.Buffer.F64 dev -> dev.{0} <- 3.25
  | _ -> assert false);
  Memcache.mark_device_dirty cache1 f;
  (* Host access pages out of cache1 (hooks) and bumps the version. *)
  Alcotest.(check (float 0.0)) "host sees device write" 3.25
    (Field.get f ~site:0 ~spin:0 ~color:0 ~reality:0);
  let buf2 = Memcache.ensure_resident cache2 f in
  match buf2.Gpusim.Buffer.data with
  | Gpusim.Buffer.F64 dev ->
      Alcotest.(check (float 0.0)) "second device has the data" 3.25 dev.{0}
  | _ -> assert false

let test_inflight_not_spilled () =
  (* Allocation pressure arriving while an async upload is still in flight
     must not evict the entry under the copy engine: the transfer stream's
     completion event pins it until the host can observe the copy done. *)
  let ctx, cache = fresh_ctx_cache ~small:true () in
  let mk i =
    let f = Field.create ~name:(Printf.sprintf "g%d" i) (Shape.lattice_fermion Shape.F64) geom in
    f
  in
  let a = mk 0 in
  Field.fill_constant a 4.5;
  ignore (Memcache.ensure_resident cache a);
  (* The upload was issued asynchronously and the host never synchronized:
     [a] is mid-transfer. *)
  Alcotest.(check bool) "upload in flight" true (Memcache.is_inflight cache a);
  (* Fresh zero fields are resident without an upload (no event): they are
     the only legal spill victims while [a] is in flight. *)
  let b = mk 1 and c = mk 2 and d = mk 3 in
  ignore (Memcache.ensure_resident cache b);
  ignore (Memcache.ensure_resident cache c);
  ignore (Memcache.ensure_resident cache d);
  Alcotest.(check bool) "spill happened" true ((Memcache.stats cache).Memcache.spills > 0);
  Alcotest.(check bool) "in-flight candidates skipped" true
    ((Memcache.stats cache).Memcache.inflight_skips > 0);
  Alcotest.(check bool) "in-flight entry survived" true (Memcache.is_resident cache a);
  Alcotest.(check bool) "LRU fell on a settled entry" false (Memcache.is_resident cache b);
  (* Once the host synchronizes, the completion event fires and [a] becomes
     an ordinary (and oldest) LRU candidate. *)
  ignore (Streams.synchronize ctx);
  Alcotest.(check bool) "transfer settled" false (Memcache.is_inflight cache a);
  let e = mk 4 and f = mk 5 in
  ignore (Memcache.ensure_resident cache e);
  ignore (Memcache.ensure_resident cache f);
  Alcotest.(check bool) "settled entry now spillable" false (Memcache.is_resident cache a);
  (* The spill paged [a] out through the transfer stream: its content must
     round-trip. *)
  Alcotest.(check (float 0.0)) "content intact" 4.5
    (Field.get a ~site:7 ~spin:2 ~color:1 ~reality:0)

(* [release_arena] clears its entries' pins and evicts them; a field it
   released that is pinned again must be unpinned by the next
   [unpin_all] (which visits only the entries pinned since the last
   one), so allocation pressure can spill it. *)
let test_arena_repin_cleared () =
  let cache = fresh_cache ~small:true () in
  (* Never-written fields: resident without an upload, so no in-flight
     transfer protects them. *)
  let fresh () = Field.create (Shape.lattice_fermion Shape.F64) geom in
  let a = fresh () in
  let arena = Memcache.create_arena cache in
  Memcache.arena_register arena a;
  ignore (Memcache.ensure_resident ~pin:true cache a);
  Memcache.release_arena cache arena;
  Alcotest.(check bool) "released" false (Memcache.is_resident cache a);
  ignore (Memcache.ensure_resident ~pin:true cache a);
  Memcache.unpin_all cache;
  (* Room for three fermion fields: the third newcomer spills the LRU
     entry, which is [a] unless it is still pinned. *)
  let others = List.init 3 (fun _ -> fresh ()) in
  List.iter (fun f -> ignore (Memcache.ensure_resident cache f)) others;
  Alcotest.(check bool) "re-pinned entry unpinned and spilled" false
    (Memcache.is_resident cache a);
  Alcotest.(check int) "one spill" 1 (Memcache.stats cache).Memcache.spills

(* ------------------------------------------------------------------ *)
(* Dead fields: entries hold their fields weakly, and a collected
   field's device copy is freed by the next [Memcache.reclaim], without
   a page-out. *)

module Engine = Qdpjit.Engine
module Expr = Qdp.Expr

let fm = Shape.lattice_fermion Shape.F64
let life_geom = Geometry.create [| 4; 2; 2; 2 |]

(* Collect, then free what was collected (the device queue is drained
   by the synchronize). *)
let collect eng =
  ignore (Engine.synchronize eng);
  Gc.full_major ();
  Memcache.reclaim (Engine.memcache eng)

let test_two_engines_release () =
  let e1 = Engine.create ~vm_domains:1 () and e2 = Engine.create ~vm_domains:1 () in
  let d1 = Field.create fm life_geom and d2 = Field.create fm life_geom in
  let[@inline never] use_temp () =
    let tmp = Field.create ~name:"tmp" fm life_geom in
    Field.fill_gaussian tmp (Prng.create ~seed:3L);
    Engine.eval e1 d1 (Expr.field tmp);
    Engine.eval e2 d2 (Expr.add (Expr.field tmp) (Expr.field tmp));
    ignore (Engine.synchronize e1);
    ignore (Engine.synchronize e2)
  in
  use_temp ();
  let frees e = (Device.stats (Engine.device e)).Device.frees in
  let before = List.map (fun e -> (frees e, Device.used_bytes (Engine.device e))) [ e1; e2 ] in
  List.iter
    (fun e -> Alcotest.(check int) "temporary and destination resident" 2
        (Memcache.resident_count (Engine.memcache e)))
    [ e1; e2 ];
  collect e1;
  collect e2;
  List.iter2
    (fun e (f0, used0) ->
      Alcotest.(check int) "only the destination stays" 1
        (Memcache.resident_count (Engine.memcache e));
      Alcotest.(check int) "one buffer freed" (f0 + 1) (frees e);
      Alcotest.(check int) "its bytes returned" (used0 - Field.bytes d1)
        (Device.used_bytes (Engine.device e));
      Alcotest.(check int) "no page-out of the dead copy" 0
        (Memcache.stats (Engine.memcache e)).Memcache.pageouts)
    [ e1; e2 ] before;
  (* The destinations are still served from the device. *)
  Alcotest.(check (float 0.0)) "e2 result = 2 e1 result"
    (2.0 *. Field.get d1 ~site:3 ~spin:1 ~color:2 ~reality:0)
    (Field.get d2 ~site:3 ~spin:1 ~color:2 ~reality:0)

type life_op = Create of int * int | Eval of int * float * int * int | Forget of int

let show_life = function
  | Create (s, seed) -> Printf.sprintf "p%d = new(%d)" s seed
  | Eval (d, c, a, b) -> Printf.sprintf "p%d = %g * p%d + shift(p%d)" d c a b
  | Forget s -> Printf.sprintf "forget p%d" s

let life_slots = 5

(* One engine per mode, shared by every case so kernels compile once. *)
let life_engines = lazy (Engine.create ~vm_domains:1 (), Engine.create ~vm_domains:1 ())

(* Run a create/eval/forget sequence.  The forgetting run drops a
   forgotten field for good and, at each forget, collects and checks
   that no more fields are resident than the program still holds; its
   twin keeps every forgotten field reachable.  Returns the final
   contents of the live slots, the number of failed residency checks
   and the page-outs the run did. *)
let run_life eng ~forget ops =
  let mc = Engine.memcache eng in
  collect eng;
  let pageouts0 = (Memcache.stats mc).Memcache.pageouts in
  let slots = Array.make life_slots None and kept = ref [] and over = ref 0 in
  let live () = Array.fold_left (fun n s -> if s = None then n else n + 1) 0 slots in
  List.iter
    (function
      | Create (s, seed) ->
          if slots.(s) = None then begin
            let f = Field.create fm life_geom in
            Field.fill_gaussian f (Prng.create ~seed:(Int64.of_int seed));
            slots.(s) <- Some f
          end
      | Eval (d, c, a, b) -> (
          match (slots.(d), slots.(a), slots.(b)) with
          | Some fd, Some fa, Some fb ->
              Engine.eval eng fd
                (Expr.add
                   (Expr.mul (Expr.const_real c) (Expr.field fa))
                   (Expr.shift (Expr.field fb) ~dim:0 ~dir:1))
          | _ -> ())
      | Forget s -> (
          match slots.(s) with
          | None -> ()
          | Some f ->
              if not forget then kept := f :: !kept;
              slots.(s) <- None;
              collect eng;
              if forget && Memcache.resident_count mc > live () then incr over))
    ops;
  let contents =
    Array.map (Option.map (fun f -> Array.init (Field.volume f) (fun site -> Field.get_site f ~site)))
      slots
  in
  ignore (Sys.opaque_identity !kept);
  (contents, !over, (Memcache.stats mc).Memcache.pageouts - pageouts0)

let arb_life =
  let slot = QCheck.Gen.int_range 0 (life_slots - 1) in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_life ops))
    QCheck.Gen.(
      list_size (int_range 4 18)
        (frequency
           [
             (3, map2 (fun s seed -> Create (s, seed)) slot (int_range 1 1000));
             (4, fun st -> Eval (slot st, oneofl [ 2.0; -0.5; 1.25 ] st, slot st, slot st));
             (2, map (fun s -> Forget s) slot);
           ]))

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | None, None -> true
         | Some x, Some y ->
             Array.for_all2
               (Array.for_all2 (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v))
               x y
         | _ -> false)
       a b

let qcheck_forget =
  QCheck.Test.make ~count:15
    ~name:"create/eval/forget: resident <= live, same bits as never forgetting" arb_life
    (fun ops ->
      let forgetting, keeping = Lazy.force life_engines in
      let got, over, pageouts = run_life forgetting ~forget:true ops in
      let want, _, pageouts_kept = run_life keeping ~forget:false ops in
      over = 0 && bits_equal got want && pageouts = pageouts_kept)

let () =
  Alcotest.run "memcache"
    [
      ( "residency",
        [
          Alcotest.test_case "upload then hit" `Quick test_upload_and_hit;
          Alcotest.test_case "layout change" `Quick test_layout_change_on_upload;
          Alcotest.test_case "host write invalidates" `Quick test_host_write_invalidates;
          Alcotest.test_case "read pages out" `Quick test_device_dirty_pages_out_on_read;
          Alcotest.test_case "fresh zero field" `Quick test_fresh_zero_field_skips_upload;
          Alcotest.test_case "drop" `Quick test_drop;
          Alcotest.test_case "cross-cache migration" `Quick test_cross_cache_migration;
        ] );
      ( "spilling",
        [
          Alcotest.test_case "LRU eviction" `Quick test_lru_spill;
          Alcotest.test_case "dirty data survives" `Quick test_spill_preserves_dirty_data;
          Alcotest.test_case "pinned protected" `Quick test_pinned_not_spilled;
          Alcotest.test_case "oom when pinned" `Quick test_oom_when_all_pinned;
          Alcotest.test_case "in-flight transfer pinned" `Quick test_inflight_not_spilled;
          Alcotest.test_case "arena release then re-pin: unpinned" `Quick
            test_arena_repin_cleared;
        ] );
      ( "dead fields",
        [
          Alcotest.test_case "released by both engines" `Quick test_two_engines_release;
          QCheck_alcotest.to_alcotest qcheck_forget;
        ] );
    ]
