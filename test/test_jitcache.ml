(* The persistent JIT cache must be invisible except in compile counts:
   a second engine against a warm cache directory replays every kernel
   bit-identically while compiling nothing, any damaged entry silently
   degrades to a recompile, concurrent engines sharing one directory
   never deliver torn bytes (atomic write-then-rename), and
   REPRO_JIT_CACHE=off bypasses the whole mechanism. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr
module Engine = Qdpjit.Engine

let geom = Geometry.create [| 8; 8; 4; 4 |]
let fm = Shape.lattice_fermion Shape.F64

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "qdpjit-cache-test-%d-%s-%d" (Unix.getpid ()) tag !n)
    in
    let c = Jitcache.create d in
    Jitcache.clear c;
    d

(* ------------------------------------------------------------------ *)
(* The blob store itself *)

let test_store_roundtrip () =
  let c = Jitcache.create (fresh_dir "blob") in
  Alcotest.(check (option string)) "miss" None (Jitcache.find c ~key:"absent");
  Jitcache.store c ~key:"k1" ~data:"payload one";
  Jitcache.store c ~key:"k2" ~data:(String.make 4096 '\x00');
  Alcotest.(check (option string)) "hit" (Some "payload one") (Jitcache.find c ~key:"k1");
  Alcotest.(check (option string))
    "binary hit" (Some (String.make 4096 '\x00')) (Jitcache.find c ~key:"k2");
  (* Last writer wins. *)
  Jitcache.store c ~key:"k1" ~data:"payload two";
  Alcotest.(check (option string)) "rewrite" (Some "payload two") (Jitcache.find c ~key:"k1");
  let s = Jitcache.stats c in
  Alcotest.(check int) "hits" 3 s.Jitcache.hits;
  Alcotest.(check int) "misses" 1 s.Jitcache.misses;
  Alcotest.(check int) "stores" 3 s.Jitcache.stores;
  Alcotest.(check int) "entries" 2 (Jitcache.entry_count c);
  Jitcache.clear c;
  Alcotest.(check int) "cleared" 0 (Jitcache.entry_count c)

let test_store_corruption () =
  let dir = fresh_dir "corrupt" in
  let c = Jitcache.create dir in
  Jitcache.store c ~key:"victim" ~data:(String.make 512 'x');
  (* Truncate the entry mid-payload: the checksum must reject it. *)
  let path =
    match Sys.readdir dir |> Array.to_list |> List.filter (fun n -> Filename.check_suffix n ".jc") with
    | [ n ] -> Filename.concat dir n
    | _ -> Alcotest.fail "expected exactly one entry"
  in
  let raw = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub raw 0 (String.length raw / 2)));
  Alcotest.(check (option string)) "rejected" None (Jitcache.find c ~key:"victim");
  Alcotest.(check int) "corrupt counted" 1 (Jitcache.stats c).Jitcache.corrupt;
  Alcotest.(check bool) "corrupt file deleted" false (Sys.file_exists path);
  (* Garbage that was never a cache entry is rejected the same way. *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "not a cache entry");
  Alcotest.(check (option string)) "garbage rejected" None (Jitcache.find c ~key:"victim");
  (* A republish recovers. *)
  Jitcache.store c ~key:"victim" ~data:"fresh";
  Alcotest.(check (option string)) "recovered" (Some "fresh") (Jitcache.find c ~key:"victim")

let test_store_eviction () =
  let c = Jitcache.create ~max_bytes:4096 (fresh_dir "evict") in
  for i = 0 to 9 do
    Jitcache.store c ~key:(Printf.sprintf "k%d" i) ~data:(String.make 1024 'e')
  done;
  Alcotest.(check bool) "bounded" true (Jitcache.entry_bytes c <= 4096);
  Alcotest.(check bool) "evicted" true ((Jitcache.stats c).Jitcache.evictions > 0);
  (* The newest entry survives the bound. *)
  Alcotest.(check bool) "newest survives" true (Jitcache.find c ~key:"k9" <> None)

(* ------------------------------------------------------------------ *)
(* Engine round trips: cached compile = fresh compile, bit for bit *)

type op =
  | Scale of int * float * int
  | Axpy of int * float * int * int
  | Sub of int * int * int
  | Shift of int * int * int * int

let op_expr pool = function
  | Scale (_, c, s) -> Expr.mul (Expr.const_real c) (Expr.field pool.(s))
  | Axpy (_, c, a, b) ->
      Expr.add (Expr.mul (Expr.const_real c) (Expr.field pool.(a))) (Expr.field pool.(b))
  | Sub (_, a, b) -> Expr.sub (Expr.field pool.(a)) (Expr.field pool.(b))
  | Shift (_, s, dim, dir) -> Expr.shift (Expr.field pool.(s)) ~dim ~dir

let op_dest = function Scale (d, _, _) | Axpy (d, _, _, _) | Sub (d, _, _) | Shift (d, _, _, _) -> d

let fresh_pool seed n =
  let rng = Prng.create ~seed in
  Array.init n (fun i ->
      let f = Field.create fm geom in
      Field.fill_gaussian ~site_key:(fun site -> site + (i * 1_000_003)) f rng;
      f)

(* Run the program plus a norm2 tail, so raw-member, group and
   fold-kernel cache entries all get exercised.  [stream] launches every
   eval on that stream instead of the fusion queue, as a group of one. *)
let run_program ?stream eng prog =
  let pool = fresh_pool 7L 4 in
  let stream = Option.map (fun name -> Streams.create_stream ~name (Engine.streams eng)) stream in
  List.iter (fun op -> Engine.eval ?stream eng pool.(op_dest op) (op_expr pool op)) prog;
  if stream <> None then ignore (Engine.synchronize eng);
  let n = Engine.norm2 eng (Expr.sub (Expr.field pool.(0)) (Expr.field pool.(1))) in
  Engine.flush eng;
  (pool, n)

let fields_bit_equal a b =
  let ok = ref true in
  for site = 0 to Field.volume a - 1 do
    let sa = Field.get_site a ~site and sb = Field.get_site b ~site in
    Array.iteri
      (fun i v -> if Int64.bits_of_float v <> Int64.bits_of_float sb.(i) then ok := false)
      sa
  done;
  !ok

let gen_op =
  QCheck.Gen.(
    let idx = int_range 0 3 in
    let coeff = oneofl [ 2.0; -0.5; 1.25; 3.0; -1.0 ] in
    oneof
      [
        map3 (fun d c s -> Scale (d, c, s)) idx coeff idx;
        (fun st -> Axpy (idx st, coeff st, idx st, idx st));
        map3 (fun d a b -> Sub (d, a, b)) idx idx idx;
        (fun st -> Shift (idx st, idx st, int_range 0 3 st, if bool st then 1 else -1));
      ])

let show_op = function
  | Scale (d, c, s) -> Printf.sprintf "p%d = %g * p%d" d c s
  | Axpy (d, c, a, b) -> Printf.sprintf "p%d = %g * p%d + p%d" d c a b
  | Sub (d, a, b) -> Printf.sprintf "p%d = p%d - p%d" d a b
  | Shift (d, s, dim, dir) -> Printf.sprintf "p%d = shift(p%d, dim %d, dir %+d)" d s dim dir

let arb_prog =
  QCheck.make
    ~print:(fun p -> String.concat "; " (List.map show_op p))
    QCheck.Gen.(list_size (int_range 2 8) gen_op)

(* Each program runs through three launch mixes: the fusion queue, a
   [~fuse:false] engine and explicit-stream evals (the last two launch
   every eval as a group of one). *)
let qcheck_warm_engine_bit_exact =
  QCheck.Test.make ~count:10
    ~name:"random kernels: warm-cache engine = fresh compile (bit), zero compiles" arb_prog
    (fun prog ->
      List.for_all
        (fun (fuse, stream) ->
          let dir = fresh_dir "qcheck" in
          let cold = Engine.create ~fuse ~jit_cache:(Jitcache.create dir) () in
          let pc, nc = run_program ?stream cold prog in
          let warm = Engine.create ~fuse ~jit_cache:(Jitcache.create dir) () in
          let pw, nw = run_program ?stream warm prog in
          let stats = Option.get (Engine.jit_cache_stats warm) in
          (* Byte counters come from the driver analysis restored from disk. *)
          Array.for_all2 fields_bit_equal pc pw
          && Int64.bits_of_float nc = Int64.bits_of_float nw
          && Engine.kernels_built warm = 0
          && stats.Jitcache.hits > 0
          && Engine.kernel_bytes_moved warm = Engine.kernel_bytes_moved cold
          && Engine.kernel_bytes_by_prec warm = Engine.kernel_bytes_by_prec cold)
        [ (true, None); (false, None); (true, Some "explicit") ])

let test_corrupt_entries_recompile () =
  let dir = fresh_dir "damage" in
  let prog = [ Axpy (2, 1.25, 0, 1); Shift (3, 2, 1, 1); Sub (0, 3, 2) ] in
  let cold = Engine.create ~jit_cache:(Jitcache.create dir) () in
  let pc, nc = run_program cold prog in
  (* Damage every entry on disk: truncations and header scribbles. *)
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".jc")
  |> List.iteri (fun i n ->
         let path = Filename.concat dir n in
         let raw = In_channel.with_open_bin path In_channel.input_all in
         let damaged =
           if i mod 2 = 0 then String.sub raw 0 (String.length raw / 3)
           else "XXXX" ^ String.sub raw 4 (String.length raw - 4)
         in
         Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc damaged));
  let warm = Engine.create ~jit_cache:(Jitcache.create dir) () in
  let pw, nw = run_program warm prog in
  Alcotest.(check bool) "results still bit-equal" true (Array.for_all2 fields_bit_equal pc pw);
  Alcotest.(check bool) "norm bit-equal" true (Int64.bits_of_float nc = Int64.bits_of_float nw);
  Alcotest.(check bool) "recompiled" true (Engine.kernels_built warm > 0);
  let s = Option.get (Engine.jit_cache_stats warm) in
  Alcotest.(check bool) "corruption detected" true (s.Jitcache.corrupt > 0)

(* Every entry file stores its full key (magic 4 | version 4 | key_len 4
   | key ...); read them back so the test can re-key entries the way an
   older release would have written them. *)
let entry_keys dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".jc")
  |> List.map (fun n ->
         let raw = In_channel.with_open_bin (Filename.concat dir n) In_channel.input_all in
         let key_len = Int32.to_int (String.get_int32_be raw 8) in
         String.sub raw 12 key_len)

let is_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let test_version_bump_misses () =
  (* The cache tag is the version fence: it must spell out the current
     component versions, and every key must carry it as a prefix. *)
  Alcotest.(check string) "tag embeds every component version"
    (Printf.sprintf "qdpjit|ml%s|cg%d|ps%d|fu%d|vm%d|ek%d" Sys.ocaml_version
       Qdpjit.Codegen.version Ptx.Passes.version Ptx.Fuse.version Gpusim.Vm.decoder_version
       Expr.key_version)
    Engine.cache_tag;
  (* The decoder is at version 8 since programs carry the folded access
     summary and the bounds-guard slot: entries marshalled by version 7
     must miss. *)
  let has_sub sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "tag carries decoder version 8" true (has_sub "|vm8|" Engine.cache_tag);
  (* The code generator is at version 5 since an eval launched alone is a
     group of one and cache payloads no longer carry a parameter plan:
     version-4 "fused" and "reduce" entries would decode with the wrong
     layout, so they must miss. *)
  Alcotest.(check bool) "tag carries codegen version 5" true (has_sub "|cg5|" Engine.cache_tag);
  let dir = fresh_dir "stale" in
  let prog = [ Axpy (2, 1.25, 0, 1); Shift (3, 2, 1, 1); Sub (0, 3, 2) ] in
  let cold = Engine.create ~jit_cache:(Jitcache.create dir) () in
  let pc, nc = run_program cold prog in
  let keys = entry_keys dir in
  Alcotest.(check bool) "captured warm keys" true (keys <> []);
  List.iter
    (fun k -> Alcotest.(check bool) "key is version-fenced" true (is_prefix Engine.cache_tag k))
    keys;
  (* Rebuild the directory as the previous release would have left it:
     the same key structure under the decremented version tag, with
     payloads the current formats could not deserialize.  A correct
     engine never even opens them — they must be plain misses, not
     corruption fallbacks or crashes. *)
  let old_tag =
    Printf.sprintf "qdpjit|ml%s|cg%d|ps%d|fu%d|vm%d|ek%d" Sys.ocaml_version
      (Qdpjit.Codegen.version - 1) (Ptx.Passes.version - 1) (Ptx.Fuse.version - 1)
      (Gpusim.Vm.decoder_version - 1) (Expr.key_version - 1)
  in
  let stale_key k =
    old_tag ^ String.sub k (String.length Engine.cache_tag) (String.length k - String.length Engine.cache_tag)
  in
  let c = Jitcache.create dir in
  Jitcache.clear c;
  List.iter (fun k -> Jitcache.store c ~key:(stale_key k) ~data:"pre-bump marshal format") keys;
  let warm = Engine.create ~jit_cache:(Jitcache.create dir) () in
  let pw, nw = run_program warm prog in
  Alcotest.(check bool) "results bit-equal after full recompile" true
    (Array.for_all2 fields_bit_equal pc pw && Int64.bits_of_float nc = Int64.bits_of_float nw);
  Alcotest.(check bool) "recompiled everything" true (Engine.kernels_built warm > 0);
  let s = Option.get (Engine.jit_cache_stats warm) in
  Alcotest.(check int) "zero hits on pre-bump entries" 0 s.Jitcache.hits;
  Alcotest.(check int) "pre-bump entries never deserialized" 0 s.Jitcache.corrupt

let test_concurrent_engines_share_dir () =
  let dir = fresh_dir "shared" in
  let prog = [ Scale (1, 2.0, 0); Axpy (2, -0.5, 1, 0); Sub (3, 2, 1); Shift (0, 3, 0, -1) ] in
  (* Two engines interleaving on one directory: each eval may publish or
     hit concurrently with the other engine's accesses.  (In-process
     interleaving exercises the same rename-vs-read window two processes
     would race on.) *)
  let a = Engine.create ~jit_cache:(Jitcache.create dir) () in
  let b = Engine.create ~jit_cache:(Jitcache.create dir) () in
  let pa = fresh_pool 7L 4 and pb = fresh_pool 7L 4 in
  List.iter
    (fun op ->
      Engine.eval a pa.(op_dest op) (op_expr pa op);
      Engine.flush a;
      Engine.eval b pb.(op_dest op) (op_expr pb op);
      Engine.flush b)
    prog;
  Alcotest.(check bool) "bit-equal across engines" true (Array.for_all2 fields_bit_equal pa pb);
  (* The second engine rides the first one's stores. *)
  let sb = Option.get (Engine.jit_cache_stats b) in
  Alcotest.(check bool) "follower hits" true (sb.Jitcache.hits > 0);
  Alcotest.(check int) "follower compiles nothing" 0 (Engine.kernels_built b);
  (* No stray scratch files survive the atomic publishes. *)
  let stray =
    Sys.readdir dir |> Array.to_list |> List.filter (fun n -> Filename.check_suffix n ".tmp")
  in
  Alcotest.(check (list string)) "no temp residue" [] stray

(* ------------------------------------------------------------------ *)
(* Environment resolution *)

let with_env value f =
  let prev = Sys.getenv_opt Jitcache.env_var in
  Unix.putenv Jitcache.env_var value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv Jitcache.env_var (Option.value prev ~default:""))
    f

let test_env_off_bypasses () =
  with_env "off" (fun () ->
      let dir = fresh_dir "off" in
      (* Even an explicit cache argument is overridden by off. *)
      let eng = Engine.create ~jit_cache:(Jitcache.create dir) () in
      let _, n = run_program eng [ Axpy (2, 1.25, 0, 1); Sub (3, 2, 0) ] in
      Alcotest.(check bool) "finite result" true (Float.is_finite n);
      Alcotest.(check bool) "cache disabled" true (Engine.jit_cache_stats eng = None);
      Alcotest.(check int) "nothing written" 0 (Jitcache.entry_count (Jitcache.create dir)))

let test_env_path_overrides () =
  let dir = fresh_dir "envpath" in
  with_env dir (fun () ->
      let eng = Engine.create () in
      let _ = run_program eng [ Scale (1, 2.0, 0) ] in
      let s = Option.get (Engine.jit_cache_stats eng) in
      Alcotest.(check bool) "stored under env path" true (s.Jitcache.stores > 0);
      Alcotest.(check bool) "entries on disk" true (Jitcache.entry_count (Jitcache.create dir) > 0))

let () =
  Alcotest.run "jitcache"
    [
      ( "blob store",
        [
          Alcotest.test_case "store/find round trip" `Quick test_store_roundtrip;
          Alcotest.test_case "corrupt entries rejected and deleted" `Quick test_store_corruption;
          Alcotest.test_case "size bound evicts oldest" `Quick test_store_eviction;
        ] );
      ( "engine round trips",
        [
          QCheck_alcotest.to_alcotest qcheck_warm_engine_bit_exact;
          Alcotest.test_case "damaged cache falls back to recompile" `Quick
            test_corrupt_entries_recompile;
          Alcotest.test_case "pre-bump entries miss, not deserialize" `Quick
            test_version_bump_misses;
          Alcotest.test_case "concurrent engines share a directory" `Quick
            test_concurrent_engines_share_dir;
        ] );
      ( "environment",
        [
          Alcotest.test_case "REPRO_JIT_CACHE=off bypasses" `Quick test_env_off_bypasses;
          Alcotest.test_case "REPRO_JIT_CACHE path overrides" `Quick test_env_path_overrides;
        ] );
    ]
