(** Persistent on-disk cache of driver-JIT artifacts.  See the interface
    for the robustness contract; the short version: atomic
    write-then-rename publication, full validation on read, and every
    anomaly degrades to a miss, never an exception. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable corrupt : int;
  mutable evictions : int;
}

type t = { cache_dir : string; max_bytes : int; stats : stats }

let format_version = 1
let magic = "QJC1"
let suffix = ".jc"
let env_var = "REPRO_JIT_CACHE"

let dir t = t.cache_dir
let stats t = t.stats

let rec mkdirs d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    (* EEXIST from a concurrent creator is fine. *)
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let create ?(max_bytes = 256 * 1024 * 1024) cache_dir =
  mkdirs cache_dir;
  if not (Sys.is_directory cache_dir) then
    raise (Sys_error (cache_dir ^ ": not a directory"));
  {
    cache_dir;
    max_bytes;
    stats = { hits = 0; misses = 0; stores = 0; corrupt = 0; evictions = 0 };
  }

let from_env ?default () =
  match Sys.getenv_opt env_var with
  | None -> default
  | Some v -> (
      (* Off-spellings are matched case-insensitively on the trimmed
         value, but a directory override keeps the raw string. *)
      match String.lowercase_ascii (String.trim v) with
      | "" -> default
      | "off" | "0" | "none" | "disabled" -> None
      | _ -> Some (create v))

(* One file per key, named by the key's digest.  The key itself is stored
   in the header and compared on read, so a (vanishingly unlikely) digest
   collision degrades to a miss instead of delivering foreign bytes. *)
let path_of t key = Filename.concat t.cache_dir (Digest.to_hex (Digest.string key) ^ suffix)

let cache_files t =
  match Sys.readdir t.cache_dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n suffix)
      |> List.map (Filename.concat t.cache_dir)

let entry_count t = List.length (cache_files t)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let entry_bytes t = List.fold_left (fun acc p -> acc + file_size p) 0 (cache_files t)

(* Entry layout (all integers big-endian):
     magic (4) | format_version (4) | key_len (4) | key
   | payload MD5 (16) | payload_len (8) | payload *)

let encode ~key ~data =
  let b = Buffer.create (String.length data + String.length key + 40) in
  Buffer.add_string b magic;
  Buffer.add_int32_be b (Int32.of_int format_version);
  Buffer.add_int32_be b (Int32.of_int (String.length key));
  Buffer.add_string b key;
  Buffer.add_string b (Digest.string data);
  Buffer.add_int64_be b (Int64.of_int (String.length data));
  Buffer.add_string b data;
  Buffer.contents b

exception Bad_entry

(* Decode and validate; raises [Bad_entry] on any anomaly. *)
let decode ~key raw =
  let len = String.length raw in
  let need pos n = if pos + n > len then raise Bad_entry in
  need 0 12;
  if String.sub raw 0 4 <> magic then raise Bad_entry;
  if Int32.to_int (String.get_int32_be raw 4) <> format_version then raise Bad_entry;
  let key_len = Int32.to_int (String.get_int32_be raw 8) in
  if key_len < 0 then raise Bad_entry;
  need 12 key_len;
  if String.sub raw 12 key_len <> key then raise Bad_entry;
  let pos = 12 + key_len in
  need pos 24;
  let digest = String.sub raw pos 16 in
  let payload_len = Int64.to_int (String.get_int64_be raw (pos + 16)) in
  if payload_len < 0 || pos + 24 + payload_len <> len then raise Bad_entry;
  let payload = String.sub raw (pos + 24) payload_len in
  if Digest.string payload <> digest then raise Bad_entry;
  payload

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let find t ~key =
  let path = path_of t key in
  match read_file path with
  | exception Sys_error _ ->
      t.stats.misses <- t.stats.misses + 1;
      None
  | raw -> (
      match decode ~key raw with
      | payload ->
          t.stats.hits <- t.stats.hits + 1;
          (* Refresh the timestamp so size-bound eviction is LRU. *)
          (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
          Some payload
      | exception Bad_entry ->
          t.stats.corrupt <- t.stats.corrupt + 1;
          t.stats.misses <- t.stats.misses + 1;
          (* Delete so the next store republishes a clean entry. *)
          (try Sys.remove path with Sys_error _ -> ());
          None)

(* Enforce the size bound: evict oldest-modified entries until the
   directory fits.  The entry just stored carries the newest timestamp,
   so it survives unless it alone exceeds the bound. *)
let evict_to_bound t =
  if t.max_bytes > 0 then begin
    let entries =
      cache_files t
      |> List.filter_map (fun p ->
             try
               let st = Unix.stat p in
               Some (st.Unix.st_mtime, st.Unix.st_size, p)
             with Unix.Unix_error _ -> None)
      |> List.sort compare
    in
    let total = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 entries in
    let excess = ref (total - t.max_bytes) in
    List.iter
      (fun (_, sz, p) ->
        if !excess > 0 then
          match Sys.remove p with
          | () ->
              excess := !excess - sz;
              t.stats.evictions <- t.stats.evictions + 1
          | exception Sys_error _ -> ())
      entries
  end

let store t ~key ~data =
  match
    (* temp_file both reserves a unique name and creates it, so
       concurrent writers never share a scratch file. *)
    let tmp = Filename.temp_file ~temp_dir:t.cache_dir "jc" ".tmp" in
    let oc = open_out_bin tmp in
    (match output_string oc (encode ~key ~data) with
    | () -> close_out oc
    | exception e ->
        close_out_noerr oc;
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e);
    (* Atomic within one directory: readers see the old entry or the new
       one, never a torn write. *)
    Sys.rename tmp (path_of t key)
  with
  | () ->
      t.stats.stores <- t.stats.stores + 1;
      evict_to_bound t
  | exception Sys_error _ -> ()

let clear t = List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (cache_files t)
