(** Per-kernel thread-block-size auto-tuning (Sec. VII).

    First launch attempt uses the maximum block size the GPU allows;
    launch failures (register exhaustion) halve it until a launch
    succeeds.  Consecutive *payload* launches then probe smaller block
    sizes until the execution time degrades significantly (the paper uses
    33 %); the best configuration wins from then on.  No launch ever
    happens solely for tuning. *)

type phase =
  | Trying of int  (** initial descent: find a block size that launches *)
  | Probing of { next : int; best : int; best_ns : float }
  | Settled of int

type t = { mutable phase : phase; max_block : int; min_block : int }

let degradation_threshold = 1.33

let create ?(min_block = 32) ~max_block () =
  if max_block < min_block then invalid_arg "Autotune.create: max below min";
  { phase = Trying max_block; max_block; min_block }

let next_block t =
  match t.phase with Trying b -> b | Probing { next; _ } -> next | Settled b -> b

(* A launch at [block] failed (resources); halve and retry. *)
let on_failure t ~block =
  match t.phase with
  | Trying b when b = block ->
      if b / 2 < t.min_block then
        failwith "Autotune: no feasible block size (kernel cannot launch)"
      else t.phase <- Trying (b / 2)
  | Probing { best; _ } ->
      (* A probe failed (should not happen going downward, but be safe). *)
      t.phase <- Settled best
  | Trying _ | Settled _ ->
      failwith "Autotune.on_failure: failure reported for a block size not in flight"

(* A payload launch at [block] took [ns]. *)
let report t ~block ~ns =
  match t.phase with
  | Trying b when b = block ->
      if b / 2 < t.min_block then t.phase <- Settled b
      else t.phase <- Probing { next = b / 2; best = b; best_ns = ns }
  | Probing { next; best; best_ns } when next = block ->
      if ns > degradation_threshold *. best_ns then t.phase <- Settled best
      else begin
        let best, best_ns = if ns < best_ns then (block, ns) else (best, best_ns) in
        if block / 2 < t.min_block then t.phase <- Settled best
        else t.phase <- Probing { next = block / 2; best; best_ns }
      end
  | Trying _ | Probing _ | Settled _ -> ()

let settled t = match t.phase with Settled _ -> true | Trying _ | Probing _ -> false
