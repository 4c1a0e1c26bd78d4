(* Test oracles for [Ptx.Dataflow]: block liveness and definite
   assignment over plain [Set.Make] sets of registers, iterated set by
   set.  They share only the instruction walk ([def_of], [uses_of]) and
   block splitting with the library, not its dense numbering or its
   bitsets, so a numbering slip shows up as a disagreement. *)

open Ptx.Types
module D = Ptx.Dataflow

module RSet = Set.Make (struct
  type t = reg

  let compare = compare
end)

(* Block-level use (upward-exposed reads) and def sets. *)
let block_use_def body (b : D.block) =
  let use = ref RSet.empty and def = ref RSet.empty in
  for i = b.D.first to b.D.last do
    List.iter (fun r -> if not (RSet.mem r !def) then use := RSet.add r !use) (D.uses_of body.(i));
    Option.iter (fun r -> def := RSet.add r !def) (D.def_of body.(i))
  done;
  (!use, !def)

(* [live_in], [live_out] per block, to fixpoint. *)
let liveness body (blks : D.block array) =
  let n = Array.length blks in
  let use_def = Array.map (block_use_def body) blks in
  let live_in = Array.make n RSet.empty and live_out = Array.make n RSet.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = n - 1 downto 0 do
      let use, def = use_def.(b) in
      let out =
        List.fold_left (fun acc s -> RSet.union acc live_in.(s)) RSet.empty blks.(b).D.succs
      in
      let inn = RSet.union use (RSet.diff out def) in
      if not (RSet.equal out live_out.(b) && RSet.equal inn live_in.(b)) then begin
        live_out.(b) <- out;
        live_in.(b) <- inn;
        changed := true
      end
    done
  done;
  (live_in, live_out)

(* Reads a definition may not reach along some path from the entry, as
   [(instruction index, register)] in program order. *)
let undefined_uses (k : kernel) =
  let body = Array.of_list k.body in
  let blks, _ = D.blocks body in
  let n = Array.length blks in
  let defs_in first last =
    let d = ref RSet.empty in
    for i = first to last do
      Option.iter (fun r -> d := RSet.add r !d) (D.def_of body.(i))
    done;
    !d
  in
  if n = 0 then []
  else begin
    let universe = defs_in 0 (Array.length body - 1) in
    let block_defs = Array.map (fun (b : D.block) -> defs_in b.D.first b.D.last) blks in
    let inn = Array.make n universe and out = Array.make n universe in
    inn.(0) <- RSet.empty;
    out.(0) <- block_defs.(0);
    let changed = ref true in
    while !changed do
      changed := false;
      for b = 1 to n - 1 do
        let i =
          match blks.(b).D.preds with
          | [] -> universe
          | p :: ps -> List.fold_left (fun acc q -> RSet.inter acc out.(q)) out.(p) ps
        in
        let o = RSet.union i block_defs.(b) in
        if not (RSet.equal i inn.(b) && RSet.equal o out.(b)) then begin
          inn.(b) <- i;
          out.(b) <- o;
          changed := true
        end
      done
    done;
    let violations = ref [] in
    Array.iteri
      (fun bi (blk : D.block) ->
        let defined = ref inn.(bi) in
        for i = blk.D.first to blk.D.last do
          List.iter
            (fun r -> if not (RSet.mem r !defined) then violations := (i, r) :: !violations)
            (D.uses_of body.(i));
          Option.iter (fun r -> defined := RSet.add r !defined) (D.def_of body.(i))
        done)
      blks;
    List.rev !violations
  end
