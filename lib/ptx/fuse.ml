(** Cross-kernel fusion by body splicing (see fuse.mli).

    The generated streaming kernels share one canonical skeleton (all
    parameter loads, then the thread-index prologue and guard, then a
    straight-line site body, then the exit label): fusion parses that
    skeleton per source, renames the register spaces apart, keeps a
    single prologue, dedupes parameter loads through the shared slot
    map, and concatenates the site bodies.  Producer→consumer
    substitution rewrites a consumer's [Ld_global] into a [Mov] from the
    producer's stored operand after proving the load address is
    [slot_base + site0 * elem_bytes] for the fused thread's own site —
    the exact chain {!Codegen.byte_address} emits.  Anything structurally
    unexpected raises {!Fusion_failure}; the engine then launches the
    sources unfused. *)

open Types

exception Fusion_failure of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fusion_failure s)) fmt

type report = { subst_load_bytes : int; dropped_store_bytes : int }

type source = {
  kernel : Types.kernel;
  slots : int array;
  use_sitelist : bool;
  subst_from : (int * int) list;
  drop_stores : bool;
  reduction : bool;
}

let map_operand f = function Reg r -> Reg (f r) | (Imm_float _ | Imm_int _) as o -> o

(* One structural walk renaming every register an instruction touches
   (definitions and uses alike) — the passes' rewriting helpers are not
   exported, and fusion needs the defs renamed too. *)
let map_regs f = function
  | Ld_param { dst; param_index } -> Ld_param { dst = f dst; param_index }
  | Ld_global { dtype; dst; addr; offset } ->
      Ld_global { dtype; dst = f dst; addr = f addr; offset }
  | St_global { dtype; addr; offset; src } ->
      St_global { dtype; addr = f addr; offset; src = map_operand f src }
  | Ld_global_f16 { dst; addr; offset } ->
      Ld_global_f16 { dst = f dst; addr = f addr; offset }
  | St_global_f16 { addr; offset; src } ->
      St_global_f16 { addr = f addr; offset; src = map_operand f src }
  | Mov { dst; src } -> Mov { dst = f dst; src = map_operand f src }
  | Mov_sreg { dst; src } -> Mov_sreg { dst = f dst; src }
  | Add { dtype; dst; a; b } -> Add { dtype; dst = f dst; a = map_operand f a; b = map_operand f b }
  | Sub { dtype; dst; a; b } -> Sub { dtype; dst = f dst; a = map_operand f a; b = map_operand f b }
  | Mul { dtype; dst; a; b } -> Mul { dtype; dst = f dst; a = map_operand f a; b = map_operand f b }
  | Div { dtype; dst; a; b } -> Div { dtype; dst = f dst; a = map_operand f a; b = map_operand f b }
  | Fma { dtype; dst; a; b; c } ->
      Fma { dtype; dst = f dst; a = map_operand f a; b = map_operand f b; c = map_operand f c }
  | Shl { dtype; dst; a; amount } -> Shl { dtype; dst = f dst; a = map_operand f a; amount }
  | Neg { dtype; dst; a } -> Neg { dtype; dst = f dst; a = map_operand f a }
  | Cvt { dst; src } -> Cvt { dst = f dst; src = f src }
  | Setp { cmp; dtype; dst; a; b } ->
      Setp { cmp; dtype; dst = f dst; a = map_operand f a; b = map_operand f b }
  | Bra { label; pred } -> Bra { label; pred = Option.map f pred }
  | Label l -> Label l
  | Call { func; ret; arg } -> Call { func; ret = f ret; arg = f arg }
  | Ret -> Ret

(* The parsed canonical skeleton of one (renamed) source. *)
type parsed = {
  param_loads : (int * reg) list;  (** (source param index, destination) in order *)
  head : instr list;  (** Mov_sreg×3 + idx Fma + guard Setp (no Bra) *)
  guard : reg;
  exit_label : string;
  site_chain : instr list;  (** sitelist address chain + site load, if any *)
  site : reg;  (** the register site addresses are built from *)
  idx : reg;  (** the thread-index register (= [site] without a site list) *)
  prologue_regs : reg list;  (** every register the dropped prologue defines *)
  mid : instr list;
}

let parse_source ~use_sitelist ~reduction body =
  let rec take_params acc = function
    | Ld_param { dst; param_index } :: rest -> take_params ((param_index, dst) :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let param_loads, rest = take_params [] body in
  match rest with
  | (Mov_sreg { dst = tid; src = Tid_x } as i1)
    :: (Mov_sreg { dst = ntid; src = Ntid_x } as i2)
    :: (Mov_sreg { dst = ctaid; src = Ctaid_x } as i3)
    :: (Fma { dtype = S32; dst = idx; _ } as i4)
    :: (Setp { dst = guard; a = Reg guarded; _ } as i5)
    :: Bra { label = exit_label; pred = Some pred }
    :: rest
    when pred.id = guard.id && pred.rtype = guard.rtype && guarded.id = idx.id ->
      let site_chain, site, rest =
        if use_sitelist then
          match rest with
          | (Cvt { dst = c1; _ } as s1)
            :: (Mul { dst = m; _ } as s2)
            :: (Cvt { dst = c2; _ } as s3)
            :: (Add { dst = a; _ } as s4)
            :: (Ld_global { dtype = S32; dst = site; _ } as s5)
            :: rest ->
              ignore c1;
              ignore m;
              ignore c2;
              ignore a;
              ([ s1; s2; s3; s4; s5 ], site, rest)
          | _ -> fail "source does not start with the site-list chain"
        else ([], idx, rest)
      in
      let rec split_tail acc = function
        | [ Label l; Ret ] when l = exit_label -> List.rev acc
        | [] | [ _ ] -> fail "source does not end with the exit label"
        | i :: rest -> split_tail (i :: acc) rest
      in
      let mid = split_tail [] rest in
      (* A pointwise body is straight-line; a reduction body may branch
         (the block-aggregation tail), but only to its own labels or the
         exit, which the splicer retargets. *)
      let own_labels =
        List.filter_map (function Label l -> Some l | _ -> None) mid
      in
      List.iter
        (function
          | Ld_param _ -> fail "parameter load outside the leading run"
          | Ret -> fail "source body contains a return"
          | (Label _ | Bra _) when not reduction -> fail "source body is not straight-line"
          | Bra { label; _ } when label <> exit_label && not (List.mem label own_labels) ->
              fail "reduction body branches outside itself"
          | _ -> ())
        mid;
      let prologue_regs =
        [ tid; ntid; ctaid; idx; guard; site ]
        @ List.filter_map Dataflow.def_of site_chain
      in
      { param_loads; head = [ i1; i2; i3; i4; i5 ]; guard; exit_label; site_chain; site;
        idx; prologue_regs; mid }
  | _ -> fail "source does not match the canonical prologue"

let fuse ~kname sources =
  (match sources with [] -> fail "empty fusion group" | _ -> ());
  let use_sitelist = (List.hd sources).use_sitelist in
  List.iter
    (fun s -> if s.use_sitelist <> use_sitelist then fail "mixed subset kinds in one group")
    sources;
  let nsources = List.length sources in
  List.iteri
    (fun i s ->
      if s.reduction then begin
        if i <> nsources - 1 then fail "reduction source must be last";
        if s.drop_stores then fail "reduction source cannot drop stores"
      end)
    sources;
  (* Pull the sources' register spaces apart: per class, each source's ids
     are shifted past everything already assigned. *)
  let next_id = Array.make (Array.length Dataflow.classes) 0 in
  let renamed =
    List.map
      (fun s ->
        let shift r = { r with id = r.id + next_id.(Dataflow.class_index r.rtype) } in
        let body = List.map (map_regs shift) s.kernel.body in
        let rg = Dataflow.regs (Array.of_list s.kernel.body) in
        Array.iteri
          (fun c dt -> next_id.(c) <- next_id.(c) + Dataflow.extent rg dt)
          Dataflow.classes;
        (s, parse_source ~use_sitelist ~reduction:s.reduction body))
      sources
  in
  let nslots =
    1 + List.fold_left (fun m (s, _) -> Array.fold_left max m s.slots) (-1) renamed
  in
  if nslots <= 0 then fail "no parameters";
  (* Fused parameter declarations, one per slot: dtype and (uniquified)
     name from the first source position bound to the slot. *)
  let decls = Array.make nslots None in
  List.iter
    (fun (s, _) ->
      let params = Array.of_list s.kernel.params in
      Array.iteri
        (fun pos slot ->
          if pos >= Array.length params then fail "slot map longer than parameter list";
          let p = params.(pos) in
          match decls.(slot) with
          | None ->
              decls.(slot) <-
                Some { pname = Printf.sprintf "%s_s%d" p.pname slot; ptype = p.ptype }
          | Some d -> if d.ptype <> p.ptype then fail "slot %d bound at two types" slot)
        s.slots)
    renamed;
  let params =
    Array.to_list decls
    |> List.mapi (fun slot d ->
           match d with Some d -> d | None -> fail "slot %d never bound" slot)
  in
  (* Canonical parameter register per slot: the first load wins, later
     loads are dropped and their destinations remapped. *)
  let canonical : reg option array = Array.make nslots None in
  let kept_params = ref [] in
  let first = List.hd renamed in
  let _, parsed0 = first in
  let fused_site = parsed0.site in
  let exit_lbl = "FUSED_EXIT" in
  let store_maps : (int, operand * dtype) Hashtbl.t array =
    Array.init nsources (fun _ -> Hashtbl.create 16)
  in
  let subst_load_bytes = ref 0 in
  let dropped_store_bytes = ref 0 in
  let mids =
    List.mapi
      (fun si (s, parsed) ->
        let remap : (reg, reg) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun (pos, dst) ->
            if pos >= Array.length s.slots then fail "parameter index outside the plan";
            let slot = s.slots.(pos) in
            match canonical.(slot) with
            | None ->
                canonical.(slot) <- Some dst;
                kept_params := Ld_param { dst; param_index = slot } :: !kept_params
            | Some c ->
                if c.rtype <> dst.rtype then fail "slot %d loaded at two types" slot;
                Hashtbl.replace remap dst c)
          parsed.param_loads;
        (* Secondary sources lose their prologue: route their thread
           index, guard and site registers to the first source's.  A
           reduction body additionally references the raw thread index
           (compact partial addressing and the block computation), which
           routes to the primary's. *)
        if si > 0 then begin
          Hashtbl.replace remap parsed.site fused_site;
          if s.reduction then Hashtbl.replace remap parsed.idx parsed0.idx
        end;
        let rename r = Option.value ~default:r (Hashtbl.find_opt remap r) in
        if si > 0 then begin
          (* The only prologue values a site body may reference are the
             site register (the thread index when there is no site list)
             and, for a reduction body, the thread index; any other leak
             means the skeleton assumption broke. *)
          let kept =
            if s.reduction then [ parsed.site; parsed.idx ] else [ parsed.site ]
          in
          let dropped = List.filter (fun r -> not (List.mem r kept)) parsed.prologue_regs in
          List.iter
            (fun i ->
              List.iter
                (fun u ->
                  if List.mem u dropped then
                    fail "site body reads a dropped prologue register")
                (Dataflow.uses_of i))
            parsed.mid
        end;
        let mid = List.map (map_regs rename) parsed.mid in
        (* A reduction body's internal labels are uniquified per member,
           and its early exits retarget the fused exit. *)
        let mid =
          if not s.reduction then mid
          else begin
            let relabel l =
              if l = parsed.exit_label then exit_lbl else Printf.sprintf "M%d_%s" si l
            in
            List.map
              (function
                | Label l -> Label (relabel l)
                | Bra { label; pred } -> Bra { label = relabel label; pred }
                | i -> i)
              mid
          end
        in
        (* Producer→consumer substitution: loads whose address chain is
           provably [subst slot base + site * bytes] become register moves
           from the producer's stored operand at the same offset. *)
        let defs = Hashtbl.create 64 in
        List.iter
          (fun i ->
            match Dataflow.def_of i with
            | Some r -> Hashtbl.replace defs r i
            | None -> ())
          mid;
        let trace addr =
          match Hashtbl.find_opt defs addr with
          | Some (Add { dtype = U64; a = Reg base; b = Reg u; _ }) -> (
              match Hashtbl.find_opt defs u with
              | Some (Cvt { src = scaled; _ }) -> (
                  match Hashtbl.find_opt defs scaled with
                  | Some (Mul { a = Reg wide; b = Imm_int _; _ }) -> (
                      match Hashtbl.find_opt defs wide with
                      | Some (Cvt { src = site; _ }) -> Some (base, site)
                      | _ -> None)
                  | _ -> None)
              | _ -> None)
          | _ -> None
        in
        let subst_bases =
          List.filter_map
            (fun (slot, producer) ->
              if producer < 0 || producer >= si then
                fail "substitution producer is not an earlier group member";
              match canonical.(slot) with
              | Some c -> Some (c, producer)
              | None -> fail "substitution slot %d has no parameter load" slot)
            s.subst_from
        in
        let mid =
          List.map
            (fun i ->
              match i with
              | Ld_global { dtype; dst; addr; offset } -> (
                  match trace addr with
                  | Some (base, site) -> (
                      match List.assoc_opt base subst_bases with
                      | None -> i
                      | Some producer ->
                          if site <> fused_site then
                            fail "shifted read of a fused intermediate";
                          if dtype <> F64 then fail "substitution on a non-f64 load";
                          (match Hashtbl.find_opt store_maps.(producer) offset with
                          | Some (src, F64) ->
                              subst_load_bytes := !subst_load_bytes + dtype_bytes dtype;
                              Mov { dst; src }
                          | Some (_, _) -> fail "producer stored a non-f64 value"
                          | None -> fail "producer never stores offset %d" offset))
                  | None -> i)
              | _ -> i)
            mid
        in
        (* Record what this source stores to its destination — later
           members may substitute from it.  A reduction source is exempt:
           it is the group's tail (nothing substitutes from it), and its
           stores deliberately target the compact partial planes and the
           block buffer instead of the thread's site. *)
        if not s.reduction then begin
          let dest_base =
            match canonical.(s.slots.(0)) with
            | Some c -> c
            | None -> fail "destination parameter was never loaded"
          in
          List.iter
            (fun i ->
              match i with
              | St_global { dtype; addr; offset; src } -> (
                  match trace addr with
                  | Some (base, site)
                    when base = dest_base && site = fused_site ->
                      Hashtbl.replace store_maps.(si) offset (src, dtype)
                  | _ -> fail "store does not target the destination at the thread's site")
              | _ -> ())
            mid
        end;
        if s.drop_stores then
          List.filter
            (fun i ->
              match i with
              | St_global { dtype; _ } ->
                  dropped_store_bytes := !dropped_store_bytes + dtype_bytes dtype;
                  false
              | St_global_f16 _ ->
                  dropped_store_bytes := !dropped_store_bytes + 2;
                  false
              | _ -> true)
            mid
        else mid)
      renamed
  in
  let head =
    parsed0.head
    @ [ Bra { label = exit_lbl; pred = Some parsed0.guard } ]
    @ parsed0.site_chain
  in
  let body = List.rev !kept_params @ head @ List.concat mids @ [ Label exit_lbl; Ret ] in
  ( { kname; params; body },
    { subst_load_bytes = !subst_load_bytes; dropped_store_bytes = !dropped_store_bytes } )

let version = 3
