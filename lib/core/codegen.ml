(** Expression → PTX kernel code generation (Sec. III).

    The AST unparser walks the tree exactly like the CPU evaluator, but the
    site algebra is instantiated at {!Jit_scalar}, so visiting a node emits
    PTX instead of computing.  Leaves become "JIT data views" (Sec. III-B):
    the base pointer plus the coalesced SoA offsets

      I(iV,iS,iC,iR) = ((iR*IC + iC)*IS + iS)*IV + iV

    where the site index iV is the CUDA thread index (or, on a subset, a
    site loaded from the site-list buffer).  Shifts load the displaced site
    index from a neighbour table, which is also how the face/inner split of
    Sec. V is expressed: the table decides where data comes from. *)

module Shape = Layout.Shape
module Index = Layout.Index
module Expr = Qdp.Expr
module Field = Qdp.Field
module JSite = Linalg.Site.Make (Jit_scalar)
open Ptx.Types

let version = 5

type param_plan =
  | Dest  (** destination field pointer *)
  | Red_partial
      (** partial-plane scratch of a reduction kernel, in place of [Dest]:
          one plane of nsites doubles per component, indexed by work item *)
  | Leaf_ptr of int  (** nth distinct field of the expression *)
  | Ntable of int * int  (** neighbour table for (dim, dir) *)
  | Sitelist  (** site-list buffer (subset kernels) *)
  | N_work  (** number of threads doing real work *)
  | Block_partial
      (** per-block partial-sum buffer (reduction kernels only): one plane
          of ceil(n/8) doubles per destination component *)
  | Scalar_param of int * int
      (** component [comp] of the nth runtime scalar leaf, in expression
          traversal order *)

type built = {
  kernel : kernel;
  raw : kernel;
  plan : param_plan list;
  passes : Ptx.Passes.report list;
}

let elem_bytes = function Shape.F16 -> 2 | Shape.F32 -> 4 | Shape.F64 -> 8

(* F16 is a storage format only: f16 fields are computed in f32 registers,
   converting on load and rounding on store, so register pressure matches
   the f32 kernels exactly. *)
let prec_dtype = function Shape.F16 -> F32 | Shape.F32 -> F32 | Shape.F64 -> F64

(* base + site * scale as a u64 address register. *)
let byte_address e base site_reg ~scale =
  let s64 = Emitter.fresh e S64 in
  Emitter.emit e (Cvt { dst = s64; src = site_reg });
  let scaled = Emitter.fresh e S64 in
  Emitter.emit e (Mul { dtype = S64; dst = scaled; a = Reg s64; b = Imm_int scale });
  let u64 = Emitter.fresh e U64 in
  Emitter.emit e (Cvt { dst = u64; src = scaled });
  let addr = Emitter.fresh e U64 in
  Emitter.emit e (Add { dtype = U64; dst = addr; a = Reg base; b = Reg u64 });
  addr

let lower ?(optimize = true) ?provenance raw =
  Ptx.Validate.kernel raw;
  if optimize then begin
    let r = Ptx.Passes.run ?provenance raw in
    Ptx.Validate.kernel r.Ptx.Passes.kernel;
    (r.Ptx.Passes.kernel, r.Ptx.Passes.applied)
  end
  else (raw, [])

let build ?(optimize = true) ?(reduction = false) ~kname ~dest_shape ~(expr : Expr.t) ~nsites
    ~use_sitelist () =
  let e = Emitter.create ~kname in
  let leaves = Expr.leaves expr in
  let slot_of_field =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i (f : Field.t) -> Hashtbl.replace tbl f.Field.id i) leaves;
    fun (f : Field.t) -> Hashtbl.find tbl f.Field.id
  in
  let shift_dirs = Expr.shift_dirs expr in
  let scalar_params = Expr.params expr in
  (* Parameter plan; order here defines the launch-time binding order. *)
  let plan =
    ((if reduction then Red_partial else Dest) :: List.mapi (fun i _ -> Leaf_ptr i) leaves)
    @ List.map (fun (dim, dir) -> Ntable (dim, dir)) shift_dirs
    @ (if use_sitelist then [ Sitelist ] else [])
    @ [ N_work ]
    @ (if reduction then [ Block_partial ] else [])
    @ List.concat
        (List.mapi
           (fun slot (shape, _) ->
             List.init (Shape.dof shape) (fun comp -> Scalar_param (slot, comp)))
           scalar_params)
  in
  let param_regs =
    List.map
      (fun p ->
        let dtype, name =
          match p with
          | Dest -> (U64, "dest")
          | Red_partial -> (U64, "redpart")
          | Leaf_ptr i -> (U64, Printf.sprintf "leaf%d" i)
          | Ntable (dim, dir) -> (U64, Printf.sprintf "ntab%d%s" dim (if dir > 0 then "p" else "m"))
          | Sitelist -> (U64, "sitelist")
          | N_work -> (S32, "n_work")
          | Block_partial -> (U64, "blockpart")
          | Scalar_param (slot, comp) ->
              let shape, _ = List.nth scalar_params slot in
              (prec_dtype shape.Shape.prec, Printf.sprintf "scalar%d_%d" slot comp)
        in
        let index = Emitter.add_param e dtype name in
        let r = Emitter.fresh e dtype in
        Emitter.emit e (Ld_param { dst = r; param_index = index });
        (p, r))
      plan
  in
  let preg p = List.assoc p param_regs in
  (* Runtime scalar leaves are consumed in traversal order. *)
  let next_scalar = ref 0 in
  let take_scalar shape =
    let slot = !next_scalar in
    incr next_scalar;
    let data =
      Array.init (Shape.dof shape) (fun comp -> Jit_scalar.Vreg (preg (Scalar_param (slot, comp))))
    in
    JSite.of_array shape data
  in
  (* Thread index: idx = ctaid * ntid + tid. *)
  let tid = Emitter.fresh e S32 and ntid = Emitter.fresh e S32 and ctaid = Emitter.fresh e S32 in
  Emitter.emit e (Mov_sreg { dst = tid; src = Tid_x });
  Emitter.emit e (Mov_sreg { dst = ntid; src = Ntid_x });
  Emitter.emit e (Mov_sreg { dst = ctaid; src = Ctaid_x });
  let idx = Emitter.fresh e S32 in
  Emitter.emit e (Fma { dtype = S32; dst = idx; a = Reg ctaid; b = Reg ntid; c = Reg tid });
  (* Guard: threads beyond the work count exit. *)
  let exit_label = Emitter.fresh_label e "EXIT" in
  let p = Emitter.fresh e Pred in
  Emitter.emit e (Setp { cmp = Ge; dtype = S32; dst = p; a = Reg idx; b = Reg (preg N_work) });
  Emitter.emit e (Bra { label = exit_label; pred = Some p });
  (* Site index: straight thread index, or loaded from the site list. *)
  let site0 =
    if use_sitelist then begin
      let addr = byte_address e (preg Sitelist) idx ~scale:4 in
      let s = Emitter.fresh e S32 in
      Emitter.emit e (Ld_global { dtype = S32; dst = s; addr; offset = 0 });
      s
    end
    else idx
  in
  (* Memoised shifted-site registers, keyed by (site reg, dim, dir). *)
  let shifted = Hashtbl.create 8 in
  let shift_site site ~dim ~dir =
    match Hashtbl.find_opt shifted (site.id, dim, dir) with
    | Some s -> s
    | None ->
        let addr = byte_address e (preg (Ntable (dim, dir))) site ~scale:4 in
        let s = Emitter.fresh e S32 in
        Emitter.emit e (Ld_global { dtype = S32; dst = s; addr; offset = 0 });
        Hashtbl.replace shifted (site.id, dim, dir) s;
        s
  in
  (* Memoised per-(field slot, site reg) byte addresses. *)
  let leaf_addr = Hashtbl.create 8 in
  let field_address ~base ~prec site =
    match Hashtbl.find_opt leaf_addr (base.id, site.id) with
    | Some a -> a
    | None ->
        let a = byte_address e base site ~scale:(elem_bytes prec) in
        Hashtbl.replace leaf_addr (base.id, site.id) a;
        a
  in
  (* Load every component of a field element as a site value (the JIT data
     view): component (s,c,r) lives at SoA word ((r*IC+c)*IS+s)*nsites. *)
  let load_leaf (f : Field.t) site =
    let shape = f.Field.shape in
    let prec = shape.Shape.prec in
    let base = preg (Leaf_ptr (slot_of_field f)) in
    let addr = field_address ~base ~prec site in
    let dof = Shape.dof shape in
    let is_ = Shape.spin_extent shape.Shape.spin in
    let ic = Shape.color_extent shape.Shape.color in
    ignore is_;
    let data =
      Array.init dof (fun lin ->
          let s, c, r = Index.component_of_linear shape lin in
          let word = ((((r * ic) + c) * Shape.spin_extent shape.Shape.spin) + s) * nsites in
          let dst = Emitter.fresh e (prec_dtype prec) in
          (match prec with
          | Shape.F16 ->
              Emitter.emit e (Ld_global_f16 { dst; addr; offset = word * elem_bytes prec })
          | Shape.F32 | Shape.F64 ->
              Emitter.emit e
                (Ld_global { dtype = prec_dtype prec; dst; addr; offset = word * elem_bytes prec }));
          Jit_scalar.Vreg dst)
    in
    JSite.of_array shape data
  in
  let rec gen (expr : Expr.t) site : JSite.value =
    match expr with
    | Expr.Leaf f -> load_leaf f site
    | Expr.Const (s, v, _) -> JSite.of_floats s v
    | Expr.Param (s, _) -> take_scalar s
    | Expr.Unary (op, sub, _) -> (
        let v = gen sub site in
        match op with
        | Expr.Neg -> JSite.neg v
        | Expr.Conj -> JSite.conj v
        | Expr.Adj -> JSite.adj v
        | Expr.Transpose -> JSite.transpose v
        | Expr.Times_i -> JSite.times_i v
        | Expr.Trace_color -> JSite.trace_color v
        | Expr.Trace_spin -> JSite.trace_spin v
        | Expr.Real -> JSite.real v
        | Expr.Imag -> JSite.imag v
        | Expr.Norm2_local -> JSite.norm2_local v
        | Expr.Compress -> JSite.compress v
        | Expr.Reconstruct -> JSite.reconstruct v)
    | Expr.Binary (op, a, b, _) -> (
        let va = gen a site and vb = gen b site in
        match op with
        | Expr.Add -> JSite.add va vb
        | Expr.Sub -> JSite.sub va vb
        | Expr.Mul -> JSite.mul va vb
        | Expr.Outer_color -> JSite.outer_color va vb
        | Expr.Inner_local -> JSite.inner_local va vb)
    | Expr.Shift (sub, dim, dir) -> gen sub (shift_site site ~dim ~dir)
    | Expr.Clover (diag, tri, psi) ->
        JSite.clover_apply ~diag:(gen diag site) ~tri:(gen tri site) (gen psi site)
  in
  let kernel =
    Jit_scalar.with_emitter e (fun () ->
        let value = gen expr site0 in
        (* Store to the destination (rounding across precision at the store,
           Sec. III-D). *)
        let prec = dest_shape.Shape.prec in
        let base = preg (if reduction then Red_partial else Dest) in
        (* Reduction kernels write compact work-item-indexed planes into the
           engine's partial scratch: partial[idx] rather than
           partial[site].  The in-kernel aggregation tail and the fold
           chain then never depend on the subset's site numbering, only on
           the work-item count. *)
        let dest_site = if reduction then idx else site0 in
        let addr = field_address ~base ~prec dest_site in
        let ic = Shape.color_extent dest_shape.Shape.color in
        let dof = Shape.dof dest_shape in
        let plane lin =
          let s, c, r = Index.component_of_linear dest_shape lin in
          (((r * ic) + c) * Shape.spin_extent dest_shape.Shape.spin) + s
        in
        for lin = 0 to dof - 1 do
          let word = plane lin * nsites in
          match prec with
          | Shape.F16 ->
              (* st.global.f16 rounds its source register — f32 or f64 —
                 directly to binary16 (one RNE rounding, as the hardware's
                 cvt.rn.f16.f32/f64 would).  Forcing the source through a
                 Cvt to f32 first would double-round f64 values, breaking
                 bit-exactness with [Eval_cpu]'s single rounding at the
                 store. *)
              let src = Jit_scalar.operand_native value.JSite.data.(lin) in
              Emitter.emit e (St_global_f16 { addr; offset = word * elem_bytes prec; src })
          | Shape.F32 | Shape.F64 ->
              let src = Jit_scalar.operand (prec_dtype prec) value.JSite.data.(lin) in
              Emitter.emit e
                (St_global
                   { dtype = prec_dtype prec; addr; offset = word * elem_bytes prec; src })
        done;
        if reduction then begin
          (* The engine promotes every reduction destination to f64; the
             aggregation tail re-reads its own partials with plain typed
             loads, which have no f16 form. *)
          if prec = Shape.F16 then invalid_arg "Codegen.build: f16 reduction destination";
          (* In-kernel block aggregation: the last thread of each group of 8
             work items (or the final thread of a short tail) re-reads the 8
             just-written partials and stores their balanced-tree sum into
             the per-block buffer.  The VM executes threads sequentially in
             increasing idx order, so the group's stores are visible; the
             radix is fixed at 8 regardless of launch block size, keeping
             the value independent of the autotuner's choice. *)
          let dt = prec_dtype prec in
          let eb = elem_bytes prec in
          let bstride = (nsites + 7) / 8 in
          let nwork = preg N_work in
          let blk = Emitter.fresh e S32 in
          Emitter.emit e (Div { dtype = S32; dst = blk; a = Reg idx; b = Imm_int 8 });
          let base8 = Emitter.fresh e S32 in
          Emitter.emit e (Mul { dtype = S32; dst = base8; a = Reg blk; b = Imm_int 8 });
          let rem = Emitter.fresh e S32 in
          Emitter.emit e (Sub { dtype = S32; dst = rem; a = Reg idx; b = Reg base8 });
          let agg_label = Emitter.fresh_label e "AGG" in
          let p7 = Emitter.fresh e Pred in
          Emitter.emit e (Setp { cmp = Eq; dtype = S32; dst = p7; a = Reg rem; b = Imm_int 7 });
          Emitter.emit e (Bra { label = agg_label; pred = Some p7 });
          let nwm1 = Emitter.fresh e S32 in
          Emitter.emit e (Sub { dtype = S32; dst = nwm1; a = Reg nwork; b = Imm_int 1 });
          let plast = Emitter.fresh e Pred in
          Emitter.emit e (Setp { cmp = Eq; dtype = S32; dst = plast; a = Reg idx; b = Reg nwm1 });
          Emitter.emit e (Bra { label = agg_label; pred = Some plast });
          Emitter.emit e (Bra { label = exit_label; pred = None });
          Emitter.emit e (Label agg_label);
          (* Address chains and bounds predicates hoisted unconditionally so
             every CFG path defines them; only the loads are guarded. *)
          let baddr = byte_address e (preg Block_partial) blk ~scale:eb in
          let elems =
            Array.init 8 (fun j ->
                let ij =
                  if j = 0 then base8
                  else begin
                    let r = Emitter.fresh e S32 in
                    Emitter.emit e (Add { dtype = S32; dst = r; a = Reg base8; b = Imm_int j });
                    r
                  end
                in
                let eaddr = byte_address e base ij ~scale:eb in
                let oob = Emitter.fresh e Pred in
                Emitter.emit e
                  (Setp { cmp = Ge; dtype = S32; dst = oob; a = Reg ij; b = Reg nwork });
                (eaddr, oob))
          in
          for lin = 0 to dof - 1 do
            let word = plane lin * nsites in
            let xs =
              Array.map
                (fun (eaddr, oob) ->
                  (* Guarded load: x = in-bounds ? partial[i] : 0.  The Mov
                     marks x multi-def, which provenance reports to CSE. *)
                  let x = Emitter.fresh e dt in
                  Emitter.emit e (Mov { dst = x; src = Imm_float 0.0 });
                  let skip = Emitter.fresh_label e "PAD" in
                  Emitter.emit e (Bra { label = skip; pred = Some oob });
                  Emitter.emit e
                    (Ld_global { dtype = dt; dst = x; addr = eaddr; offset = word * eb });
                  Emitter.emit e (Label skip);
                  x)
                elems
            in
            let add a b =
              let d = Emitter.fresh e dt in
              Emitter.emit e (Add { dtype = dt; dst = d; a = Reg a; b = Reg b });
              d
            in
            (* Balanced tree, matching the radix-8 fold kernel exactly. *)
            let s01 = add xs.(0) xs.(1)
            and s23 = add xs.(2) xs.(3)
            and s45 = add xs.(4) xs.(5)
            and s67 = add xs.(6) xs.(7) in
            let q0 = add s01 s23 and q1 = add s45 s67 in
            let total = add q0 q1 in
            Emitter.emit e
              (St_global
                 { dtype = dt; addr = baddr; offset = plane lin * bstride * eb; src = Reg total })
          done
        end;
        Emitter.emit e (Label exit_label);
        Emitter.emit e Ret;
        Emitter.finish e)
  in
  (* The raw stream is what the paper's unparser hands the driver:
     dead-component loads stripped (that has always happened at emission),
     everything else naive.  The middle-end then runs on top, with the
     emitter's provenance as the CSE soundness certificate. *)
  let raw = Emitter.eliminate_dead_code kernel in
  let kernel, passes = lower ~optimize ~provenance:(Emitter.provenance e) raw in
  { kernel; raw; plan; passes }
