(* The parallel pre-decoded VM must be invisible to results: any worker
   count (including the sequential w=1 sweep) has to produce
   bit-identical fields and reductions, and faults raised inside worker
   domains must surface deterministically on the launching thread,
   enriched with kernel name, ctaid and tid.

   The lattice here is 8x8x4x4 = 1024 sites, on purpose: launches reach
   the VM's small-launch threshold (1024 threads), so multi-worker
   engines really execute across domains instead of quietly running
   sequentially. *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr
module Engine = Qdpjit.Engine
module Device = Gpusim.Device
module Machine = Gpusim.Machine
module Jit = Gpusim.Jit
module Buffer_ = Gpusim.Buffer

let geom = Geometry.create [| 8; 8; 4; 4 |]
let fm = Shape.lattice_fermion Shape.F64

(* Signed zeros: same convention as test_fusion — the CPU reference
   accumulates through fma from +0.0, the VM multiplies directly, both
   are correct real arithmetic.  VM-vs-VM comparisons stay strict. *)
let bits ~canon_zero v = if canon_zero && v = 0.0 then 0L else Int64.bits_of_float v

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

(* Shared engines, one per worker count.  w=1 is the sequential sweep
   the others must match bit-for-bit. *)
let engines =
  [
    (1, Engine.create ~vm_domains:1 ());
    (2, Engine.create ~vm_domains:2 ());
    (4, Engine.create ~vm_domains:4 ());
    (8, Engine.create ~vm_domains:8 ());
  ]

(* The oracle engine: its device drains every queue on the scalar
   reference interpreter ([Vm.run_reference]). *)
let reference_engine = Engine.create ~mode:Device.Reference ~vm_domains:1 ()

let run_jit eng seed prog =
  let pool = fresh_pool seed 4 in
  List.iter (fun op -> Engine.eval eng pool.(op_dest op) (op_expr pool op)) prog;
  Engine.flush eng;
  pool

let run_cpu seed prog =
  let pool = fresh_pool seed 4 in
  List.iter (fun op -> Qdp.Eval_cpu.eval pool.(op_dest op) (op_expr pool op)) prog;
  pool

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

let beq a b = Int64.bits_of_float a = Int64.bits_of_float b
let ceq a b = bits ~canon_zero:true a = bits ~canon_zero:true b

let qcheck_worker_counts =
  QCheck.Test.make ~count:20 ~name:"random kernels: 1 = 2 = 4 = 8 workers = cpu (bit)" arb_prog
    (fun prog ->
      let p1 = run_jit (List.assoc 1 engines) 7L prog in
      let p2 = run_jit (List.assoc 2 engines) 7L prog in
      let p4 = run_jit (List.assoc 4 engines) 7L prog in
      let p8 = run_jit (List.assoc 8 engines) 7L prog in
      let pc = run_cpu 7L prog in
      let equal ~canon_zero a b =
        let ok = ref true in
        for site = 0 to Field.volume a - 1 do
          let sa = Field.get_site a ~site and sb = Field.get_site b ~site in
          Array.iteri
            (fun i v -> if bits ~canon_zero v <> bits ~canon_zero sb.(i) then ok := false)
            sa
        done;
        !ok
      in
      Array.for_all2 (equal ~canon_zero:false) p1 p2
      && Array.for_all2 (equal ~canon_zero:false) p1 p4
      && Array.for_all2 (equal ~canon_zero:false) p1 p8
      && Array.for_all2 (equal ~canon_zero:true) p1 pc)

let qcheck_reductions =
  QCheck.Test.make ~count:15 ~name:"random chains + norm2/inner: all worker counts bit-equal"
    arb_prog (fun prog ->
      let run eng =
        let pool = run_jit eng 13L prog in
        let n = Engine.norm2 eng (Expr.sub (Expr.field pool.(0)) (Expr.field pool.(1))) in
        let re, im = Engine.inner eng (Expr.field pool.(2)) (Expr.field pool.(3)) in
        (n, re, im)
      in
      let n1, r1, i1 = run (List.assoc 1 engines) in
      let n2, r2, i2 = run (List.assoc 2 engines) in
      let n4, r4, i4 = run (List.assoc 4 engines) in
      let pc = run_cpu 13L prog in
      let nc = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field pc.(0)) (Expr.field pc.(1))) in
      let rc, ic = Qdp.Eval_cpu.inner (Expr.field pc.(2)) (Expr.field pc.(3)) in
      beq n1 n2 && beq n1 n4 && beq r1 r2 && beq r1 r4 && beq i1 i2 && beq i1 i4 && ceq n1 nc
      && ceq r1 rc && ceq i1 ic)

(* ------------------------------------------------------------------ *)
(* Superinstruction (SoA) executor against the scalar reference: a
   [Reference] device must be indistinguishable from the runtime — same
   bits, same faults — at every worker count. *)

let qcheck_superinsn_onoff =
  QCheck.Test.make ~count:15
    ~name:"superinstructions on/off: bit-identical at 1/2/4/8 workers" arb_prog (fun prog ->
      let off = run_jit reference_engine 29L prog in
      let equal a b =
        let ok = ref true in
        for site = 0 to Field.volume a - 1 do
          let sa = Field.get_site a ~site and sb = Field.get_site b ~site in
          Array.iteri
            (fun i v ->
              if Int64.bits_of_float v <> Int64.bits_of_float sb.(i) then ok := false)
            sa
        done;
        !ok
      in
      List.for_all
        (fun w ->
          let on = run_jit (List.assoc w engines) 29L prog in
          Array.for_all2 equal off on)
        [ 1; 2; 4; 8 ])

(* ------------------------------------------------------------------ *)
(* Faults: raised in worker domains, reported on the launching thread *)

(* Same shape as test_gpusim's daxpy, but an integer divide whose
   divisor is loaded per thread: planting zeros in chosen sites faults
   chosen (ctaid, tid) pairs only. *)
let divk_text =
  {|
.version 3.1
.target sm_35
.address_size 64

.visible .entry divk(
	.param .u64 divk_param_0,
	.param .u64 divk_param_1,
	.param .s32 divk_param_2
)
{
	ld.param.u64 	%rd1, [divk_param_0];
	ld.param.u64 	%rd2, [divk_param_1];
	ld.param.s32 	%r1, [divk_param_2];
	mov.u32 	%r2, %tid.x;
	mov.u32 	%r3, %ntid.x;
	mov.u32 	%r4, %ctaid.x;
	mad.lo.s32 	%r5, %r4, %r3, %r2;
	setp.ge.s32 	%p1, %r5, %r1;
	@%p1 bra 	EXIT;
	mul.lo.s32 	%r6, %r5, 4;
	cvt.s64.s32 	%rs1, %r6;
	cvt.u64.s64 	%rd3, %rs1;
	add.u64 	%rd4, %rd1, %rd3;
	add.u64 	%rd5, %rd2, %rd3;
	ld.global.s32 	%r7, [%rd4+0];
	div.s32 	%r8, %r1, %r7;
	st.global.s32 	[%rd5+0], %r8;
EXIT:
	ret;
}
|}

let n_threads = 2048
let block = 128

(* Issue a launch and drain the device's queue, so the kernel has run
   (or raised its fault) when this returns. *)
let launch dev compiled ~nthreads ~block ~params =
  let ns = Device.execute dev compiled ~nthreads ~block ~params in
  Device.flush_batch dev;
  ns

(* Fill x with 1 except zeros at [sites]; launch and return the fault. *)
let launch_divk ?(mode = Device.Functional) ~vm_domains ~zero_sites () =
  let dev = Device.create ~mode ~vm_domains Machine.k20x_ecc_off in
  let x = Device.alloc_i32 dev n_threads and y = Device.alloc_i32 dev n_threads in
  (match x.Buffer_.data with
  | Buffer_.I32 xa ->
      Bigarray.Array1.fill xa 1l;
      List.iter (fun s -> xa.{s} <- 0l) zero_sites
  | _ -> assert false);
  let compiled = Jit.compile divk_text in
  match
    launch dev compiled ~nthreads:n_threads ~block
      ~params:[| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Int n_threads |]
  with
  | exception Gpusim.Vm.Fault msg -> Some msg
  | _ -> None

let contains msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

let check_fault what msg_opt =
  match msg_opt with
  | None -> Alcotest.failf "%s: launch did not fault" what
  | Some msg ->
      List.iter
        (fun sub ->
          if not (contains msg sub) then
            Alcotest.failf "%s: fault %S does not mention %S" what msg sub)
        [ "integer division by zero"; "kernel divk"; "ctaid 4"; "tid 88" ];
      msg |> ignore

(* Sites 600 and 1600 sit in different worker spans at 4 workers (ctas
   4-7 and 12-15 of 16); neither belongs to worker 0, which runs on the
   calling thread.  The fault must still surface here, and the lower
   (ctaid, tid) — site 600 = (4, 88) — must win, exactly as the
   sequential sweep reports it. *)
let test_fault_from_worker_domain () =
  check_fault "parallel" (launch_divk ~vm_domains:4 ~zero_sites:[ 1600; 600 ] ())

let test_fault_deterministic_across_workers () =
  let seq = launch_divk ~vm_domains:1 ~zero_sites:[ 1600; 600 ] () in
  let par = launch_divk ~vm_domains:4 ~zero_sites:[ 1600; 600 ] () in
  check_fault "sequential" seq;
  match (seq, par) with
  | Some a, Some b -> Alcotest.(check string) "same fault either way" a b
  | _ -> Alcotest.fail "expected faults from both launches"

let test_fault_names_first_thread () =
  (* Every thread faults: the report must still be the deterministic
     (ctaid 0, tid 0), kernel name included. *)
  match launch_divk ~vm_domains:4 ~zero_sites:(List.init n_threads Fun.id) () with
  | None -> Alcotest.fail "all-zero divisors did not fault"
  | Some msg ->
      List.iter
        (fun sub ->
          if not (contains msg sub) then
            Alcotest.failf "fault %S does not mention %S" msg sub)
        [ "kernel divk"; "ctaid 0"; "tid 0" ]

(* ------------------------------------------------------------------ *)
(* Batched launch sweeps: random chains of dependent and independent
   launches drained as one queue must match the sequential schedule
   that drains after every launch bit-for-bit at every worker count, and
   a faulting batch must report the lowest (launch index, ctaid, tid)
   with the exact message the sequential sweep raises. *)

(* y[i] = x[i] + c — the streaming sibling of divk; chaining adds over
   the buffer pool manufactures RAW/WAW/WAR edges between launches, and
   an add that lands on 0 plants a divisor for a later divk fault. *)
let addk_text =
  {|
.version 3.1
.target sm_35
.address_size 64

.visible .entry addk(
	.param .u64 addk_param_0,
	.param .u64 addk_param_1,
	.param .s32 addk_param_2,
	.param .s32 addk_param_3
)
{
	ld.param.u64 	%rd1, [addk_param_0];
	ld.param.u64 	%rd2, [addk_param_1];
	ld.param.s32 	%r1, [addk_param_2];
	ld.param.s32 	%r9, [addk_param_3];
	mov.u32 	%r2, %tid.x;
	mov.u32 	%r3, %ntid.x;
	mov.u32 	%r4, %ctaid.x;
	mad.lo.s32 	%r5, %r4, %r3, %r2;
	setp.ge.s32 	%p1, %r5, %r1;
	@%p1 bra 	EXIT;
	mul.lo.s32 	%r6, %r5, 4;
	cvt.s64.s32 	%rs1, %r6;
	cvt.u64.s64 	%rd3, %rs1;
	add.u64 	%rd4, %rd1, %rd3;
	add.u64 	%rd5, %rd2, %rd3;
	ld.global.s32 	%r7, [%rd4+0];
	add.s32 	%r8, %r7, %r9;
	st.global.s32 	[%rd5+0], %r8;
EXIT:
	ret;
}
|}

(* y[i] = 16 x[i] + 136, as sixteen terms x[i] + k that are all live
   at once before a sum chain consumes them: its integer registers run
   well past the handful addk and divk allocate, over the rows where
   those two keep their constant pools.  Register files are shared by
   every program a domain runs, so alternating bigk with addk/divk only
   stays exact if each span re-installs its own pools. *)
let bigk_text =
  let terms =
    List.init 16 (fun k -> Printf.sprintf "\tadd.s32 \t%%r%d, %%r7, %d;" (10 + k) (k + 1))
  in
  let sums =
    List.init 15 (fun k ->
        Printf.sprintf "\tadd.s32 \t%%r%d, %%r%d, %%r%d;" (30 + k)
          (if k = 0 then 10 else 29 + k)
          (11 + k))
  in
  String.concat "\n"
    ([
       ".version 3.1";
       ".target sm_35";
       ".address_size 64";
       ".visible .entry bigk(";
       "\t.param .u64 bigk_param_0,";
       "\t.param .u64 bigk_param_1,";
       "\t.param .s32 bigk_param_2";
       ")";
       "{";
       "\tld.param.u64 \t%rd1, [bigk_param_0];";
       "\tld.param.u64 \t%rd2, [bigk_param_1];";
       "\tld.param.s32 \t%r1, [bigk_param_2];";
       "\tmov.u32 \t%r2, %tid.x;";
       "\tmov.u32 \t%r3, %ntid.x;";
       "\tmov.u32 \t%r4, %ctaid.x;";
       "\tmad.lo.s32 \t%r5, %r4, %r3, %r2;";
       "\tsetp.ge.s32 \t%p1, %r5, %r1;";
       "\t@%p1 bra \tEXIT;";
       "\tmul.lo.s32 \t%r6, %r5, 4;";
       "\tcvt.s64.s32 \t%rs1, %r6;";
       "\tcvt.u64.s64 \t%rd3, %rs1;";
       "\tadd.u64 \t%rd4, %rd1, %rd3;";
       "\tadd.u64 \t%rd5, %rd2, %rd3;";
       "\tld.global.s32 \t%r7, [%rd4+0];";
     ]
    @ terms @ sums
    @ [ "\tst.global.s32 \t[%rd5+0], %r44;"; "EXIT:"; "\tret;"; "}" ])

(* y[i] = n / x[idx[i]], the source loaded through an index table: the
   address derives from loaded data, so the load has Gather class.  Run
   in place (x = y) the safety analysis rejects it — a stored buffer is
   also gathered — and its result depends on the (cta, tid) order: with
   idx[i] = i xor 1, an odd site divides by its even partner's *new*
   value, which the sequential sweep has already written. *)
let gatk_text =
  {|
.version 3.1
.target sm_35
.address_size 64

.visible .entry gatk(
	.param .u64 gatk_param_0,
	.param .u64 gatk_param_1,
	.param .u64 gatk_param_2,
	.param .s32 gatk_param_3
)
{
	ld.param.u64 	%rd1, [gatk_param_0];
	ld.param.u64 	%rd2, [gatk_param_1];
	ld.param.u64 	%rd6, [gatk_param_2];
	ld.param.s32 	%r1, [gatk_param_3];
	mov.u32 	%r2, %tid.x;
	mov.u32 	%r3, %ntid.x;
	mov.u32 	%r4, %ctaid.x;
	mad.lo.s32 	%r5, %r4, %r3, %r2;
	setp.ge.s32 	%p1, %r5, %r1;
	@%p1 bra 	EXIT;
	mul.lo.s32 	%r6, %r5, 4;
	cvt.s64.s32 	%rs1, %r6;
	cvt.u64.s64 	%rd3, %rs1;
	add.u64 	%rd7, %rd6, %rd3;
	ld.global.s32 	%r7, [%rd7+0];
	mul.lo.s32 	%r8, %r7, 4;
	cvt.s64.s32 	%rs2, %r8;
	cvt.u64.s64 	%rd8, %rs2;
	add.u64 	%rd4, %rd1, %rd8;
	ld.global.s32 	%r9, [%rd4+0];
	div.s32 	%r10, %r1, %r9;
	add.u64 	%rd5, %rd2, %rd3;
	st.global.s32 	[%rd5+0], %r10;
EXIT:
	ret;
}
|}

let addk_compiled = lazy (Jit.compile addk_text)
let divk_compiled = lazy (Jit.compile divk_text)
let bigk_compiled = lazy (Jit.compile bigk_text)
let gatk_compiled = lazy (Jit.compile gatk_text)

type bkind = Badd of int | Bdiv | Bbig | Bgat
type blaunch = { bl_dst : int; bl_src : int; bl_kind : bkind }

let npool = 4

(* Zero-free seed data in [-11, -3]; only add-chains can manufacture a
   zero divisor, so random programs mix faulting and clean sweeps. *)
let fill_pool bufs =
  Array.iteri
    (fun b buf ->
      match buf.Buffer_.data with
      | Buffer_.I32 a ->
          for i = 0 to n_threads - 1 do
            a.{i} <- Int32.of_int ((i * (b + 3) mod 9) - 11)
          done
      | _ -> assert false)
    bufs

let snapshot buf =
  match buf.Buffer_.data with
  | Buffer_.I32 a -> Array.init n_threads (fun i -> a.{i})
  | _ -> assert false

let run_batch_prog ?(mode = Device.Functional) ~vm_domains ~batched prog =
  let dev = Device.create ~mode ~vm_domains Machine.k20x_ecc_off in
  let bufs = Array.init npool (fun _ -> Device.alloc_i32 dev n_threads) in
  fill_pool bufs;
  let idx = Device.alloc_i32 dev n_threads in
  (match idx.Buffer_.data with
  | Buffer_.I32 a ->
      for i = 0 to n_threads - 1 do
        a.{i} <- Int32.of_int (i lxor 1)
      done
  | _ -> assert false);
  let go l =
    let x = Gpusim.Vm.Ptr bufs.(l.bl_src) and y = Gpusim.Vm.Ptr bufs.(l.bl_dst) in
    ignore
      (match l.bl_kind with
      | Badd c ->
          Device.execute dev (Lazy.force addk_compiled) ~nthreads:n_threads ~block
            ~params:[| x; y; Gpusim.Vm.Int n_threads; Gpusim.Vm.Int c |]
      | Bdiv ->
          Device.execute dev (Lazy.force divk_compiled) ~nthreads:n_threads ~block
            ~params:[| x; y; Gpusim.Vm.Int n_threads |]
      | Bbig ->
          Device.execute dev (Lazy.force bigk_compiled) ~nthreads:n_threads ~block
            ~params:[| x; y; Gpusim.Vm.Int n_threads |]
      | Bgat ->
          let c = Lazy.force gatk_compiled in
          let params = [| x; y; Gpusim.Vm.Ptr idx; Gpusim.Vm.Int n_threads |] in
          (* In place, the launch must take the one-lane path; otherwise
             it splits and runs 64-lane like the streaming kernels. *)
          let par = Gpusim.Vm.parallelizable c.Jit.program ~params in
          if par = (l.bl_dst = l.bl_src) then
            failwith (Printf.sprintf "gatk b%d <- b%d: parallelizable = %b" l.bl_dst l.bl_src par);
          Device.execute dev c ~nthreads:n_threads ~block ~params)
  in
  match
    if batched then begin
      List.iter go prog;
      Device.flush_batch dev
    end
    else
      List.iter
        (fun l ->
          go l;
          Device.flush_batch dev)
        prog
  with
  | () -> (None, Some (Array.map snapshot bufs))
  | exception Gpusim.Vm.Fault m ->
      (* After a fault only the fault identity is specified (launches
         past the faulting index may or may not have run). *)
      (Some m, None)

let show_blaunch l =
  match l.bl_kind with
  | Badd c -> Printf.sprintf "b%d = b%d + %d" l.bl_dst l.bl_src c
  | Bdiv -> Printf.sprintf "b%d = n / b%d" l.bl_dst l.bl_src
  | Bbig -> Printf.sprintf "b%d = 16 b%d + 136" l.bl_dst l.bl_src
  | Bgat -> Printf.sprintf "b%d = n / b%d[i xor 1]" l.bl_dst l.bl_src

(* A fault-free chain where every launch reads the previous one's
   output, alternating bigk with the small kernels, so at one worker
   the domain's register rows pass from program to program on every
   launch.  The batch generator draws it one time in four. *)
let alternating =
  List.map
    (fun (d, s, k) -> { bl_dst = d; bl_src = s; bl_kind = k })
    [
      (1, 0, Badd 3); (2, 1, Bbig); (3, 2, Badd 5); (0, 3, Bbig);
      (1, 0, Bdiv); (2, 1, Bbig); (3, 2, Badd (-4)); (0, 3, Bbig);
    ]

(* An in-place gather that faults inside its rejected launch: b1 + 3
   is zero exactly at sites 9k + 2, so the sequential sweep first
   divides by zero at tid 10 (reading site 11), where 64-lane lock-step
   would already fault at tid 3 (reading site 2 before tid 2 rewrites
   it).  The batch generator draws it one time in eight. *)
let in_place_gather_fault =
  [ { bl_dst = 1; bl_src = 1; bl_kind = Badd 3 }; { bl_dst = 1; bl_src = 1; bl_kind = Bgat } ]

let arb_batch_prog =
  let gen =
    QCheck.Gen.(
      let idx = int_range 0 (npool - 1) in
      let kind =
        oneof
          [
            map (fun c -> Badd c) (oneofl [ 3; 5; -4; 11; 0 ]);
            return Bdiv;
            return Bbig;
            return Bgat;
          ]
      in
      frequency
        [
          (2, return alternating);
          (1, return in_place_gather_fault);
          ( 5,
            list_size (int_range 2 10)
              (map3 (fun d s k -> { bl_dst = d; bl_src = s; bl_kind = k }) idx idx kind) );
        ])
  in
  QCheck.make ~print:(fun p -> String.concat "; " (List.map show_blaunch p)) gen

let qcheck_batched_sweeps =
  QCheck.Test.make ~count:30
    ~name:"batched sweeps: 1 = 2 = 4 = 8 workers = unbatched (contents and faults)"
    arb_batch_prog (fun prog ->
      let ref_fault, ref_bufs = run_batch_prog ~vm_domains:1 ~batched:false prog in
      List.for_all
        (fun w ->
          let fault, bufs = run_batch_prog ~vm_domains:w ~batched:true prog in
          match ((ref_fault, ref_bufs), (fault, bufs)) with
          | (None, Some rb), (None, Some b) ->
              Array.for_all2 (fun ra a -> ra = a) rb b
          | (Some rm, None), (Some m, None) -> rm = m
          | _ -> false)
        [ 1; 2; 4; 8 ])

(* The same random launch chains, batched on the runtime and on a
   [Reference] device, against the unbatched [Reference] device: buffer
   contents must match bit-for-bit and a faulting chain must report the
   exact same message — kernel name, ctaid and tid — at every worker
   count.  divk/addk/bigk and gatk between distinct buffers run 64-lane
   SoA tiles; gatk in place runs one-lane tiles. *)
let superinsn_agrees prog =
  let ref_fault, ref_bufs =
    run_batch_prog ~mode:Device.Reference ~vm_domains:1 ~batched:false prog
  in
  List.for_all
    (fun (mode, w) ->
      let fault, bufs = run_batch_prog ~mode ~vm_domains:w ~batched:true prog in
      match ((ref_fault, ref_bufs), (fault, bufs)) with
      | (None, Some rb), (None, Some b) -> Array.for_all2 (fun ra a -> ra = a) rb b
      | (Some rm, None), (Some m, None) -> rm = m
      | _ -> false)
    ((Device.Reference, 1) :: List.map (fun w -> (Device.Functional, w)) [ 1; 2; 4; 8 ])

let qcheck_superinsn_faults =
  QCheck.Test.make ~count:20
    ~name:
      "superinstructions on/off: identical contents and fault reports, Reference vs 1/2/4/8 \
       workers"
    arb_batch_prog superinsn_agrees

(* Two domains sweeping at once, each inline as its own worker 0 (the
   shape [Multi.par_ranks] gives concurrent ranks), both running addk
   between different partners: each must reproduce its sequential
   result every round.  Register files indexed by worker instead of by
   domain would have both domains writing one set of rows. *)
let test_concurrent_domains () =
  let adds = List.map (fun l -> { l with bl_kind = Badd 7 }) alternating in
  let progs = [| alternating; adds @ [ { bl_dst = 2; bl_src = 1; bl_kind = Bdiv } ] |] in
  ignore (Lazy.force addk_compiled, Lazy.force divk_compiled, Lazy.force bigk_compiled);
  let sequential = Array.map (run_batch_prog ~vm_domains:1 ~batched:true) progs in
  let rounds = 25 in
  let domains =
    Array.map
      (fun prog ->
        Domain.spawn (fun () ->
            List.init rounds (fun _ -> run_batch_prog ~vm_domains:1 ~batched:true prog)))
      progs
  in
  Array.iteri
    (fun i d ->
      List.iteri
        (fun r got ->
          if got <> sequential.(i) then
            Alcotest.failf "domain %d, round %d: differs from its sequential run" i r)
        (Domain.join d))
    domains

(* Two independent faulting launches (disjoint buffer pairs, so the
   sweep may genuinely overlap them): the batch must report launch 0's
   own lowest site — (ctaid 12, tid 64) — even though launch 1 faults
   at a lower (ctaid, tid), because the launch index dominates the
   batch-wide order.  The message must equal the sequential one. *)
let run_two_faults ~vm_domains ~batched =
  let dev = Device.create ~vm_domains Machine.k20x_ecc_off in
  let mkx zero =
    let b = Device.alloc_i32 dev n_threads in
    (match b.Buffer_.data with
    | Buffer_.I32 a ->
        Bigarray.Array1.fill a 1l;
        a.{zero} <- 0l
    | _ -> assert false);
    b
  in
  let x0 = mkx 1600 and x1 = mkx 600 in
  let y0 = Device.alloc_i32 dev n_threads and y1 = Device.alloc_i32 dev n_threads in
  let go x y =
    ignore
      (Device.execute dev (Lazy.force divk_compiled) ~nthreads:n_threads ~block
         ~params:[| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Int n_threads |])
  in
  match
    if batched then begin
      go x0 y0;
      go x1 y1;
      Device.flush_batch dev
    end
    else begin
      go x0 y0;
      Device.flush_batch dev;
      go x1 y1;
      Device.flush_batch dev
    end
  with
  | () -> None
  | exception Gpusim.Vm.Fault m -> Some m

let test_batched_two_faults () =
  match run_two_faults ~vm_domains:1 ~batched:false with
  | None -> Alcotest.fail "sequential reference did not fault"
  | Some seq ->
      List.iter
        (fun sub ->
          if not (contains seq sub) then
            Alcotest.failf "fault %S does not mention %S" seq sub)
        [ "kernel divk"; "ctaid 12"; "tid 64" ];
      List.iter
        (fun w ->
          match run_two_faults ~vm_domains:w ~batched:true with
          | None -> Alcotest.failf "batched sweep at %d workers did not fault" w
          | Some m -> Alcotest.(check string) (Printf.sprintf "fault at w=%d" w) seq m)
        [ 1; 2; 4; 8 ]

let test_divk_parallelizable () =
  (* The safety analysis must recognize the streaming access pattern —
     otherwise the fault tests above never leave the calling thread. *)
  let dev = Device.create Machine.k20x_ecc_off in
  let x = Device.alloc_i32 dev 8 and y = Device.alloc_i32 dev 8 in
  let compiled = Jit.compile divk_text in
  let params = [| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Int 8 |] in
  Alcotest.(check bool) "parallelizable" true
    (Gpusim.Vm.parallelizable compiled.Jit.program ~params);
  Alcotest.(check bool) "decoded" true
    (Gpusim.Vm.decoded_instructions compiled.Jit.program > 0)

(* ------------------------------------------------------------------ *)
(* Planner edge cases.  One hand-written kernel hits the unit-partition
   corners at once: single-instruction float ladder runs (a lone
   add.f64 / mul.f64 between heterogeneous neighbours), a mixed
   int/float chain truncated by a *data-dependent* exit branch (so
   lanes retire in scattered, non-prefix patterns), address arithmetic
   fused into memory-terminated units, and the chain straddling the
   two spans the second branch creates.  Per lane i:
     t = x[i]*c + i;  if t > thr then exit else y[i] = (t + x[i])^2 *)

let mixk_text =
  {|
.version 3.1
.target sm_35
.address_size 64

.visible .entry mixk(
	.param .u64 mixk_param_0,
	.param .u64 mixk_param_1,
	.param .s32 mixk_param_2,
	.param .f64 mixk_param_3,
	.param .f64 mixk_param_4
)
{
	ld.param.u64 	%rd1, [mixk_param_0];
	ld.param.u64 	%rd2, [mixk_param_1];
	ld.param.s32 	%r1, [mixk_param_2];
	ld.param.f64 	%fd1, [mixk_param_3];
	ld.param.f64 	%fd2, [mixk_param_4];
	mov.u32 	%r2, %tid.x;
	mov.u32 	%r3, %ntid.x;
	mov.u32 	%r4, %ctaid.x;
	mad.lo.s32 	%r5, %r4, %r3, %r2;
	setp.ge.s32 	%p1, %r5, %r1;
	@%p1 bra 	EXIT;
	mul.lo.s32 	%r6, %r5, 8;
	cvt.s64.s32 	%rs1, %r6;
	cvt.u64.s64 	%rd3, %rs1;
	add.u64 	%rd4, %rd1, %rd3;
	ld.global.f64 	%fd3, [%rd4+0];
	cvt.rn.f64.s32 	%fd4, %r5;
	fma.rn.f64 	%fd5, %fd3, %fd1, %fd4;
	setp.gt.f64 	%p2, %fd5, %fd2;
	@%p2 bra 	EXIT;
	add.f64 	%fd6, %fd5, %fd3;
	mul.f64 	%fd7, %fd6, %fd6;
	add.u64 	%rd5, %rd2, %rd3;
	st.global.f64 	[%rd5+0], %fd7;
EXIT:
	ret;
}
|}

let mixk_compiled = lazy (Jit.compile mixk_text)

let run_mixk ~mode ~vm_domains ~c ~thr =
  let dev = Device.create ~mode ~vm_domains Machine.k20x_ecc_off in
  let x = Device.alloc_f64 dev n_threads and y = Device.alloc_f64 dev n_threads in
  (match (x.Buffer_.data, y.Buffer_.data) with
  | Buffer_.F64 xa, Buffer_.F64 ya ->
      for i = 0 to n_threads - 1 do
        xa.{i} <- float_of_int ((i * 7 mod 23) - 11) *. 0.5;
        ya.{i} <- -1.0
      done
  | _ -> assert false);
  ignore
    (launch dev (Lazy.force mixk_compiled) ~nthreads:n_threads ~block
       ~params:
         [|
           Gpusim.Vm.Ptr x;
           Gpusim.Vm.Ptr y;
           Gpusim.Vm.Int n_threads;
           Gpusim.Vm.Float c;
           Gpusim.Vm.Float thr;
         |]);
  match y.Buffer_.data with
  | Buffer_.F64 ya -> Array.init n_threads (fun i -> Int64.bits_of_float ya.{i})
  | _ -> assert false

let arb_mixk =
  QCheck.make
    ~print:(fun (c, thr) -> Printf.sprintf "c=%g thr=%g" c thr)
    QCheck.Gen.(
      pair
        (oneofl [ 2.0; -0.75; 0.0; 13.5 ])
        (* neg_infinity retires every lane at the second branch,
           infinity none; the mid values leave scattered survivors *)
        (oneofl [ neg_infinity; 0.0; 64.0; 512.0; 1500.0; infinity ]))

let qcheck_mixk_bit_identity =
  QCheck.Test.make ~count:12
    ~name:"mixed-chain kernel: 1/2/4/8 workers = Reference, bit-identical" arb_mixk
    (fun (c, thr) ->
      let reference = run_mixk ~mode:Device.Reference ~vm_domains:1 ~c ~thr in
      List.for_all
        (fun w -> run_mixk ~mode:Device.Functional ~vm_domains:w ~c ~thr = reference)
        [ 1; 2; 4; 8 ])

let test_mixk_plan_shape () =
  let s = Gpusim.Vm.superinsn_stats (Lazy.force mixk_compiled).Jit.program in
  Alcotest.(check int) "decoded" 25 s.Gpusim.Vm.total;
  Alcotest.(check int) "spans" 3 s.Gpusim.Vm.spans;
  Alcotest.(check int) "covered" 22 s.Gpusim.Vm.covered;
  (* prologue chain | address chain + ld.g.f64 | cvt/fma/setp chain cut
     by the data-dependent exit branch | add/mul/add chain + st.g.f64 *)
  Alcotest.(check int) "units" 4 s.Gpusim.Vm.units

(* ------------------------------------------------------------------ *)
(* Deferred failure: a faulting launch issued on a stream raises nothing
   at issue; the host's next synchronize runs it and raises the plain
   [Vm.Fault] a launch drained on its own raises, and the device then
   runs a fresh launch correctly. *)

let test_fault_at_synchronize_then_reuse () =
  let sequential =
    match launch_divk ~vm_domains:1 ~zero_sites:[ 600 ] () with
    | Some m -> m
    | None -> Alcotest.fail "sequential reference did not fault"
  in
  let dev = Device.create ~vm_domains:2 Machine.k20x_ecc_off in
  let ctx = Streams.create dev in
  let s = Streams.default_stream ctx in
  let x = Device.alloc_i32 dev n_threads and y = Device.alloc_i32 dev n_threads in
  let xa, ya =
    match (x.Buffer_.data, y.Buffer_.data) with
    | Buffer_.I32 xa, Buffer_.I32 ya -> (xa, ya)
    | _ -> assert false
  in
  let divk () =
    ignore
      (Streams.launch ctx s (Lazy.force divk_compiled) ~nthreads:n_threads ~block
         ~params:[| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Int n_threads |])
  in
  Bigarray.Array1.fill xa 1l;
  xa.{600} <- 0l;
  (match divk () with
  | () -> ()
  | exception e -> Alcotest.failf "issue raised %s" (Printexc.to_string e));
  Alcotest.(check int32) "nothing ran at issue" 0l ya.{0};
  (match Streams.stream_synchronize ctx s with
  | _ -> Alcotest.fail "synchronize did not raise the queued fault"
  | exception Gpusim.Vm.Fault m -> Alcotest.(check string) "sequential message" sequential m
  | exception e -> Alcotest.failf "fault surfaced as %s" (Printexc.to_string e));
  Alcotest.(check int) "queue emptied" 0 (List.length dev.Device.batch);
  xa.{600} <- 1l;
  Bigarray.Array1.fill ya 0l;
  divk ();
  ignore (Streams.stream_synchronize ctx s);
  for i = 0 to n_threads - 1 do
    if ya.{i} <> Int32.of_int n_threads then
      Alcotest.failf "fresh launch: y[%d] = %ld after the fault" i ya.{i}
  done

(* ------------------------------------------------------------------ *)
(* Branch shapes on the SoA executor.  Two hand-written kernels cover
   the forward-branch forms lane parking handles, each with a per-lane
   division by zero on one arm:

     skipk:  q = -1; if d >= 0 then (w = z[i]; q = w / d);  y[i] = q
     diamk:  if d >= 0 then q = z[i] / d else q = d / z[i];  y[i] = q

   with d = x[i].  Blocks of 72 and 200 lanes end in a partial tile, and
   diamk's arms fault at different program points, so a lower lane
   parked on the later arm must still win over a higher lane that
   faulted first in lock-step. *)

let branch_kernel name body =
  Printf.sprintf
    {|
.version 3.1
.target sm_35
.address_size 64

.visible .entry %s(
	.param .u64 %s_param_0,
	.param .u64 %s_param_1,
	.param .u64 %s_param_2,
	.param .s32 %s_param_3
)
{
	ld.param.u64 	%%rd1, [%s_param_0];
	ld.param.u64 	%%rd2, [%s_param_1];
	ld.param.u64 	%%rd6, [%s_param_2];
	ld.param.s32 	%%r1, [%s_param_3];
	mov.u32 	%%r2, %%tid.x;
	mov.u32 	%%r3, %%ntid.x;
	mov.u32 	%%r4, %%ctaid.x;
	mad.lo.s32 	%%r5, %%r4, %%r3, %%r2;
	setp.ge.s32 	%%p1, %%r5, %%r1;
	@%%p1 bra 	EXIT;
	mul.lo.s32 	%%r6, %%r5, 4;
	cvt.s64.s32 	%%rs1, %%r6;
	cvt.u64.s64 	%%rd3, %%rs1;
	add.u64 	%%rd4, %%rd1, %%rd3;
	add.u64 	%%rd5, %%rd2, %%rd3;
	add.u64 	%%rd7, %%rd6, %%rd3;
	ld.global.s32 	%%r7, [%%rd4+0];
	setp.lt.s32 	%%p2, %%r7, 0;
%s
	st.global.s32 	[%%rd5+0], %%r8;
EXIT:
	ret;
}
|}
    name name name name name name name name name body

let skipk_compiled =
  lazy
    (Jit.compile
       (branch_kernel "skipk"
          {|	mov.s32 	%r8, -1;
	@%p2 bra 	SKIP;
	ld.global.s32 	%r9, [%rd7+0];
	div.s32 	%r8, %r9, %r7;
SKIP:|}))

let diamk_compiled =
  lazy
    (Jit.compile
       (branch_kernel "diamk"
          {|	ld.global.s32 	%r9, [%rd7+0];
	@%p2 bra 	ELSE;
	div.s32 	%r8, %r9, %r7;
	bra.uni 	JOIN;
ELSE:
	div.s32 	%r8, %r7, %r9;
JOIN:|}))

(* x: negative at multiples of 3, positive elsewhere; z: positive.
   [x_zeros] fault the d >= 0 arm, [z_zeros] diamk's other arm. *)
let run_branch_kernel compiled ~mode ~vm_domains ~block ~x_zeros ~z_zeros =
  let dev = Device.create ~mode ~vm_domains Machine.k20x_ecc_off in
  let buf () = Device.alloc_i32 dev n_threads in
  let x = buf () and y = buf () and z = buf () in
  (match (x.Buffer_.data, y.Buffer_.data, z.Buffer_.data) with
  | Buffer_.I32 xa, Buffer_.I32 ya, Buffer_.I32 za ->
      for i = 0 to n_threads - 1 do
        xa.{i} <- Int32.of_int (if i mod 3 = 0 then -1 - (i mod 7) else 1 + (i mod 5));
        za.{i} <- Int32.of_int (1 + (i mod 11));
        ya.{i} <- 0l
      done;
      List.iter (fun i -> xa.{i} <- 0l) x_zeros;
      List.iter (fun i -> za.{i} <- 0l) z_zeros
  | _ -> assert false);
  let params = [| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Ptr z; Gpusim.Vm.Int n_threads |] in
  match launch dev compiled ~nthreads:n_threads ~block ~params with
  | _ -> Ok (snapshot y)
  | exception Gpusim.Vm.Fault m -> Error m

let arb_branch_case =
  let site = QCheck.Gen.int_range 0 (n_threads - 1) in
  QCheck.make
    ~print:(fun (diamond, block, xz, zz) ->
      Printf.sprintf "%s block %d x_zeros [%s] z_zeros [%s]"
        (if diamond then "diamk" else "skipk")
        block
        (String.concat "; " (List.map string_of_int xz))
        (String.concat "; " (List.map string_of_int zz)))
    QCheck.Gen.(
      quad bool (oneofl [ 72; 200 ])
        (list_size (int_range 0 2) site)
        (list_size (int_range 0 2) site))

let qcheck_branch_shapes =
  QCheck.Test.make ~count:12
    ~name:"skip/diamond kernels: executor = Reference at 1/2/4/8 workers" arb_branch_case
    (fun (diamond, block, x_zeros, z_zeros) ->
      let compiled = Lazy.force (if diamond then diamk_compiled else skipk_compiled) in
      let run ~mode ~vm_domains =
        run_branch_kernel compiled ~mode ~vm_domains ~block ~x_zeros ~z_zeros
      in
      let reference = run ~mode:Device.Reference ~vm_domains:1 in
      List.for_all (fun w -> run ~mode:Device.Functional ~vm_domains:w = reference) [ 1; 2; 4; 8 ])

let test_parked_lane_fault_wins () =
  (* Lane 129 (x < 0) parks at ELSE and faults there on z = 0; lane 131
     faults earlier in lock-step on the other arm (x = 0).  The scalar
     sweep reaches 129 first, so 129 must be reported. *)
  let compiled = Lazy.force diamk_compiled in
  Alcotest.(check bool) "diamk runs on the SoA executor" true
    (let dev = Device.create Machine.k20x_ecc_off in
     let b () = Gpusim.Vm.Ptr (Device.alloc_i32 dev 8) in
     Gpusim.Vm.parallelizable compiled.Jit.program
       ~params:[| b (); b (); b (); Gpusim.Vm.Int 8 |]);
  List.iter
    (fun (block, where) ->
      List.iter
        (fun mode ->
          match
            run_branch_kernel compiled ~mode ~vm_domains:2 ~block ~x_zeros:[ 131 ]
              ~z_zeros:[ 129 ]
          with
          | Ok _ -> Alcotest.fail "diamk did not fault"
          | Error m ->
              if not (contains m where) then
                Alcotest.failf "block %d: fault %S does not name %S" block m where)
        [ Device.Reference; Device.Functional ])
    [ (72, "ctaid 1, tid 57"); (200, "ctaid 0, tid 129") ]

(* ------------------------------------------------------------------ *)
(* Register allocation.  [Vm.allocate_registers] is the map [Vm.compile]
   applies.  The check here does not lean on the allocator's interval
   argument: it runs [Ptx.Dataflow] liveness on the real control-flow
   graph and requires that no two registers of one file live at the
   same point share a slot, and that no definition writes a slot held
   by another register live past it. *)

let reg_file t = if Ptx.Types.is_float t then 0 else if Ptx.Types.is_int t then 1 else 2

(* The first clash in [k]'s allocation, as a message; [None] if sound. *)
let allocation_clash (k : Ptx.Types.kernel) =
  let a = Gpusim.Vm.allocate_registers k in
  let slot_of ((t, id) : Ptx.Dataflow.key) =
    (reg_file t, Gpusim.Vm.slot a { Ptx.Types.rtype = t; id })
  in
  let name (t, id) = Ptx.Types.reg_name { Ptx.Types.rtype = t; id } in
  let body = Array.of_list k.Ptx.Types.body in
  let blocks, _ = Ptx.Dataflow.blocks body in
  let _, live_out = Ptx.Dataflow.liveness body blocks in
  let clash = ref None in
  let report i x y =
    if !clash = None then
      clash :=
        Some
          (Printf.sprintf "%s: %s and %s share a slot at instruction %d" k.Ptx.Types.kname
             (name x) (name y) i)
  in
  let check_point i live =
    let seen = Hashtbl.create 64 in
    Ptx.Dataflow.KSet.iter
      (fun x ->
        let s = slot_of x in
        match Hashtbl.find_opt seen s with Some y -> report i x y | None -> Hashtbl.add seen s x)
      live
  in
  Array.iteri
    (fun b (blk : Ptx.Dataflow.block) ->
      let live = ref live_out.(b) in
      check_point (blk.last + 1) !live;
      for i = blk.last downto blk.first do
        (match Ptx.Dataflow.def_of body.(i) with
        | Some d ->
            let kd = Ptx.Dataflow.key d in
            Ptx.Dataflow.KSet.iter
              (fun x -> if x <> kd && slot_of x = slot_of kd then report i kd x)
              !live;
            live := Ptx.Dataflow.KSet.remove kd !live
        | None -> ());
        List.iter
          (fun u -> live := Ptx.Dataflow.KSet.add (Ptx.Dataflow.key u) !live)
          (Ptx.Dataflow.uses_of body.(i));
        check_point i !live
      done)
    blocks;
  !clash

(* Random kernels in the skip and diamond shapes of skipk/diamk, nested
   up to three deep, over float, integer, address and predicate
   registers.  Every read is definitely assigned: a register defined
   inside an arm stays there unless both arms of a diamond define it,
   and a skip may redefine a register set before it.  Integer loads
   write the file their address lives in, so a load can take its own
   address register's slot. *)
let random_branchy_kernel seed =
  let open Ptx.Types in
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let pick l = List.nth l (int (List.length l)) in
  let serial = ref 0 in
  let fresh t =
    incr serial;
    { rtype = t; id = !serial }
  in
  let body = ref [] and labels = ref 0 in
  let emit i = body := i :: !body in
  let label () =
    incr labels;
    Printf.sprintf "L%d" !labels
  in
  let base = fresh U64 and n = fresh S32 and tid = fresh S32 and one = fresh F64 in
  emit (Ld_param { dst = base; param_index = 0 });
  emit (Ld_param { dst = n; param_index = 1 });
  emit (Mov_sreg { dst = tid; src = Tid_x });
  emit (Mov { dst = one; src = Imm_float 1.0 });
  let fop fl = if int 6 = 0 then Imm_float (float_of_int (int 5)) else Reg (pick fl) in
  (* One float definition in five rewrites a register already in scope. *)
  let fdst fl = if int 5 = 0 then pick fl else fresh F64 in
  let straight (fl, il, al) =
    let fl = ref fl and il = ref il and al = ref al in
    for _ = 1 to 1 + int 8 do
      match int 10 with
      | 0 | 1 ->
          let dtype = F64 and dst = fdst !fl and a = fop !fl and b = fop !fl in
          emit
            (match int 3 with
            | 0 -> Add { dtype; dst; a; b }
            | 1 -> Mul { dtype; dst; a; b }
            | _ -> Sub { dtype; dst; a; b });
          fl := dst :: !fl
      | 2 ->
          let dst = fdst !fl in
          emit (Fma { dtype = F64; dst; a = fop !fl; b = fop !fl; c = fop !fl });
          fl := dst :: !fl
      | 3 ->
          let dst = fresh S32 in
          emit (Add { dtype = S32; dst; a = Reg (pick !il); b = Imm_int (int 7) });
          il := dst :: !il
      | 4 ->
          let dst = fresh U64 in
          emit (Add { dtype = U64; dst; a = Reg (pick !al); b = Imm_int (8 * int 4) });
          al := dst :: !al
      | 5 ->
          let dst = fresh S32 in
          emit (Ld_global { dtype = S32; dst; addr = pick !al; offset = 4 * int 3 });
          il := dst :: !il
      | 6 ->
          let dst = fdst !fl in
          emit (Ld_global { dtype = F64; dst; addr = pick !al; offset = 8 * int 3 });
          fl := dst :: !fl
      | 7 ->
          let dst = fresh F64 in
          emit (Cvt { dst; src = pick !il });
          fl := dst :: !fl
      | 8 ->
          let dst = fresh S32 in
          emit (Div { dtype = S32; dst; a = Reg (pick !il); b = Reg (pick !il) });
          il := dst :: !il
      | _ -> emit (St_global { dtype = F64; addr = pick !al; offset = 0; src = fop !fl })
    done;
    (!fl, !il, !al)
  in
  let guard (_, il, _) =
    let p = fresh Pred in
    emit (Setp { cmp = Lt; dtype = S32; dst = p; a = Reg (pick il); b = Imm_int (int 9) });
    p
  in
  let rec block depth ((fl, il, al) as scope) =
    match if depth = 0 then 0 else int 3 with
    | 0 -> straight scope
    | 1 ->
        (* skip: x = c; if p then (...; x = v); *)
        let x = fresh F64 in
        emit (Mov { dst = x; src = Imm_float (float_of_int (int 9)) });
        let p = guard scope in
        let l = label () in
        emit (Bra { label = l; pred = Some p });
        let fl', _, _ = block (depth - 1) (x :: fl, il, al) in
        emit (Mov { dst = x; src = Reg (pick fl') });
        emit (Label l);
        (x :: fl, il, al)
    | _ ->
        (* diamond: if p then y = (...) else y = (...) *)
        let y = fresh F64 in
        let p = guard scope in
        let l_else = label () and l_join = label () in
        emit (Bra { label = l_else; pred = Some p });
        let fl1, _, _ = block (depth - 1) scope in
        emit (Mov { dst = y; src = Reg (pick fl1) });
        emit (Bra { label = l_join; pred = None });
        emit (Label l_else);
        let fl2, _, _ = block (depth - 1) scope in
        emit (Mov { dst = y; src = Reg (pick fl2) });
        emit (Label l_join);
        (y :: fl, il, al)
  in
  let scope = ref ([ one ], [ n; tid ], [ base ]) in
  for _ = 1 to 2 + int 4 do
    scope := block 3 !scope
  done;
  let fl, _, _ = !scope in
  List.iter
    (fun x ->
      if int 2 = 0 then emit (St_global { dtype = F64; addr = base; offset = 0; src = Reg x }))
    fl;
  emit Ret;
  {
    kname = Printf.sprintf "branchy_%d" seed;
    params = [ { pname = "a"; ptype = U64 }; { pname = "n"; ptype = S32 } ];
    body = List.rev !body;
  }

(* The kernels an engine compiled for a random op chain plus a norm2
   and an inner product: groups of one and more (reduction payloads
   included) and the fold kernel, parsed back from their PTX text as
   [Jit.compile] reads it. *)
let chain_kernels prog =
  let eng = Engine.create ~vm_domains:1 () in
  let pool = run_jit eng 31L prog in
  ignore (Engine.norm2 eng (Expr.sub (Expr.field pool.(0)) (Expr.field pool.(1))));
  ignore (Engine.inner eng (Expr.field pool.(2)) (Expr.field pool.(3)));
  List.map Ptx.Parse.kernel (Engine.kernel_texts eng)

(* The allocator walks registers with [Ptx.Dataflow.iter_regs]; it
   must visit exactly [def_of] then [uses_of]. *)
let sound (k : Ptx.Types.kernel) =
  List.iter
    (fun i ->
      let seen = ref [] in
      Ptx.Dataflow.iter_regs (fun r -> seen := r :: !seen) i;
      let expected = Option.to_list (Ptx.Dataflow.def_of i) @ Ptx.Dataflow.uses_of i in
      if List.rev !seen <> expected then
        QCheck.Test.fail_reportf "%s: iter_regs disagrees with def_of/uses_of on %s" k.kname
          (Ptx.Print.kernel { k with body = [ i ] }))
    k.body;
  match allocation_clash k with
  | None -> true
  | Some m -> QCheck.Test.fail_report m

let qcheck_allocation_sound =
  QCheck.Test.make ~count:20
    ~name:"random branchy kernels and op chains: no live pair shares a slot"
    (QCheck.pair (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)) arb_prog)
    (fun (seed, prog) ->
      let k = random_branchy_kernel seed in
      (match Gpusim.Vm.compile k with
      | _ -> ()
      | exception Gpusim.Vm.Fault m -> QCheck.Test.fail_reportf "%s rejected: %s" k.kname m);
      sound k && List.for_all sound (chain_kernels prog))

(* Every kernel a fused Wilson CG solve and a 2^4 HMC trajectory build,
   shared by the allocation and guard checks. *)
let workload_kernels =
  lazy
    (let wilson =
      let eng = Engine.create ~vm_domains:1 () in
      let links = Lqcd.Gauge.create_links geom in
      Lqcd.Gauge.random_gauge ~epsilon:0.3 links (Prng.create ~seed:11L);
      let ops = Solvers.Ops.jit eng fm geom in
      let nop = Solvers.Ops.normal_op ops ~apply_m:(Lqcd.Wilson.wilson_expr ~kappa:0.115 links) in
      let b = (fresh_pool 5L 1).(0) in
      let x = ops.Solvers.Ops.fresh () in
      ignore (Solvers.Cg.solve ops nop ~b ~x ~max_iter:3 ());
      Engine.kernel_texts eng
    in
    let hmc =
      let eng = Engine.create ~vm_domains:1 () in
      let g = Geometry.create [| 2; 2; 2; 2 |] in
      let ctx = Hmc.Context.create ~backend:(Hmc.Context.jit_backend eng) ~seed:7L g in
      Lqcd.Gauge.random_gauge ~epsilon:0.25 ctx.Hmc.Context.u (Prng.create ~seed:17L);
      let monomials =
        [
          Hmc.Gauge_monomial.create ctx ~beta:5.6 ~aniso:1.0 ();
          Hmc.Two_flavor.create ctx ~kappa:0.10 ();
        ]
      in
      ignore
        (Hmc.Driver.run_trajectory ctx monomials
           { Hmc.Driver.steps = 1; dt = 0.05; scheme = Hmc.Integrator.Omelyan });
      Engine.kernel_texts eng
    in
    List.map Ptx.Parse.kernel (wilson @ hmc))

(* No live pair of registers may share a slot, and the allocation must
   also shrink the register files somewhere. *)
let test_allocation_on_workloads () =
  let shrunk = ref 0 in
  List.iter
    (fun k ->
      (match allocation_clash k with Some m -> Alcotest.fail m | None -> ());
      let s = Gpusim.Vm.superinsn_stats (Gpusim.Vm.compile k) in
      if s.Gpusim.Vm.rows > s.Gpusim.Vm.virtual_rows then
        Alcotest.failf "%s: %d rows allocated, more than its %d virtual rows" k.kname
          s.Gpusim.Vm.rows s.Gpusim.Vm.virtual_rows;
      if s.Gpusim.Vm.rows < s.Gpusim.Vm.virtual_rows then incr shrunk)
    (Lazy.force workload_kernels);
  if !shrunk = 0 then Alcotest.fail "no workload kernel's register files shrank"

(* Every kernel the generators emit — groups of one and more, the
   reduction payloads and the fold — opens with the canonical bounds
   guard, so every launch of the workloads runs only its live threads. *)
let test_workload_guards_proven () =
  List.iter
    (fun (k : Ptx.Types.kernel) ->
      match Gpusim.Vm.bounds_guard (Gpusim.Vm.compile k) with
      | Some slot ->
          let p = List.nth k.params slot in
          Alcotest.(check bool) (k.kname ^ ": guard bound is an s32 param") true
            (p.Ptx.Types.ptype = Ptx.Types.S32)
      | None -> Alcotest.failf "%s: bounds guard not proven" k.kname)
    (Lazy.force workload_kernels)

(* divk's divisor load takes the slot of its dead address register, and
   the faulting division writes that slot again as its destination: the
   fault must still name the same lane, with the same message, on the
   runtime at every worker count as on the [Reference] device. *)
let test_fault_in_reused_slot () =
  let a = Gpusim.Vm.allocate_registers (Ptx.Parse.kernel divk_text) in
  let slot t id = Gpusim.Vm.slot a { Ptx.Types.rtype = t; id } in
  Alcotest.(check int) "ld.global %r7 reuses %rd4's slot" (slot Ptx.Types.U64 4)
    (slot Ptx.Types.S32 7);
  Alcotest.(check int) "div %r8 reuses %r7's slot" (slot Ptx.Types.S32 7) (slot Ptx.Types.S32 8);
  let reference = launch_divk ~mode:Device.Reference ~vm_domains:1 ~zero_sites:[ 1600; 600 ] () in
  check_fault "reference" reference;
  List.iter
    (fun w ->
      match (reference, launch_divk ~vm_domains:w ~zero_sites:[ 1600; 600 ] ()) with
      | Some r, Some m -> Alcotest.(check string) (Printf.sprintf "w=%d" w) r m
      | _ -> Alcotest.failf "w=%d: no fault" w)
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Alignment.  One hand-written kernel per global memory opcode: thread
   i moves element i, but the load's source (or the store's
   destination) is shifted by q * off bytes, q = i / 600.  Sites below
   600 stay on their own element.  With [off] a multiple of the element
   width the shift is injective and the kernel runs clean; otherwise
   site 600 — (ctaid 4, tid 88), lane 24 of a 64-lane tile whose lower
   lanes are aligned — is the first misaligned access, and every device
   must fault there with the same message. *)

let mem_kernel ~ty ~width ~store ~off =
  let name = Printf.sprintf "%s_%s_%d" (if store then "stk" else "ldk") ty off in
  let v = match ty with "f64" -> "%fd1" | "s32" -> "%r7" | _ -> "%f1" in
  let src, dst = if store then ("%rd3", "%rd6") else ("%rd6", "%rd3") in
  Printf.sprintf
    {|
.version 3.1
.target sm_35
.address_size 64

.visible .entry %s(
	.param .u64 %s_param_0,
	.param .u64 %s_param_1,
	.param .s32 %s_param_2,
	.param .s32 %s_param_3
)
{
	ld.param.u64 	%%rd1, [%s_param_0];
	ld.param.u64 	%%rd2, [%s_param_1];
	ld.param.s32 	%%r1, [%s_param_2];
	ld.param.s32 	%%r9, [%s_param_3];
	mov.u32 	%%r2, %%tid.x;
	mov.u32 	%%r3, %%ntid.x;
	mov.u32 	%%r4, %%ctaid.x;
	mad.lo.s32 	%%r5, %%r4, %%r3, %%r2;
	setp.ge.s32 	%%p1, %%r5, %%r1;
	@%%p1 bra 	EXIT;
	div.s32 	%%r10, %%r5, %%r9;
	mul.lo.s32 	%%r6, %%r5, %d;
	mul.lo.s32 	%%r11, %%r10, %d;
	add.s32 	%%r12, %%r6, %%r11;
	cvt.s64.s32 	%%rs1, %%r6;
	cvt.u64.s64 	%%rd3, %%rs1;
	cvt.s64.s32 	%%rs2, %%r12;
	cvt.u64.s64 	%%rd6, %%rs2;
	add.u64 	%%rd4, %%rd1, %s;
	add.u64 	%%rd5, %%rd2, %s;
	ld.global.%s 	%s, [%%rd4+0];
	st.global.%s 	[%%rd5+0], %s;
EXIT:
	ret;
}
|}
    name name name name name name name name name width off src dst ty v ty v

(* Buffer contents as 64-bit words, whatever the element kind. *)
let words (b : Buffer_.t) =
  let n = Buffer_.length b in
  match b.Buffer_.data with
  | Buffer_.F16 a -> Array.init n (fun i -> Int64.of_int a.{i})
  | Buffer_.F32 a -> Array.init n (fun i -> Int64.bits_of_float a.{i})
  | Buffer_.F64 a -> Array.init n (fun i -> Int64.bits_of_float a.{i})
  | Buffer_.I32 a -> Array.init n (fun i -> Int64.of_int32 a.{i})

let run_mem_kernel compiled ~ty ~mode ~vm_domains =
  let dev = Device.create ~mode ~vm_domains Machine.k20x_ecc_off in
  (* Room for the largest aligned shift: q <= 3 elements. *)
  let alloc () =
    let n = n_threads + 8 in
    match ty with
    | "f16" -> Device.alloc_f16 dev n
    | "f32" -> Device.alloc_f32 dev n
    | "f64" -> Device.alloc_f64 dev n
    | _ -> Device.alloc_i32 dev n
  in
  let x = alloc () and y = alloc () in
  for i = 0 to Buffer_.length x - 1 do
    match x.Buffer_.data with
    | Buffer_.F16 a -> a.{i} <- Half.bits_of_float (float_of_int (i mod 97) *. 0.25)
    | Buffer_.F32 a -> a.{i} <- float_of_int (i mod 97) *. 0.25
    | Buffer_.F64 a -> a.{i} <- (float_of_int i *. 0.125) -. 3.0
    | Buffer_.I32 a -> a.{i} <- Int32.of_int ((7 * i) - 5)
  done;
  let params = [| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Int n_threads; Gpusim.Vm.Int 600 |] in
  if not (Gpusim.Vm.parallelizable compiled.Jit.program ~params) then
    Alcotest.fail "alignment kernel does not run 64-lane tiles";
  match launch dev compiled ~nthreads:n_threads ~block ~params with
  | _ -> Ok (words y)
  | exception Gpusim.Vm.Fault m -> Error m

let test_misaligned_accesses () =
  List.iter
    (fun (ty, width, kind) ->
      List.iter
        (fun store ->
          List.iter
            (fun off ->
              let text = mem_kernel ~ty ~width ~store ~off in
              let compiled = Jit.compile text in
              let what = Printf.sprintf "%s %s, offset %d" (if store then "st" else "ld") ty off in
              let run = run_mem_kernel compiled ~ty in
              let reference = run ~mode:Device.Reference ~vm_domains:1 in
              (match reference with
              | Ok _ when off mod width = 0 -> ()
              | Error m when off mod width <> 0 ->
                  List.iter
                    (fun sub ->
                      if not (contains m sub) then
                        Alcotest.failf "%s: fault %S does not mention %S" what m sub)
                    [
                      Printf.sprintf "misaligned %s %s" kind (if store then "store" else "load");
                      (Ptx.Parse.kernel text).Ptx.Types.kname;
                      "ctaid 4, tid 88";
                    ]
              | Ok _ -> Alcotest.failf "%s: the reference did not fault" what
              | Error m -> Alcotest.failf "%s: aligned access faulted: %s" what m);
              List.iter
                (fun w ->
                  if run ~mode:Device.Functional ~vm_domains:w <> reference then
                    Alcotest.failf "%s: %d workers differ from the reference" what w)
                [ 1; 2; 4; 8 ])
            (width :: List.filter (fun o -> o < width) [ 1; 2; 4 ]))
        [ false; true ])
    [ ("f16", 2, "f16"); ("f32", 4, "f32"); ("s32", 4, "i32"); ("f64", 8, "f64") ]

(* ------------------------------------------------------------------ *)
(* Guard-bounded tiles.  [compile] proves the canonical bounds guard
   (idx = ctaid * ntid + tid; @(idx >= n) bra to a ret, with nothing
   faultable per lane or touching memory before it), and the runtime
   then runs only the threads below [max 1 n].  Near misses of that
   shape must run every thread; all of them must match the [Reference]
   device, which always runs every thread. *)

(* y[idx] = x[idx] + 1 behind a bounds guard; [pre] is spliced before
   the guard and [guard] is the guard itself.  The address chain sits
   before the guard: register arithmetic does not spoil the proof. *)
let guarded_text ?(pre = "") ?(guard = "\tsetp.ge.s32 \t%p1, %r5, %r1;\n\t@%p1 bra \tEXIT;")
    ?(skip = "") name =
  Printf.sprintf
    {|
.version 3.1
.target sm_35
.address_size 64

.visible .entry %s(
	.param .u64 %s_param_0,
	.param .u64 %s_param_1,
	.param .s32 %s_param_2
)
{
	ld.param.u64 	%%rd1, [%s_param_0];
	ld.param.u64 	%%rd2, [%s_param_1];
	ld.param.s32 	%%r1, [%s_param_2];
	mov.u32 	%%r2, %%tid.x;
	mov.u32 	%%r3, %%ntid.x;
	mov.u32 	%%r4, %%ctaid.x;
	mad.lo.s32 	%%r5, %%r4, %%r3, %%r2;
	mul.lo.s32 	%%r6, %%r5, 4;
	cvt.s64.s32 	%%rs1, %%r6;
	cvt.u64.s64 	%%rd3, %%rs1;
	add.u64 	%%rd4, %%rd1, %%rd3;
	add.u64 	%%rd5, %%rd2, %%rd3;
%s
%s
	ld.global.s32 	%%r7, [%%rd4+0];
	add.s32 	%%r8, %%r7, 1;
	st.global.s32 	[%%rd5+0], %%r8;
%s
EXIT:
	ret;
}
|}
    name name name name name name name pre guard skip

let guarded_compiled = lazy (Jit.compile (guarded_text "guardk"))

(* Launch [grid * block] threads with work count [n] ([bound] overrides
   the work-count parameter), x[i] = 3i + 1 over [x_len] words and
   y[i] = -7; the outcome is y or the fault's text. *)
let run_guarded compiled ~mode ~vm_domains ~grid ~block ~n ?x_len ?bound ?(bad_x = false) () =
  let threads = grid * block in
  let dev = Device.create ~mode ~vm_domains Machine.k20x_ecc_off in
  let x = Device.alloc_i32 dev (Option.value x_len ~default:threads)
  and y = Device.alloc_i32 dev threads in
  (match (x.Buffer_.data, y.Buffer_.data) with
  | Buffer_.I32 xa, Buffer_.I32 ya ->
      for i = 0 to Bigarray.Array1.dim xa - 1 do
        xa.{i} <- Int32.of_int ((3 * i) + 1)
      done;
      Bigarray.Array1.fill ya (-7l)
  | _ -> assert false);
  let params =
    [|
      (if bad_x then Gpusim.Vm.Int 5 else Gpusim.Vm.Ptr x);
      Gpusim.Vm.Ptr y;
      Option.value bound ~default:(Gpusim.Vm.Int n);
    |]
  in
  match launch dev compiled ~nthreads:threads ~block ~params with
  | _ -> (
      match y.Buffer_.data with
      | Buffer_.I32 a -> Ok (Array.init threads (fun i -> a.{i}))
      | _ -> assert false)
  | exception e -> Error (Printexc.to_string e)

let agrees_with_reference run =
  let reference = run ~mode:Device.Reference ~vm_domains:1 in
  List.for_all (fun w -> run ~mode:Device.Functional ~vm_domains:w = reference) [ 1; 2; 4; 8 ]

(* Each near miss leaves the threads past the work count an observable
   effect — a store, a fault, a different exit test — so running only
   the live threads would diverge from the reference. *)
let near_misses =
  [
    ("setp.gt", guarded_text ~guard:"\tsetp.gt.s32 \t%p1, %r5, %r1;\n\t@%p1 bra \tEXIT;" "gtk", None);
    ("tid, not idx", guarded_text ~guard:"\tsetp.ge.s32 \t%p1, %r2, %r1;\n\t@%p1 bra \tEXIT;" "tidk", None);
    ("store before the guard", guarded_text ~pre:"\tst.global.s32 \t[%rd5+0], %r5;" "stk", None);
    ("load before the guard", guarded_text ~pre:"\tld.global.s32 \t%r9, [%rd4+0];" "ldk", Some 40);
    ( "div before the guard",
      guarded_text ~pre:"\tsub.s32 \t%r9, %r1, %r5;\n\tdiv.s32 \t%r10, %r5, %r9;" "divgk", None );
    ( "predicate redefined",
      guarded_text
        ~guard:"\tsetp.ge.s32 \t%p1, %r5, %r1;\n\tsetp.gt.s32 \t%p1, %r2, %r1;\n\t@%p1 bra \tEXIT;"
        "redefk", None );
    ( "target is not ret",
      guarded_text ~guard:"\tsetp.ge.s32 \t%p1, %r5, %r1;\n\t@%p1 bra \tSKIP;"
        ~skip:"\tbra.uni \tEXIT;\nSKIP:\n\tst.global.s32 \t[%rd5+0], %r5;" "skipgk", None );
  ]

let test_guard_near_misses () =
  List.iter
    (fun (what, text, x_len) ->
      let compiled = Jit.compile text in
      Alcotest.(check (option int)) (what ^ ": no proof") None
        (Gpusim.Vm.bounds_guard compiled.Jit.program);
      (* 40 work items over 4 ctas of 32: thread 40 is (ctaid 1, tid 8). *)
      let run ~mode ~vm_domains =
        run_guarded compiled ~mode ~vm_domains ~grid:4 ~block:32 ~n:40 ?x_len ()
      in
      Alcotest.(check bool) (what ^ ": runtime = Reference at 1/2/4/8 workers") true
        (agrees_with_reference run))
    near_misses

let test_guard_bound_values () =
  let compiled = Lazy.force guarded_compiled in
  Alcotest.(check (option int)) "canonical guard proven on the s32 param" (Some 2)
    (Gpusim.Vm.bounds_guard compiled.Jit.program);
  List.iter
    (fun (what, bound) ->
      let run ~mode ~vm_domains =
        run_guarded compiled ~mode ~vm_domains ~grid:4 ~block:32 ~n:0 ~bound ()
      in
      (match run ~mode:Device.Reference ~vm_domains:1 with
      | Error m when contains m "ctaid 0, tid 0" -> ()
      | Error m -> Alcotest.failf "%s bound: unexpected fault %s" what m
      | Ok _ -> Alcotest.failf "%s bound: no fault" what);
      Alcotest.(check bool) (what ^ " bound: runtime = Reference") true (agrees_with_reference run))
    [ ("Float", Gpusim.Vm.Float 40.0); ("Ptr", Gpusim.Vm.Ptr (Buffer_.create_i32 0 4)) ];
  (* No work at all still runs thread (0, 0), which raises the
     prologue's lane-uniform fault exactly where the reference does. *)
  List.iter
    (fun n ->
      let run ~mode ~vm_domains =
        run_guarded compiled ~mode ~vm_domains ~grid:4 ~block:32 ~n ~bad_x:true ()
      in
      Alcotest.(check bool) (Printf.sprintf "n = %d: prologue fault = Reference" n) true
        (agrees_with_reference run))
    [ 0; -3 ]

(* Work counts at or below zero, inside the first cta, inside the grid
   and past it, over odd and wide blocks; a sixth of the cases bind the
   x pointer to an integer, a lane-uniform fault in the prologue that
   thread (0, 0) must still report. *)
let arb_guarded =
  QCheck.make
    ~print:(fun (n, block, grid, bad_x) ->
      Printf.sprintf "n %d block %d grid %d%s" n block grid (if bad_x then " bad x" else ""))
    QCheck.Gen.(
      let* block = oneofl [ 1; 7; 32; 64; 100; 128; 1024 ] in
      let* grid = int_range 1 4 in
      let* n =
        oneof
          [
            int_range (-5) 0;
            int_range 1 (max 1 (block - 1));
            int_range block (grid * block);
            int_range ((grid * block) + 1) ((grid * block) + 50);
          ]
      in
      let* bad_x = map (fun k -> k = 0) (int_bound 5) in
      return (n, block, grid, bad_x))

let qcheck_guarded_tiles =
  QCheck.Test.make ~count:30
    ~name:"guard-bounded tiles: 1/2/4/8 workers = Reference, any work count" arb_guarded
    (fun (n, block, grid, bad_x) ->
      let compiled = Lazy.force guarded_compiled in
      agrees_with_reference (fun ~mode ~vm_domains ->
          run_guarded compiled ~mode ~vm_domains ~grid ~block ~n ~bad_x ()))

let () =
  Alcotest.run "vm"
    [
      ( "bit-exactness",
        [
          QCheck_alcotest.to_alcotest qcheck_worker_counts;
          QCheck_alcotest.to_alcotest qcheck_reductions;
        ] );
      ( "batched sweeps",
        [
          QCheck_alcotest.to_alcotest qcheck_batched_sweeps;
          Alcotest.test_case "independent faults: lowest launch index wins" `Quick
            test_batched_two_faults;
          Alcotest.test_case "faulting batch: plain fault, device reusable" `Quick
            test_fault_at_synchronize_then_reuse;
        ] );
      ( "superinstructions",
        [
          QCheck_alcotest.to_alcotest qcheck_superinsn_onoff;
          QCheck_alcotest.to_alcotest qcheck_superinsn_faults;
          Alcotest.test_case "two domains at once match their sequential runs" `Quick
            test_concurrent_domains;
          QCheck_alcotest.to_alcotest qcheck_mixk_bit_identity;
          Alcotest.test_case "mixed-chain kernel: plan shape" `Quick test_mixk_plan_shape;
          QCheck_alcotest.to_alcotest qcheck_branch_shapes;
          Alcotest.test_case "parked lower lane's fault wins" `Quick test_parked_lane_fault_wins;
        ] );
      ( "faults",
        [
          Alcotest.test_case "worker-domain fault surfaces" `Quick test_fault_from_worker_domain;
          Alcotest.test_case "deterministic across worker counts" `Quick
            test_fault_deterministic_across_workers;
          Alcotest.test_case "all-threads fault reports (0,0)" `Quick
            test_fault_names_first_thread;
          Alcotest.test_case "divk passes safety analysis" `Quick test_divk_parallelizable;
          Alcotest.test_case "misaligned loads and stores fault alike everywhere" `Quick
            test_misaligned_accesses;
        ] );
      ( "guards",
        [
          Alcotest.test_case "near misses run every thread" `Quick test_guard_near_misses;
          Alcotest.test_case "Float/Ptr or no work: fault at (0,0)" `Quick
            test_guard_bound_values;
          QCheck_alcotest.to_alcotest qcheck_guarded_tiles;
          Alcotest.test_case "wilson CG + HMC kernels: guards proven" `Quick
            test_workload_guards_proven;
        ] );
      ( "regalloc",
        [
          QCheck_alcotest.to_alcotest qcheck_allocation_sound;
          Alcotest.test_case "wilson CG + HMC kernels: no live pair shares a slot" `Quick
            test_allocation_on_workloads;
          Alcotest.test_case "fault in a reused slot: same lane and message" `Quick
            test_fault_in_reused_slot;
        ] );
    ]
