module Device = Gpusim.Device
module Buffer_ = Gpusim.Buffer
module Machine = Gpusim.Machine
module Jit = Gpusim.Jit

(* y[i] = a * x[i] + y[i] with a thread guard — hand-written PTX text, as a
   user of the raw driver interface would submit. *)
let daxpy_text =
  {|
.version 3.1
.target sm_35
.address_size 64

.visible .entry daxpy(
	.param .u64 daxpy_param_0,
	.param .u64 daxpy_param_1,
	.param .f64 daxpy_param_2,
	.param .s32 daxpy_param_3
)
{
	ld.param.u64 	%rd1, [daxpy_param_0];
	ld.param.u64 	%rd2, [daxpy_param_1];
	ld.param.f64 	%fd1, [daxpy_param_2];
	ld.param.s32 	%r1, [daxpy_param_3];
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
	add.u64 	%rd5, %rd2, %rd3;
	ld.global.f64 	%fd2, [%rd4+0];
	ld.global.f64 	%fd3, [%rd5+0];
	fma.rn.f64 	%fd4, %fd1, %fd2, %fd3;
	st.global.f64 	[%rd5+0], %fd4;
EXIT:
	ret;
}
|}

(* Issue a launch and drain the device's queue, so the kernel has run
   when this returns. *)
let launch dev compiled ~nthreads ~block ~params =
  let ns = Device.execute dev compiled ~nthreads ~block ~params in
  Device.flush_batch dev;
  ns

let with_device f =
  let dev = Device.create Machine.k20x_ecc_off in
  f dev

let test_daxpy_executes () =
  with_device (fun dev ->
      let n = 1000 in
      let x = Device.alloc_f64 dev n and y = Device.alloc_f64 dev n in
      (match (x.Buffer_.data, y.Buffer_.data) with
      | Buffer_.F64 xa, Buffer_.F64 ya ->
          for i = 0 to n - 1 do
            xa.{i} <- float_of_int i;
            ya.{i} <- 1.0
          done
      | _ -> assert false);
      let compiled = Jit.compile daxpy_text in
      let _ns =
        launch dev compiled ~nthreads:n ~block:128
          ~params:[| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Float 2.0; Gpusim.Vm.Int n |]
      in
      match y.Buffer_.data with
      | Buffer_.F64 ya ->
          for i = 0 to n - 1 do
            let expect = (2.0 *. float_of_int i) +. 1.0 in
            if ya.{i} <> expect then Alcotest.failf "y[%d] = %g, expected %g" i ya.{i} expect
          done
      | _ -> assert false)

let test_guard_respected () =
  with_device (fun dev ->
      let n = 100 in
      let x = Device.alloc_f64 dev n and y = Device.alloc_f64 dev n in
      let compiled = Jit.compile daxpy_text in
      (* launch a full grid but n_work = 10: elements >= 10 must stay 0 *)
      (match x.Buffer_.data with
      | Buffer_.F64 xa -> Bigarray.Array1.fill xa 1.0
      | _ -> assert false);
      ignore
        (launch dev compiled ~nthreads:64 ~block:64
           ~params:[| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Float 1.0; Gpusim.Vm.Int 10 |]);
      match y.Buffer_.data with
      | Buffer_.F64 ya ->
          for i = 0 to 9 do
            Alcotest.(check (float 0.0)) "written" 1.0 ya.{i}
          done;
          for i = 10 to n - 1 do
            Alcotest.(check (float 0.0)) "guarded" 0.0 ya.{i}
          done
      | _ -> assert false)

let test_launch_failure_block_too_big () =
  with_device (fun dev ->
      let compiled = Jit.compile daxpy_text in
      let x = Device.alloc_f64 dev 8 and y = Device.alloc_f64 dev 8 in
      match
        launch dev compiled ~nthreads:8 ~block:2048
          ~params:[| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Float 1.0; Gpusim.Vm.Int 8 |]
      with
      | exception Device.Launch_failure _ -> ()
      | _ -> Alcotest.fail "block 2048 should fail on a 1024-thread machine")

let test_out_of_memory () =
  with_device (fun dev ->
      match Device.alloc_f64 dev (2 * 1024 * 1024 * 1024) with
      | exception Device.Out_of_device_memory -> ()
      | _ -> Alcotest.fail "16 GB allocation should not fit in 6 GB")

let test_buffer_accounting () =
  with_device (fun dev ->
      let before = Device.used_bytes dev in
      let b = Device.alloc_f32 dev 1000 in
      Alcotest.(check int) "alloc accounted" (before + 4000) (Device.used_bytes dev);
      Device.free dev b;
      Alcotest.(check int) "free accounted" before (Device.used_bytes dev);
      match Device.free dev b with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "double free accepted")

(* Model-only float buffers count their bytes but hold no storage;
   functional ones are unchanged. *)
let test_model_only_buffers_unbacked () =
  let dev = Device.create ~mode:Device.Model_only Machine.k20x_ecc_off in
  let b = Device.alloc_f64 dev 1000 in
  Alcotest.(check int) "no storage" 0 (Buffer_.length b);
  Alcotest.(check int) "bytes" 8000 b.Buffer_.bytes;
  Alcotest.(check int) "used bytes" 8000 (Device.used_bytes dev);
  Alcotest.(check int) "i32 tables keep storage" 10 (Buffer_.length (Device.alloc_i32 dev 10));
  with_device (fun dev ->
      let b = Device.alloc_f64 dev 1000 in
      Alcotest.(check int) "functional storage" 1000 (Buffer_.length b);
      Alcotest.(check int) "functional bytes" 8000 b.Buffer_.bytes)

let test_freed_buffer_faults () =
  with_device (fun dev ->
      let x = Device.alloc_f64 dev 8 in
      let y = Device.alloc_f64 dev 8 in
      Device.free dev x;
      let compiled = Jit.compile daxpy_text in
      match
        launch dev compiled ~nthreads:8 ~block:8
          ~params:[| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Float 1.0; Gpusim.Vm.Int 8 |]
      with
      | exception Gpusim.Vm.Fault _ -> ()
      | _ -> Alcotest.fail "use-after-free executed")

let test_type_mismatch_faults () =
  with_device (fun dev ->
      (* f64 kernel on f32 buffers must fault, not reinterpret. *)
      let x = Device.alloc_f32 dev 8 and y = Device.alloc_f32 dev 8 in
      let compiled = Jit.compile daxpy_text in
      match
        launch dev compiled ~nthreads:8 ~block:8
          ~params:[| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Float 1.0; Gpusim.Vm.Int 8 |]
      with
      | exception Gpusim.Vm.Fault _ -> ()
      | _ -> Alcotest.fail "typed load from wrong buffer kind executed")

let test_clock_and_stats () =
  with_device (fun dev ->
      let compiled = Jit.compile daxpy_text in
      let x = Device.alloc_f64 dev 4096 and y = Device.alloc_f64 dev 4096 in
      let ns =
        launch dev compiled ~nthreads:4096 ~block:128
          ~params:[| Gpusim.Vm.Ptr x; Gpusim.Vm.Ptr y; Gpusim.Vm.Float 1.0; Gpusim.Vm.Int 4096 |]
      in
      Alcotest.(check bool) "time positive" true (ns > 0.0);
      Alcotest.(check (float 0.0)) "clock left to the stream scheduler" 0.0 (Device.clock_ns dev);
      Alcotest.(check int) "launch counted" 1 (Device.stats dev).Device.launches)

let test_timing_monotone_in_volume () =
  let m = Machine.k20x_ecc_off in
  let compiled = Jit.compile daxpy_text in
  let time n =
    Gpusim.Timing.kernel_time_ns m ~analysis:compiled.Jit.analysis
      ~regs_per_thread:compiled.Jit.regs_per_thread ~prec:Gpusim.Timing.Dp ~nthreads:n ~block:128
  in
  let prev = ref 0.0 in
  List.iter
    (fun n ->
      let t = time n in
      if t < !prev then Alcotest.failf "time decreased at n=%d" n;
      prev := t)
    [ 16; 256; 4096; 65536; 1_000_000 ]

let test_bandwidth_plateau_bounded () =
  let m = Machine.k20x_ecc_off in
  let compiled = Jit.compile daxpy_text in
  let bw =
    Gpusim.Timing.sustained_bandwidth m ~analysis:compiled.Jit.analysis
      ~regs_per_thread:compiled.Jit.regs_per_thread ~prec:Gpusim.Timing.Dp ~nthreads:10_000_000
      ~block:256
  in
  Alcotest.(check bool) "never exceeds efficiency ceiling" true
    (bw <= m.Machine.bw_efficiency *. m.Machine.peak_bw *. 1.0001)

let test_small_block_slower () =
  let m = Machine.k20x_ecc_off in
  let compiled = Jit.compile daxpy_text in
  let time block =
    Gpusim.Timing.kernel_time_ns m ~analysis:compiled.Jit.analysis
      ~regs_per_thread:compiled.Jit.regs_per_thread ~prec:Gpusim.Timing.Dp ~nthreads:1_000_000
      ~block
  in
  Alcotest.(check bool) "block 32 slower than 256" true (time 32 > time 256 *. 1.2)

let test_compile_time_range () =
  let compiled = Jit.compile daxpy_text in
  Alcotest.(check bool) "paper's range" true
    (compiled.Jit.compile_time >= 0.04 && compiled.Jit.compile_time <= 0.25)

let test_transfer_time () =
  let m = Machine.k20x_ecc_off in
  let t_small = Gpusim.Timing.transfer_time_ns m ~bytes:8 in
  let t_big = Gpusim.Timing.transfer_time_ns m ~bytes:(1024 * 1024 * 64) in
  Alcotest.(check bool) "latency floor" true (t_small >= m.Machine.pcie_latency_ns);
  Alcotest.(check bool) "bandwidth term" true (t_big > 100.0 *. t_small)

let test_math_subroutine () =
  (* A kernel calling the sin subroutine. *)
  let text =
    {|
.version 3.1
.target sm_35
.address_size 64

.visible .entry sintest(
	.param .u64 sintest_param_0,
	.param .s32 sintest_param_1
)
{
	ld.param.u64 	%rd1, [sintest_param_0];
	ld.param.s32 	%r1, [sintest_param_1];
	mov.u32 	%r2, %tid.x;
	setp.ge.s32 	%p1, %r2, %r1;
	@%p1 bra 	EXIT;
	mul.lo.s32 	%r3, %r2, 8;
	cvt.s64.s32 	%rs1, %r3;
	cvt.u64.s64 	%rd2, %rs1;
	add.u64 	%rd3, %rd1, %rd2;
	ld.global.f64 	%fd1, [%rd3+0];
	call.uni 	(%fd2), qdpjit_sin_f64, (%fd1);
	st.global.f64 	[%rd3+0], %fd2;
EXIT:
	ret;
}
|}
  in
  with_device (fun dev ->
      let n = 16 in
      let x = Device.alloc_f64 dev n in
      (match x.Buffer_.data with
      | Buffer_.F64 xa ->
          for i = 0 to n - 1 do
            xa.{i} <- 0.1 *. float_of_int i
          done
      | _ -> assert false);
      let compiled = Jit.compile text in
      ignore
        (launch dev compiled ~nthreads:n ~block:n
           ~params:[| Gpusim.Vm.Ptr x; Gpusim.Vm.Int n |]);
      match x.Buffer_.data with
      | Buffer_.F64 xa ->
          for i = 0 to n - 1 do
            Alcotest.(check (float 1e-15)) "sin" (sin (0.1 *. float_of_int i)) xa.{i}
          done
      | _ -> assert false)

(* REPRO_VM_DOMAINS parsing: a malformed override (zero, negative,
   non-numeric, empty) must fall back to the hardware count instead of
   serializing or crashing every launch; a valid one is trimmed,
   parsed and clamped; an explicit argument always wins. *)
let test_host_domains_env () =
  let avail = Gpusim.Vm_backend.available_domains () in
  let orig = Sys.getenv_opt "REPRO_VM_DOMAINS" in
  let with_env v = Unix.putenv "REPRO_VM_DOMAINS" v; Machine.host_domains () in
  Fun.protect
    ~finally:(fun () ->
      (* putenv cannot unset: restore the original pin, or re-pin the
         hardware count (the same value an unset variable resolves to). *)
      Unix.putenv "REPRO_VM_DOMAINS"
        (match orig with Some v -> v | None -> string_of_int avail))
    (fun () ->
      Alcotest.(check int) "valid" 3 (with_env "3");
      Alcotest.(check int) "trimmed" 8 (with_env " 8 ");
      Alcotest.(check int) "clamped to 64" 64 (with_env "999");
      Alcotest.(check int) "zero falls back" avail (with_env "0");
      Alcotest.(check int) "negative falls back" avail (with_env "-3");
      Alcotest.(check int) "non-numeric falls back" avail (with_env "nope");
      Alcotest.(check int) "empty falls back" avail (with_env "");
      Alcotest.(check int) "explicit argument wins" 2
        (Unix.putenv "REPRO_VM_DOMAINS" "7";
         Machine.host_domains ~vm_domains:2 ()))

let () =
  Alcotest.run "gpusim"
    [
      ( "vm",
        [
          Alcotest.test_case "daxpy executes" `Quick test_daxpy_executes;
          Alcotest.test_case "thread guard" `Quick test_guard_respected;
          Alcotest.test_case "math subroutine" `Quick test_math_subroutine;
        ] );
      ( "device",
        [
          Alcotest.test_case "launch failure" `Quick test_launch_failure_block_too_big;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          Alcotest.test_case "buffer accounting" `Quick test_buffer_accounting;
          Alcotest.test_case "model-only buffers unbacked" `Quick
            test_model_only_buffers_unbacked;
          Alcotest.test_case "use after free" `Quick test_freed_buffer_faults;
          Alcotest.test_case "typed buffers" `Quick test_type_mismatch_faults;
          Alcotest.test_case "clock and stats" `Quick test_clock_and_stats;
        ] );
      ( "machine",
        [ Alcotest.test_case "REPRO_VM_DOMAINS parse" `Quick test_host_domains_env ] );
      ( "timing",
        [
          Alcotest.test_case "monotone in volume" `Quick test_timing_monotone_in_volume;
          Alcotest.test_case "bandwidth ceiling" `Quick test_bandwidth_plateau_bounded;
          Alcotest.test_case "small blocks slower" `Quick test_small_block_slower;
          Alcotest.test_case "compile time range" `Quick test_compile_time_range;
          Alcotest.test_case "transfer time" `Quick test_transfer_time;
        ] );
    ]
