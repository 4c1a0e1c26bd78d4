(* Quickstart: the expression layer, the code generation pipeline, and the
   automated memory management in one walk-through.

   Builds the nearest-neighbour covariant derivative of the paper's Fig. 1,

     psi = u[mu] * shift(phi, mu, FORWARD)
         + shift(adj(u[mu]) * phi, mu, BACKWARD)

   shows its AST (Fig. 3) and the generated PTX, evaluates it on both the
   CPU reference and the simulated GPU, and prints the cache statistics.

   Run: dune exec examples/quickstart.exe *)

module Shape = Layout.Shape
module Geometry = Layout.Geometry
module Field = Qdp.Field
module Expr = Qdp.Expr

let () =
  Printf.printf "QDP-JIT/PTX quickstart\n======================\n\n";
  (* A 4^4 lattice with one gauge link field and a fermion. *)
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let rng = Prng.create ~seed:2026L in
  let u = Field.create ~name:"u" (Shape.lattice_color_matrix Shape.F64) geom in
  let phi = Field.create ~name:"phi" (Shape.lattice_fermion Shape.F64) geom in
  for site = 0 to Geometry.volume geom - 1 do
    Field.set_site u ~site (Linalg.Su3.random_su3 rng)
  done;
  Field.fill_gaussian phi rng;

  (* The Fig. 1 expression (mu = 0). *)
  let mu = 0 in
  let expr =
    Expr.add
      (Expr.mul (Expr.field u) (Expr.shift (Expr.field phi) ~dim:mu ~dir:1))
      (Expr.shift (Expr.mul (Expr.adj (Expr.field u)) (Expr.field phi)) ~dim:mu ~dir:(-1))
  in
  Printf.printf "Expression AST (cf. Fig. 3 of the paper):\n%s\n" (Expr.render expr);

  (* The PTX the code generator emits for it. *)
  let built =
    Qdpjit.Codegen.build ~kname:"quickstart_deriv" ~dest_shape:(Expr.shape expr) ~expr
      ~nsites:(Geometry.volume geom) ~use_sitelist:false ()
  in
  let lines = String.split_on_char '\n' (Ptx.Print.kernel built.Qdpjit.Codegen.kernel) in
  Printf.printf "Generated PTX (%d instructions; first 25 lines):\n" (List.length built.Qdpjit.Codegen.kernel.Ptx.Types.body);
  List.iteri (fun i l -> if i < 25 then Printf.printf "  %s\n" l) lines;
  Printf.printf "  ...\n\n";

  (* Evaluate on the original (CPU) implementation... *)
  let psi_cpu = Field.create ~name:"psi_cpu" (Shape.lattice_fermion Shape.F64) geom in
  Qdp.Eval_cpu.eval psi_cpu expr;

  (* ... and through the full JIT pipeline on the simulated device. *)
  let engine = Qdpjit.Engine.create () in
  let psi_jit = Field.create ~name:"psi_jit" (Shape.lattice_fermion Shape.F64) geom in
  Qdpjit.Engine.eval engine psi_jit expr;

  let diff = Qdp.Eval_cpu.norm2 (Expr.sub (Expr.field psi_cpu) (Expr.field psi_jit)) in
  Printf.printf "CPU vs JIT |difference|^2 : %g\n" diff;
  Printf.printf "norm2(psi)                : %.6f (both paths)\n\n"
    (Qdpjit.Engine.norm2 engine (Expr.field psi_jit));

  (* Kernel cache behaviour: same structure, different fields = no rebuild. *)
  let phi2 = Field.create (Shape.lattice_fermion Shape.F64) geom in
  Field.fill_gaussian phi2 rng;
  let expr2 =
    Expr.add
      (Expr.mul (Expr.field u) (Expr.shift (Expr.field phi2) ~dim:mu ~dir:1))
      (Expr.shift (Expr.mul (Expr.adj (Expr.field u)) (Expr.field phi2)) ~dim:mu ~dir:(-1))
  in
  Qdpjit.Engine.eval engine psi_jit expr2;
  Printf.printf "kernels built so far      : %d (second eval reused the cached kernel)\n"
    (Qdpjit.Engine.kernels_built engine);
  Printf.printf "modeled driver-JIT time   : %.3f s (paper: 0.05-0.22 s per kernel)\n\n"
    (Qdpjit.Engine.jit_seconds engine);

  (* Memory-management statistics (Sec. IV). *)
  let mc = Memcache.stats (Qdpjit.Engine.memcache engine) in
  Printf.printf "software cache: uploads=%d hits=%d pageouts=%d spills=%d\n" mc.Memcache.uploads
    mc.Memcache.hits mc.Memcache.pageouts mc.Memcache.spills;
  let dev = Qdpjit.Engine.device engine in
  let st = Gpusim.Device.stats dev in
  Printf.printf "device: launches=%d, kernel time=%.1f us, h2d=%d B, d2h=%d B\n"
    st.Gpusim.Device.launches
    (st.Gpusim.Device.kernel_ns /. 1e3)
    st.Gpusim.Device.h2d_bytes st.Gpusim.Device.d2h_bytes;

  (* Touching a field on the host pages device-dirty data back
     transparently (the Sec. IV access hooks). *)
  let v = Field.get psi_jit ~site:0 ~spin:0 ~color:0 ~reality:0 in
  Printf.printf "host read of psi[0]       : %.6f (auto page-out happened behind the scenes)\n" v;
  Printf.printf "\nDone.\n"
