(** Device memory buffers.

    A buffer is typed storage in simulated device memory.  Addresses handed
    to kernels encode [(buffer id, byte offset)] in a single integer so
    that PTX pointer arithmetic (adding byte offsets) works unchanged,
    while stray pointers into foreign buffers are caught instead of
    silently corrupting memory. *)

type data =
  | F16 of (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array1.t
      (** IEEE binary16 payloads; kernels convert to/from f32 at the access *)
  | F32 of (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
  | F64 of (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  | I32 of (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { id : int; data : data; bytes : int }

(* Byte offsets live in the low bits; buffer ids above them.  40 bits of
   offset = 1 TiB per buffer, far beyond any simulated allocation. *)
let offset_bits = 40
let offset_mask = (1 lsl offset_bits) - 1

let address buf = buf.id lsl offset_bits

let elem_bytes = function F16 _ -> 2 | F32 _ -> 4 | F64 _ -> 8 | I32 _ -> 4

let length buf =
  match buf.data with
  | F16 a -> Bigarray.Array1.dim a
  | F32 a -> Bigarray.Array1.dim a
  | F64 a -> Bigarray.Array1.dim a
  | I32 a -> Bigarray.Array1.dim a

let create_f16 id n =
  let a = Bigarray.Array1.create Bigarray.int16_signed Bigarray.c_layout n in
  Bigarray.Array1.fill a 0;
  { id; data = F16 a; bytes = 2 * n }

let create_f32 id n =
  let a = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0.0;
  { id; data = F32 a; bytes = 4 * n }

let create_f64 id n =
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0.0;
  { id; data = F64 a; bytes = 8 * n }

let create_i32 id n =
  let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0l;
  { id; data = I32 a; bytes = 4 * n }
