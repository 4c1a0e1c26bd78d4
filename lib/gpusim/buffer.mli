(** Device memory buffers.

    A buffer is typed storage in simulated device memory.  Addresses handed
    to kernels encode [(buffer id, byte offset)] in one integer so that PTX
    pointer arithmetic works unchanged while stray pointers into foreign
    buffers fault instead of corrupting memory. *)

type data =
  | F16 of (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array1.t
      (** IEEE binary16 payloads; kernels convert to/from f32 at the access *)
  | F32 of (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t
  | F64 of (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  | I32 of (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { id : int; data : data; bytes : int }

val offset_bits : int
(** Byte offsets occupy the low [offset_bits] of an address; buffer ids
    live above them. *)

val offset_mask : int

val address : t -> int
(** The base "device pointer" handed to kernels. *)

val length : t -> int

val create_f16 : int -> int -> t
(** [create_f16 id n]: n binary16 payloads (2 bytes each); allocate through
    the device. *)

val create_f32 : int -> int -> t
(** [create_f32 id n]: used by {!Device}; allocate through the device. *)

val create_f64 : int -> int -> t
val create_i32 : int -> int -> t
