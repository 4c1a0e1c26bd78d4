(** PTX text emission.  The output follows NVCC's dialect closely enough
    that reading it next to the ISA manual is unremarkable; floating-point
    immediates use the exact hexadecimal forms ([0f...]/[0d...]) so the
    parse/print round trip is bit-exact. *)

val kernel : Types.kernel -> string
