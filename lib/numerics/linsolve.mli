(** Dense linear algebra over [float] — just enough for the Remez solver
    and small fitting problems.  Matrices are [float array array] in row-major
    order; all functions are total and raise [Singular] rather than returning
    garbage. *)

exception Singular
(** Raised when elimination encounters a pivot below numerical tolerance. *)

val solve : float array array -> float array -> float array
(** [solve a b] solves [a x = b] by Gaussian elimination with partial
    pivoting.  [a] and [b] are not modified.  Raises [Singular] if [a] is
    (numerically) singular and [Invalid_argument] on shape mismatch. *)

val lstsq : float array array -> float array -> float array
(** [lstsq a b] solves the least-squares problem [min ||a x - b||] via the
    normal equations; adequate for the small, well-conditioned systems used
    here. *)

val mat_vec : float array array -> float array -> float array
(** Matrix–vector product. *)

val residual_norm : float array array -> float array -> float array -> float
(** [residual_norm a x b] is [||a x - b||_2]; used by tests. *)
