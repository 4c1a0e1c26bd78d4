(** Element shapes: the inner levels of the QDP++ data type hierarchy.

    A lattice data type in QDP++ is a four-level template nest
    [Lattice (x) Spin (x) Color (x) Complex] (Table I of the paper).  The
    outer [Lattice] level is carried by the field container; this module
    describes one lattice site's element: its spin structure, color
    structure, reality and precision.  The clover-term types of Table I
    (lower part) reuse the spin level for the two 6x6 Hermitian blocks and
    the color level for the packed diagonal/triangular storage. *)

type precision = F16 | F32 | F64

type reality = Real | Cplx

type spin =
  | Spin_scalar
  | Spin_vector of int  (** e.g. 4 spin components of a fermion *)
  | Spin_matrix of int  (** e.g. 4x4 gamma-algebra matrices *)
  | Spin_block of int  (** clover term: index over Hermitian blocks *)

type color =
  | Color_scalar
  | Color_vector of int  (** e.g. 3 colors of a fermion *)
  | Color_matrix of int  (** e.g. SU(3) gauge links *)
  | Color_diag of int  (** clover term: n real diagonal entries *)
  | Color_tri of int  (** clover term: n complex lower-triangular entries *)
  | Color_rows of int
      (** compressed SU(3): the first n rows stored, the last reconstructed
          in-kernel (QUDA's 12-real trick, Sec. VIII-C) *)

type t = { spin : spin; color : color; reality : reality; prec : precision }

val spin_extent : spin -> int
(** Number of spin components (matrix n counts n*n). *)

val color_extent : color -> int

val reality_extent : reality -> int
(** 1 for [Real], 2 for [Cplx]. *)

val dof : t -> int
(** Real degrees of freedom per site ([components * reality_extent]). *)

val prec_bytes : precision -> int
(** Storage bytes of one real word: 2 / 4 / 8 for F16 / F32 / F64. *)

val bytes_per_site : t -> int

val equal : t -> t -> bool

val equal_modulo_prec : t -> t -> bool

val promote_prec : precision -> precision -> precision
(** Implicit precision promotion (Sec. III-D): the wider operand wins
    under the total order [F64 > F32 > F16], so promotion is
    commutative, associative and monotone in either argument. *)

val to_string : t -> string

val validate : t -> unit
(** Raises [Invalid_argument] on nonsensical extents (negative or zero). *)

(** {2 Standard QDP++ type aliases (Table I)} *)

val lattice_fermion : precision -> t
(** psi: Lattice< Vector< Vector< Complex, 3>, 4> >. *)

val lattice_color_matrix : precision -> t
(** U: Lattice< Scalar< Matrix< Complex, 3> > >. *)

val lattice_spin_matrix : precision -> t
(** Gamma: Lattice< Matrix< Scalar< Complex >, 4> >. *)

val clover_diag : precision -> t
(** A_diag: Lattice< Component< Diagonal< Scalar< REAL> > > > — 2 blocks of
    6 real diagonal entries. *)

val clover_tri : precision -> t
(** A_tri: Lattice< Component< Triangular< Complex > > > — 2 blocks of 15
    complex lower-triangular entries. *)

val compressed_color_matrix : precision -> t
(** Two rows of an SU(3) matrix (12 reals); the third row is the conjugate
    cross product, reconstructed where the matrix is used (QUDA's gauge
    compression, Sec. VIII-C). *)

val real_scalar : precision -> t

val complex_scalar : precision -> t
