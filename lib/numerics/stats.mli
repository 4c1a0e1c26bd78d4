(** Small statistics helpers for benchmark and HMC observable analysis. *)

val mean : float array -> float
(** Arithmetic mean; raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (zero for arrays of length < 2). *)

val std_error : float array -> float
(** Standard error of the mean. *)

val min_max : float array -> float * float

val jackknife : (float array -> float) -> float array -> float * float
(** [jackknife f xs] returns [(estimate, error)] of the statistic [f] using
    leave-one-out resampling; used for autocorrelated HMC observables. *)

val linear_fit : float array -> float array -> float * float
(** [linear_fit xs ys] returns [(slope, intercept)] of the least-squares
    line; used to check the dH ~ dt^2 scaling of symplectic integrators. *)
