(** Symplectic molecular-dynamics integrators.

    Leapfrog and Omelyan's second-order minimum-norm scheme
    (lambda = 0.1931833...), both area-preserving and reversible; Omelyan
    roughly halves the energy error per force evaluation, which is why
    production HMC (including the paper's) prefers it.  A
    Sexton–Weingarten multiple-time-scale driver nests levels: each level's
    "position update" is a full sub-trajectory of the next. *)

type scheme = Leapfrog | Omelyan

type system = {
  update_p : eps:float -> unit;  (** P -= eps * F(U) *)
  update_u : eps:float -> unit;  (** U <- exp(i eps P) U *)
}

val run : scheme -> system -> steps:int -> dt:float -> unit

type level = {
  update_p_level : eps:float -> unit;
  steps_per_parent : int;  (** sub-steps per parent position update *)
  level_scheme : scheme;
}

val run_multiscale : update_u:(eps:float -> unit) -> level list -> tau:float -> unit
(** Levels ordered outermost to innermost; the innermost position update
    is the actual link update. *)
