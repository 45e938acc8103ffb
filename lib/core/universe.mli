(** The collection of potential faults {F_1 .. F_n} of Section 2.2.

    A universe fixes the model parameters: for each potential fault, its
    probability [p_i] of being introduced in an independently developed
    version and the probability [q_i] of a demand hitting its failure
    region. Developing a version "means choosing, randomly and
    independently, possible subsets of this set of possible faults". *)

type t
(** Immutable fault universe (at least one fault). *)

val of_faults : Fault.t array -> t
(** Copies the array. Raises [Invalid_argument] on an empty universe. *)

val of_arrays : p:float array -> q:float array -> t
(** Build from parallel parameter vectors. *)

val of_pairs : (float * float) list -> t
(** Build from [(p, q)] pairs. *)

val size : t -> int
(** Number of potential faults [n]. *)

val fault : t -> int -> Fault.t
val faults : t -> Fault.t array
val ps : t -> float array
val qs : t -> float array

val pmax : t -> float
(** max over i of p_i — the single parameter an assessor must bound to use
    the paper's eqs. (4), (9), (11), (12). *)

val qmax : t -> float

val total_q : t -> float
(** Sum of region measures; the worst possible version PFD. *)

val validate_disjoint : t -> bool
(** True when total_q <= 1, the consistency condition for non-overlapping
    failure regions (Section 6.2). *)

val map_faults : (Fault.t -> Fault.t) -> t -> t

val scale_all_p : t -> float -> t
(** The Appendix B process-quality transformation p_i = k*b_i applied as a
    multiplicative change; raises if a probability leaves [0, 1]. *)

val with_fault : t -> int -> Fault.t -> t
val set_p : t -> int -> float -> t

val iteri : (int -> Fault.t -> unit) -> t -> unit
val pp : Format.formatter -> t -> unit

(** {2 Universe families}

    The experiments sweep over families rather than single instances since
    the true parameters are "unknown and unmeasurable in practice". *)

val homogeneous : n:int -> p:float -> q:float -> t
(** All faults identical — the fully symmetric special case. *)

val uniform_random :
  Numerics.Rng.t -> n:int -> p_lo:float -> p_hi:float -> total_q:float -> t
(** p_i uniform in [p_lo, p_hi]; q_i a uniform random subdivision of
    [total_q]. *)

val power_law_random :
  Numerics.Rng.t ->
  n:int ->
  p_lo:float ->
  p_hi:float ->
  q_exponent:float ->
  total_q:float ->
  t
(** q_i drawn from a power law then normalised — a few large failure
    regions and many small ones, matching the shapes reported in the
    literature the paper cites ([9–11]). *)

val dirichlet_random :
  Numerics.Rng.t -> n:int -> p_lo:float -> p_hi:float -> alpha:float -> total_q:float -> t
(** q_i an exact Dirichlet(alpha) subdivision of [total_q]; small [alpha]
    gives highly unequal regions. *)

val high_quality :
  Numerics.Rng.t -> n:int -> expected_faults:float -> total_q:float -> t
(** The Section 4 regime: "very high-quality software with a high chance of
    having no faults" — random p_i scaled so that the expected number of
    faults per version equals [expected_faults] (all p_i small). *)
