(** Rigorous tail bounds on the PFD distribution.

    Section 5 derives confidence bounds through a normal approximation the
    paper itself flags as unverifiable in practice ("we will not know in
    practice how good an approximation it is"). Because the PFD is a sum
    of independent bounded terms, Chernoff and Hoeffding bounds give
    *guaranteed* (if conservative) tail probabilities with no
    distributional assumption — a sound replacement for mu + k sigma when
    an assessor cannot defend normality (compare in experiment E30). *)

val log_mgf : probs:float array -> values:float array -> float -> float
(** Log moment generating function of a sum of independent two-point
    variables at the given argument. *)

val chernoff_sf_single : Universe.t -> float -> float
(** Guaranteed P(Theta_1 > x). *)

val hoeffding_sf_single : Universe.t -> float -> float

val guaranteed_bound_single : Universe.t -> confidence:float -> float
(** Smallest PFD level whose Chernoff-guaranteed exceedance probability is
    at most 1 - confidence: the rigorous analogue of the Section 5
    single-version bound. *)

val guaranteed_bound_pair : Universe.t -> confidence:float -> float
