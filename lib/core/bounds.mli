(** The paper's pmax-based guaranteed bounds (Sections 3.1 and 5.1).

    These are the results an assessor can use knowing only an upper bound on
    the probability of the most likely fault: eq. (4) bounds the pair's mean
    PFD, eq. (9) its standard deviation, and eqs. (11)–(12) any
    (mu + k sigma)-style confidence bound. *)

val golden_threshold : float
(** (sqrt 5 - 1)/2 = 0.618033987...: the paper's threshold below which
    p^2(1-p^2) <= p(1-p), i.e. each fault's variance term shrinks when
    moving from one version to a pair (Section 3.1.2). *)

val variance_term_shrinks : float -> bool
(** [variance_term_shrinks p] is true iff p^2(1-p^2) <= p(1-p); true exactly
    when p <= {!golden_threshold} (up to rounding at the threshold). *)

val sigma_ratio_bound : float -> float
(** [sigma_ratio_bound pmax] = sqrt(pmax*(1+pmax)), the guaranteed
    shrinkage factor of eq. (9) and the "beta-factor"-style reduction of
    eq. (12); e.g. 0.866 / 0.332 / 0.100 at pmax = 0.5 / 0.1 / 0.01
    (the Section 5.1 table). *)

val mu2_upper : Universe.t -> float
(** Eq. (4): pmax * mu1 >= mu2 — the indisputable upper bound on the pair's
    average unreliability. *)

val sigma2_upper : Universe.t -> float
(** Eq. (9): sqrt(pmax(1+pmax)) * sigma1 > sigma2 (valid since all p_i are
    probabilities; strict improvement needs pmax below the golden
    threshold). *)

val confidence_bound : mu:float -> sigma:float -> k:float -> float
(** The "mu + k sigma" expression studied throughout Section 5. *)

val pair_bound_from_moments : Universe.t -> k:float -> float
(** Eq. (11): upper bound on mu2 + k sigma2 available when the assessor has
    estimates of mu1 and sigma1 themselves. *)

val pair_bound_from_bound : single_bound:float -> pmax:float -> float
(** Eq. (12): upper bound on mu2 + k sigma2 when only the single-version
    confidence bound (mu1 + k sigma1) is known: the bound shrinks by at
    least sqrt(pmax(1+pmax)). *)

val paper_table : unit -> (float * float) array
(** The Section 5.1 table: pairs (pmax, sqrt(pmax(1+pmax))). *)
