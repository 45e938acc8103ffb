(** Distributions of the number of faults N1 (one version) and common
    faults N2 (a 1-out-of-2 pair) — the Section 4 machinery.

    For "very high-quality software with a high chance of having no
    faults", the measure of interest is the probability of the pair sharing
    no fault at all, and the paper's headline quantity is the risk ratio of
    eq. (10). *)

val p_n1_zero : Universe.t -> float
(** P(N1 = 0) = prod (1 - p_i): probability that a version is fault-free. *)

val p_n1_pos : Universe.t -> float
(** P(N1 > 0), computed without cancellation when all p_i are tiny. *)

val p_n2_zero : Universe.t -> float
(** P(N2 = 0) = prod (1 - p_i^2): no common fault in an independent pair. *)

val p_n2_pos : Universe.t -> float

val p_nk_pos : Universe.t -> channels:int -> float

val risk_ratio : Universe.t -> float
(** Eq. (10): P(N2>0) / P(N1>0), always <= 1; the smaller, the greater the
    advantage of diversity. NaN for a universe with all p_i = 0. *)

val risk_ratio_of_ps : float array -> float
(** Eq. (10) directly from a probability vector (used by the sensitivity
    analysis, which perturbs raw vectors). *)

val success_ratio : Universe.t -> float
(** Footnote 5: P(N2=0)/P(N1=0) = prod (1+p_i) >= 1, which *increases* if
    any p_i increases — the reason the paper prefers the risk ratio. *)

val prob_none : float array -> float
(** prod (1 - v_i) for an arbitrary probability vector. *)

val prob_some : float array -> float
(** 1 - prod (1 - v_i), cancellation-free for small probabilities. *)

val poisson_binomial : float array -> float array
(** Full distribution of the number of successes of independent
    non-identical Bernoulli trials: element k is P(exactly k present).
    O(n^2) dynamic programme, exact. *)

val n1_distribution : Universe.t -> float array
(** Distribution of the number of faults in one version. *)

val n2_distribution : Universe.t -> float array
(** Distribution of the number of common faults in a pair. *)

val mean_of_distribution : float array -> float
val variance_of_distribution : float array -> float
