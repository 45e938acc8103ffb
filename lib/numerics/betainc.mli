(** Regularized incomplete beta function and its derived distributions.

    Two uses in the reproduction: exact binomial tails (the failure
    probability of an M-out-of-N voted channel group is a binomial tail in
    the per-channel fault probability), and the conventional Beta prior on
    PFD that the paper's conclusions contrast with model-based priors. *)

val log_beta : float -> float -> float
(** log B(a, b). *)

val regularized : a:float -> b:float -> float -> float
(** I_x(a, b), the regularized incomplete beta function, to near machine
    precision (continued fraction with the symmetry switch). Raises
    [Invalid_argument] on non-positive shapes or x outside [0, 1]. *)

val beta_cdf : a:float -> b:float -> float -> float
(** CDF of the Beta(a, b) distribution (argument clamped to [0, 1]). *)

val beta_ppf : a:float -> b:float -> float -> float
(** Quantile of Beta(a, b) by safeguarded bisection. Raises
    [Invalid_argument] when [p] is outside [0, 1] or NaN. *)

val beta_mean : a:float -> b:float -> float

val binomial_cdf : n:int -> p:float -> int -> float
(** P(Bin(n, p) <= k) through the incomplete beta identity — no summation
    error even for large n. Raises [Invalid_argument] when [n < 0] or
    [p] is outside [0, 1] or NaN. *)

val binomial_sf : n:int -> p:float -> int -> float
(** P(Bin(n, p) > k). *)

val binomial_tail_direct : n:int -> p:float -> int -> float
(** P(Bin(n, p) >= k) by direct log-space summation; exact for small n and
    the cross-check oracle for {!binomial_sf}. *)
