(** Confidence bounds on the PFD under the normal approximation
    (Section 5).

    The PFD is a sum of many independent per-fault contributions, so the
    paper approximates its distribution as N(mu, sigma^2) and reads
    confidence bounds as mu + k*sigma with k set by the confidence level
    (e.g. 2.33 at 99%): k is {!Numerics.Normal_dist.ppf} of the
    confidence. *)

type bound = { confidence : float; k : float; single : float; pair : float }
(** Matched single-version and pair bounds at one confidence level. *)

val single_bound : Universe.t -> k:float -> float
(** mu1 + k*sigma1. *)

val pair_bound : Universe.t -> k:float -> float
(** mu2 + k*sigma2. *)

val bound_at_confidence : Universe.t -> confidence:float -> bound

val bound_ratio : Universe.t -> k:float -> float
(** (mu2 + k sigma2)/(mu1 + k sigma1): the Section 5.2 gain measure; by
    eq. (12) it is below sqrt(pmax(1+pmax)). *)

val bound_difference : Universe.t -> k:float -> float
(** (mu1 + k sigma1) - (mu2 + k sigma2): the alternative gain measure whose
    monotonicity in every p_i the paper conjectures in Section 5.2. *)

val single_cdf : Universe.t -> float -> float
(** Normal-approximate P(Theta_1 <= x). *)

val single_quantile : Universe.t -> confidence:float -> float
(** Normal-approximate quantile of Theta_1. *)

type worked_example = {
  mu1 : float;
  sigma1 : float;
  k : float;
  pmax : float;
  single_bound : float;
  pair_bound_eq11 : float;
  pair_bound_eq12 : float;
}
(** The quantities of the Section 5.1 numerical example. *)

val worked_example :
  ?mu1:float -> ?sigma1:float -> ?k:float -> ?pmax:float -> unit -> worked_example
(** Defaults reproduce the paper's numbers: single bound 0.011, eq. (11)
    pair bound 0.001, eq. (12) pair bound ~0.004 (the paper rounds). *)

val normality_ks_distance : Universe.t -> float
(** Sup-distance between the exact distribution of Theta_1 and its
    moment-matched normal — how trustworthy the Section 5 approximation is
    for this universe. *)
