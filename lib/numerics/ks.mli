(** One-sample Kolmogorov–Smirnov machinery.

    Experiment E15 quantifies how quickly the exact PFD distribution
    approaches the paper's Section 5 normal approximation as the number of
    potential faults grows; the KS distance is the metric. *)

val statistic : float array -> (float -> float) -> float
(** Exact one-sample KS statistic D_n of a sample against a continuous CDF. *)

val kolmogorov_q : float -> float
(** Kolmogorov's limiting survival function Q(lambda). *)

val p_value : float array -> (float -> float) -> float
(** Asymptotic p-value with Stephens' finite-sample correction. *)

val distance_between_cdfs :
  (float -> float) -> (float -> float) -> lo:float -> hi:float -> float
(** Sup-distance between two CDFs, evaluated on a uniform grid of 2049
    abscissae over [lo, hi]. *)
