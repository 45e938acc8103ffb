(** Estimating the model's parameters from observed versions.

    The paper's Section 3.1.1: "these parameters have intuitive meanings
    relating to developers' experiences, and the typical values achieved by
    given software development processes could be studied empirically ...
    to use inequality (4) we only need to estimate an upper bound." This
    module does that study: given the fault sets found in a sample of
    versions (e.g. from past projects of the same process), it estimates
    the p_i, bounds pmax, and propagates the sampling uncertainty into the
    paper's predictions by bootstrap. *)

type observation
(** Fault sets observed in a sample of independently developed versions
    over a known universe of [n_faults] potential faults. *)

val observe : n_faults:int -> int list array -> observation
(** Raises [Invalid_argument] on an empty sample or out-of-range indices. *)

val version_count : observation -> int

val occurrence_counts : observation -> int array
(** Number of observed versions containing each fault. *)

val p_hat : observation -> float array
(** Maximum-likelihood estimates of the introduction probabilities. *)

val pmax_hat : observation -> float
(** Point estimate of pmax. *)

val pmax_upper : observation -> float
(** Conservative upper confidence bound on pmax (the largest Wilson upper
    limit at 95% over faults) — the quantity an assessor feeds into eqs.
    (4), (9), (11), (12). *)

val plug_in_universe : observation -> qs:float array -> Universe.t
(** Universe with the estimated probabilities and externally supplied
    region measures. *)

type prediction = { point : float; ci_low : float; ci_high : float }

val predict_risk_ratio : Numerics.Rng.t -> observation -> qs:float array -> prediction
(** The eq. (10) ratio with a 95% percentile-bootstrap interval over the
    version sample (1000 resamples). *)
