(** Descriptive statistics over float arrays.

    Used to summarise Monte-Carlo PFD samples (e.g. the synthetic
    Knight–Leveson replication in experiment E09, which compares sample means
    and standard deviations of version and pair PFDs). *)

type summary = {
  n : int;
  mean : float;
  variance : float;  (** unbiased (Bessel-corrected); 0 when n = 1 *)
  std : float;
  min : float;
  max : float;
}

val approx_eq : ?rel:float -> ?abs:float -> float -> float -> bool
(** Tolerant float equality: true when finite operands differ by at most
    [abs] (default 1e-12) absolutely or [rel] (default 1e-9) relatively.
    Off the finite line the tolerances do not apply: NaN equals nothing,
    not even itself, and an infinity equals only the same-signed
    infinity. [+0] equals [-0]. This is the comparison divlint rule R1
    points at in place of exact [=] on floats, and the one float-agreement
    policy of the repo: the oracle comparator [Check.Compare.approx] and
    the test suites' [check_close] both delegate to it. *)

val is_zero : ?eps:float -> float -> bool
(** [is_zero x] is true when [|x| <= eps]. The default [eps] is the
    smallest positive {e normal} float, so it accepts exact zeros and
    subnormals — exactly the values that make a division overflow or go
    undefined — while never swallowing a legitimately small probability.
    Intended as the guard before dividing by [x]. *)

val mean : float array -> float
(** Compensated mean. Raises [Invalid_argument] on empty input. *)

val variance : float array -> float
(** Two-pass compensated sample variance (the unbiased, n - 1 estimator).
    Requires at least two observations. *)

val std : float array -> float
(** Standard deviation. *)

val summarize : float array -> summary
(** Full summary in one pass over the data. *)

val covariance : float array -> float array -> float
(** Unbiased sample covariance. *)

val correlation : float array -> float array -> float
(** Pearson correlation; 0 by convention when either input is constant. *)

val quantile : float array -> float -> float
(** Type-7 (linear interpolation) quantile of an unsorted sample. Raises
    [Invalid_argument] on an empty sample or when [p] is outside [0, 1]
    or NaN. *)

val quantile_sorted : float array -> float -> float
(** As {!quantile} but assumes the input is already sorted ascending. *)

val median : float array -> float

val empirical_cdf : float array -> float -> float
(** [empirical_cdf a] returns the step CDF x -> #{i | a_i <= x}/n. *)

val proportion_ci : ?z:float -> successes:int -> trials:int -> unit -> float * float
(** Wilson score interval for a binomial proportion; well behaved for the
    near-zero probabilities typical of PFD estimation. *)
