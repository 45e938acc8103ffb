(** Statistical comparators for the differential oracles.

    Strengths of agreement, matching how the two sides of each oracle
    were computed:

    - {!exact_bits} — two code paths that must produce the identical
      double (golden pins, degenerate algebraic reductions);
    - {!approx} — independent closed forms that agree up to rounding
      (enumeration vs direct summation);
    - {!wilson} / {!mean_z} / {!ratio_wilson} — Monte-Carlo agreement:
      the analytic value must fall inside a z-sigma sampling interval of
      the estimate. With z = 6, verdicts on a fixed seed are
      deterministic and a fresh seed has a ~2e-9 per-check false-alarm
      probability, so the differential suites are seed-stable and never
      flaky by construction;
    - {!lower_bound} — an exact check on what is not a float pair: a
      one-sided inequality.

    Every verdict records the two values its comparator tested, so an
    oracle returns verdicts and never restates what it compared. *)

type verdict = {
  pass : bool;
  comparator : string;
  detail : string;
  analytic : float;  (** the analytic side the comparator tested *)
  simulated : float;
      (** the independent side: a second derivation, or the sample
          statistic the comparator computed (e.g. [successes/trials]) *)
}

val exact_bits : float -> float -> verdict
(** Bit-identical doubles (NaN never passes). *)

val same_bytes : string -> string -> verdict
(** Byte identity of two renderings, as {!exact_bits} on [1.0] (analytic)
    and [1.0]/[0.0] for identical/different (simulated). *)

val approx : ?rel:float -> ?abs:float -> float -> float -> verdict
(** {!Numerics.Stats.approx_eq} with the same defaults: NaN agrees with
    nothing, an infinity only with the same-signed infinity, [+0] with
    [-0]. *)

val lower_bound : float -> float -> verdict
(** [lower_bound bound v]: does [v >= bound] hold (up to 1e-12 slack)?
    Records [bound] as the analytic side and [v] as the simulated one. *)

val wilson : expected:float -> successes:int -> trials:int -> unit -> verdict
(** Does the analytic probability lie in the Wilson score interval of
    the observed proportion — or, for expected proportions within ~1/n
    of 0 or 1 where Wilson's CLT coverage collapses, within the exact
    Bernstein tolerance [z sqrt(expected (1 - expected) / n) +
    z^2/(3n)]? Either acceptance keeps the verdict a finite-sample
    guarantee at confidence [2 exp(-z^2/2)]. Raises [Invalid_argument]
    on an empty or inconsistent sample. *)

val mean_z :
  ?bound:float ->
  expected:float ->
  sigma:float ->
  trials:int ->
  mean:float ->
  unit ->
  verdict
(** Is the sample mean within
    [z * sigma / sqrt trials + z^2 * bound / (3 * trials)] of the
    analytic expectation? [sigma] is the *analytic* standard deviation
    of one observation (e.g. [Voting.sigma]); [bound] (default 0) is a
    bound on the magnitude of one observation (e.g. [Universe.total_q]
    for PFD samples). With a positive [bound] the tolerance dominates
    the Bernstein tail inequality at confidence [2 exp(-z^2/2)], making
    the verdict a finite-sample guarantee valid even for the rare-event
    mixtures PFD samples are — not a CLT approximation. Falls back to
    {!approx} when both [sigma] and [bound] are zero. *)

val ratio_wilson :
  expected:float -> num:int -> den:int -> trials:int -> unit -> verdict
(** Ratio-of-proportions containment for eq. (10)-style quantities:
    the analytic ratio must lie in the interval spanned by the two
    Wilson intervals, each widened by the Bernstein [z^2/(3n)] term (see
    {!wilson}). Inconclusive (passes, with a detail note) when the
    denominator interval touches zero. The simulated side is [num/den]
    (NaN when [den = 0]); only a NaN analytic side fails the guard. *)

val pp : Format.formatter -> verdict -> unit
