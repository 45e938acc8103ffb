(** Demand-profile drift detection for proven-in-use arguments.

    Compares the empirical demand histogram accumulated from
    [runner.run] events against the declared operational profile with a
    Pearson chi-square goodness-of-fit test (small-expectation bins
    pooled, p-value via the Wilson-Hilferty approximation) and a KL
    divergence. Experiment E28 quantifies why this matters: the claimed
    PFD is only valid under the profile the evidence was collected on. *)

type result = {
  total : int;  (** demands in the empirical histogram *)
  chi_square : float;  (** Pearson statistic over the pooled bins *)
  dof : int;  (** pooled bins - 1 (>= 1) *)
  p_value : float;  (** upper-tail probability under H0: no drift *)
  kl_divergence : float;  (** sum q log(q/p) over the observed support *)
  impossible : int;
      (** demands observed where the declared profile has zero mass —
          always an alarm, kept out of the chi-square so the reported
          statistics stay finite *)
  alarm : bool;  (** [impossible > 0] or [p_value < alpha] *)
}

val assess : expected:float array -> counts:int array -> alpha:float -> result
(** [assess ~expected ~counts ~alpha] tests the observed demand counts
    (indexed by demand id; may be shorter or longer than [expected])
    against the declared profile probabilities. Deterministic: the
    result is a pure function of the arguments. Raises
    [Invalid_argument] if [alpha] is outside (0, 1), [expected] is empty
    or contains a negative/non-finite entry. An empty histogram returns
    [p_value = 1.0] and no alarm. *)
