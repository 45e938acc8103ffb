(** Sensitivity of the diversity gain to process improvement
    (Section 4.2 and Appendices A–B).

    The paper represents process improvement as decreases of the fault
    introduction probabilities p_i and studies the sign of the partial
    derivatives of the risk ratio P(N2>0)/P(N1>0): a *negative* derivative
    means decreasing that p_i increases the ratio, i.e. improving the
    process *reduces* the gain from diversity — the paper's headline
    counterintuitive result. *)

val risk_ratio_partial : float array -> int -> float
(** Analytic partial derivative of the eq. (10) risk ratio with respect to
    p_i (closed form, cross-validated against numerical differentiation in
    the test suite). NaN when all probabilities are 0. *)

val risk_ratio_gradient : float array -> float array
(** All partial derivatives, O(n): one pass builds compensated
    prefix/suffix log-products of (1 - p_j) and (1 - p_j^2) plus the two
    loop-invariant P(N>0) terms, making each partial O(1). Prefix +
    suffix (not global-product-divided-by-factor), so p_i = 1 stays
    exact with no 0/0. Agrees to rounding with the O(n^2) reference in
    [Check.Reference] (one {!risk_ratio_partial} per coordinate); the
    incremental-vs-naive differential oracle pins the tolerance. *)

val risk_ratio_k_derivative : b:float array -> k:float -> float
(** Appendix B: with p_i = k * b_i, the derivative of the risk ratio with
    respect to the process-quality parameter k. The paper proves it is
    non-negative for any b and any k with all k*b_i in [0, 1]: uniform
    process improvement always increases the gain from diversity. O(n)
    via the same prefix/suffix machinery as {!risk_ratio_gradient}. *)

val stationary_p1 : p2:float -> float
(** Appendix A, n = 2: the unique positive p1 at which the partial
    derivative of the risk ratio with respect to p1 vanishes, in closed
    form: p1z = p2 (sqrt(2/(1+p2)) - 1) / (1 - p2). For p1 below p1z the
    derivative is negative (improvement reduces the gain); above, positive. *)

val risk_ratio_two : p1:float -> p2:float -> float
(** The n = 2 risk ratio (p1^2 + p2^2 - p1^2 p2^2)/(p1 + p2 - p1 p2). *)

val stationary_point :
  float array -> int -> lo:float -> hi:float -> float option
(** Numerically locate a zero of the i-th partial derivative as p_i ranges
    over [lo, hi] with the other coordinates fixed; [None] if the
    derivative does not change sign over the bracket. *)

type improvement_effect = Increases_gain | Decreases_gain | Neutral

val classify_single_improvement : float array -> int -> improvement_effect
(** Effect on the diversity gain of marginally decreasing p_i (Section
    4.2.1): [Increases_gain] when the ratio falls, [Decreases_gain] when it
    rises — the counterintuitive regime. *)
