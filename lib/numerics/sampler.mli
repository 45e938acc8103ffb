(** Samplers for the distributions used to generate fault universes and
    demand profiles.

    The paper leaves the parameter vectors {p_i} and {q_i} free ("all
    parameters are unknown and unmeasurable in practice"); experiments
    therefore sweep over *families* of universes — uniform, power-law
    (a few large failure regions, many tiny ones, matching the shapes
    reported in refs [9–11]), Dirichlet-normalised, etc. *)

val exponential : Rng.t -> rate:float -> float

val binomial : Rng.t -> n:int -> p:float -> int
(** Number of successes in [n] Bernoulli(p) trials. Raises
    [Invalid_argument] when [n < 0] or [p] is outside [0, 1] or NaN. *)

val gamma : Rng.t -> shape:float -> float
(** Gamma(shape, 1) via Marsaglia–Tsang. *)

val beta : Rng.t -> a:float -> b:float -> float

val dirichlet : Rng.t -> alphas:float array -> float array
(** A point on the simplex: non-negative entries summing to 1. *)

val power_law : Rng.t -> exponent:float -> lo:float -> hi:float -> float
(** Draw from the density proportional to x^exponent on [lo, hi]
    (0 < lo < hi). Exponent -1 is handled as the log-uniform limit. *)

val poisson : Rng.t -> lambda:float -> int
(** Raises [Invalid_argument] unless [lambda] is finite and non-negative. *)

val truncated : Rng.t -> lo:float -> hi:float -> (Rng.t -> float) -> float
(** Rejection-sample [draw] until the value lands in [lo, hi]. Raises
    [Invalid_argument] after 100000 rejections. *)
