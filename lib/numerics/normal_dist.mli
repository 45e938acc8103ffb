(** The normal (Gauss) distribution: density, CDF, tail, quantile, sampling.

    This is the machinery behind the paper's Section 5 ("Bounds on
    unreliability, under the normal approximation"): confidence statements
    of the form "P(PFD <= mu + k*sigma) = alpha" need the CDF to go from [k]
    to [alpha] and the quantile function to go from [alpha] to [k]
    (e.g. alpha = 0.99 gives k = 2.3263). {!pdf}, {!cdf}, {!sf} and {!ppf}
    raise [Invalid_argument] unless [sigma > 0] (NaN rejected). *)

val pdf : ?mu:float -> ?sigma:float -> float -> float
(** Density. Defaults: standard normal. *)

val cdf : ?mu:float -> ?sigma:float -> float -> float
(** Cumulative distribution function, computed through [erfc] so the lower
    tail does not lose precision. *)

val sf : ?mu:float -> ?sigma:float -> float -> float
(** Survival function 1 - CDF, accurate in the upper tail. *)

val ppf : ?mu:float -> ?sigma:float -> float -> float
(** Quantile (inverse CDF): Acklam's approximation plus one Halley
    refinement step; full double precision. Raises [Invalid_argument]
    unless 0 < p < 1. On the standard normal, [ppf alpha] is the paper's
    "factor k chosen according to the required confidence" alpha
    (Section 5.1), and [cdf k] goes back: [cdf 3.0] = 0.99865003... as
    quoted in the paper. *)

val sample : Rng.t -> ?mu:float -> ?sigma:float -> unit -> float
(** Draw a normal variate (Marsaglia polar method). *)
