(** Assessor-facing API.

    Section 5 motivates the modelling with the assessor's problem:
    standards map reliability requirements into Safety Integrity Levels and
    the assessor must judge, with some confidence, whether a system's PFD
    is below a bound. This module packages the paper's results in those
    terms. *)

type sil = SIL1 | SIL2 | SIL3 | SIL4 | Below_SIL1
(** IEC 61508-style low-demand safety integrity levels. *)

val sil_of_pfd : float -> sil
(** Level whose PFD band contains the given value (claims are capped at
    SIL4). *)

val sil_to_string : sil -> string

val pfd_ceiling_of_sil : sil -> float
(** Upper PFD limit of the level's band. *)

type verdict = {
  required_bound : float;
  confidence : float;
  single_bound : float;  (** mu1 + k*sigma1 *)
  pair_bound : float;  (** mu2 + k*sigma2 *)
  pair_bound_conservative : float;
      (** eq. (12): sqrt(pmax(1+pmax)) * single_bound — usable when only the
          single-version bound and pmax are trusted *)
  single_meets : bool;
  pair_meets : bool;
  pair_meets_conservatively : bool;
}

val assess : Universe.t -> required_bound:float -> confidence:float -> verdict
(** Evaluate a requirement "PFD <= bound with the given confidence" for a
    single version and for a 1-out-of-2 pair from the same process.
    Raises [Invalid_argument] unless [required_bound] is positive (NaN
    included) and [confidence] lies strictly in (0, 1). *)

val diversity_gain_summary : Universe.t -> confidence:float -> float * float * float * float
(** [(k, mean_gain, bound_gain, risk_gain)]: the k factor used, mu1/mu2,
    the ratio of confidence bounds, and P(N1>0)/P(N2>0). *)

val required_pmax_for_bound :
  single_bound:float -> required_bound:float -> float option
(** Invert eq. (12): the weakest demonstrated bound on the probability of
    the most likely fault that lets the assessor claim the required pair
    bound. [Some 1.0] when no diversity credit is needed; [None] when no
    pmax can achieve it. Raises [Invalid_argument] unless [single_bound]
    is positive, or when [required_bound] is NaN. *)

val pp_verdict : Format.formatter -> verdict -> unit
