(** The conventional conjugate Beta prior on PFD — the comparator for the
    model-based prior of {!Bayes}.

    The paper's closing proposal is to use "prior distributions ... based
    on this plausible physical model rather than chosen, as is frequently
    the case, for computational convenience only". The Beta prior is the
    computational-convenience choice; this module implements it so the two
    can be compared on the same operational evidence (experiment E25). *)

type t
(** Beta(a, b) distribution over the PFD. *)

val create : a:float -> b:float -> t
val uniform : t
(** Beta(1, 1). *)

val jeffreys : t
(** Beta(1/2, 1/2). *)

val moment_matched : Core.Pfd_dist.t -> t
(** Beta with the same mean and variance as a model PFD distribution —
    what an assessor keeps of the model if forced into a conjugate form.
    Raises [Invalid_argument] when no Beta has those moments. *)

val a : t -> float
val b : t -> float

val observe : t -> demands:int -> failures:int -> t
(** Conjugate binomial update. *)

val observe_failure_free : t -> demands:int -> t

val mean : t -> float
val prob_at_most : t -> float -> float
val quantile : t -> float -> float

val demands_for_confidence :
  t -> bound:float -> confidence:float -> max_demands:int -> int option
(** Smallest failure-free run reaching the target posterior confidence. *)

val pp : Format.formatter -> t -> unit
