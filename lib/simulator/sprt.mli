(** Wald's sequential probability ratio test for PFD acceptance.

    The assessor practice Section 5 describes — deciding whether evidence
    supports "PFD below a given bound" — has a classical operational
    counterpart: observe demands sequentially and stop as soon as the
    likelihood ratio between a rejectable PFD (theta1) and an acceptable
    one (theta0) crosses Wald's boundaries. Used with a developed Fig. 1
    system, it measures how much operational evidence a diverse pair needs
    to be accepted compared with a single version. *)

type decision = Accept | Reject | Continue

type t
(** Mutable test state. *)

val create : theta0:float -> theta1:float -> alpha:float -> beta:float -> t
(** Test of H0: PFD <= theta0 against H1: PFD >= theta1 with type-I error
    [alpha] (wrongly rejecting a good system) and type-II error [beta].
    Raises [Invalid_argument] unless 0 < theta0 < theta1 < 1 and the error
    rates are in (0, 1). *)

val record : t -> failed:bool -> decision
(** Feed one demand outcome; once a decision is reached further outcomes
    are ignored. *)

val state : t -> decision
val demands_observed : t -> int
val failures_observed : t -> int

val theta0 : t -> float
(** The acceptable PFD the test state was created with. *)

val theta1 : t -> float
(** The rejectable PFD the test state was created with. *)

val run :
  Numerics.Rng.t ->
  system:Protection.t ->
  theta0:float ->
  theta1:float ->
  alpha:float ->
  beta:float ->
  max_demands:int ->
  decision * t
(** Drive a protection system through operational demands until the test
    concludes or the budget runs out ([Continue] in that case). *)

val expected_sample_size_h0 :
  theta0:float -> theta1:float -> alpha:float -> beta:float -> float
(** Wald's approximation of the expected number of demands to a decision
    when the true PFD equals theta0. *)
