(** A potential fault and its failure region (Section 2.2 of the paper).

    A potential fault is characterised by two probabilities:
    - [p]: the probability that the whole development process leaves this
      fault in a delivered version (a "mistake of the whole development
      process", including failed inspection, testing and debugging);
    - [q]: the probability that a random demand, drawn from the operational
      profile, lands in this fault's failure region — the fault's
      contribution to the version's probability of failure on demand. *)

type t
(** Immutable potential fault. *)

val make : p:float -> q:float -> t
(** Raises [Invalid_argument] unless both probabilities lie in [0, 1]. *)

val p : t -> float
(** Probability of introduction into one independently developed version. *)

val q : t -> float
(** Probability that a demand hits the fault's failure region. *)

val scale_p : t -> float -> t
(** Multiply the introduction probability by a factor (process change);
    raises [Invalid_argument] if the result leaves [0, 1]. *)

val with_p : t -> float -> t

val mean_contribution : t -> float
(** [p*q]: this fault's term in E(Theta_1), eq. (1). *)

val variance_contribution : t -> float
(** [p(1-p)q^2]: this fault's term in Var(Theta_1), eq. (2). *)

val common_mean_contribution : t -> float
(** [p^2 q]: the term in E(Theta_2) for an independently developed pair. *)

val common_variance_contribution : t -> float
(** [p^2(1-p^2)q^2]: the term in Var(Theta_2). *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int
