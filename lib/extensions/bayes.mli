(** Bayesian assessment of a system's PFD with a model-based prior.

    The paper's conclusions propose exactly this: "apply a family of prior
    distributions for a product's reliability parameters that are based on
    this plausible physical model rather than chosen ... for computational
    convenience only", combining the fault-creation model with inference
    from operation [14]. The prior here is the (exact or grid) distribution
    of Theta_2 from the model; observations are demand outcomes. *)

type t
(** A distribution over PFD values, held in log space so that enormous
    failure-free run lengths do not underflow. *)

val of_pfd_dist : Core.Pfd_dist.t -> t
(** Use a model-derived PFD distribution as the prior. *)

val of_mass : (float * float) list -> t
(** Prior from explicit (value, mass) pairs. *)

val observe : t -> demands:int -> failures:int -> t
(** Condition on a binomial operational record. Raises [Invalid_argument]
    when the record is impossible under the prior (e.g. failures observed
    under a prior concentrated on 0). *)

val observe_failure_free : t -> demands:int -> t
(** The paper's headline case: t failure-free demands. *)

val mean : t -> float
val quantile : t -> float -> float

val prob_at_most : t -> float -> float
(** Posterior confidence that the PFD meets a bound. *)

val posterior_trajectory :
  t -> bound:float -> demand_counts:int array -> (int * float) array
(** Posterior confidence in the bound after each failure-free run length —
    experiment E16's series. *)

val demands_for_confidence :
  t -> bound:float -> confidence:float -> max_demands:int -> int option
(** Smallest failure-free run length after which the posterior confidence
    in the bound reaches the target; [None] if [max_demands] does not
    suffice (e.g. the prior puts too much mass above the bound). *)
