(** Robustness of the q parameters to operational-profile uncertainty.

    Section 2.1: each demand "has a certain (possibly unknown) probability
    of happening". The q_i are measures under an assumed profile; if the
    real profile differs from the assumed one by at most epsilon in total
    variation, every region's measure can rise by at most epsilon, and an
    adversarial profile inflates the pair's mean PFD by pushing its
    movable mass into the regions most likely to be common. These bounds
    let an assessor carry profile uncertainty through the paper's
    formulas. *)

val worst_case_region_measure : q:float -> epsilon:float -> float
(** min(1, q + epsilon): the largest measure a region can attain under a
    total-variation-epsilon profile perturbation. *)

val robust_universe : Space.t -> epsilon:float -> Core.Universe.t
(** Conservative universe with every region at its worst-case measure
    (each region's bound is individually attainable, not jointly — the
    conservative direction for assessment). *)

val worst_case_mu2 : Space.t -> epsilon:float -> float
(** Sharp adversarial bound on the pair's mean PFD: the epsilon of movable
    profile mass is allocated greedily to the regions with the largest
    p_i^2, respecting each region's headroom. Coincides with the model's
    mu2 at epsilon = 0. *)

val profile_sensitivity :
  Space.t -> alternatives:(string * Profile.t) list -> (string * float * float) list
(** [(label, mu1, mu2)] under each explicitly supplied candidate profile. *)

val total_variation : Profile.t -> Profile.t -> float
(** Total-variation distance between two profiles on the same space. *)
