(** The Eckhardt–Lee model [3], realised inside the fault-creation model.

    EL describe version development as sampling from a distribution over
    programs and summarise it by the "difficulty function" theta(x): the
    probability that a random version fails on demand x. Their key result —
    E(Theta_2) = E(Theta_1)^2 + Var(theta(X)) >= E(Theta_1)^2, so
    independently developed versions do not fail independently — is exact
    in our model, because two independent versions fail together on x with
    probability theta(x)^2. *)

val difficulty : Demandspace.Space.t -> int -> float
(** theta(x) = 1 - prod over faults covering x of (1 - p_i); exact even
    when failure regions overlap. *)

val mean_single : Demandspace.Space.t -> float
(** E(Theta_1) = E_X[theta(X)] under the operational profile. *)

val mean_pair : Demandspace.Space.t -> float
(** E(Theta_2) = E_X[theta(X)^2] for an independently developed pair. *)

val difficulty_variance : Demandspace.Space.t -> float
(** Var_X(theta(X)): the exact excess of the mean pair PFD over the
    independence prediction. *)

val el_identity_gap : Demandspace.Space.t -> float
(** E(Theta_2) - E(Theta_1)^2 - Var(theta(X)); zero up to rounding — the EL
    decomposition, used as a test oracle. *)
