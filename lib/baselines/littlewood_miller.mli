(** The Littlewood–Miller model [4]: the two channels are developed by
    *different* processes (forced diversity), so each has its own
    difficulty function, and the mean pair PFD decomposes as

    E(Theta_2) = E(theta_A) E(theta_B) + Cov(theta_A(X), theta_B(X)),

    where — unlike in Eckhardt–Lee — the covariance can be negative: forced
    diversity can beat failure independence. *)

type two_process
(** A demand space equipped with two per-process introduction-probability
    vectors over the same potential faults. *)

val create :
  Demandspace.Space.t -> probs_a:float array -> probs_b:float array -> two_process
(** Raises [Invalid_argument] on length mismatch or out-of-range
    probabilities. *)

val same_process : Demandspace.Space.t -> two_process
(** Degenerate LM instance with identical processes: reduces to
    Eckhardt–Lee (used as a consistency oracle in tests). *)

val mean_single_a : two_process -> float
val mean_single_b : two_process -> float

val mean_pair : two_process -> float
(** E_X[theta_A(X) theta_B(X)] — exact mean PFD of the forced-diverse pair. *)

val difficulty_covariance : two_process -> float
(** Cov_X(theta_A, theta_B); negative values mean the processes' weaknesses
    are complementary. *)

val lm_identity_gap : two_process -> float
(** The LM decomposition residual; zero up to rounding (test oracle). *)
