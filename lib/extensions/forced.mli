(** Forced diversity: the two channels are developed by different processes
    (different methods, notations, tools — Section 1), so fault i is
    introduced with probability pa_i in channel A and pb_i in channel B.

    The paper studies non-forced diversity as a worst case and lists forced
    diversity as a desirable extension; this module provides the
    generalised moments (the common-fault probability becomes pa_i * pb_i)
    and a generator of complementary process pairs. *)

type t
(** A fault universe shared by two development processes. *)

val create : qs:float array -> pa:float array -> pb:float array -> t
(** Raises [Invalid_argument] on length mismatch or out-of-range values. *)

val of_universe : Core.Universe.t -> t
(** Both channels use the same process: the paper's non-forced case (all
    results then coincide with the core model's — the test oracle). *)

val size : t -> int

val mu_a : t -> float
(** Mean PFD of a channel-A version. *)

val mu_b : t -> float

val mu_pair : t -> float
(** Mean PFD of the forced-diverse 1-out-of-2 pair: sum pa_i pb_i q_i. *)

val var_pair : t -> float

val p_no_common_fault : t -> float
(** prod (1 - pa_i pb_i). *)

val risk_ratio_vs_a : t -> float
(** Eq. (10) generalised: P(pair shares a fault)/P(channel-A version
    faulty). *)

val divergence_gain : t -> float
(** Mean-PFD advantage of the forced pair over the non-forced pair built
    from channel A's process alone; > 1 when forcing helps. *)

val complementary : Numerics.Rng.t -> Core.Universe.t -> strength:float -> t
(** Derive a process pair whose weaknesses diverge: channel B's fault
    probabilities are a convex mix (by [strength]) of channel A's and a
    random permutation of them. Strength 0 recovers {!of_universe}. *)
