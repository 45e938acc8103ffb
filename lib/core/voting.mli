(** M-out-of-N voted architectures.

    The paper analyses the 1-out-of-2 OR configuration of Fig. 1; the
    fault-creation model extends verbatim to any M-out-of-N adjudication:
    with non-overlapping failure regions, a demand in fault i's region is
    mishandled exactly when too few channels are free of that fault, an
    event with binomial probability in the per-channel p_i. All the
    paper's machinery (moments, no-common-fault probabilities, exact PFD
    distributions, mu + k sigma bounds) then carries over. *)

type t
(** An architecture: N independently developed channels of which at least
    M must respond correctly. *)

val create : channels:int -> required:int -> t
(** Raises [Invalid_argument] unless 1 <= required <= channels. *)

val one_out_of_two : t
(** The paper's configuration. *)

val two_out_of_three : t
(** The classic majority-voting protection architecture. *)

val channels : t -> int
val required : t -> int

val fault_defeats_system : t -> p:float -> float
(** Probability that fault i (introduced per channel with probability [p])
    is present in enough channels to defeat the vote:
    P(Bin(N, p) >= N - M + 1). For 1-out-of-2 this is p^2, recovering the
    paper's model. *)

val mu : t -> Universe.t -> float
(** Mean system PFD. *)

val var : t -> Universe.t -> float
val sigma : t -> Universe.t -> float

val system_fault_probs : t -> Universe.t -> float array
(** Per-fault probabilities of defeating the vote — the voted system's
    analogue of the p_i^2 vector. *)

val p_some_system_fault : t -> Universe.t -> float

val risk_ratio_vs_single : t -> Universe.t -> float
(** Eq. (10) generalised: P(some system-level fault)/P(single version
    faulty). *)

val pfd_dist : t -> Universe.t -> Pfd_dist.t
(** Exact PFD distribution of the voted system. *)

val confidence_bound : t -> Universe.t -> k:float -> float
(** mu + k sigma for the voted system. *)

val pp : Format.formatter -> t -> unit

(** {1 Adjudication combinator calculus}

    A small algebra of adjudicators over abstaining channel outputs
    (Boiten, "Diversity and Adjudication"). The executable protection
    system ([Simulator.Protection], which tabulates [decide] once per
    system) and the analytic closed forms below share these
    counts-level semantics, so simulated and closed-form PFD
    evaluations of the same composed adjudicator are directly
    cross-checkable (see the [lib/check] adjudication oracles).

    Laws, checked for every term of at most three [Compose]/[Fallback]
    nodes over [Unit]/[Vote 1..4] on every vector of up to five channel
    outputs (the "exhaustive small scope" test of
    test/test_simulator.ml):
    - [compose Unit a], [compose a Unit] and [a] decide identically;
    - every policy is permutation-invariant in the channel outputs
      (the semantics only see vote counts);
    - [fallback a a] decides as [a] on abstain-free inputs;
    - [Vote r] on abstain-free inputs decides exactly as the legacy
      M-out-of-N adjudicator (Shutdown iff >= r shutdown votes). *)

type decision = Shutdown | No_action | Abstain
(** Verdict lattice: a demand is handled iff the decision is
    [Shutdown]; [Abstain] means the adjudicator could not reach a
    verdict (quorum loss under abstention). A self-checking channel's
    own output is one of these three points too: [Shutdown] off its
    failure set, [Abstain] where its self-check catches the failure,
    [No_action] otherwise. *)

val equal_decision : decision -> decision -> bool

type policy =
  | Unit  (** identity: passes the vote vector through unchanged *)
  | Vote of int
      (** [Vote r]: Shutdown on >= r shutdown votes; Abstain when
          fewer than r channels are still voting (quorum loss);
          No_action otherwise *)
  | Compose of policy * policy
      (** cascade: the second stage adjudicates the survivors (the
          collapsed vote vector) of the first *)
  | Fallback of policy * policy
      (** [Fallback (a, b)]: decide by [a]; if [a]'s verdict collapses
          to Abstain, re-adjudicate the original votes through [b] *)

val vote : required:int -> policy
(** [Vote required], validated. Raises [Invalid_argument] when
    [required < 1]. *)

val compose : policy -> policy -> policy
val fallback : policy -> policy -> policy

val decide :
  policy -> shutdowns:int -> no_actions:int -> abstains:int -> decision
(** Adjudicate a vote-count vector. Raises [Invalid_argument] on
    negative counts. Channel-order independence is structural: only
    counts enter. *)

val policy_min_channels : policy -> int
(** A lower bound on the channel outputs the policy needs for a
    definite verdict: on fewer, a term whose votes have [r >= 1] (as
    {!vote} builds them) always abstains. It is the arity
    floor enforced by [Simulator.Protection.create] ([Vote r] needs [r]
    channels; a cascade only its first stage's; a fallback only its
    cheaper branch's). The bound is tight for [Unit], [Vote r] and
    [fallback (vote a) (vote b)], but not in general:
    [compose (vote 1) (vote 2)] has floor 1 and never decides, as its
    second stage sees one survivor. *)

val pp_policy : Format.formatter -> policy -> unit
(** Prints [Vote] nodes in the legacy adjudicator's notation
    ("1-out-of-N (OR)", "[r]-out-of-N"). *)

val arch_policy : t -> policy
(** The fixed M-out-of-N architecture as a calculus instance. *)

(** {2 Closed-form PFD evaluation for composed adjudicators}

    Channels carry a fault independently with probability [p]; a
    carried fault is caught by the channel's development-time
    self-check with probability [detection] (default 0 — a channel
    without self-checks never abstains). On a demand in the fault's
    region, clean channels vote Shutdown, undetected carriers
    No_action, detected carriers Abstain; the system mishandles the
    demand iff [decide] of those counts is not [Shutdown]. With
    [detection = 0], [policy_defeat_prob (Vote r)] reduces to
    [fault_defeats_system] and the [policy_*] forms below reduce to
    their fixed-architecture counterparts. *)

val binom_pmf : n:int -> p:float -> int -> float
(** [binom_pmf ~n ~p k] is P(Bin(n, p) = k); exact at p = 0 and 1. *)

val policy_defeat_prob :
  policy -> channels:int -> ?detection:float -> p:float -> unit -> float

val policy_mu :
  policy -> channels:int -> ?detection:float -> Universe.t -> float
(** Mean system PFD of the adjudicated system over a universe. *)

val policy_var :
  policy -> channels:int -> ?detection:float -> Universe.t -> float

val policy_sigma :
  policy -> channels:int -> ?detection:float -> Universe.t -> float

val policy_p_some_system_fault :
  policy -> channels:int -> ?detection:float -> Universe.t -> float

val policy_risk_ratio_vs_single :
  policy -> channels:int -> ?detection:float -> Universe.t -> float

val policy_pfd_dist :
  policy -> channels:int -> ?detection:float -> Universe.t -> Pfd_dist.t
(** Exact PFD distribution of the adjudicated system (per-fault defeat
    probabilities convolved over the universe's q vector). *)
