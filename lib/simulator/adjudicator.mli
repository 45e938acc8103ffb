(** Adjudication of the channels' outputs, as a combinator calculus.

    The paper's configuration is "perfect adjudication (simple OR
    combination of binary outputs)": the plant shuts down if any channel
    commands it. This module generalises that fixed vote to a small
    algebra over the three-valued output lattice of {!Channel}
    ([Shutdown] / [No_action] / [Abstain]), following Boiten's
    "Diversity and Adjudication": [unit] passes votes through, [vote]
    collapses them by quorum, [compose] cascades a second stage over the
    survivors of the first, and [fallback] re-adjudicates through a
    backup when the primary loses quorum to abstentions. The semantics
    live in {!Core.Voting} (one shared counts-level algebra for the
    executable and closed-form paths); this module binds them to
    concrete [Channel.output] vectors.

    The legacy adjudicators are instances: [one_out_of_n = vote
    ~required:1], [m_out_of_n ~required = vote ~required], and on
    abstain-free inputs their decisions are byte-identical to the seed's
    (Shutdown iff enough shutdown votes). *)

type t

val unit : t
(** Identity for [compose]: adjudicates to the vote vector itself
    (collapsed: any shutdown vote wins, else any silent failure, else
    abstain). *)

val vote : required:int -> t
(** Quorum vote: [Shutdown] on at least [required] shutdown votes;
    [Abstain] when fewer than [required] channels are still voting
    (quorum lost to abstention); [No_action] otherwise. Raises
    [Invalid_argument] if [required < 1]. *)

val compose : t -> t -> t
(** [compose a b]: cascade — [b] adjudicates the survivors of [a]. *)

val fallback : t -> t -> t
(** [fallback a b]: decide by [a]; when [a] abstains (e.g. quorum
    loss), re-adjudicate the original outputs through [b]. *)

val one_out_of_n : t
(** The OR adjudicator (any shutdown vote suffices): [vote ~required:1]. *)

val m_out_of_n : required:int -> t
(** Demand at least [required] shutdown votes: [vote ~required]. Raises
    [Invalid_argument] if [required < 1]. *)

val min_channels : t -> int
(** Fewest channel outputs the adjudicator can reach a verdict on;
    [combine] raises below this arity. For [vote ~required:r] this is
    [r], preserving the legacy arity check. *)

val policy : t -> Core.Voting.policy
(** The underlying calculus term, for closed-form evaluation
    ({!Core.Voting.policy_mu} and friends). *)

val of_policy : Core.Voting.policy -> t

val combine : t -> Channel.output list -> Channel.output
(** Adjudicate a vector of channel outputs. Raises [Invalid_argument]
    on an empty output list or when more votes are required than
    channels are present. *)

val decide_counts :
  t -> shutdowns:int -> no_actions:int -> abstains:int -> Channel.output
(** Counts-level [combine] (adjudication is permutation-invariant, so
    counts determine the verdict) — {!Protection.create} tabulates it
    once per system to compile the verdict bitsets. Raises
    [Invalid_argument] on negative counts. *)

val system_fails : t -> Channel.output list -> bool
(** True when the combined output is not [Shutdown] on a demand — the
    plant misses the intervention whether the verdict is [No_action] or
    an unresolved [Abstain]. *)

val equal : t -> t -> bool
(** Structural equality of adjudicator terms. *)

val pp : Format.formatter -> t -> unit
