(** The complete protection system of Fig. 1: N software channels behind an
    adjudicator (the paper studies the 1-out-of-2 OR case; voted
    M-out-of-N architectures are supported as an extension).
    [create] compiles the system into per-demand verdict bitsets, so
    every per-demand query is an allocation-free lookup. *)

type t

val create : ?adjudicator:Core.Voting.policy -> Channel.t list -> t
(** Compiles the system in one pass over demands x channels: the
    verdict on a demand is {!Core.Voting.decide} of its channels' output
    counts. Raises [Invalid_argument] on an empty channel list, when the
    adjudicator needs more channels than there are
    ({!Core.Voting.policy_min_channels}), or when the channels' versions
    are over demand spaces of different sizes. The default adjudicator
    is the paper's OR, [Core.Voting.vote ~required:1]. *)

val one_out_of_two : Channel.t -> Channel.t -> t
(** The paper's dual-channel configuration. *)

val voted : required:int -> Channel.t list -> t
(** M-out-of-N system: at least [required] channels must command
    shutdown. *)

val channels : t -> Channel.t list
val adjudicator : t -> Core.Voting.policy

val failure_set : t -> Numerics.Bitset.t
(** Demands on which {!fails_on} holds. Shared: do not mutate. *)

val abstain_set : t -> Numerics.Bitset.t
(** Demands on which the verdict is [Abstain]. Shared: do not mutate. *)

val space : t -> Demandspace.Space.t
(** The demand space all channels operate over (taken from the first
    channel; [create] guarantees at least one). *)

val respond : t -> Demandspace.Demand.t -> Core.Voting.decision
(** System verdict on a demand: {!Core.Voting.decide} of the counts of
    the channels' outputs on it. *)

val fails_on : t -> Demandspace.Demand.t -> bool
(** True when the adjudicated output is not [Shutdown] — a silent
    [No_action] and an unresolved [Abstain] both leave the demand
    unhandled. *)

val true_pfd : t -> float
(** Exact system PFD: the profile measure of {!failure_set} (equals the
    intersection measure for the OR adjudicator). *)

val pp : Format.formatter -> t -> unit
