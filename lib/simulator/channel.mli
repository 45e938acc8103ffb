(** One channel of the protection system of Fig. 1: a software version that
    reads the sensed plant state (the demand) and either commands shutdown
    (correct, since a demand by definition requires intervention), fails to
    act, or — for self-checking channels — abstains when its runtime check
    catches the failure and withholds the wrong output. Its output on a
    demand is a {!Core.Voting.decision}; {!Protection.create} reads it off
    the version's failure set and the self-check set for every demand at
    once. The paper's binary channels never abstain; self-checking
    channels (Boiten's "Diversity and Adjudication") abstain on demands
    their check covers. *)

type t

val create : ?self_check:Numerics.Bitset.t -> name:string -> Demandspace.Version.t -> t
(** [self_check] is the set of demands on which the channel detects its
    own failure at runtime: on a demand in both the version's failure set
    and [self_check], the channel abstains instead of silently failing.
    Raises [Invalid_argument] when the set is sized to a different demand
    space. Without [self_check] the channel behaves exactly as the seed's
    binary channel. *)

val name : t -> string
val version : t -> Demandspace.Version.t

val self_check : t -> Numerics.Bitset.t option

val pfd : t -> float
val pp : Format.formatter -> t -> unit
