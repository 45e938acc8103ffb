(** A randomized cross-check scenario: a voted architecture paired with a
    concrete demand space and its exact universe abstraction.

    The space's failure regions are disjoint by construction, so
    [Demandspace.Space.to_universe] is exact (the paper's non-overlap
    assumption holds) and every analytic quantity computed on the
    universe is directly comparable with a simulation over the space.
    The scenario also fixes the simulation substream seed and the
    replication budget, making every oracle verdict a pure function of
    the scenario. *)

type t

val create :
  arch:Core.Voting.t ->
  space:Demandspace.Space.t ->
  sim_seed:int ->
  replications:int ->
  t
(** Raises [Invalid_argument] when the space's regions overlap (the
    universe abstraction would be the pessimistic Section 6.2
    approximation, not an exact pairing) or [replications < 1]. *)

val generate : ?replications:int -> Numerics.Rng.t -> t
(** Random voted architecture (<= 4 channels) over a random disjoint-region
    space (<= 6 faults; introduction probabilities in [0.1, 0.65] so
    Monte-Carlo event counts stay testable at the default 1200
    replications). *)

val arch : t -> Core.Voting.t
val space : t -> Demandspace.Space.t

val universe : t -> Core.Universe.t
(** Exactly [Demandspace.Space.to_universe (space t)]. *)

val sim_seed : t -> int
val replications : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
