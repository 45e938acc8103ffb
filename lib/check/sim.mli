(** Simulation estimators the oracle registry confronts with closed
    forms.

    Two independent simulation layers are provided on purpose: an
    abstract sampler that draws fault sets straight from the universe
    (independent of the [Voting] binomial algebra but sharing its event
    definitions), and a full-stack concrete path (versions over a demand
    space, executable channels, the compiled [Simulator.Protection]). A
    formula bug in either layer breaks agreement with the other two. *)

type voted_run = {
  pfds : float array;  (** voted-system PFD per replication *)
  system_faulty : int;
      (** replications in which some fault defeated the vote *)
  single_faulty : int;
      (** replications in which channel 0's version carried >= 1 fault *)
}

val voted :
  Numerics.Rng.t ->
  Core.Universe.t ->
  arch:Core.Voting.t ->
  replications:int ->
  voted_run
(** Abstract-model N-of-M sampler (per-fault channel counts against the
    defeat threshold). Raises [Invalid_argument] when [replications < 1]. *)

val concrete_voted_pfds :
  Numerics.Rng.t ->
  Demandspace.Space.t ->
  arch:Core.Voting.t ->
  replications:int ->
  float array
(** Exact PFD of concretely developed voted systems: each replication
    develops the channels with {!Simulator.Devteam.develop}, builds
    [Simulator.Protection.voted] and sweeps the demand space. *)

val concrete_pairs :
  Numerics.Rng.t ->
  Demandspace.Space.t ->
  replications:int ->
  float array * float array
(** [(single_pfds, pair_pfds)] of concretely developed 1-out-of-2
    pairs (true set-intersection PFDs). *)

val adjudicated :
  Numerics.Rng.t ->
  Core.Universe.t ->
  channels:int ->
  detection:float ->
  adjudicator:Core.Voting.policy ->
  replications:int ->
  float array
(** Sampled PFDs of an adjudicated system through the *list* path: per
    replication and fault, the actual output vector (clean ->
    Shutdown, undetected carrier -> No_action, self-detected carrier ->
    Abstain) is adjudicated by {!Reference.combine}.
    Independent of the counts fast path and of
    [Core.Voting.policy_defeat_prob]'s closed form. Raises
    [Invalid_argument] when [replications < 1], [channels < 1] or
    [detection] is outside [0, 1]. *)

val count_positive : float array -> int
(** Number of strictly positive samples. *)
