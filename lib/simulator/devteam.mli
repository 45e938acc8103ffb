(** The development process as a random experiment (Section 2.2): each
    potential fault is independently left in the delivered version with its
    probability p_i ("as though the design team ... tossed dice to decide
    whether to insert it or not").

    Separate development of the two channels is modelled by independent
    draws from the same universe. *)

val sample_fault_set : Numerics.Rng.t -> Core.Universe.t -> int list
(** Indices of the faults present in one newly developed version. *)

val develop : Numerics.Rng.t -> Demandspace.Space.t -> Demandspace.Version.t
(** Develop a concrete version over a demand space (regions materialised,
    true PFD computable). *)

val develop_pair :
  Numerics.Rng.t -> Demandspace.Space.t -> Demandspace.Version.t * Demandspace.Version.t
(** Two independently developed versions — the paper's 1-out-of-2 setting. *)

val develop_many :
  Numerics.Rng.t -> Demandspace.Space.t -> count:int -> Demandspace.Version.t array
(** A population of versions (e.g. the 27 of the Knight–Leveson
    replication). *)

(** {2 Compiled abstract development}

    The Monte Carlo hot path samples millions of abstract versions from
    one universe. Compiling the universe turns its parameter vectors into
    plain arrays and reuses scratch bitsets for the sampled fault sets,
    replacing list construction and an O(k{^ 2}) list intersection with
    three linear passes — while consuming the RNG stream and ordering the
    compensated sums exactly as the uncompiled path, so results are
    byte-identical. *)

type compiled
(** A universe prepared for repeated sampling. Carries mutable scratch:
    use a compiled universe from one domain only (parallel code compiles
    one per shard). *)

val compile : Core.Universe.t -> compiled
(** O(n) preparation of one universe for repeated draws. *)

val version_pfd : Numerics.Rng.t -> compiled -> float
(** PFD of one sampled version under the non-overlap assumption. *)

val pair_pfd : Numerics.Rng.t -> compiled -> float * float * float
(** [(pfd_a, pfd_b, pfd_pair)] for an independently developed pair; the
    pair PFD is the summed measure of the common faults. *)

val adjudicated_system_pfd :
  ?detection:float ->
  Numerics.Rng.t ->
  compiled ->
  channels:int ->
  adjudicator:Core.Voting.policy ->
  float
(** Sampled PFD of an N-channel system behind an arbitrary adjudicator
    term: [channels] abstract versions are drawn, carried faults are
    self-detected with probability [detection], and a fault's measure
    counts when its carrier/abstainer counts adjudicate to anything but
    Shutdown. With [detection = 0] and [adjudicator = vote ~required:r]
    this is the sampled counterpart of
    {!Core.Voting.policy_defeat_prob}'s closed form. Raises
    [Invalid_argument] when [channels < 1] or [detection] is outside
    [0, 1]. *)
