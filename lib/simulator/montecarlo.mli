(** Monte Carlo estimation of the model's distributions.

    The analytic results (moments, risk ratios, exact distributions) are all
    checkable by simulating the development process itself; this module is
    the harness the tests and experiments use to do so, and it also
    produces the synthetic version populations for the Knight–Leveson
    replication (E09). *)

type estimate = {
  replications : int;
  shards : int;  (** shard count the run was split into *)
  theta1 : Numerics.Stats.summary;  (** PFD of single versions *)
  theta2 : Numerics.Stats.summary;  (** PFD of independently developed pairs *)
  p_n1_pos : float;  (** empirical P(version has >= 1 fault with q > 0) *)
  p_n2_pos : float;  (** empirical P(pair has >= 1 common fault) *)
  risk_ratio : float;  (** empirical eq. (10) ratio *)
  theta1_samples : float array;
  theta2_samples : float array;
  shard_draws : int array;  (** RNG draws consumed by each shard's substream *)
}

val estimate :
  ?pool:Exec.Pool.t ->
  ?shards:int ->
  Numerics.Rng.t ->
  Core.Universe.t ->
  replications:int ->
  estimate
(** Sample independent development pairs from the universe. The work is
    split into [shards] (default {!Exec.default_shards}) deterministic
    slices, each on its own [Rng.split] substream: the result is a pure
    function of (seed, shards) and is byte-identical for any pool size. *)

val quantile_theta1 : estimate -> float -> float

type population = {
  version_pfds : float array;
  pair_pfds : float array;  (** all unordered pairs *)
  version_summary : Numerics.Stats.summary;
  pair_summary : Numerics.Stats.summary;
}

val version_population :
  Numerics.Rng.t -> Demandspace.Space.t -> count:int -> population
(** Develop [count] concrete versions over a demand space and evaluate every
    unordered pair as a 1-out-of-2 system (true set-intersection PFDs, no
    non-overlap assumption), pairs (i, j) with i < j in row order. *)

val knight_leveson_shape : population -> float * float
(** [(mean_ratio, std_ratio)] of pair vs version PFD; the paper's
    qualitative claim is both < 1 with the std shrinking more. *)
