(** A fleet of plants, each protected by an independently developed system
    from the same process.

    This makes the paper's distributional results *observable*: because
    the PFD varies across developed systems (variance sigma^2, eqs. 2),
    the failure counts across a fleet are over-dispersed relative to a
    common-PFD binomial, and the method of moments recovers E(Theta) and
    Var(Theta) from field data alone — the bridge between the model's
    unobservable parameters and the data an assessor could actually
    collect (experiment E26). *)

type t
(** Observed fleet: per-plant true PFD (for oracle checks), demand count
    and failure count. *)

type plant_record = {
  system_pfd : float;
  demands : int;
  failures : int;
}

val deploy_pairs :
  ?pool:Exec.Pool.t ->
  ?shards:int ->
  Numerics.Rng.t ->
  Demandspace.Space.t ->
  plants:int ->
  Protection.t array
(** Each plant gets a fresh, independently developed 1-out-of-2 system.

    Sharded over [Exec.map_shards_rng]: with [shards >= 2] (the default
    shard count is [Exec.default_shards ()]), shard [k] develops a
    contiguous slice of the plants on its own [Rng.split] substream and
    the slices concatenate in plant order, so the fleet is a pure
    function of [(seed, shards)] — byte-identical for any pool size.
    [~shards:1] is the legacy sequential path: the parent RNG is
    threaded through the plants directly, byte-identical to the
    pre-sharding implementation. Raises [Invalid_argument] when
    [plants <= 0] or [shards < 1]. *)

val deploy_singles :
  ?pool:Exec.Pool.t ->
  ?shards:int ->
  Numerics.Rng.t ->
  Demandspace.Space.t ->
  plants:int ->
  Protection.t array
(** Single-version plants (the comparison fleet). Same sharding
    contract as {!deploy_pairs}. *)

val observe :
  ?pool:Exec.Pool.t ->
  ?shards:int ->
  Numerics.Rng.t ->
  Protection.t array ->
  demands_per_plant:int ->
  t
(** Run every plant through its own operational campaign. Same sharding
    contract as {!deploy_pairs}: shard [k] runs its plant slice on its
    own substream (each plant's demands drawn in blocks — see
    {!Runner.run}) and records merge in plant order. Each plant records
    its [runner.run] and [fleet.plant] events and instruments in its
    shard, replayed in plant order by {!Exec.Pool.run}; the
    [fleet.observe] summary follows at join. Metrics and the run log are
    independent of the domain count. *)

val size : t -> int
val records : t -> plant_record array
val total_failures : t -> int

val pooled_rate : t -> float
(** Fleet-wide failures per demand. *)

type dispersion = {
  mean_count : float;
  count_variance : float;
  binomial_variance : float;
  overdispersion : float;
}

val dispersion : t -> dispersion
(** Over-dispersion of per-plant failure counts; ~1 when every plant has
    the same PFD, > 1 when the PFD varies across developments (the
    observable footprint of sigma > 0). *)

val estimate_pfd_moments : t -> float * float
(** Method-of-moments estimates (mean, variance) of the PFD distribution
    across developments, from counts alone (variance clamped at 0). *)

val true_pfd_summary : t -> Numerics.Stats.summary
(** Oracle: summary of the plants' true PFDs (available in simulation
    only). *)
