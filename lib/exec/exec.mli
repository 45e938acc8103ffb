(** Deterministic sharded execution over a {!Pool} of domains.

    Determinism contract: a parallel computation is split into a fixed
    number of [shards]; shard [k] derives its randomness from
    [Rng.split parent ~index:k] and its slice of the work from
    {!shard_bounds}; results are returned in shard order. The output is
    a pure function of [(seed, shards)] and is byte-identical for any
    domain count, including a 1-domain (fully sequential) pool. Changing
    [shards] changes outputs — deterministically — which is why the
    default is a fixed constant rather than a hardware-derived value.

    {!map_shards_rng} is the one implementation of that rule. The
    simulator's sharded entry points, all taking [?pool]/[?shards]:
    [Montecarlo.estimate], [Campaign.estimate_mttf],
    [Campaign.simulate_mission_survival], [Fleet.deploy_pairs],
    [Fleet.deploy_singles] and [Fleet.observe] run on it.

    Telemetry follows the same rule without any help from the shard
    functions: {!Pool.run} replays each shard's gauge, histogram and
    run-log effects in shard order at join, so a shard may set, observe
    and record as sequential code does. *)

module Pool = Pool

val default_shards : unit -> int
(** Shard count used by library entry points when the caller passes no
    [~shards]; 16 unless overridden by {!set_default_shards}. *)

val set_default_shards : int -> unit
(** Override {!default_shards} (>= 1); wired to the [--shards] CLI
    flags. Changes downstream outputs deterministically. *)

val shard_bounds : range:int -> shards:int -> (int * int) array
(** [(lo, len)] per shard: contiguous, disjoint, covering [0, range);
    lengths differ by at most one (the first [range mod shards] shards
    take the extra element). Shards beyond [range] get [len = 0]. *)

val map_shards_rng :
  ?pool:Pool.t ->
  Numerics.Rng.t ->
  shards:int ->
  range:int ->
  f:(lo:int -> len:int -> Numerics.Rng.t -> 'a) ->
  'a array
(** [map_shards_rng rng ~shards ~range ~f] runs shard [k] as
    [f ~lo ~len rng_k] on the pool (default: {!Pool.default}) and
    returns the results in shard order. Each shard runs under
    [Obs.Trace.with_shard k] so trace spans from parallel regions stay
    well-nested per shard. [(lo, len)] is shard [k]'s entry of
    [shard_bounds ~range ~shards]; [rng_k] is the stream
    [Rng.split rng ~index:k]. The split happens in the caller, in index
    order 0..shards-1, and advances [rng] by exactly [shards] draws; the
    generator itself is built on the worker that runs the shard. Raises
    [Invalid_argument] when [shards < 1] or [range < 0], before drawing
    from [rng]. *)
