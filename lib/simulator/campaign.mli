(** Long-run operational campaigns: mission survival and time to first
    system failure.

    The paper's PFD is a per-demand quantity; what an operator of the
    Fig. 1 system experiences is a demand *sequence*, where the time to
    the first mishandled demand is geometric with parameter PFD. This
    module simulates that experience and provides the closed forms to
    check it against. *)

type mission_outcome = Failed_at of int | Survived

val time_to_first_failure :
  Numerics.Rng.t -> system:Protection.t -> max_demands:int -> mission_outcome
(** Drive the system with operational demands until the first system
    failure or the mission length is reached. *)

type mttf_estimate = {
  missions : int;
  failures : int;
  censored : int;  (** missions that survived to [max_demands] *)
  mean_time_to_failure : float;
  failure_rate : float;
  shards : int;  (** shard count the estimate was computed with *)
  shard_draws : int array;
      (** RNG draws consumed by each shard's substream (one entry per
          shard, in shard order) — exact per-domain draw accounting,
          independent of the pool size *)
}

val estimate_mttf :
  ?pool:Exec.Pool.t ->
  ?shards:int ->
  Numerics.Rng.t ->
  system:Protection.t ->
  missions:int ->
  max_demands:int ->
  mttf_estimate
(** Replicated missions against a fixed system. Missions shard
    deterministically (default {!Exec.default_shards} shards, each on its
    own [Rng.split] substream); each mission records its telemetry as it
    ends, which {!Exec.Pool.run} replays in mission order, so the
    estimate, metrics and run log depend only on (seed, shards), never
    on the pool size. *)

val theoretical_mttf : pfd:float -> float
(** 1/PFD (demands), infinite for a perfect system. *)

val mission_survival_probability : pfd:float -> mission_demands:int -> float
(** (1-PFD)^T without cancellation for small PFD. *)

val simulate_mission_survival :
  ?pool:Exec.Pool.t ->
  ?shards:int ->
  Numerics.Rng.t ->
  system:Protection.t ->
  mission_demands:int ->
  missions:int ->
  float
(** Empirical counterpart of {!mission_survival_probability}; sharded
    like {!estimate_mttf}. *)

type architecture_report = {
  label : string;
  analytic_pfd : float;  (** exact PFD of the concrete developed system *)
  simulated_mttf : mttf_estimate;
  survival_1000 : float;  (** survival probability over 1000 demands *)
}

val compare_architectures :
  Numerics.Rng.t ->
  Demandspace.Space.t ->
  architectures:(string * int * int) list ->
  missions:int ->
  max_demands:int ->
  architecture_report list
(** For each (label, channels, required-votes) triple: develop the
    channels fresh from the space's process, build the voted system, and
    measure it. *)
