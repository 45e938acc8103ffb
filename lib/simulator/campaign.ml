open Numerics

(* Telemetry (all no-ops until enabled; see lib/obs): per-mission
   counters, the failure rate of the latest MTTF estimate, and a
   histogram of observed failure times. *)
let m_missions = Obs.Metrics.counter "campaign.missions"
let m_failures = Obs.Metrics.counter "campaign.failures"
let m_censored = Obs.Metrics.counter "campaign.censored"
let g_failure_rate = Obs.Metrics.gauge "campaign.running_failure_rate"
let g_survival = Obs.Metrics.gauge "campaign.last_survival_fraction"

let h_time_to_failure =
  (* Failure times are demand counts, not PFDs: buckets 1 .. 1e9. *)
  Obs.Metrics.histogram ~lo:1.0 ~decades:9 "campaign.time_to_first_failure"

type mission_outcome = Failed_at of int | Survived

let time_to_first_failure rng ~system ~max_demands =
  if max_demands <= 0 then
    invalid_arg "Campaign.time_to_first_failure: max_demands must be positive";
  let profile = Demandspace.Space.profile (Protection.space system) in
  let rec step t =
    if t > max_demands then Survived
    else if Protection.fails_on system (Demandspace.Profile.sample profile rng)
    then Failed_at t
    else step (t + 1)
  in
  step 1

type mttf_estimate = {
  missions : int;
  failures : int;
  censored : int;
  mean_time_to_failure : float;
      (** over failed missions only; NaN if none failed *)
  failure_rate : float;  (** total failures / total demands observed *)
  shards : int;
  shard_draws : int array;
      (** RNG draws consumed by each shard's substream — per-domain draw
          accounting, collected on the worker and merged at join *)
}

let estimate_mttf ?pool ?shards rng ~system ~missions ~max_demands =
  if missions <= 0 then
    invalid_arg "Campaign.estimate_mttf: missions must be positive";
  let shards = Option.value shards ~default:(Exec.default_shards ()) in
  let span = Obs.Trace.enter "campaign.estimate_mttf" in
  (* Missions are independent: each shard drives its contiguous slice on
     its own substream and returns its failure count and summed failure
     time, folded in shard order. Per-mission spans open on the worker
     and are attributed to the owning shard's trace lane. *)
  let per_shard =
    Exec.map_shards_rng ?pool rng ~shards ~range:missions
      ~f:(fun ~lo ~len rng_k ->
        let failures = ref 0 and failure_time = ref 0 in
        for m = lo to lo + len - 1 do
          let mission_span = Obs.Trace.enter "campaign.mission" in
          let outcome = time_to_first_failure rng_k ~system ~max_demands in
          Obs.Trace.leave mission_span;
          (match outcome with
          | Failed_at t ->
              incr failures;
              failure_time := !failure_time + t;
              Obs.Metrics.incr m_failures;
              Obs.Metrics.observe h_time_to_failure (float_of_int t)
          | Survived -> Obs.Metrics.incr m_censored);
          Obs.Metrics.incr m_missions;
          if Obs.Runlog.active () then
            Obs.Runlog.record ~kind:"campaign.mission"
              (("mission", Obs.Json.Int (m + 1))
              ::
              (match outcome with
              | Failed_at t ->
                  [ ("outcome", Obs.Json.String "failed"); ("failed_at", Obs.Json.Int t) ]
              | Survived ->
                  [
                    ("outcome", Obs.Json.String "survived");
                    ("max_demands", Obs.Json.Int max_demands);
                  ]))
        done;
        (!failures, !failure_time, Rng.draws rng_k))
  in
  let failures = Array.fold_left (fun acc (f, _, _) -> acc + f) 0 per_shard in
  let failure_time = Array.fold_left (fun acc (_, t, _) -> acc + t) 0 per_shard in
  let censored = missions - failures in
  let total_time = failure_time + (censored * max_demands) in
  let failure_rate = float_of_int failures /. float_of_int total_time in
  Obs.Metrics.set g_failure_rate failure_rate;
  Obs.Trace.leave span;
  {
    missions;
    failures;
    censored;
    mean_time_to_failure =
      (if failures = 0 then nan
       else float_of_int failure_time /. float_of_int failures);
    failure_rate;
    shards;
    shard_draws = Array.map (fun (_, _, draws) -> draws) per_shard;
  }

let theoretical_mttf ~pfd =
  if pfd <= 0.0 then infinity else 1.0 /. pfd

let mission_survival_probability ~pfd ~mission_demands =
  if not (pfd >= 0.0 && pfd <= 1.0) then
    invalid_arg "Campaign.mission_survival_probability: pfd outside [0, 1]";
  if mission_demands < 0 then
    invalid_arg "Campaign.mission_survival_probability: negative mission length";
  exp (float_of_int mission_demands *. Float.log1p (-.pfd))

let simulate_mission_survival ?pool ?shards rng ~system ~mission_demands
    ~missions =
  if missions <= 0 then
    invalid_arg "Campaign.simulate_mission_survival: missions must be positive";
  let shards = Option.value shards ~default:(Exec.default_shards ()) in
  let span = Obs.Trace.enter "campaign.simulate_mission_survival" in
  let per_shard =
    Exec.map_shards_rng ?pool rng ~shards ~range:missions
      ~f:(fun ~lo:_ ~len rng_k ->
        let survived = ref 0 in
        for _ = 1 to len do
          match
            time_to_first_failure rng_k ~system ~max_demands:mission_demands
          with
          | Survived -> incr survived
          | Failed_at _ -> ()
        done;
        !survived)
  in
  let survived = Array.fold_left ( + ) 0 per_shard in
  Obs.Metrics.add m_missions missions;
  let fraction = float_of_int survived /. float_of_int missions in
  Obs.Metrics.set g_survival fraction;
  Obs.Trace.leave span;
  fraction

type architecture_report = {
  label : string;
  analytic_pfd : float;
  simulated_mttf : mttf_estimate;
  survival_1000 : float;
}

let compare_architectures rng space ~architectures ~missions ~max_demands =
  List.map
    (fun (label, channels, required) ->
      if channels <= 0 then
        invalid_arg "Campaign.compare_architectures: channels must be positive";
      let mk () =
        Channel.create ~name:label (Devteam.develop rng space)
      in
      let system =
        Protection.voted ~required (List.init channels (fun _ -> mk ()))
      in
      let arch_span = Obs.Trace.enter ("campaign.architecture:" ^ label) in
      let analytic_pfd = Protection.true_pfd system in
      let report =
        {
          label;
          analytic_pfd;
          simulated_mttf = estimate_mttf rng ~system ~missions ~max_demands;
          survival_1000 =
            mission_survival_probability ~pfd:analytic_pfd
              ~mission_demands:1000;
        }
      in
      Obs.Trace.leave arch_span;
      report)
    architectures
