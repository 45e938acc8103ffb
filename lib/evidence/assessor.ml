(* Streaming proven-in-use assessor.

   One pass, O(plants + demand-space) state: every ingested event updates
   counters only, and every judgement (Bayesian posterior bounds, the
   Wald accept/reject boundary, profile drift) is re-derived from those
   counters on demand. That factoring is what makes the core invariant
   hold by construction: the final verdict is a pure function of the
   multiset of ingested events, so feeding a run log in windows of any
   size — emitting interim verdicts along the way — produces the same
   final verdict, byte for byte, as one batch pass (pinned by property
   test and by the CLI identity test).

   The SPRT-style boundary differs from the online Simulator.Sprt in one
   deliberate way: Wald's sequential test stops at the first boundary
   crossing, but an offline assessor sees aggregated counts (a fleet
   plant reports one (demands, failures) pair, not a demand-by-demand
   stream), so the boundary here is re-evaluated against the aggregate
   log-likelihood ratio. Same hypotheses, same thresholds, no stopping
   rule — the verdict reflects all evidence ingested so far. *)

(* Telemetry (all no-ops until enabled; see lib/obs): ingest volume and
   outcome counters, drift alarms raised at verdict time, and an
   ingest-rate histogram (events/second per timed batch). *)
let m_events = Obs.Metrics.counter "evidence.events_ingested"
let m_skipped = Obs.Metrics.counter "evidence.events_skipped"
let m_malformed = Obs.Metrics.counter "evidence.lines_malformed"
let m_drift_alarms = Obs.Metrics.counter "evidence.drift_alarms"

let h_ingest_rate =
  (* Events per second per timed ingest batch: 1e2 .. 1e8. *)
  Obs.Metrics.histogram ~lo:1e2 ~decades:6 "evidence.ingest_rate"

type config = {
  theta0 : float;
  theta1 : float;
  alpha : float;
  beta : float;
  prior_a : float;
  prior_b : float;
  bound : float;
  confidence : float;
  expected_profile : float array option;
  drift_alpha : float;
}

let default_config =
  {
    theta0 = 1e-3;
    theta1 = 1e-2;
    alpha = 0.01;
    beta = 0.01;
    prior_a = 1.0;
    prior_b = 1.0;
    bound = 1e-2;
    confidence = 0.9;
    expected_profile = None;
    drift_alpha = 1e-3;
  }

let validate_config c =
  let in_unit x = 0.0 < x && x < 1.0 in
  if not (0.0 < c.theta0 && c.theta0 < c.theta1 && c.theta1 < 1.0) then
    invalid_arg "Evidence.Assessor: need 0 < theta0 < theta1 < 1";
  if not (in_unit c.alpha && in_unit c.beta) then
    invalid_arg "Evidence.Assessor: error rates must lie strictly in (0, 1)";
  if not (0.0 < c.prior_a && 0.0 < c.prior_b) then
    invalid_arg "Evidence.Assessor: prior parameters must be positive";
  if not (in_unit c.bound) then
    invalid_arg "Evidence.Assessor: bound must lie strictly in (0, 1)";
  if not (in_unit c.confidence) then
    invalid_arg "Evidence.Assessor: confidence must lie strictly in (0, 1)";
  if not (in_unit c.drift_alpha) then
    invalid_arg "Evidence.Assessor: drift_alpha must lie strictly in (0, 1)"

(* Every scalar counter, declared once: ingest assigns these fields, and
   a verdict reads a copy of them (see [counts] below). *)
type counts = {
  mutable accepted : int;
  mutable skipped_total : int;
  mutable malformed : int;
  mutable run_starts : int;
  mutable run_ends : int;
  mutable declared_seed : int option;
  mutable declared_shards : int option;
  mutable declared_target : string option;
  mutable fleet_observes : int;
  mutable declared_plants : int;
  mutable declared_fleet_failures : int;
  mutable runner_runs : int;
  mutable runner_demands : int;
  mutable runner_failures : int;
  mutable runner_coincident : int;
  mutable runner_rng_draws : int;
  mutable sprt_accepts : int;
  mutable sprt_rejects : int;
  mutable sprt_undecided : int;
  mutable sprt_demands : int;
  mutable sprt_failures : int;
}

type plant_state = { mutable p_demands : int; mutable p_failures : int }

type t = {
  config : config;
  c : counts;
  plants : (int, plant_state) Hashtbl.t;
  skipped : (string, int) Hashtbl.t;
  (* Empirical demand histogram (by id), grown on demand. *)
  mutable demand_counts : int array;
}

let create config =
  validate_config config;
  {
    config;
    c =
      {
        accepted = 0;
        skipped_total = 0;
        malformed = 0;
        run_starts = 0;
        run_ends = 0;
        declared_seed = None;
        declared_shards = None;
        declared_target = None;
        fleet_observes = 0;
        declared_plants = 0;
        declared_fleet_failures = 0;
        runner_runs = 0;
        runner_demands = 0;
        runner_failures = 0;
        runner_coincident = 0;
        runner_rng_draws = 0;
        sprt_accepts = 0;
        sprt_rejects = 0;
        sprt_undecided = 0;
        sprt_demands = 0;
        sprt_failures = 0;
      };
    plants = Hashtbl.create 64;
    skipped = Hashtbl.create 8;
    demand_counts = [||];
  }

let config t = t.config

(* ------------------------------------------------------------------ *)
(* Ingest                                                             *)
(* ------------------------------------------------------------------ *)

let plant_state t plant =
  match Hashtbl.find_opt t.plants plant with
  | Some s -> s
  | None ->
      let s = { p_demands = 0; p_failures = 0 } in
      Hashtbl.add t.plants plant s;
      s

let bump_demand t id count =
  let n = Array.length t.demand_counts in
  if id >= n then begin
    let grown = Array.make (max (id + 1) (max 16 (2 * n))) 0 in
    Array.blit t.demand_counts 0 grown 0 n;
    t.demand_counts <- grown
  end;
  t.demand_counts.(id) <- t.demand_counts.(id) + count

let ingest_event t (event : Schema.event) =
  let c = t.c in
  c.accepted <- c.accepted + 1;
  Obs.Metrics.incr m_events;
  match event with
  | Schema.Run_start { target; seed; shards } ->
      c.run_starts <- c.run_starts + 1;
      if c.declared_seed = None then c.declared_seed <- Some seed;
      if c.declared_shards = None then c.declared_shards <- Some shards;
      if c.declared_target = None then c.declared_target <- Some target
  | Schema.Run_end { rng_draws = _; _ } -> c.run_ends <- c.run_ends + 1
  | Schema.Runner_run
      { demands; system_failures; coincident_failures; rng_draws; demand_hist }
    ->
      c.runner_runs <- c.runner_runs + 1;
      c.runner_demands <- c.runner_demands + demands;
      c.runner_failures <- c.runner_failures + system_failures;
      c.runner_coincident <- c.runner_coincident + coincident_failures;
      c.runner_rng_draws <- c.runner_rng_draws + rng_draws;
      List.iter (fun (id, count) -> bump_demand t id count) demand_hist
  | Schema.Fleet_plant { plant; demands; failures; true_pfd = _ } ->
      let s = plant_state t plant in
      s.p_demands <- s.p_demands + demands;
      s.p_failures <- s.p_failures + failures
  | Schema.Fleet_observe { plants; demands_per_plant = _; failures } ->
      c.fleet_observes <- c.fleet_observes + 1;
      c.declared_plants <- max c.declared_plants plants;
      c.declared_fleet_failures <- c.declared_fleet_failures + failures
  | Schema.Sprt_decision { decision; demands; failures; log_lr = _ } ->
      (match decision with
      | Schema.Accept -> c.sprt_accepts <- c.sprt_accepts + 1
      | Schema.Reject -> c.sprt_rejects <- c.sprt_rejects + 1
      | Schema.Undecided -> c.sprt_undecided <- c.sprt_undecided + 1);
      c.sprt_demands <- c.sprt_demands + demands;
      c.sprt_failures <- c.sprt_failures + failures

let ingest_parsed t = function
  | Schema.Event e -> ingest_event t e
  | Schema.Skipped kind ->
      t.c.skipped_total <- t.c.skipped_total + 1;
      Obs.Metrics.incr m_skipped;
      Hashtbl.replace t.skipped kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.skipped kind))
  | Schema.Malformed _ ->
      t.c.malformed <- t.c.malformed + 1;
      Obs.Metrics.incr m_malformed

let ingest_line t line = ingest_parsed t (Schema.parse_line line)

let ingest_source t src ~max_lines =
  if max_lines < 0 then
    invalid_arg "Evidence.Assessor.ingest_source: max_lines must be >= 0";
  let since = Obs.Clock.now_ns () in
  let rec go n =
    if n = max_lines then n
    else
      match Source.next_line src with
      | Some line ->
          ingest_line t line;
          go (n + 1)
      | None -> n
  in
  let n = go 0 in
  if n > 0 && Obs.Metrics.is_enabled () then begin
    let seconds = Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns ~since) in
    if seconds > 0.0 then
      Obs.Metrics.observe h_ingest_rate (float_of_int n /. seconds)
  end;
  n

(* ------------------------------------------------------------------ *)
(* Derived judgements (pure functions of the counters)                 *)
(* ------------------------------------------------------------------ *)

type wald = {
  w_decision : Schema.sprt_outcome;
  w_log_lr : float;
  w_log_a : float;
  w_log_b : float;
}

let wald_of_counts config ~demands ~failures =
  let log_a = log ((1.0 -. config.beta) /. config.alpha) in
  let log_b = log (config.beta /. (1.0 -. config.alpha)) in
  let per_failure = log (config.theta1 /. config.theta0) in
  let per_success =
    Float.log1p (-.config.theta1)
    -. Float.log1p (-.config.theta0)
  in
  let log_lr =
    (float_of_int failures *. per_failure)
    +. (float_of_int (demands - failures) *. per_success)
  in
  let decision =
    if demands = 0 then Schema.Undecided
    else if log_lr >= log_a then Schema.Reject
    else if log_lr <= log_b then Schema.Accept
    else Schema.Undecided
  in
  { w_decision = decision; w_log_lr = log_lr; w_log_a = log_a; w_log_b = log_b }

type posterior = {
  post_mean : float;
  post_lo : float;
  post_hi : float;
  confidence_in_bound : float;
}

let posterior_of_counts config ~demands ~failures =
  let prior = Extensions.Beta_prior.create ~a:config.prior_a ~b:config.prior_b in
  let post = Extensions.Beta_prior.observe prior ~demands ~failures in
  let tail = (1.0 -. config.confidence) /. 2.0 in
  {
    post_mean = Extensions.Beta_prior.mean post;
    post_lo = Extensions.Beta_prior.quantile post tail;
    post_hi = Extensions.Beta_prior.quantile post (1.0 -. tail);
    confidence_in_bound = Extensions.Beta_prior.prob_at_most post config.bound;
  }

let drift t =
  match t.config.expected_profile with
  | None -> None
  | Some expected ->
      Some
        (Drift.assess ~expected ~counts:t.demand_counts
           ~alpha:t.config.drift_alpha)

let record_drift_alarm () = Obs.Metrics.incr m_drift_alarms

(* ------------------------------------------------------------------ *)
(* Accessors for verdict construction                                  *)
(* ------------------------------------------------------------------ *)

(* The verdict keeps a copy: it is a snapshot, and later ingest must not
   move it. *)
let counts t = { t.c with accepted = t.c.accepted }

type plant_counts = { plant : int; demands : int; failures : int }

let plant_counts t =
  Hashtbl.fold
    (fun plant s acc ->
      { plant; demands = s.p_demands; failures = s.p_failures } :: acc)
    t.plants []
  |> List.sort (fun a b -> compare a.plant b.plant)

let skipped_kinds t =
  Hashtbl.fold (fun kind n acc -> (kind, n) :: acc) t.skipped []
  |> List.sort compare

let demand_counts t = Array.copy t.demand_counts
