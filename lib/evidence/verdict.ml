(* Proven-in-use verdict reports.

   A verdict is a snapshot of everything the assessor can claim from the
   evidence ingested so far: operating demands and failures (per plant
   and pooled), posterior PFD bounds, the aggregate Wald boundary state,
   profile drift, and the bookkeeping an auditor needs (how many lines
   were consumed, skipped, damaged). Constructing a verdict copies the
   assessor's counters and derives everything else, so it never perturbs
   the assessor, and later ingest never moves it. An interim report in
   windowed mode needs only the fleet-level part ([fleet]): one
   posterior over the pooled counters, none per plant, and no metric,
   so interim reports are cheap and the [evidence.*] counters do not
   depend on the window size.

   Rendering is deliberately timestamp-free: the JSON form contains no
   wall-clock or rate data (those live in the Obs.Metrics snapshot), so
   the final verdict for a given event multiset is byte-identical
   however the stream was windowed. *)

type overall = Accepted | Rejected | Insufficient

type plant = {
  plant : int;
  demands : int;
  failures : int;
  posterior : Assessor.posterior;
  wald : Assessor.wald;
}

type fleet = {
  overall : overall;
  demands : int;
  failures : int;
  posterior : Assessor.posterior;
  wald : Assessor.wald;
  drift : Drift.result option;
}

type t = {
  config : Assessor.config;
  counts : Assessor.counts;
  skipped_kinds : (string * int) list;
  plants : plant list;
  fleet : fleet;
  reconciled : bool;
}

let judge ~(wald : Assessor.wald) ~(posterior : Assessor.posterior)
    ~(drift : Drift.result option) ~(config : Assessor.config) ~demands =
  let drift_alarm = match drift with Some d -> d.Drift.alarm | None -> false in
  if demands = 0 then Insufficient
  else if drift_alarm then Rejected
  else
    match wald.w_decision with
    | Schema.Reject -> Rejected
    | Schema.Accept when posterior.confidence_in_bound >= config.confidence ->
        Accepted
    | Schema.Accept | Schema.Undecided -> Insufficient

(* The fleet-level judgement over the plants' pooled counters: one
   posterior, none per plant, and no metric recorded. *)
let fleet_of_counts a (pcs : Assessor.plant_counts list) =
  let config = Assessor.config a in
  let demands =
    List.fold_left (fun n (p : Assessor.plant_counts) -> n + p.demands) 0 pcs
  in
  let failures =
    List.fold_left (fun n (p : Assessor.plant_counts) -> n + p.failures) 0 pcs
  in
  let posterior = Assessor.posterior_of_counts config ~demands ~failures in
  let wald = Assessor.wald_of_counts config ~demands ~failures in
  let drift = Assessor.drift a in
  {
    overall = judge ~wald ~posterior ~drift ~config ~demands;
    demands;
    failures;
    posterior;
    wald;
    drift;
  }

let fleet a = fleet_of_counts a (Assessor.plant_counts a)

let of_assessor a =
  let config = Assessor.config a in
  let counts = Assessor.counts a in
  let pcs = Assessor.plant_counts a in
  let plants =
    List.map
      (fun ({ plant; demands; failures } : Assessor.plant_counts) ->
        {
          plant;
          demands;
          failures;
          posterior = Assessor.posterior_of_counts config ~demands ~failures;
          wald = Assessor.wald_of_counts config ~demands ~failures;
        })
      pcs
  in
  let fleet = fleet_of_counts a pcs in
  (match fleet.drift with
  | Some d when d.Drift.alarm -> Assessor.record_drift_alarm ()
  | _ -> ());
  let reconciled =
    (* The fleet.observe summary events agree with the plant events they
       bracket: plant count and pooled failures match what the simulator
       declared. Vacuously true without summary events. *)
    counts.fleet_observes = 0
    || counts.declared_plants = List.length plants
       && counts.declared_fleet_failures = fleet.failures
  in
  {
    config;
    counts;
    skipped_kinds = Assessor.skipped_kinds a;
    plants;
    fleet;
    reconciled;
  }

let overall_string = function
  | Accepted -> "accepted"
  | Rejected -> "rejected"
  | Insufficient -> "insufficient-evidence"

let decision_string = function
  | Schema.Accept -> "accept"
  | Schema.Reject -> "reject"
  | Schema.Undecided -> "undecided"

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let json_posterior (p : Assessor.posterior) =
  Obs.Json.Obj
    [
      ("mean", Obs.Json.Float p.Assessor.post_mean);
      ("lo", Obs.Json.Float p.Assessor.post_lo);
      ("hi", Obs.Json.Float p.Assessor.post_hi);
      ("confidence_in_bound", Obs.Json.Float p.Assessor.confidence_in_bound);
    ]

let json_wald (w : Assessor.wald) =
  Obs.Json.Obj
    [
      ("decision", Obs.Json.String (decision_string w.Assessor.w_decision));
      ("log_lr", Obs.Json.Float w.Assessor.w_log_lr);
      ("log_a", Obs.Json.Float w.Assessor.w_log_a);
      ("log_b", Obs.Json.Float w.Assessor.w_log_b);
    ]

let json_opt_int = function
  | Some i -> Obs.Json.Int i
  | None -> Obs.Json.Null

let to_json v =
  let config = v.config and c = v.counts in
  let plant p =
    Obs.Json.Obj
      [
        ("plant", Obs.Json.Int p.plant);
        ("demands", Obs.Json.Int p.demands);
        ("failures", Obs.Json.Int p.failures);
        ("posterior", json_posterior p.posterior);
        ("wald", json_wald p.wald);
      ]
  in
  let drift =
    match v.fleet.drift with
    | None -> Obs.Json.Null
    | Some d ->
        Obs.Json.Obj
          [
            ("total", Obs.Json.Int d.Drift.total);
            ("chi_square", Obs.Json.Float d.Drift.chi_square);
            ("dof", Obs.Json.Int d.Drift.dof);
            ("p_value", Obs.Json.Float d.Drift.p_value);
            ("kl_divergence", Obs.Json.Float d.Drift.kl_divergence);
            ("impossible", Obs.Json.Int d.Drift.impossible);
            ("alarm", Obs.Json.Bool d.Drift.alarm);
          ]
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "divrel-evidence/1");
      ("verdict", Obs.Json.String (overall_string v.fleet.overall));
      ( "config",
        Obs.Json.Obj
          [
            ("theta0", Obs.Json.Float config.Assessor.theta0);
            ("theta1", Obs.Json.Float config.Assessor.theta1);
            ("alpha", Obs.Json.Float config.Assessor.alpha);
            ("beta", Obs.Json.Float config.Assessor.beta);
            ("prior_a", Obs.Json.Float config.Assessor.prior_a);
            ("prior_b", Obs.Json.Float config.Assessor.prior_b);
            ("bound", Obs.Json.Float config.Assessor.bound);
            ("confidence", Obs.Json.Float config.Assessor.confidence);
            ("drift_alpha", Obs.Json.Float config.Assessor.drift_alpha);
            ( "declared_profile_size",
              match config.Assessor.expected_profile with
              | Some p -> Obs.Json.Int (Array.length p)
              | None -> Obs.Json.Null );
          ] )
      ;
      ( "run",
        Obs.Json.Obj
          [
            ("starts", Obs.Json.Int c.run_starts);
            ("ends", Obs.Json.Int c.run_ends);
            ("seed", json_opt_int c.declared_seed);
            ("shards", json_opt_int c.declared_shards);
            ( "target",
              match c.declared_target with
              | Some s -> Obs.Json.String s
              | None -> Obs.Json.Null );
          ] );
      ( "events",
        Obs.Json.Obj
          [
            ("accepted", Obs.Json.Int c.accepted);
            ("skipped", Obs.Json.Int c.skipped_total);
            ("malformed", Obs.Json.Int c.malformed);
            ( "skipped_kinds",
              Obs.Json.Obj
                (List.map
                   (fun (kind, n) -> (kind, Obs.Json.Int n))
                   v.skipped_kinds) );
          ] );
      ( "fleet",
        Obs.Json.Obj
          [
            ("plants", Obs.Json.Int (List.length v.plants));
            ("demands", Obs.Json.Int v.fleet.demands);
            ("failures", Obs.Json.Int v.fleet.failures);
            ("reconciled", Obs.Json.Bool v.reconciled);
            ("posterior", json_posterior v.fleet.posterior);
            ("wald", json_wald v.fleet.wald);
          ] );
      ("plants", Obs.Json.List (List.map plant v.plants));
      ( "runner",
        Obs.Json.Obj
          [
            ("runs", Obs.Json.Int c.runner_runs);
            ("demands", Obs.Json.Int c.runner_demands);
            ("failures", Obs.Json.Int c.runner_failures);
            ("coincident", Obs.Json.Int c.runner_coincident);
            ("rng_draws", Obs.Json.Int c.runner_rng_draws);
          ] );
      ( "sprt",
        Obs.Json.Obj
          [
            ("accepts", Obs.Json.Int c.sprt_accepts);
            ("rejects", Obs.Json.Int c.sprt_rejects);
            ("undecided", Obs.Json.Int c.sprt_undecided);
            ("demands", Obs.Json.Int c.sprt_demands);
            ("failures", Obs.Json.Int c.sprt_failures);
          ] );
      ("drift", drift);
    ]

let render_json v = Obs.Json.render (to_json v)

(* ------------------------------------------------------------------ *)
(* Text                                                               *)
(* ------------------------------------------------------------------ *)

(* Per-plant rows shown in the text report; the JSON form carries all. *)
let plant_limit = 16

let render_text v =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let config = v.config in
  pf "proven-in-use verdict: %s\n" (overall_string v.fleet.overall);
  pf "  hypotheses: accept PFD <= %g, reject PFD >= %g (alpha=%g, beta=%g)\n"
    config.Assessor.theta0 config.Assessor.theta1 config.Assessor.alpha
    config.Assessor.beta;
  pf "  prior Beta(%g, %g); reporting %g%% posterior interval, bound %g\n"
    config.Assessor.prior_a config.Assessor.prior_b
    (100.0 *. config.Assessor.confidence)
    config.Assessor.bound;
  let c = v.counts in
  (match c.declared_seed with
  | Some seed ->
      pf "  source run: target=%s seed=%d shards=%s (%d start / %d end)\n"
        (Option.value ~default:"?" c.declared_target)
        seed
        (match c.declared_shards with
        | Some s -> string_of_int s
        | None -> "?")
        c.run_starts c.run_ends
  | None -> ());
  pf "  events: %d consumed, %d skipped, %d malformed\n" c.accepted
    c.skipped_total c.malformed;
  List.iter
    (fun (kind, n) -> pf "    skipped kind %-20s %d\n" kind n)
    v.skipped_kinds;
  pf "  fleet: %d plants, %d demands, %d failures%s\n" (List.length v.plants)
    v.fleet.demands v.fleet.failures
    (if v.reconciled then "" else "  [NOT RECONCILED with fleet.observe]");
  pf "    posterior PFD: mean %.3g, %g%% interval [%.3g, %.3g], P(<=%g) = %.4f\n"
    v.fleet.posterior.Assessor.post_mean
    (100.0 *. config.Assessor.confidence)
    v.fleet.posterior.Assessor.post_lo v.fleet.posterior.Assessor.post_hi
    config.Assessor.bound
    v.fleet.posterior.Assessor.confidence_in_bound;
  pf "    wald boundary: %s (log LR %.3f; accept <= %.3f, reject >= %.3f)\n"
    (decision_string v.fleet.wald.Assessor.w_decision)
    v.fleet.wald.Assessor.w_log_lr v.fleet.wald.Assessor.w_log_b
    v.fleet.wald.Assessor.w_log_a;
  (match v.fleet.drift with
  | None -> pf "  drift: no declared profile (detection disabled)\n"
  | Some d ->
      pf
        "  drift: %s — chi2 %.3f (dof %d, p %.3g), KL %.3g, %d impossible \
         demand(s) over %d demands\n"
        (if d.Drift.alarm then "ALARM" else "stable")
        d.Drift.chi_square d.Drift.dof d.Drift.p_value d.Drift.kl_divergence
        d.Drift.impossible d.Drift.total);
  if c.runner_runs > 0 then
    pf "  runner: %d runs, %d demands, %d failures (%d coincident), %d draws\n"
      c.runner_runs c.runner_demands c.runner_failures c.runner_coincident
      c.runner_rng_draws;
  if c.sprt_accepts + c.sprt_rejects + c.sprt_undecided > 0 then
    pf "  sprt decisions: %d accept, %d reject, %d undecided (%d demands)\n"
      c.sprt_accepts c.sprt_rejects c.sprt_undecided c.sprt_demands;
  let n_plants = List.length v.plants in
  let shown = min plant_limit n_plants in
  if n_plants > 0 then begin
    pf "  per-plant evidence (%d of %d):\n" shown n_plants;
    pf "    %6s %10s %9s %10s %22s %9s\n" "plant" "demands" "failures"
      "post.mean" "interval" "wald";
    List.iteri
      (fun i p ->
        if i < plant_limit then
          pf "    %6d %10d %9d %10.3g [%9.3g, %9.3g] %9s\n" p.plant p.demands
            p.failures p.posterior.Assessor.post_mean
            p.posterior.Assessor.post_lo p.posterior.Assessor.post_hi
            (decision_string p.wald.Assessor.w_decision))
      v.plants;
    if n_plants > plant_limit then
      pf "    ... %d more plant(s) elided (full detail in the JSON verdict)\n"
        (n_plants - plant_limit)
  end;
  Buffer.contents b
