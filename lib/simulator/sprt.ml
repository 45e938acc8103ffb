(* Telemetry (all no-ops until enabled; see lib/obs): per-demand step
   counters, how many tests crossed each Wald boundary, and the current
   log likelihood ratio for convergence watching. *)
let m_steps = Obs.Metrics.counter "sprt.steps"
let m_step_failures = Obs.Metrics.counter "sprt.step_failures"
let m_accepts = Obs.Metrics.counter "sprt.accepted"
let m_rejects = Obs.Metrics.counter "sprt.rejected"
let g_log_lr = Obs.Metrics.gauge "sprt.last_log_lr"

type decision = Accept | Reject | Continue

type t = {
  theta0 : float;
  theta1 : float;
  log_a : float;
  log_b : float;
  log_lr_failure : float;
  log_lr_success : float;
  mutable log_lr : float;
  mutable demands : int;
  mutable failures : int;
}

let create ~theta0 ~theta1 ~alpha ~beta =
  if not (0.0 < theta0 && theta0 < theta1 && theta1 < 1.0) then
    invalid_arg "Sprt.create: need 0 < theta0 < theta1 < 1";
  if not (0.0 < alpha && alpha < 1.0 && 0.0 < beta && beta < 1.0) then
    invalid_arg "Sprt.create: error rates must lie strictly in (0, 1)";
  {
    theta0;
    theta1;
    (* Wald boundaries: accept H0 (theta <= theta0) when the log
       likelihood ratio falls below log B, reject when it rises above
       log A. *)
    log_a = log ((1.0 -. beta) /. alpha);
    log_b = log (beta /. (1.0 -. alpha));
    log_lr_failure = log (theta1 /. theta0);
    log_lr_success = Float.log1p (-.theta1) -. Float.log1p (-.theta0);
    log_lr = 0.0;
    demands = 0;
    failures = 0;
  }

let state t =
  if t.log_lr >= t.log_a then Reject
  else if t.log_lr <= t.log_b then Accept
  else Continue

let record t ~failed =
  (match state t with
  | Continue ->
      t.demands <- t.demands + 1;
      if failed then begin
        t.failures <- t.failures + 1;
        t.log_lr <- t.log_lr +. t.log_lr_failure;
        Obs.Metrics.incr m_step_failures
      end
      else t.log_lr <- t.log_lr +. t.log_lr_success;
      Obs.Metrics.incr m_steps;
      Obs.Metrics.set g_log_lr t.log_lr;
      (* A test concludes at most once, so these count boundary
         crossings, not post-decision observations. *)
      (match state t with
      | Accept -> Obs.Metrics.incr m_accepts
      | Reject -> Obs.Metrics.incr m_rejects
      | Continue -> ())
  | Accept | Reject -> () (* test already concluded; ignore further data *));
  state t

let demands_observed t = t.demands
let failures_observed t = t.failures
let theta0 t = t.theta0
let theta1 t = t.theta1

let run rng ~system ~theta0 ~theta1 ~alpha ~beta ~max_demands =
  if max_demands <= 0 then
    invalid_arg "Sprt.run: max_demands must be positive";
  let span = Obs.Trace.enter "sprt.run" in
  let t = create ~theta0 ~theta1 ~alpha ~beta in
  let profile = Demandspace.Space.profile (Protection.space system) in
  let rec loop () =
    if t.demands >= max_demands then (Continue, t)
    else
      let failed =
        Protection.fails_on system (Demandspace.Profile.sample profile rng)
      in
      match record t ~failed with
      | Continue -> loop ()
      | (Accept | Reject) as d -> (d, t)
  in
  let result = loop () in
  (if Obs.Runlog.active () then
     let decision, _ = result in
     Obs.Runlog.record ~kind:"sprt.decision"
       [
         ( "decision",
           Obs.Json.String
             (match decision with
             | Accept -> "accept"
             | Reject -> "reject"
             | Continue -> "undecided") );
         ("demands", Obs.Json.Int t.demands);
         ("failures", Obs.Json.Int t.failures);
         ("log_lr", Obs.Json.Float t.log_lr);
         (* The hypotheses under test, so an offline assessor can check a
            logged decision against its own aggregated Wald boundary
            (lib/evidence) without out-of-band configuration. *)
         ("theta0", Obs.Json.Float t.theta0);
         ("theta1", Obs.Json.Float t.theta1);
       ]);
  Obs.Trace.leave span;
  result

let expected_sample_size_h0 ~theta0 ~theta1 ~alpha ~beta =
  (* Wald's approximation for E[N | H0]. *)
  let log_a = log ((1.0 -. beta) /. alpha) in
  let log_b = log (beta /. (1.0 -. alpha)) in
  let per_demand =
    (theta0 *. log (theta1 /. theta0))
    +. ((1.0 -. theta0) *. (Float.log1p (-.theta1) -. Float.log1p (-.theta0)))
  in
  ((alpha *. log_a) +. ((1.0 -. alpha) *. log_b)) /. per_demand
