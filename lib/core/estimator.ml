open Numerics

type observation = { n_faults : int; versions : int list array }

let observe ~n_faults versions =
  if n_faults <= 0 then invalid_arg "Estimator.observe: n_faults must be positive";
  Array.iter
    (List.iter (fun i ->
         if i < 0 || i >= n_faults then
           invalid_arg "Estimator.observe: fault index out of range"))
    versions;
  if Array.length versions = 0 then
    invalid_arg "Estimator.observe: no versions observed";
  { n_faults; versions = Array.map (List.sort_uniq compare) versions }

let version_count obs = Array.length obs.versions

let occurrence_counts obs =
  let counts = Array.make obs.n_faults 0 in
  Array.iter
    (List.iter (fun i -> counts.(i) <- counts.(i) + 1))
    obs.versions;
  counts

let p_hat obs =
  let m = float_of_int (version_count obs) in
  Array.map (fun c -> float_of_int c /. m) (occurrence_counts obs)

let pmax_hat obs = Array.fold_left max 0.0 (p_hat obs)

let pmax_upper obs =
  let counts = occurrence_counts obs in
  Array.fold_left
    (fun acc c ->
      let _, hi = Stats.proportion_ci ~successes:c ~trials:(version_count obs) () in
      max acc hi)
    0.0 counts

let plug_in_universe obs ~qs =
  if Array.length qs <> obs.n_faults then
    invalid_arg "Estimator.plug_in_universe: q vector length mismatch";
  (* A fault never seen gets the estimate 0, which Universe accepts. *)
  Universe.of_arrays ~p:(p_hat obs) ~q:qs

type prediction = {
  point : float;
  ci_low : float;
  ci_high : float;
}

(* Percentile bootstrap over the version sample: 1000 resamples, a
   two-sided 95% interval. *)
let replicates = 1000
let alpha = 0.05

let bootstrap_predict rng obs ~qs ~statistic =
  if Array.length qs <> obs.n_faults then
    invalid_arg "Estimator.bootstrap_predict: q vector length mismatch";
  let m = version_count obs in
  let point = statistic (plug_in_universe obs ~qs) in
  let stats =
    Array.init replicates (fun _ ->
        let resampled =
          Array.init m (fun _ -> obs.versions.(Rng.int rng m))
        in
        let obs' = { obs with versions = resampled } in
        statistic (plug_in_universe obs' ~qs))
  in
  Array.sort compare stats;
  {
    point;
    ci_low = Stats.quantile_sorted stats (alpha /. 2.0);
    ci_high = Stats.quantile_sorted stats (1.0 -. (alpha /. 2.0));
  }

let predict_risk_ratio rng obs ~qs =
  bootstrap_predict rng obs ~qs ~statistic:(fun u ->
      let r = Fault_count.risk_ratio u in
      if Float.is_nan r then 0.0 else r)
