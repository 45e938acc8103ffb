let operational_testing u ~demands =
  (* Each test demand falls in fault i's failure region with probability
     q_i; a hit reveals the fault, which is then fixed. A fault survives a
     t-demand test campaign (if present) with probability (1-q_i)^t, so
     the delivered-fault probability becomes p_i (1-q_i)^t. Big-region
     faults are scrubbed first — the mechanism behind the non-uniform
     improvement of Section 4.2.1. *)
  if demands < 0 then
    invalid_arg "Testing_process.operational_testing: negative demand count";
  let t = float_of_int demands in
  let i = ref (-1) in
  Core.Universe.map_faults
    (fun f ->
      incr i;
      let survive = exp (t *. Float.log1p (-.Core.Fault.q f)) in
      Core.Fault.with_p f (Core.Fault.p f *. survive))
    u

let directed_testing u ~detection ~cycles =
  (* Directed V&V: fault i is caught per cycle with probability
     detection.(i), independent of its region size. *)
  if cycles < 0 then
    invalid_arg "Testing_process.directed_testing: negative cycle count";
  if Array.length detection <> Core.Universe.size u then
    invalid_arg "Testing_process.directed_testing: detection vector length mismatch";
  Array.iter
    (fun d ->
      if not (d >= 0.0 && d <= 1.0) then
        invalid_arg "Testing_process.directed_testing: detection outside [0, 1]")
    detection;
  let c = float_of_int cycles in
  let i = ref (-1) in
  Core.Universe.map_faults
    (fun f ->
      incr i;
      let survive = exp (c *. Float.log1p (-.detection.(!i))) in
      Core.Fault.with_p f (Core.Fault.p f *. survive))
    u

type trajectory_point = {
  demands : int;
  mu1 : float;
  mu2 : float;
  mean_gain : float;
  risk_ratio : float;
  bound_ratio : float;
}

let trajectory u ~k ~demand_counts =
  Array.map
    (fun demands ->
      let u' = operational_testing u ~demands in
      {
        demands;
        mu1 = Core.Moments.mu1 u';
        mu2 = Core.Moments.mu2 u';
        mean_gain = Core.Moments.mean_gain u';
        risk_ratio = Core.Fault_count.risk_ratio u';
        bound_ratio = Core.Normal_approx.bound_ratio u' ~k;
      })
    demand_counts

let single_vs_pair_testing u ~total_demands =
  (* The budget question of [13]: test one version with the whole budget,
     or develop two versions and test each with half. Returns
     (tested single mu1, half-tested pair mu2). *)
  if total_demands < 0 then
    invalid_arg "Testing_process.single_vs_pair_testing: negative budget";
  let single = operational_testing u ~demands:total_demands in
  let half = operational_testing u ~demands:(total_demands / 2) in
  (Core.Moments.mu1 single, Core.Moments.mu2 half)
