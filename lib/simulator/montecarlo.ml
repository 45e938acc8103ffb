open Numerics

(* Telemetry (all no-ops until enabled; see lib/obs): iteration and
   acceptance counters, RNG consumption, and PFD-scale histograms of the
   sampled single-version and pair PFDs. Parallel paths accumulate plain
   ints per shard and feed the instruments once, at join on the calling
   domain, so histogram/gauge writes never race and metric totals are
   independent of the domain count. *)
let m_iterations = Obs.Metrics.counter "montecarlo.iterations"
let m_n1_pos = Obs.Metrics.counter "montecarlo.theta1_positive"
let m_n2_pos = Obs.Metrics.counter "montecarlo.theta2_positive"
let m_rng_draws = Obs.Metrics.counter "montecarlo.rng_draws"
let h_theta1 = Obs.Metrics.histogram "montecarlo.theta1"
let h_theta2 = Obs.Metrics.histogram "montecarlo.theta2"

type estimate = {
  replications : int;
  shards : int;
  theta1 : Stats.summary;
  theta2 : Stats.summary;
  p_n1_pos : float;
  p_n2_pos : float;
  risk_ratio : float;
  theta1_samples : float array;
  theta2_samples : float array;
  shard_draws : int array;
}

let estimate ?pool ?shards rng universe ~replications =
  if replications <= 0 then
    invalid_arg "Montecarlo.estimate: replications must be positive";
  let shards = Option.value shards ~default:(Exec.default_shards ()) in
  let span = Obs.Trace.enter "montecarlo.estimate" in
  let draws0 = Rng.draws rng in
  let theta1_samples = Array.make replications 0.0 in
  let theta2_samples = Array.make replications 0.0 in
  (* Deterministic sharding: each shard owns a contiguous slice of the
     sample arrays, an independent substream and its own compiled
     universe (compiled scratch is single-domain), so the result depends
     on (seed, shards) only — never on the pool's domain count. *)
  let per_shard =
    Exec.map_shards_rng ?pool rng ~shards ~range:replications
      ~f:(fun ~lo ~len rng_k ->
        let compiled = Devteam.compile universe in
        let n1 = ref 0 and n2 = ref 0 in
        for r = lo to lo + len - 1 do
          let pfd_a, _pfd_b, pfd_pair = Devteam.pair_pfd rng_k compiled in
          theta1_samples.(r) <- pfd_a;
          theta2_samples.(r) <- pfd_pair;
          if pfd_a > 0.0 then incr n1;
          if pfd_pair > 0.0 then incr n2
        done;
        (!n1, !n2, Rng.draws rng_k))
  in
  (* Join: fold shard tallies in shard order and feed the single-writer
     instruments from the calling domain. *)
  let n1_pos = ref 0 and n2_pos = ref 0 in
  let shard_draws = Array.make shards 0 in
  Array.iteri
    (fun k (n1, n2, draws) ->
      n1_pos := !n1_pos + n1;
      n2_pos := !n2_pos + n2;
      shard_draws.(k) <- draws)
    per_shard;
  let total_draws =
    Rng.draws rng - draws0 + Array.fold_left ( + ) 0 shard_draws
  in
  Obs.Metrics.add m_iterations replications;
  Obs.Metrics.add m_n1_pos !n1_pos;
  Obs.Metrics.add m_n2_pos !n2_pos;
  Obs.Metrics.add m_rng_draws total_draws;
  if Obs.Metrics.is_enabled () then
    for r = 0 to replications - 1 do
      Obs.Metrics.observe h_theta1 theta1_samples.(r);
      Obs.Metrics.observe h_theta2 theta2_samples.(r)
    done;
  let p_n1_pos = float_of_int !n1_pos /. float_of_int replications in
  let p_n2_pos = float_of_int !n2_pos /. float_of_int replications in
  if Obs.Runlog.active () then
    Obs.Runlog.record ~kind:"montecarlo.estimate"
      [
        ("replications", Obs.Json.Int replications);
        ("shards", Obs.Json.Int shards);
        ("p_n1_pos", Obs.Json.Float p_n1_pos);
        ("p_n2_pos", Obs.Json.Float p_n2_pos);
        ("rng_draws", Obs.Json.Int total_draws);
      ];
  Obs.Trace.leave span;
  {
    replications;
    shards;
    theta1 = Stats.summarize theta1_samples;
    theta2 = Stats.summarize theta2_samples;
    p_n1_pos;
    p_n2_pos;
    risk_ratio = (if p_n1_pos > 0.0 then p_n2_pos /. p_n1_pos else nan);
    theta1_samples;
    theta2_samples;
    shard_draws;
  }

let quantile_theta1 est alpha = Stats.quantile est.theta1_samples alpha

type population = {
  version_pfds : float array;
  pair_pfds : float array;
  version_summary : Stats.summary;
  pair_summary : Stats.summary;
}

let version_population rng space ~count =
  if count < 2 then
    invalid_arg "Montecarlo.version_population: need at least two versions";
  let span = Obs.Trace.enter "montecarlo.version_population" in
  let versions = Devteam.develop_many rng space ~count in
  let version_pfds = Array.map Demandspace.Version.pfd versions in
  let pair_pfds = Array.make (count * (count - 1) / 2) 0.0 in
  let idx = ref 0 in
  for i = 0 to count - 1 do
    for j = i + 1 to count - 1 do
      pair_pfds.(!idx) <- Demandspace.Version.pair_pfd versions.(i) versions.(j);
      incr idx
    done
  done;
  let pop =
    {
      version_pfds;
      pair_pfds;
      version_summary = Stats.summarize version_pfds;
      pair_summary = Stats.summarize pair_pfds;
    }
  in
  Obs.Trace.leave span;
  pop

let knight_leveson_shape pop =
  (* The paper's Section 7 check: "diversity reduced not only the sample
     mean of the PFD of the 27 program versions produced, but also -
     greatly - its standard deviation". Returns (mean ratio, std ratio):
     both below 1 reproduce the observation, and std ratio << mean ratio
     reproduces "greatly". *)
  let mean_ratio =
    if pop.version_summary.mean > 0.0 then
      pop.pair_summary.mean /. pop.version_summary.mean
    else nan
  in
  let std_ratio =
    if pop.version_summary.std > 0.0 then
      pop.pair_summary.std /. pop.version_summary.std
    else nan
  in
  (mean_ratio, std_ratio)
