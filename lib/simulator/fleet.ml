open Numerics

(* Telemetry (all no-ops until enabled; see lib/obs): per-member
   distributions across the fleet — the true PFD behind each deployed
   system and the failure count each plant observed. *)
let m_plants = Obs.Metrics.counter "fleet.plants_observed"
let h_plant_pfd = Obs.Metrics.histogram "fleet.plant_true_pfd"

let h_plant_failures =
  (* Failure counts, not PFDs: buckets 1 .. 1e6 (0 lands in underflow). *)
  Obs.Metrics.histogram ~lo:1.0 ~decades:6 "fleet.plant_failures"

type plant_record = {
  system_pfd : float;
  demands : int;
  failures : int;
}

type t = { records : plant_record array }

(* Sharding convention (see Exec): [shards = 1] is the legacy sequential
   path — the parent RNG is threaded through the plants in plant order,
   byte-identical to the pre-sharding implementation. Any other count
   goes through [Exec.map_shards_rng], which validates it: shard k
   handles a contiguous slice of the plants in plant order on its own
   substream, and slices concatenate back in plant order, so the result
   is a pure function of (seed, shards) and byte-identical for any
   domain count. *)

let deploy ?pool ?shards ~what rng ~plants make =
  if plants <= 0 then
    invalid_arg ("Fleet." ^ what ^ ": plants must be positive");
  let shards = Option.value shards ~default:(Exec.default_shards ()) in
  if shards = 1 then Array.init plants (fun _ -> make rng)
  else
    Exec.map_shards_rng ?pool rng ~shards ~range:plants
      ~f:(fun ~lo:_ ~len rng_k -> Array.init len (fun _ -> make rng_k))
    |> Array.to_list |> Array.concat

let deploy_pairs ?pool ?shards rng space ~plants =
  deploy ?pool ?shards ~what:"deploy_pairs" rng ~plants (fun rng ->
      let va, vb = Devteam.develop_pair rng space in
      Protection.one_out_of_two
        (Channel.create ~name:"A" va)
        (Channel.create ~name:"B" vb))

let deploy_singles ?pool ?shards rng space ~plants =
  deploy ?pool ?shards ~what:"deploy_singles" rng ~plants (fun rng ->
      Protection.create
        [ Channel.create ~name:"single" (Devteam.develop rng space) ])

let observe ?pool ?shards rng systems ~demands_per_plant =
  if demands_per_plant <= 0 then
    invalid_arg "Fleet.observe: demands_per_plant must be positive";
  let shards = Option.value shards ~default:(Exec.default_shards ()) in
  let span = Obs.Trace.enter "fleet.observe" in
  let run_plant rng plant =
    let system = systems.(plant) in
    let stats = Runner.run rng ~system ~demand_count:demands_per_plant in
    let record =
      {
        system_pfd = Protection.true_pfd system;
        demands = demands_per_plant;
        failures = stats.Runner.system_failures;
      }
    in
    Obs.Metrics.incr m_plants;
    Obs.Metrics.observe h_plant_pfd record.system_pfd;
    Obs.Metrics.observe h_plant_failures (float_of_int record.failures);
    if Obs.Runlog.active () then
      Obs.Runlog.record ~kind:"fleet.plant"
        [
          ("plant", Obs.Json.Int plant);
          ("demands", Obs.Json.Int record.demands);
          ("failures", Obs.Json.Int record.failures);
          ("true_pfd", Obs.Json.Float record.system_pfd);
        ];
    record
  in
  let records =
    if shards = 1 then
      Array.init (Array.length systems) (fun plant -> run_plant rng plant)
    else
      Exec.map_shards_rng ?pool rng ~shards ~range:(Array.length systems)
        ~f:(fun ~lo ~len rng_k -> Array.init len (fun i -> run_plant rng_k (lo + i)))
      |> Array.to_list |> Array.concat
  in
  (* Observation summary, recorded after the per-plant events: the
     declared fleet size lets an offline assessor (lib/evidence)
     reconcile the plant events it actually saw against what the
     simulator claims to have observed. *)
  if Obs.Runlog.active () then
    Obs.Runlog.record ~kind:"fleet.observe"
      [
        ("plants", Obs.Json.Int (Array.length records));
        ("demands_per_plant", Obs.Json.Int demands_per_plant);
        ("failures", Obs.Json.Int
           (Array.fold_left (fun acc r -> acc + r.failures) 0 records));
        ("shards", Obs.Json.Int shards);
      ];
  Obs.Trace.leave span;
  { records }

let size t = Array.length t.records
let records t = Array.copy t.records

let total_failures t =
  Array.fold_left (fun acc r -> acc + r.failures) 0 t.records

let pooled_rate t =
  let demands = Array.fold_left (fun acc r -> acc + r.demands) 0 t.records in
  float_of_int (total_failures t) /. float_of_int demands

type dispersion = {
  mean_count : float;
  count_variance : float;
  binomial_variance : float;
      (** what the variance would be if every plant had the pooled PFD *)
  overdispersion : float;  (** count_variance / binomial_variance *)
}

let dispersion t =
  let counts = Array.map (fun r -> float_of_int r.failures) t.records in
  if Array.length counts < 2 then
    invalid_arg "Fleet.dispersion: need at least two plants";
  let mean_count = Stats.mean counts in
  let count_variance = Stats.variance counts in
  let demands = float_of_int t.records.(0).demands in
  let p = pooled_rate t in
  let binomial_variance = demands *. p *. (1.0 -. p) in
  {
    mean_count;
    count_variance;
    binomial_variance;
    overdispersion =
      (if binomial_variance > 0.0 then count_variance /. binomial_variance
       else nan);
  }

let estimate_pfd_moments t =
  (* Method of moments: with K_j ~ Bin(T, theta_j) given plant j's true
     PFD theta_j,
       E[K]   = T mu,
       Var[K] = T mu - T E[theta^2] + T^2 Var(theta)
     (exactly, since Var[K] = E[T theta (1-theta)] + T^2 Var(theta)), so
       Var(theta) = (S2 - T mu_hat + T E[theta^2]) / T^2
     which we solve with E[theta^2] = Var(theta) + mu^2. *)
  let counts = Array.map (fun r -> float_of_int r.failures) t.records in
  if Array.length counts < 2 then
    invalid_arg "Fleet.estimate_pfd_moments: need at least two plants";
  let demands = float_of_int t.records.(0).demands in
  let mu_hat = Stats.mean counts /. demands in
  let s2 = Stats.variance counts in
  (* (T^2 - T) Var = S2 - T mu + T mu^2  =>  Var = (S2 - T mu (1 - mu)) / (T^2 - T) *)
  let var_hat =
    (s2 -. (demands *. mu_hat *. (1.0 -. mu_hat)))
    /. ((demands *. demands) -. demands)
  in
  (mu_hat, max 0.0 var_hat)

let true_pfd_summary t =
  Stats.summarize (Array.map (fun r -> r.system_pfd) t.records)
