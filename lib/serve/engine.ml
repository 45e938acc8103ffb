(* Request evaluation. [eval ~seed request] is a pure function of its
   two arguments: all randomness comes from a generator seeded here
   (salted per request for the fleet verb), and the whole evaluation
   happens inline on the calling domain. The analytic verbs (moments,
   risk-ratio, pfd-dist) are sequential kernels; the one sharded verb,
   fleet-mission, runs with the shard count carried in the request
   (never a server default) on a private size-1 pool. That is what
   makes the service's byte-identity guarantee compositional — a
   dispatcher may run evaluations on any worker domain in any order and
   the bytes cannot change — and what makes the per-request draw meter
   exact: the [Rng.local_draws] delta around an inline evaluation
   counts precisely the draws this request consumed. *)

let ( let* ) r f = Result.bind r f

let jf f = Obs.Json.Float f

let moments_body u =
  let m = Core.Moments.compute u in
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int (Core.Universe.size u));
      ("mu1", jf m.Core.Moments.mu1);
      ("mu2", jf m.Core.Moments.mu2);
      ("sigma1", jf m.Core.Moments.sigma1);
      ("sigma2", jf m.Core.Moments.sigma2);
      ("mean_gain", jf (Core.Moments.mean_gain u));
      ("expected_faults", jf (Core.Moments.expected_fault_count u));
      ("expected_common_faults", jf (Core.Moments.expected_common_fault_count u));
    ]

let risk_ratio_body u ~channels ~required =
  let arch = Core.Voting.create ~channels ~required in
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int (Core.Universe.size u));
      ("channels", Obs.Json.Int channels);
      ("required", Obs.Json.Int required);
      ("mu", jf (Core.Voting.mu arch u));
      ("sigma", jf (Core.Voting.sigma arch u));
      ("p_some_system_fault", jf (Core.Voting.p_some_system_fault arch u));
      ("risk_ratio", jf (Core.Voting.risk_ratio_vs_single arch u));
    ]

let dist_summary ~kind dist =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.String kind);
      ("size", Obs.Json.Int (Core.Pfd_dist.size dist));
      ("mean", jf (Core.Pfd_dist.mean dist));
      ("variance", jf (Core.Pfd_dist.variance dist));
      ("std", jf (Core.Pfd_dist.std dist));
      ("prob_positive", jf (Core.Pfd_dist.prob_positive dist));
      ("q50", jf (Core.Pfd_dist.quantile dist 0.50));
      ("q90", jf (Core.Pfd_dist.quantile dist 0.90));
      ("q99", jf (Core.Pfd_dist.quantile dist 0.99));
    ]

let pfd_dist_body u ~channels ~required ~bins =
  let n = Core.Universe.size u in
  let arch = Core.Voting.create ~channels ~required in
  let probs = Core.Voting.system_fault_probs arch u in
  let values = Core.Universe.qs u in
  if bins = 0 then
    if n > Core.Pfd_dist.max_exact_faults then
      Error
        (Printf.sprintf
           "exact pfd-dist limited to %d faults (got %d); request bins >= 2"
           Core.Pfd_dist.max_exact_faults n)
    else
      Ok
        (dist_summary ~kind:"exact"
           (Core.Pfd_dist.exact_of_vectors ~probs ~values ()))
  else
    Ok
      (dist_summary ~kind:"grid"
         (Core.Pfd_dist.grid_of_vectors ~probs ~values ~bins ()))

(* Realise the parameter-only universe as a concrete demand space:
   uniform profile over [space] cells, fault i's failure region a
   contiguous interval of round(q_i * space) cells (at least one) laid
   out end to end — disjoint by construction, which is the model's
   non-overlap assumption. *)
let space_of_universe (u : Proto.universe_spec) ~space =
  let n = Array.length u.Proto.ps in
  let faults = Array.make n None in
  let offset = ref 0 in
  let overflow = ref false in
  for i = 0 to n - 1 do
    let cells =
      max 1 (int_of_float (Float.round (u.Proto.qs.(i) *. float_of_int space)))
    in
    if !offset + cells > space then overflow := true
    else begin
      let region =
        Demandspace.Region.interval ~space_size:space ~lo:!offset
          ~hi:(!offset + cells - 1)
      in
      faults.(i) <- Some (region, u.Proto.ps.(i));
      offset := !offset + cells
    end
  done;
  if !overflow then
    Error
      (Printf.sprintf
         "universe too dense: fault regions need more than %d cells; raise \
          \"space\""
         space)
  else
    let faults =
      Array.map (function Some f -> f | None -> assert false) faults
    in
    Ok
      (Demandspace.Space.create
         ~profile:(Demandspace.Profile.uniform ~size:space)
         ~faults)

let fleet_mission_body ~seed u ~plants ~demands_per_plant ~mission_demands
    ~salt ~shards ~space =
  let* sp = space_of_universe u ~space in
  let rng = Numerics.Rng.split (Numerics.Rng.create ~seed) ~index:salt in
  (* Private inline pool: the sharded simulation never leaves this
     domain, so the dispatcher can host it on any worker without nesting
     pools, and the draw delta in [eval] is exact. *)
  let pool = Exec.Pool.create ~domains:1 () in
  let fleet =
    Fun.protect
      ~finally:(fun () -> Exec.Pool.shutdown pool)
      (fun () ->
        let systems = Simulator.Fleet.deploy_pairs ~pool ~shards rng sp ~plants in
        Simulator.Fleet.observe ~pool ~shards rng systems ~demands_per_plant)
  in
  let pooled = Simulator.Fleet.pooled_rate fleet in
  let disp = Simulator.Fleet.dispersion fleet in
  let est_mean, est_var = Simulator.Fleet.estimate_pfd_moments fleet in
  Ok
    (Obs.Json.Obj
       [
         ("n", Obs.Json.Int (Array.length u.Proto.ps));
         ("plants", Obs.Json.Int plants);
         ("demands_per_plant", Obs.Json.Int demands_per_plant);
         ("shards", Obs.Json.Int shards);
         ("total_failures", Obs.Json.Int (Simulator.Fleet.total_failures fleet));
         ("pooled_rate", jf pooled);
         ("overdispersion", jf disp.Simulator.Fleet.overdispersion);
         ("est_pfd_mean", jf est_mean);
         ("est_pfd_variance", jf est_var);
         ( "mission_survival",
           jf
             (Simulator.Campaign.mission_survival_probability ~pfd:pooled
                ~mission_demands) );
       ])

let eval ~seed (r : Proto.request) =
  let draws0 = Numerics.Rng.local_draws () in
  let body =
    try
      let u = Core.Universe.of_arrays ~p:r.Proto.u.Proto.ps ~q:r.Proto.u.Proto.qs in
      match r.Proto.verb with
      | Proto.Moments -> Ok (moments_body u)
      | Proto.Risk_ratio { channels; required } ->
          Ok (risk_ratio_body u ~channels ~required)
      | Proto.Pfd_dist { channels; required; bins } ->
          pfd_dist_body u ~channels ~required ~bins
      | Proto.Fleet_mission
          { plants; demands_per_plant; mission_demands; salt; shards; space } ->
          fleet_mission_body ~seed r.Proto.u ~plants ~demands_per_plant
            ~mission_demands ~salt ~shards ~space
    with
    | Invalid_argument msg -> Error msg
    | Failure msg -> Error msg
  in
  let draws = Numerics.Rng.local_draws () - draws0 in
  match body with
  | Ok body ->
      Proto.ok_line ~id:r.Proto.id ~verb:(Proto.verb_name r) ~seed ~draws ~body
  | Error detail ->
      Proto.error_line ~id:r.Proto.id ~error:"unsupported" ~detail ()
