(* Property-based suite for the sharded simulator (harness: Prop).

   Three layers of evidence that sharding and batched demand sampling
   changed nothing they must not change:

   - golden example tests pin the exact pre-change outputs (captured on
     the commit before the fleet was sharded) for the legacy
     [~shards:1] path and the rewritten runner loop;
   - randomized properties check, over hundreds of generated
     (seed, space, shards) configurations, that every sharded entry
     point is a pure function of (seed, shards) — 1-domain and 4-domain
     pools byte-identical — that [~shards:1] reproduces a test-local
     reimplementation of the pre-change algorithms draw for draw, and
     that [Rng.total_draws] accounting is exact under parallel runs;
   - statistical tests check the fleet estimators against their oracles
     (dispersion ~ 1 for a common PFD, method of moments vs the true
     PFD summary). *)

open Numerics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let check_float_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits name a b =
  Alcotest.(check (array int64))
    name
    (Array.map Int64.bits_of_float a)
    (Array.map Int64.bits_of_float b)

(* Pools shared by every test; a single-core container slows the
   4-domain pool but cannot change any output, which is the point. *)
let pool1 = lazy (Exec.Pool.create ~domains:1 ())
let pool4 = lazy (Exec.Pool.create ~domains:4 ())

(* ---- reference implementations (the pre-change algorithms) ---- *)

(* The pre-batching runner loop: one demand at a time through
   [Demandspace.Profile.sample] and the full channel-output list machinery.
   [Runner.run] must consume the identical RNG draw sequence and produce
   the identical counts. *)
let reference_run rng ~system ~demand_count =
  let channels = Simulator.Protection.channels system in
  let channel_failures = Array.make (List.length channels) 0 in
  let system_failures = ref 0 in
  let coincident = ref 0 in
  let space = Simulator.Protection.space system in
  let profile = Demandspace.Space.profile space in
  for _ = 1 to demand_count do
    let demand = Demandspace.Profile.sample profile rng in
    let outputs =
      List.map (fun c -> Check.Reference.respond c demand) channels
    in
    List.iteri
      (fun i o ->
        if o = Core.Voting.No_action then
          channel_failures.(i) <- channel_failures.(i) + 1)
      outputs;
    let n_failed =
      List.length
        (List.filter (fun o -> o = Core.Voting.No_action) outputs)
    in
    if n_failed >= 2 then incr coincident;
    if
      Check.Reference.system_fails
        (Simulator.Protection.adjudicator system)
        outputs
    then incr system_failures
  done;
  (!system_failures, !coincident, channel_failures)

(* The pre-sharding fleet: develop the plants in order on the parent
   RNG, then run each through the reference runner in order. *)
let reference_pairs_fleet rng space ~plants ~demands_per_plant =
  let systems =
    Array.init plants (fun _ ->
        let va, vb = Simulator.Devteam.develop_pair rng space in
        Simulator.Protection.one_out_of_two
          (Simulator.Channel.create ~name:"A" va)
          (Simulator.Channel.create ~name:"B" vb))
  in
  Array.map
    (fun system ->
      let failures, _, _ =
        reference_run rng ~system ~demand_count:demands_per_plant
      in
      (failures, Int64.bits_of_float (Simulator.Protection.true_pfd system)))
    systems

(* ---- the fixed golden space (mirrors the capture program) ---- *)

let golden_space () =
  let profile = Demandspace.Profile.uniform ~size:200 in
  let r1 = Demandspace.Region.interval ~space_size:200 ~lo:0 ~hi:19 in
  let r2 = Demandspace.Region.interval ~space_size:200 ~lo:50 ~hi:59 in
  let r3 = Demandspace.Region.points ~space_size:200 [ 100; 150 ] in
  Demandspace.Space.create ~profile
    ~faults:[| (r1, 0.4); (r2, 0.25); (r3, 0.6) |]

let fleet_signature fleet =
  Array.map
    (fun r ->
      ( r.Simulator.Fleet.failures,
        Int64.bits_of_float r.Simulator.Fleet.system_pfd ))
    (Simulator.Fleet.records fleet)

(* ---- golden example tests ---- *)

(* Captured from the pre-sharding implementation: [~shards:1] must
   reproduce these numbers forever. *)
let test_golden_pairs_fleet () =
  let rng = Rng.create ~seed:4242 in
  let space = golden_space () in
  let systems = Simulator.Fleet.deploy_pairs ~shards:1 rng space ~plants:6 in
  let fleet =
    Simulator.Fleet.observe ~shards:1 rng systems ~demands_per_plant:400
  in
  Alcotest.(check (array (pair int int64)))
    "pairs fleet pinned to pre-change output"
    [|
      (27, 0x3faeb851eb851eb8L);
      (0, 0x0L);
      (0, 0x0L);
      (0, 0x0L);
      (5, 0x3f847ae147ae147bL);
      (5, 0x3f847ae147ae147bL);
    |]
    (fleet_signature fleet);
  check_int "parent draw count pinned" 4836 (Rng.draws rng)

let test_golden_singles_fleet () =
  let rng = Rng.create ~seed:99 in
  let space = golden_space () in
  let systems = Simulator.Fleet.deploy_singles ~shards:1 rng space ~plants:5 in
  let fleet =
    Simulator.Fleet.observe ~shards:1 rng systems ~demands_per_plant:250
  in
  Alcotest.(check (array (pair int int64)))
    "singles fleet pinned to pre-change output"
    [|
      (2, 0x3f847ae147ae147bL);
      (3, 0x3f847ae147ae147bL);
      (0, 0x0L);
      (0, 0x0L);
      (30, 0x3fbc28f5c28f5c29L);
    |]
    (fleet_signature fleet);
  check_int "parent draw count pinned" 2515 (Rng.draws rng)

let test_golden_runner () =
  let space = golden_space () in
  let rng = Rng.create ~seed:777 in
  let system =
    Simulator.Protection.one_out_of_two
      (Simulator.Channel.create ~name:"A"
         (Demandspace.Version.create space [ 0; 2 ]))
      (Simulator.Channel.create ~name:"B"
         (Demandspace.Version.create space [ 1; 2 ]))
  in
  let stats = Simulator.Runner.run rng ~system ~demand_count:1000 in
  check_int "system failures" 10 stats.Simulator.Runner.system_failures;
  check_int "coincident" 10 stats.Simulator.Runner.coincident_failures;
  Alcotest.(check (array int))
    "channel failures" [| 117; 62 |] stats.Simulator.Runner.channel_failures;
  check_int "draws" 2000 (Rng.draws rng);
  Alcotest.(check int64)
    "estimated pfd bits" 0x3f847ae147ae147bL
    (Int64.bits_of_float stats.Simulator.Runner.estimated_pfd)

let test_golden_runner_voted () =
  let space = golden_space () in
  let rng = Rng.create ~seed:555 in
  let voted =
    Simulator.Protection.voted ~required:2
      [
        Simulator.Channel.create ~name:"A"
          (Demandspace.Version.create space [ 0 ]);
        Simulator.Channel.create ~name:"B"
          (Demandspace.Version.create space [ 1 ]);
        Simulator.Channel.create ~name:"C"
          (Demandspace.Version.create space [ 0; 1 ]);
      ]
  in
  let s = Simulator.Runner.run rng ~system:voted ~demand_count:2000 in
  check_int "system failures" 306 s.Simulator.Runner.system_failures;
  check_int "coincident" 306 s.Simulator.Runner.coincident_failures;
  Alcotest.(check (array int))
    "channel failures" [| 211; 95; 306 |]
    s.Simulator.Runner.channel_failures;
  check_int "draws" 4000 (Rng.draws rng)

(* Example of the headline acceptance criterion: one fleet, default
   shard count, observed on a 1-domain and a 4-domain pool — every
   record byte-identical. *)
let test_fleet_domain_identity_example () =
  let space = golden_space () in
  let observe pool =
    let rng = Rng.create ~seed:2026 in
    let systems =
      Simulator.Fleet.deploy_pairs ~pool ~shards:16 rng space ~plants:23
    in
    let fleet =
      Simulator.Fleet.observe ~pool ~shards:16 rng systems
        ~demands_per_plant:500
    in
    (fleet_signature fleet, Rng.draws rng)
  in
  let sig1, draws1 = observe (Lazy.force pool1) in
  let sig4, draws4 = observe (Lazy.force pool4) in
  Alcotest.(check (array (pair int int64)))
    "fleet records: 4 domains = 1 domain" sig1 sig4;
  check_int "parent draws: 4 domains = 1 domain" draws1 draws4

(* ---- randomized properties ---- *)

let plants_gen = Prop.int_range 1 8
let demands_gen = Prop.int_range 1 400

let fleet_case =
  Prop.pair
    (Prop.pair Prop.seed (Prop.space ~max_size:120 ~max_faults:4 ()))
    (Prop.triple plants_gen demands_gen Prop.shard_count)

(* The headline property (>= 100 cases): the whole deploy-and-observe
   pipeline is a pure function of (seed, shards) — pool size never
   matters — and the parallel run consumes exactly as many global RNG
   draws as the 1-domain run. *)
let test_prop_fleet_domain_invariance () =
  Prop.check ~cases:100 "fleet pipeline is domain-count invariant" fleet_case
    (fun ((seed, space), (plants, demands_per_plant, shards)) ->
      let observe pool =
        let rng = Rng.create ~seed in
        let before = Rng.total_draws () in
        let systems =
          Simulator.Fleet.deploy_pairs ~pool ~shards rng space ~plants
        in
        let fleet =
          Simulator.Fleet.observe ~pool ~shards rng systems ~demands_per_plant
        in
        (fleet_signature fleet, Rng.draws rng, Rng.total_draws () - before)
      in
      let sig1, draws1, total1 = observe (Lazy.force pool1) in
      let sig4, draws4, total4 = observe (Lazy.force pool4) in
      Alcotest.(check (array (pair int int64)))
        "records byte-identical across pools" sig1 sig4;
      check_int "parent draws identical across pools" draws1 draws4;
      check_int "global draw accounting identical across pools" total1 total4)

(* [~shards:1] is the legacy path: it must replay the pre-change
   algorithms (sequential fleet loops, one-demand-at-a-time runner)
   draw for draw. *)
let test_prop_fleet_matches_reference () =
  Prop.check ~cases:60 "fleet ~shards:1 matches the pre-change reference"
    (Prop.pair
       (Prop.pair Prop.seed (Prop.space ~max_size:120 ~max_faults:4 ()))
       (Prop.pair plants_gen demands_gen))
    (fun ((seed, space), (plants, demands_per_plant)) ->
      let rng_new = Rng.create ~seed in
      let systems = Simulator.Fleet.deploy_pairs ~shards:1 rng_new space ~plants in
      let fleet =
        Simulator.Fleet.observe ~shards:1 rng_new systems ~demands_per_plant
      in
      let rng_ref = Rng.create ~seed in
      let expected =
        reference_pairs_fleet rng_ref space ~plants ~demands_per_plant
      in
      Alcotest.(check (array (pair int int64)))
        "records match reference" expected (fleet_signature fleet);
      check_int "draw sequences identical" (Rng.draws rng_ref)
        (Rng.draws rng_new))

(* Batched demand sampling in Runner.run is byte-compatible with the
   one-demand-at-a-time loop for any demand count (cases straddle the
   1024-demand block size) and any M-out-of-N adjudicator. *)
let test_prop_runner_batching () =
  Prop.check ~cases:60 "Runner.run batching matches the reference loop"
    (Prop.quad Prop.seed
       (Prop.space ~max_size:120 ~max_faults:4 ())
       (Prop.int_range 1 2600) (Prop.int_range 1 3))
    (fun (seed, space, demand_count, n_channels) ->
      let build rng =
        let channels =
          List.init n_channels (fun i ->
              Simulator.Channel.create
                ~name:(Printf.sprintf "ch%d" i)
                (Simulator.Devteam.develop rng space))
        in
        let required = 1 + ((seed + n_channels) mod n_channels) in
        Simulator.Protection.voted ~required channels
      in
      let rng_new = Rng.create ~seed in
      let system_new = build rng_new in
      let stats =
        Simulator.Runner.run rng_new ~system:system_new ~demand_count
      in
      let rng_ref = Rng.create ~seed in
      let system_ref = build rng_ref in
      let failures, coincident, channel_failures =
        reference_run rng_ref ~system:system_ref ~demand_count
      in
      check_int "system failures" failures
        stats.Simulator.Runner.system_failures;
      check_int "coincident failures" coincident
        stats.Simulator.Runner.coincident_failures;
      Alcotest.(check (array int))
        "channel failures" channel_failures
        stats.Simulator.Runner.channel_failures;
      check_int "draw sequences identical" (Rng.draws rng_ref)
        (Rng.draws rng_new))

(* Montecarlo.estimate: pure function of (seed, shards). *)
let test_prop_montecarlo_invariance () =
  Prop.check ~cases:30 "Montecarlo.estimate is domain-count invariant"
    (Prop.quad Prop.seed
       (Prop.universe ~max_faults:8 ())
       (Prop.int_range 1 16) (Prop.int_range 1 200))
    (fun (seed, universe, shards, replications) ->
      let run pool =
        Simulator.Montecarlo.estimate ~pool ~shards (Rng.create ~seed) universe
          ~replications
      in
      let a = run (Lazy.force pool1) in
      let b = run (Lazy.force pool4) in
      check_bits "theta1 samples" a.Simulator.Montecarlo.theta1_samples
        b.Simulator.Montecarlo.theta1_samples;
      check_bits "theta2 samples" a.Simulator.Montecarlo.theta2_samples
        b.Simulator.Montecarlo.theta2_samples;
      check_float_bits "p_n1_pos" a.Simulator.Montecarlo.p_n1_pos
        b.Simulator.Montecarlo.p_n1_pos;
      check_float_bits "p_n2_pos" a.Simulator.Montecarlo.p_n2_pos
        b.Simulator.Montecarlo.p_n2_pos;
      check_float_bits "risk ratio" a.Simulator.Montecarlo.risk_ratio
        b.Simulator.Montecarlo.risk_ratio;
      Alcotest.(check (array int))
        "per-shard draw accounting" a.Simulator.Montecarlo.shard_draws
        b.Simulator.Montecarlo.shard_draws)

(* Campaign.estimate_mttf: pure function of (seed, shards), including
   the per-shard draw accounts. *)
let test_prop_campaign_invariance () =
  Prop.check ~cases:30 "Campaign.estimate_mttf is domain-count invariant"
    (Prop.quad Prop.seed
       (Prop.space ~max_size:120 ~max_faults:4 ())
       (Prop.int_range 1 16) (Prop.pair (Prop.int_range 1 60) (Prop.int_range 1 150)))
    (fun (seed, space, shards, (missions, max_demands)) ->
      let system =
        let rng = Rng.create ~seed:(seed + 1) in
        let va, vb = Simulator.Devteam.develop_pair rng space in
        Simulator.Protection.one_out_of_two
          (Simulator.Channel.create ~name:"A" va)
          (Simulator.Channel.create ~name:"B" vb)
      in
      let run pool =
        Simulator.Campaign.estimate_mttf ~pool ~shards (Rng.create ~seed)
          ~system ~missions ~max_demands
      in
      let a = run (Lazy.force pool1) in
      let b = run (Lazy.force pool4) in
      check_int "failures" a.Simulator.Campaign.failures
        b.Simulator.Campaign.failures;
      check_int "censored" a.Simulator.Campaign.censored
        b.Simulator.Campaign.censored;
      check_float_bits "mttf" a.Simulator.Campaign.mean_time_to_failure
        b.Simulator.Campaign.mean_time_to_failure;
      check_float_bits "failure rate" a.Simulator.Campaign.failure_rate
        b.Simulator.Campaign.failure_rate;
      check_int "shards recorded" shards a.Simulator.Campaign.shards;
      Alcotest.(check (array int))
        "per-shard draw accounting" a.Simulator.Campaign.shard_draws
        b.Simulator.Campaign.shard_draws;
      check_int "one shard account per shard" shards
        (Array.length a.Simulator.Campaign.shard_draws))

(* ---- incremental kernels vs their retained naive references ---- *)

(* Incremental-vs-naive gradient agreement under the EXPERIMENTS.md ulp
   policy, judged by the same helpers the registry oracle uses. *)
let check_gradient_agreement name ps =
  let fast = Core.Sensitivity.risk_ratio_gradient ps in
  let naive = Check.Reference.risk_ratio_gradient_naive ps in
  check_int (name ^ ": length") (Array.length naive) (Array.length fast);
  Prop.check_close
    ~eps:(Check.Reference.gradient_tol naive)
    (name ^ ": max coordinate |fast - naive|")
    0.0
    (Check.Reference.gradient_gap fast naive)

(* Incremental O(n) gradient vs the retained O(n^2) reference over
   random universes, including coordinates forced to the p = 0 and
   p = 1 boundaries the prefix/suffix construction exists for (a
   1-coordinate pushes every other partial through exp(-inf) = 0). *)
let test_prop_gradient_incremental_vs_naive () =
  Prop.check ~cases:80 "incremental gradient matches the naive reference"
    (Prop.pair (Prop.universe ~max_faults:24 ()) (Prop.int_range 0 3))
    (fun (u, mode) ->
      let ps = Core.Universe.ps u in
      let n = Array.length ps in
      if mode land 1 = 1 then ps.(0) <- 0.0;
      if mode land 2 = 2 then ps.(n - 1) <- 1.0;
      check_gradient_agreement "gradient" ps;
      (* Appendix B: p_i = k b_i; random universes keep k b_i in [0,1] *)
      let b = Core.Universe.ps u in
      let k = 0.7 in
      let dk = Core.Sensitivity.risk_ratio_k_derivative ~b ~k in
      let dk_naive = Check.Reference.risk_ratio_k_derivative_naive ~b ~k in
      Prop.check_close
        ~eps:(1e-12 *. (1.0 +. Float.abs dk_naive))
        "dR/dk agrees" dk_naive dk)

(* The ping-pong exact convolution claims full bit-identity with the
   legacy allocating pass: same float ops in the same order, only the
   buffer management and finalisation plumbing changed. *)
let test_prop_exact_fast_vs_legacy () =
  Prop.check ~cases:40 "exact convolution: ping-pong = legacy, bitwise"
    (Prop.universe ~max_faults:10 ())
    (fun u ->
      let values = Core.Universe.qs u in
      let check_for name probs =
        let fast = Core.Pfd_dist.exact_of_vectors ~probs ~values () in
        let legacy = Check.Reference.exact_of_vectors_naive ~probs ~values () in
        check_bits (name ^ ": support") (Core.Pfd_dist.support legacy)
          (Core.Pfd_dist.support fast);
        check_bits (name ^ ": masses") (Core.Pfd_dist.masses legacy)
          (Core.Pfd_dist.masses fast)
      in
      let ps = Core.Universe.ps u in
      check_for "single" ps;
      check_for "pair" (Array.map (fun p -> p *. p) ps))

(* The binomial-block grid convolution reorders and reassociates the
   per-fault products, so in general it agrees with the per-fault
   reference only to rounding; when every active fault's shift is
   unique and already ascending in index order each block is a
   single-fault legacy pass in the legacy order, and the claim sharpens
   to bit-identity. *)
let check_grid_fast_vs_legacy (u, bins) =
  let probs = Core.Universe.ps u and values = Core.Universe.qs u in
  let fast = Core.Pfd_dist.grid_of_vectors ~probs ~values ~bins () in
  let legacy = Check.Reference.grid_of_vectors_naive ~probs ~values ~bins () in
  (* replicate the kernel's shift rounding to decide which claim
     applies to this case *)
  let total = Kahan.sum_array values in
  let step =
    if total > 0.0 then total /. float_of_int (bins - 1) else 1.0
  in
  let active_shifts =
    Array.to_list
      (Array.mapi
         (fun i q ->
           if probs.(i) > 0.0 then
             int_of_float (Float.round (q /. step))
           else 0)
         values)
    |> List.filter (fun s -> s > 0)
  in
  let rec strictly_ascending = function
    | a :: (b :: _ as rest) -> a < b && strictly_ascending rest
    | _ -> true
  in
  if strictly_ascending active_shifts then begin
    check_bits "support (unique ascending shifts)"
      (Core.Pfd_dist.support legacy)
      (Core.Pfd_dist.support fast);
    check_bits "masses (unique ascending shifts)"
      (Core.Pfd_dist.masses legacy)
      (Core.Pfd_dist.masses fast)
  end
  else begin
    let open Core.Pfd_dist in
    Prop.check_close "mean to rounding" (mean legacy) (mean fast);
    Prop.check_close "variance to rounding" (variance legacy) (variance fast);
    Prop.check_close "P(X > 0) to rounding"
      (prob_positive legacy) (prob_positive fast)
  end

(* Random small grids, plus one 40,000-bin sweep over 60 faults so the
   comparison also covers grids past 32768 active bins. *)
let test_prop_grid_fast_vs_legacy () =
  Prop.check ~cases:60 "grid convolution: blocks vs per-fault reference"
    (Prop.pair (Prop.universe ~max_faults:10 ()) (Prop.int_range 32 512))
    check_grid_fast_vs_legacy;
  let rng = Numerics.Rng.create ~seed:11 in
  let u =
    Core.Universe.uniform_random rng ~n:60 ~p_lo:0.01 ~p_hi:0.4 ~total_q:0.5
  in
  check_grid_fast_vs_legacy (u, 40_000)

(* ---- the harness itself ---- *)

(* A deliberately failing property: the harness must find it, shrink
   the counterexample to the exact boundary, and report the same case
   again on replay (same PROP_SEED => same counterexample). *)
let test_harness_shrinks () =
  let gen = Prop.int_range 0 1000 in
  let property v = if v >= 700 then failwith "too big" in
  match Prop.find_counterexample ~cases:100 gen property with
  | None -> Alcotest.fail "property unexpectedly passed"
  | Some (case, value, _err) ->
      check_int "shrunk to the exact boundary" 700 value;
      (match Prop.find_counterexample ~cases:100 gen property with
      | Some (case', value', _) ->
          check_int "replay finds the same case" case case';
          check_int "replay finds the same counterexample" value value'
      | None -> Alcotest.fail "replay did not reproduce the failure");
      (* a satisfiable property yields no counterexample *)
      check_bool "passing property has no counterexample" true
        (Prop.find_counterexample ~cases:100 gen (fun _ -> ()) = None)

(* ---- statistical estimator tests ---- *)

(* When every plant runs the *same* system the per-plant failure counts
   are iid binomial, so the overdispersion statistic concentrates on 1:
   with K plants its sampling s.d. is about sqrt(2/(K-1)) ~ 0.09 here,
   and the bound below sits more than 4 sigma out. *)
let test_dispersion_common_pfd () =
  let space = golden_space () in
  let rng = Rng.create ~seed:31337 in
  let system =
    Simulator.Protection.create
      [
        Simulator.Channel.create ~name:"common"
          (Demandspace.Version.create space [ 0 ]);
      ]
  in
  check_bool "system fails sometimes (test is non-vacuous)" true
    (Simulator.Protection.true_pfd system > 0.0);
  let systems = Array.make 256 system in
  let fleet =
    Simulator.Fleet.observe ~pool:(Lazy.force pool4) ~shards:16 rng systems
      ~demands_per_plant:2000
  in
  let d = Simulator.Fleet.dispersion fleet in
  check_bool
    (Printf.sprintf "overdispersion %.3f in [0.6, 1.4]"
       d.Simulator.Fleet.overdispersion)
    true
    (d.Simulator.Fleet.overdispersion > 0.6
    && d.Simulator.Fleet.overdispersion < 1.4)

(* On a large diverse fleet the method-of-moments estimates recover the
   oracle's true PFD moments from counts alone. *)
let test_moments_match_oracle () =
  let space = golden_space () in
  let rng = Rng.create ~seed:90210 in
  let pool = Lazy.force pool4 in
  let systems =
    Simulator.Fleet.deploy_pairs ~pool ~shards:16 rng space ~plants:300
  in
  let fleet =
    Simulator.Fleet.observe ~pool ~shards:16 rng systems
      ~demands_per_plant:5000
  in
  let mu_hat, var_hat = Simulator.Fleet.estimate_pfd_moments fleet in
  let oracle = Simulator.Fleet.true_pfd_summary fleet in
  let true_var = oracle.Stats.std *. oracle.Stats.std in
  let rel a b = abs_float (a -. b) /. b in
  check_bool
    (Printf.sprintf "MoM mean %.3g within 15%% of true mean %.3g" mu_hat
       oracle.Stats.mean)
    true
    (rel mu_hat oracle.Stats.mean < 0.15);
  check_bool
    (Printf.sprintf "MoM variance %.3g within 40%% of true variance %.3g"
       var_hat true_var)
    true
    (rel var_hat true_var < 0.40)

(* The fleet's per-plant records agree with the oracle on demand counts
   and the run is reproducible: same seed, same shards => same fleet. *)
let test_fleet_reproducible () =
  let space = golden_space () in
  let run () =
    let rng = Rng.create ~seed:1717 in
    let systems =
      Simulator.Fleet.deploy_singles ~pool:(Lazy.force pool4) ~shards:7 rng
        space ~plants:11
    in
    fleet_signature
      (Simulator.Fleet.observe ~pool:(Lazy.force pool4) ~shards:7 rng systems
         ~demands_per_plant:321)
  in
  Alcotest.(check (array (pair int int64)))
    "same (seed, shards) => byte-identical fleet" (run ()) (run ())

(* ---- adjudication algebra: goldens, laws, legacy identity ---- *)

let check_output = Alcotest.check Prop.decision

(* Captured immediately before the adjudicator-calculus refactor
   (seed 42, the golden space, abstain-free channels): Runner, Campaign
   and Fleet outputs must remain byte-identical now that the legacy
   M-out-of-N vote is a calculus instance. *)
let test_golden_seed42_runner_pins () =
  let space = golden_space () in
  let mk name faults =
    Simulator.Channel.create ~name (Demandspace.Version.create space faults)
  in
  let system =
    Simulator.Protection.voted ~required:2
      [ mk "A" [ 0; 1 ]; mk "B" [ 1; 2 ]; mk "C" [ 0; 2 ] ]
  in
  let rng = Rng.create ~seed:42 in
  let stats = Simulator.Runner.run rng ~system ~demand_count:20_000 in
  check_int "system failures" 3218 stats.Simulator.Runner.system_failures;
  check_int "unresolved abstentions" 0
    stats.Simulator.Runner.system_abstentions;
  check_int "coincident" 3218 stats.Simulator.Runner.coincident_failures;
  Alcotest.(check (array int))
    "channel failures" [| 3004; 1234; 2198 |]
    stats.Simulator.Runner.channel_failures;
  check_float_bits "estimated pfd" 0x1.4985f06f69446p-3
    stats.Simulator.Runner.estimated_pfd;
  check_int "draws" 40_000 (Rng.draws rng);
  (* the same stream through a developed 1-out-of-2 pair *)
  let rng2 = Rng.create ~seed:42 in
  let va, vb = Simulator.Devteam.develop_pair rng2 space in
  let pair =
    Simulator.Protection.one_out_of_two
      (Simulator.Channel.create ~name:"A" va)
      (Simulator.Channel.create ~name:"B" vb)
  in
  let pstats = Simulator.Runner.run rng2 ~system:pair ~demand_count:20_000 in
  check_int "pair system failures" 0 pstats.Simulator.Runner.system_failures;
  check_int "pair coincident" 0 pstats.Simulator.Runner.coincident_failures;
  Alcotest.(check (array int))
    "pair channel failures" [| 0; 0 |]
    pstats.Simulator.Runner.channel_failures;
  check_int "pair draws" 40_006 (Rng.draws rng2);
  check_float_bits "pair true pfd" 0.0 (Simulator.Protection.true_pfd pair)

let test_golden_seed42_campaign_pins () =
  let space = golden_space () in
  let mk name faults =
    Simulator.Channel.create ~name (Demandspace.Version.create space faults)
  in
  let system =
    Simulator.Protection.voted ~required:2
      [ mk "A" [ 0; 1 ]; mk "B" [ 1; 2 ]; mk "C" [ 0; 2 ] ]
  in
  let mttf shards =
    let rng = Rng.create ~seed:42 in
    Simulator.Campaign.estimate_mttf ~shards rng ~system ~missions:400
      ~max_demands:2000
  in
  let est1 = mttf 1 in
  check_int "shards=1 failures" 400 est1.Simulator.Campaign.failures;
  check_int "shards=1 censored" 0 est1.Simulator.Campaign.censored;
  check_float_bits "shards=1 mttf" 0x1.88p+2
    est1.Simulator.Campaign.mean_time_to_failure;
  check_float_bits "shards=1 rate" 0x1.4e5e0a72f0539p-3
    est1.Simulator.Campaign.failure_rate;
  Alcotest.(check (array int))
    "shards=1 draws" [| 4900 |]
    est1.Simulator.Campaign.shard_draws;
  let est8 = mttf 8 in
  check_float_bits "shards=8 mttf" 0x1.9451eb851eb85p+2
    est8.Simulator.Campaign.mean_time_to_failure;
  check_float_bits "shards=8 rate" 0x1.442dca4ed0e49p-3
    est8.Simulator.Campaign.failure_rate;
  Alcotest.(check (array int))
    "shards=8 draws"
    [| 562; 548; 666; 670; 638; 716; 690; 564 |]
    est8.Simulator.Campaign.shard_draws;
  let survival shards =
    let rng = Rng.create ~seed:42 in
    let frac =
      Simulator.Campaign.simulate_mission_survival ~shards rng ~system
        ~mission_demands:4 ~missions:400
    in
    (frac, Rng.draws rng)
  in
  let frac1, draws1 = survival 1 in
  check_float_bits "survival shards=1" 0x1.dc28f5c28f5c3p-2 frac1;
  check_int "survival shards=1 parent draws" 1 draws1;
  let frac8, draws8 = survival 8 in
  check_float_bits "survival shards=8" 0x1.eb851eb851eb8p-2 frac8;
  check_int "survival shards=8 parent draws" 8 draws8

let test_golden_seed42_fleet_pins () =
  let space = golden_space () in
  let fleet shards =
    let rng = Rng.create ~seed:42 in
    let systems = Simulator.Fleet.deploy_pairs ~shards rng space ~plants:12 in
    fleet_signature
      (Simulator.Fleet.observe ~shards rng systems ~demands_per_plant:800)
  in
  Alcotest.(check (array (pair int int64)))
    "shards=1 pinned"
    [|
      (0, 0x0L);
      (0, 0x0L);
      (32, 0x3fa999999999999aL);
      (0, 0x0L);
      (0, 0x0L);
      (4, 0x3f847ae147ae147bL);
      (0, 0x0L);
      (12, 0x3f847ae147ae147bL);
      (0, 0x0L);
      (0, 0x0L);
      (0, 0x0L);
      (14, 0x3f847ae147ae147bL);
    |]
    (fleet 1);
  Alcotest.(check (array (pair int int64)))
    "shards=8 pinned"
    [|
      (5, 0x3f847ae147ae147bL);
      (9, 0x3f847ae147ae147bL);
      (0, 0x0L);
      (0, 0x0L);
      (69, 0x3fb999999999999aL);
      (9, 0x3f847ae147ae147bL);
      (0, 0x0L);
      (76, 0x3fb999999999999aL);
      (10, 0x3f847ae147ae147bL);
      (0, 0x0L);
      (7, 0x3f847ae147ae147bL);
      (3, 0x3f847ae147ae147bL);
    |]
    (fleet 8)

let count_outputs outs =
  List.fold_left
    (fun (s, na, ab) o ->
      match o with
      | Core.Voting.Shutdown -> (s + 1, na, ab)
      | Core.Voting.No_action -> (s, na + 1, ab)
      | Core.Voting.Abstain -> (s, na, ab + 1))
    (0, 0, 0) outs

(* Protection.create compiles each system into verdict bitsets. On every
   demand the compiled verdict must equal the adjudicated list of channel
   outputs, and [true_pfd] must equal, bit for bit, the per-demand Kahan
   sweep it replaced — over random spaces, 1-4 channels with random
   self-check sets, and calculus terms built from vote/compose/fallback. *)
let reference_true_pfd system =
  let space = Simulator.Protection.space system in
  let profile = Demandspace.Space.profile space in
  let channels = Simulator.Protection.channels system in
  let acc = Numerics.Kahan.create () in
  for d = 0 to Demandspace.Space.size space - 1 do
    let demand = Demandspace.Demand.of_int d in
    if
      Check.Reference.system_fails
        (Simulator.Protection.adjudicator system)
        (List.map (fun c -> Check.Reference.respond c demand) channels)
    then Numerics.Kahan.add acc (Demandspace.Profile.probability profile demand)
  done;
  Numerics.Kahan.total acc

let test_prop_compiled_protection () =
  Prop.check ~cases:200 "compiled protection = per-demand adjudication"
    (Prop.quad Prop.seed
       (Prop.space ~max_size:160 ~max_faults:5 ())
       (Prop.int_range 1 4)
       (Prop.adjudicator_term ~max_required:4 ()))
    (fun (seed, space, n_channels, adj) ->
      let rng = Rng.create ~seed in
      let size = Demandspace.Space.size space in
      let channel i =
        let version = Simulator.Devteam.develop rng space in
        let self_check =
          if Rng.int rng 3 = 0 then None
          else
            Some
              (Numerics.Bitset.of_list size
                 (List.filter
                    (fun _ -> Rng.bool rng ~p:0.5)
                    (List.init size Fun.id)))
        in
        Simulator.Channel.create ?self_check
          ~name:(Printf.sprintf "ch%d" i)
          version
      in
      let channels =
        List.init
          (max n_channels (Core.Voting.policy_min_channels adj))
          channel
      in
      let system = Simulator.Protection.create ~adjudicator:adj channels in
      for d = 0 to size - 1 do
        let demand = Demandspace.Demand.of_int d in
        check_output
          (Printf.sprintf "respond on demand %d" d)
          (Check.Reference.combine adj
             (List.map (fun c -> Check.Reference.respond c demand) channels))
          (Simulator.Protection.respond system demand)
      done;
      Alcotest.(check int64) "true_pfd bits"
        (Int64.bits_of_float (reference_true_pfd system))
        (Int64.bits_of_float (Simulator.Protection.true_pfd system)))

(* The calculus laws beyond the exhaustive scope of test_simulator's
   "exhaustive small scope" test (at most three nodes, five channels):
   generated terms of depth up to 3 on abstention-bearing vectors of up
   to 8 channels, plus the legacy-vs-combinator byte-identity on
   abstain-free inputs. *)
let test_prop_adjudication_laws () =
  let gen =
    Prop.(
      triple (adjudicator_term ()) (channel_outputs ~max_channels:8 ()) seed)
  in
  Prop.check ~cases:100 "adjudication laws + legacy identity" gen
    (fun (term, outs, salt) ->
      let module V = Core.Voting in
      let module R = Check.Reference in
      let n = List.length outs in
      let shutdowns, no_actions, abstains = count_outputs outs in
      let d t = V.decide t ~shutdowns ~no_actions ~abstains in
      (* unit is a two-sided identity for compose *)
      check_output "compose unit t == t" (d term) (d (V.compose V.Unit term));
      check_output "compose t unit == t" (d term) (d (V.compose term V.Unit));
      (* fallback is idempotent (the backup re-reads the same votes) *)
      check_output "fallback t t == t" (d term) (d (V.fallback term term));
      (* adjudication is permutation-invariant on the list path *)
      if V.policy_min_channels term <= n then
        check_output "combine permutation-invariant" (R.combine term outs)
          (let shuffled = Array.of_list outs in
           Rng.shuffle_in_place (Rng.create ~seed:salt) shuffled;
           R.combine term (Array.to_list shuffled));
      (* legacy-vs-combinator byte-identity on abstain-free inputs *)
      let free =
        List.map
          (fun o -> if V.equal_decision o V.Abstain then V.No_action else o)
          outs
      in
      for required = 1 to n do
        let adj = V.vote ~required in
        check_output
          (Printf.sprintf "%d-of-%d vote == legacy" required n)
          (R.legacy_combine ~required free)
          (R.combine adj free);
        check_bool "system_fails == legacy"
          (R.legacy_combine ~required free = V.No_action)
          (R.system_fails adj free)
      done)

let () =
  Alcotest.run "prop"
    [
      ( "golden",
        [
          Alcotest.test_case "pairs fleet pinned" `Quick test_golden_pairs_fleet;
          Alcotest.test_case "singles fleet pinned" `Quick
            test_golden_singles_fleet;
          Alcotest.test_case "runner 1oo2 pinned" `Quick test_golden_runner;
          Alcotest.test_case "runner 2oo3 pinned" `Quick
            test_golden_runner_voted;
          Alcotest.test_case "fleet domain identity example" `Quick
            test_fleet_domain_identity_example;
        ] );
      ( "adjudication",
        [
          Alcotest.test_case "seed-42 runner pinned" `Quick
            test_golden_seed42_runner_pins;
          Alcotest.test_case "seed-42 campaign pinned" `Quick
            test_golden_seed42_campaign_pins;
          Alcotest.test_case "seed-42 fleet pinned" `Quick
            test_golden_seed42_fleet_pins;
          Alcotest.test_case "algebra laws (100 cases)" `Quick
            test_prop_adjudication_laws;
        ] );
      ( "properties",
        [
          Alcotest.test_case "fleet domain invariance (100 cases)" `Quick
            test_prop_fleet_domain_invariance;
          Alcotest.test_case "fleet shards=1 = pre-change reference" `Quick
            test_prop_fleet_matches_reference;
          Alcotest.test_case "runner batching = reference loop" `Quick
            test_prop_runner_batching;
          Alcotest.test_case "compiled protection = per-demand adjudication"
            `Quick test_prop_compiled_protection;
          Alcotest.test_case "montecarlo invariance" `Quick
            test_prop_montecarlo_invariance;
          Alcotest.test_case "campaign invariance" `Quick
            test_prop_campaign_invariance;
          Alcotest.test_case "gradient incremental vs naive" `Quick
            test_prop_gradient_incremental_vs_naive;
          Alcotest.test_case "exact convolution fast vs legacy" `Quick
            test_prop_exact_fast_vs_legacy;
          Alcotest.test_case "grid convolution fast vs legacy" `Quick
            test_prop_grid_fast_vs_legacy;
        ] );
      ( "harness",
        [
          Alcotest.test_case "shrinking and replay" `Quick test_harness_shrinks;
        ] );
      ( "estimators",
        [
          Alcotest.test_case "dispersion ~ 1 for common PFD" `Quick
            test_dispersion_common_pfd;
          Alcotest.test_case "method of moments vs oracle" `Quick
            test_moments_match_oracle;
          Alcotest.test_case "fleet reproducible" `Quick test_fleet_reproducible;
        ] );
    ]
