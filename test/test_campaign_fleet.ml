(* Tests for the operational campaign and fleet modules. *)

let rng0 () = Numerics.Rng.create ~seed:20240

let make_space () =
  let profile = Demandspace.Profile.uniform ~size:200 in
  let r1 = Demandspace.Region.interval ~space_size:200 ~lo:0 ~hi:19 in
  let r2 = Demandspace.Region.interval ~space_size:200 ~lo:50 ~hi:59 in
  let r3 = Demandspace.Region.points ~space_size:200 [ 100; 150 ] in
  Demandspace.Space.create ~profile
    ~faults:[| (r1, 0.4); (r2, 0.25); (r3, 0.6) |]

let fixed_system faults_a faults_b =
  let space = make_space () in
  Simulator.Protection.one_out_of_two
    (Simulator.Channel.create ~name:"A" (Demandspace.Version.create space faults_a))
    (Simulator.Channel.create ~name:"B" (Demandspace.Version.create space faults_b))

(* ------------------------------------------------------------------ *)
(* Campaign                                                            *)
(* ------------------------------------------------------------------ *)

let test_perfect_system_survives () =
  let rng = rng0 () in
  let system = fixed_system [] [] in
  match
    Simulator.Campaign.time_to_first_failure rng ~system ~max_demands:10_000
  with
  | Simulator.Campaign.Survived -> ()
  | Simulator.Campaign.Failed_at t ->
      Alcotest.fail (Printf.sprintf "perfect system failed at %d" t)

let test_mttf_geometric () =
  let rng = rng0 () in
  (* common fault 0: pfd = 0.1, so E[T] = 10. *)
  let system = fixed_system [ 0 ] [ 0 ] in
  let est =
    Simulator.Campaign.estimate_mttf rng ~system ~missions:5_000
      ~max_demands:100_000
  in
  Alcotest.(check int) "no censoring with short MTTF" 0
    est.Simulator.Campaign.censored;
  Prop.check_close ~eps:0.5 "MTTF ~ 1/pfd" 10.0
    est.Simulator.Campaign.mean_time_to_failure;
  Prop.check_close ~eps:0.005 "failure rate ~ pfd" 0.1
    est.Simulator.Campaign.failure_rate

let test_mttf_theory () =
  Prop.check_close "theoretical MTTF" 1000.0
    (Simulator.Campaign.theoretical_mttf ~pfd:1e-3);
  Alcotest.(check bool) "perfect system: infinite" true
    (Simulator.Campaign.theoretical_mttf ~pfd:0.0 = infinity)

let test_mission_survival_formula () =
  Prop.check_close ~eps:1e-12 "survival closed form"
    (0.999 ** 500.0)
    (Simulator.Campaign.mission_survival_probability ~pfd:1e-3
       ~mission_demands:500);
  Prop.check_close "zero-length mission" 1.0
    (Simulator.Campaign.mission_survival_probability ~pfd:0.5 ~mission_demands:0)

let test_mission_survival_simulated () =
  let rng = rng0 () in
  let system = fixed_system [ 0 ] [ 0 ] in
  let pfd = Simulator.Protection.true_pfd system in
  let simulated =
    Simulator.Campaign.simulate_mission_survival rng ~system
      ~mission_demands:10 ~missions:20_000
  in
  Prop.check_close ~eps:0.01 "simulated survival matches geometric law"
    (Simulator.Campaign.mission_survival_probability ~pfd ~mission_demands:10)
    simulated

let test_compare_architectures () =
  let rng = rng0 () in
  let space = make_space () in
  let reports =
    Simulator.Campaign.compare_architectures rng space
      ~architectures:[ ("single", 1, 1); ("1oo2", 2, 1) ]
      ~missions:50 ~max_demands:2_000
  in
  Alcotest.(check int) "one report per architecture" 2 (List.length reports);
  List.iter
    (fun (r : Simulator.Campaign.architecture_report) ->
      let m = r.simulated_mttf in
      Alcotest.(check int) "missions accounted for" 50
        (m.Simulator.Campaign.failures + m.Simulator.Campaign.censored))
    reports

(* ------------------------------------------------------------------ *)
(* Fleet                                                               *)
(* ------------------------------------------------------------------ *)

let test_fleet_deploy_and_observe () =
  let rng = rng0 () in
  let space = make_space () in
  let systems = Simulator.Fleet.deploy_pairs rng space ~plants:30 in
  Alcotest.(check int) "fleet size" 30 (Array.length systems);
  let fleet = Simulator.Fleet.observe rng systems ~demands_per_plant:500 in
  Alcotest.(check int) "observed size" 30 (Simulator.Fleet.size fleet);
  Array.iter
    (fun r ->
      Alcotest.(check int) "demands recorded" 500 r.Simulator.Fleet.demands;
      if r.Simulator.Fleet.failures < 0 then Alcotest.fail "negative count")
    (Simulator.Fleet.records fleet)

let test_fleet_pooled_rate_matches_mu () =
  let rng = rng0 () in
  let space = make_space () in
  let u = Demandspace.Space.to_universe space in
  let systems = Simulator.Fleet.deploy_pairs rng space ~plants:300 in
  let fleet = Simulator.Fleet.observe rng systems ~demands_per_plant:5_000 in
  Prop.check_close ~eps:0.005 "pooled rate ~ mu2" (Core.Moments.mu2 u)
    (Simulator.Fleet.pooled_rate fleet)

let test_fleet_moment_recovery () =
  let rng = rng0 () in
  let space = make_space () in
  let u = Demandspace.Space.to_universe space in
  let systems = Simulator.Fleet.deploy_singles rng space ~plants:500 in
  let fleet = Simulator.Fleet.observe rng systems ~demands_per_plant:20_000 in
  let mu_hat, var_hat = Simulator.Fleet.estimate_pfd_moments fleet in
  Prop.check_close ~eps:0.005 "MoM mean" (Core.Moments.mu1 u) mu_hat;
  Prop.check_close ~eps:0.01 "MoM sigma" (Core.Moments.sigma1 u) (sqrt var_hat)

let test_fleet_homogeneous_not_overdispersed () =
  (* Every plant gets the SAME system: counts are plain binomial, so the
     overdispersion index should sit near 1. *)
  let rng = rng0 () in
  let system = fixed_system [ 0 ] [ 0 ] in
  let systems = Array.make 300 system in
  let fleet = Simulator.Fleet.observe rng systems ~demands_per_plant:2_000 in
  let d = Simulator.Fleet.dispersion fleet in
  Alcotest.(check bool)
    (Printf.sprintf "overdispersion ~ 1 (got %g)" d.Simulator.Fleet.overdispersion)
    true
    (d.Simulator.Fleet.overdispersion > 0.7
    && d.Simulator.Fleet.overdispersion < 1.3)

let test_fleet_heterogeneous_overdispersed () =
  let rng = rng0 () in
  let space = make_space () in
  let systems = Simulator.Fleet.deploy_singles rng space ~plants:300 in
  let fleet = Simulator.Fleet.observe rng systems ~demands_per_plant:2_000 in
  let d = Simulator.Fleet.dispersion fleet in
  Alcotest.(check bool) "overdispersion clearly above 1" true
    (d.Simulator.Fleet.overdispersion > 2.0)

let test_fleet_validation () =
  let rng = rng0 () in
  Alcotest.check_raises "zero plants"
    (Invalid_argument "Fleet.deploy_pairs: plants must be positive") (fun () ->
      ignore (Simulator.Fleet.deploy_pairs rng (make_space ()) ~plants:0))

let () =
  Alcotest.run "campaign-fleet"
    [
      ( "campaign",
        [
          Alcotest.test_case "perfect system survives" `Quick
            test_perfect_system_survives;
          Alcotest.test_case "MTTF geometric" `Slow test_mttf_geometric;
          Alcotest.test_case "MTTF theory" `Quick test_mttf_theory;
          Alcotest.test_case "survival formula" `Quick test_mission_survival_formula;
          Alcotest.test_case "survival simulated" `Slow test_mission_survival_simulated;
          Alcotest.test_case "compare architectures" `Quick test_compare_architectures;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "deploy and observe" `Quick test_fleet_deploy_and_observe;
          Alcotest.test_case "pooled rate" `Slow test_fleet_pooled_rate_matches_mu;
          Alcotest.test_case "moment recovery" `Slow test_fleet_moment_recovery;
          Alcotest.test_case "homogeneous fleet" `Slow
            test_fleet_homogeneous_not_overdispersed;
          Alcotest.test_case "heterogeneous fleet" `Slow
            test_fleet_heterogeneous_overdispersed;
          Alcotest.test_case "validation" `Quick test_fleet_validation;
        ] );
    ]
