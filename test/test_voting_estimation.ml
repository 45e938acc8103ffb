(* Tests for the voted-architecture model, the incomplete-beta numerics
   behind it, parameter estimation, the testing-process extension, and the
   Beta-prior comparator. *)

let rng0 () = Numerics.Rng.create ~seed:555

let tiny () = Core.Universe.of_pairs [ (0.5, 0.1); (0.2, 0.3) ]

(* ------------------------------------------------------------------ *)
(* Betainc                                                             *)
(* ------------------------------------------------------------------ *)

let test_betainc_known_values () =
  (* I_x(1,1) = x *)
  Prop.check_close ~eps:1e-12 "I_x(1,1) = x" 0.37
    (Numerics.Betainc.regularized ~a:1.0 ~b:1.0 0.37);
  (* I_x(2,2) = x^2 (3 - 2x) *)
  let x = 0.3 in
  Prop.check_close ~eps:1e-12 "I_x(2,2)" (x *. x *. (3.0 -. (2.0 *. x)))
    (Numerics.Betainc.regularized ~a:2.0 ~b:2.0 x);
  Prop.check_close "endpoints 0" 0.0 (Numerics.Betainc.regularized ~a:3.0 ~b:4.0 0.0);
  Prop.check_close "endpoints 1" 1.0 (Numerics.Betainc.regularized ~a:3.0 ~b:4.0 1.0)

let test_betainc_symmetry () =
  List.iter
    (fun (a, b, x) ->
      Prop.check_close ~eps:1e-12 "I_x(a,b) = 1 - I_{1-x}(b,a)"
        (1.0 -. Numerics.Betainc.regularized ~a:b ~b:a (1.0 -. x))
        (Numerics.Betainc.regularized ~a ~b x))
    [ (2.0, 5.0, 0.1); (0.5, 0.5, 0.7); (10.0, 3.0, 0.9); (1.5, 8.0, 0.25) ]

let test_betainc_binomial_identity () =
  (* binomial_cdf via the beta identity must match direct summation. *)
  List.iter
    (fun (n, p, k) ->
      Prop.check_close ~eps:1e-12
        (Printf.sprintf "binomial tail n=%d p=%g k=%d" n p k)
        (Numerics.Betainc.binomial_tail_direct ~n ~p k)
        (Numerics.Betainc.binomial_sf ~n ~p (k - 1)))
    [ (10, 0.3, 4); (3, 0.5, 2); (20, 0.05, 1); (7, 0.9, 7); (5, 0.2, 0) ]

let test_beta_ppf_roundtrip () =
  List.iter
    (fun p ->
      Prop.check_close ~eps:1e-9 "cdf(ppf(p)) = p" p
        (Numerics.Betainc.beta_cdf ~a:2.5 ~b:7.0
           (Numerics.Betainc.beta_ppf ~a:2.5 ~b:7.0 p)))
    [ 0.01; 0.25; 0.5; 0.9; 0.999 ]

let test_betainc_validation () =
  Alcotest.check_raises "bad shape"
    (Invalid_argument "Betainc.regularized: shapes must be positive") (fun () ->
      ignore (Numerics.Betainc.regularized ~a:0.0 ~b:1.0 0.5));
  Alcotest.check_raises "bad x"
    (Invalid_argument "Betainc.regularized: x outside [0, 1]") (fun () ->
      ignore (Numerics.Betainc.regularized ~a:1.0 ~b:1.0 1.5));
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "beta_ppf p = %g" p)
        (Invalid_argument "Betainc.beta_ppf: p outside [0, 1]")
        (fun () -> ignore (Numerics.Betainc.beta_ppf ~a:2.0 ~b:3.0 p));
      Alcotest.check_raises
        (Printf.sprintf "binomial_cdf p = %g" p)
        (Invalid_argument "Betainc.binomial_cdf: p outside [0, 1]")
        (fun () -> ignore (Numerics.Betainc.binomial_cdf ~n:10 ~p 3)))
    [ 1.5; nan ]

(* ------------------------------------------------------------------ *)
(* Voting                                                              *)
(* ------------------------------------------------------------------ *)

let test_voting_recovers_paper_model () =
  let u = tiny () in
  Prop.check_close ~eps:1e-12 "1oo1 = mu1" (Core.Moments.mu1 u)
    (Core.Voting.mu (Core.Voting.create ~channels:1 ~required:1) u);
  Prop.check_close ~eps:1e-12 "1oo2 = mu2" (Core.Moments.mu2 u)
    (Core.Voting.mu Core.Voting.one_out_of_two u);
  Prop.check_close ~eps:1e-12 "1oo3 = mu_n 3" (Core.Moments.mu_n u ~channels:3)
    (Core.Voting.mu (Core.Voting.create ~channels:3 ~required:1) u);
  Prop.check_close ~eps:1e-12 "1oo2 sigma" (Core.Moments.sigma2 u)
    (Core.Voting.sigma Core.Voting.one_out_of_two u)

let test_voting_defeat_probability () =
  (* 2oo3: defeated when >= 2 of 3 channels have the fault:
     3p^2(1-p) + p^3. *)
  let p = 0.3 in
  Prop.check_close ~eps:1e-12 "2oo3 defeat probability"
    ((3.0 *. p *. p *. (1.0 -. p)) +. (p ** 3.0))
    (Core.Voting.fault_defeats_system Core.Voting.two_out_of_three ~p);
  (* 1oo2: p^2. *)
  Prop.check_close ~eps:1e-12 "1oo2 defeat probability" (p *. p)
    (Core.Voting.fault_defeats_system Core.Voting.one_out_of_two ~p)

let test_voting_ordering () =
  let u = tiny () in
  let mu v = Core.Voting.mu v u in
  Alcotest.(check bool) "1oo3 < 1oo2 < 2oo3 < 1oo1" true
    (mu (Core.Voting.create ~channels:3 ~required:1)
     < mu Core.Voting.one_out_of_two
    && mu Core.Voting.one_out_of_two < mu Core.Voting.two_out_of_three
    && mu Core.Voting.two_out_of_three
       < mu (Core.Voting.create ~channels:1 ~required:1))

let test_voting_dist_consistency () =
  let u = tiny () in
  let v = Core.Voting.two_out_of_three in
  let dist = Core.Voting.pfd_dist v u in
  Prop.check_close ~eps:1e-12 "dist mean = analytic mu" (Core.Voting.mu v u)
    (Core.Pfd_dist.mean dist);
  Prop.check_close ~eps:1e-12 "dist variance = analytic var" (Core.Voting.var v u)
    (Core.Pfd_dist.variance dist);
  Prop.check_close ~eps:1e-12 "P(positive) = P(some system fault)"
    (Core.Voting.p_some_system_fault v u)
    (Core.Pfd_dist.prob_positive dist)

let test_voting_validation () =
  Alcotest.check_raises "required > channels"
    (Invalid_argument "Voting.create: required must lie in [1, channels]")
    (fun () -> ignore (Core.Voting.create ~channels:2 ~required:3));
  List.iter
    (fun (shutdowns, no_actions, abstains) ->
      Alcotest.check_raises
        (Printf.sprintf "decide counts (%d, %d, %d)" shutdowns no_actions
           abstains)
        (Invalid_argument "Voting.decide: negative vote count")
        (fun () ->
          ignore
            (Core.Voting.decide Core.Voting.Unit ~shutdowns ~no_actions
               ~abstains)))
    [ (-1, 0, 0); (0, -1, 2); (1, 1, -1) ];
  List.iter
    (fun (name, p, detection) ->
      Alcotest.check_raises
        (Printf.sprintf "policy_defeat_prob p=%g detection=%g" p detection)
        (Invalid_argument
           (Printf.sprintf "Voting.policy_defeat_prob: %s outside [0, 1]" name))
        (fun () ->
          ignore
            (Core.Voting.policy_defeat_prob (Core.Voting.Vote 1) ~channels:2
               ~detection ~p ())))
    [
      ("p", 1.5, 0.0);
      ("p", nan, 0.0);
      ("detection", 0.3, -0.1);
      ("detection", 0.3, nan);
    ]

let test_voting_simulator_agreement () =
  (* The analytic voted model vs the executable adjudicator on a concrete
     space: exact per-system PFD, averaged over sampled developments. *)
  let rng = rng0 () in
  let space =
    Demandspace.Genspace.disjoint_space rng ~width:20 ~height:20 ~n_faults:6
      ~max_extent:4 ~p_lo:0.2 ~p_hi:0.5
      ~profile:(Demandspace.Profile.uniform ~size:400)
  in
  let u = Demandspace.Space.to_universe space in
  let acc = Numerics.Welford.create () in
  for _ = 1 to 4000 do
    let mk () =
      Simulator.Channel.create ~name:"c" (Simulator.Devteam.develop rng space)
    in
    let system = Simulator.Protection.voted ~required:2 [ mk (); mk (); mk () ] in
    Numerics.Welford.add acc (Simulator.Protection.true_pfd system)
  done;
  Prop.check_close ~eps:0.004 "2oo3 simulated mean PFD"
    (Core.Voting.mu Core.Voting.two_out_of_three u)
    (Numerics.Welford.mean acc)

let test_adjudicator_m_out_of_n () =
  let open Core.Voting in
  let adj = vote ~required:2 in
  Alcotest.(check bool) "2 votes suffice" true
    (Check.Reference.combine adj [ Shutdown; Shutdown; No_action ] = Shutdown);
  Alcotest.(check bool) "1 vote fails" true
    (Check.Reference.combine adj [ Shutdown; No_action; No_action ]
    = No_action);
  Alcotest.check_raises "too few channels"
    (Invalid_argument "Reference.combine: more votes required than channels")
    (fun () -> ignore (Check.Reference.combine adj [ Shutdown ]))

(* ------------------------------------------------------------------ *)
(* Estimator                                                           *)
(* ------------------------------------------------------------------ *)

let test_estimator_p_hat () =
  let obs =
    Core.Estimator.observe ~n_faults:3
      [| [ 0 ]; [ 0; 1 ]; []; [ 0; 1; 2 ] |]
  in
  Alcotest.(check int) "version count" 4 (Core.Estimator.version_count obs);
  Alcotest.(check (array int)) "occurrence counts" [| 3; 2; 1 |]
    (Core.Estimator.occurrence_counts obs);
  let p = Core.Estimator.p_hat obs in
  Prop.check_close "p0" 0.75 p.(0);
  Prop.check_close "p1" 0.5 p.(1);
  Prop.check_close "p2" 0.25 p.(2);
  Prop.check_close "pmax hat" 0.75 (Core.Estimator.pmax_hat obs);
  Alcotest.(check bool) "pmax upper exceeds hat" true
    (Core.Estimator.pmax_upper obs > 0.75)

let test_estimator_consistency () =
  (* With many observed versions the estimates converge to the truth. *)
  let rng = rng0 () in
  let truth = tiny () in
  let versions =
    Array.init 20_000 (fun _ -> Simulator.Devteam.sample_fault_set rng truth)
  in
  let obs = Core.Estimator.observe ~n_faults:2 versions in
  let p = Core.Estimator.p_hat obs in
  Prop.check_close ~eps:0.01 "p0 converges" 0.5 p.(0);
  Prop.check_close ~eps:0.01 "p1 converges" 0.2 p.(1);
  let u = Core.Estimator.plug_in_universe obs ~qs:(Core.Universe.qs truth) in
  Prop.check_close ~eps:0.01 "plug-in risk ratio" (Core.Fault_count.risk_ratio truth)
    (Core.Fault_count.risk_ratio u)

let test_estimator_bootstrap_interval () =
  let rng = rng0 () in
  let truth = tiny () in
  let versions =
    Array.init 100 (fun _ -> Simulator.Devteam.sample_fault_set rng truth)
  in
  let obs = Core.Estimator.observe ~n_faults:2 versions in
  let pred =
    Core.Estimator.predict_risk_ratio rng obs ~qs:(Core.Universe.qs truth)
  in
  Alcotest.(check bool) "interval ordered" true
    (pred.Core.Estimator.ci_low <= pred.Core.Estimator.point
    && pred.Core.Estimator.point <= pred.Core.Estimator.ci_high);
  Alcotest.(check bool) "interval non-degenerate" true
    (pred.Core.Estimator.ci_high > pred.Core.Estimator.ci_low)

let test_estimator_validation () =
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Estimator.observe: no versions observed") (fun () ->
      ignore (Core.Estimator.observe ~n_faults:2 [||]));
  Alcotest.check_raises "bad index"
    (Invalid_argument "Estimator.observe: fault index out of range") (fun () ->
      ignore (Core.Estimator.observe ~n_faults:2 [| [ 5 ] |]))

(* ------------------------------------------------------------------ *)
(* Testing process                                                     *)
(* ------------------------------------------------------------------ *)

let test_testing_zero_demands_is_identity () =
  let u = tiny () in
  let u' = Extensions.Testing_process.operational_testing u ~demands:0 in
  Prop.check_close "mu1 unchanged" (Core.Moments.mu1 u) (Core.Moments.mu1 u')

let test_testing_scrubs_big_regions_faster () =
  let u = tiny () in
  (* fault 1 has q = 0.3, fault 0 has q = 0.1: after testing the big-region
     fault's probability falls more. *)
  let u' = Extensions.Testing_process.operational_testing u ~demands:10 in
  let p = Core.Universe.ps u' in
  Prop.check_close ~eps:1e-12 "fault 0 survival" (0.5 *. (0.9 ** 10.0)) p.(0);
  Prop.check_close ~eps:1e-12 "fault 1 survival" (0.2 *. (0.7 ** 10.0)) p.(1);
  Alcotest.(check bool) "relative reduction larger for big region" true
    (p.(1) /. 0.2 < p.(0) /. 0.5)

let test_testing_monotone_reliability () =
  let u = tiny () in
  let prev = ref infinity in
  List.iter
    (fun t ->
      let mu = Core.Moments.mu1 (Extensions.Testing_process.operational_testing u ~demands:t) in
      Alcotest.(check bool) "mu1 falls with testing" true (mu <= !prev +. 1e-15);
      prev := mu)
    [ 0; 1; 10; 100; 1000 ]

let test_directed_testing () =
  let u = tiny () in
  let u' =
    Extensions.Testing_process.directed_testing u ~detection:[| 0.5; 0.0 |]
      ~cycles:2
  in
  let p = Core.Universe.ps u' in
  Prop.check_close "detected fault shrinks" (0.5 *. 0.25) p.(0);
  Prop.check_close "undetected fault untouched" 0.2 p.(1)

let test_testing_trajectory () =
  let u = tiny () in
  let traj =
    Extensions.Testing_process.trajectory u ~k:2.33
      ~demand_counts:[| 0; 10; 100 |]
  in
  Alcotest.(check int) "points" 3 (Array.length traj);
  Prop.check_close ~eps:1e-12 "t=0 is the base universe"
    (Core.Fault_count.risk_ratio u)
    traj.(0).Extensions.Testing_process.risk_ratio

(* ------------------------------------------------------------------ *)
(* Beta prior                                                          *)
(* ------------------------------------------------------------------ *)

let test_beta_prior_conjugacy () =
  let prior = Extensions.Beta_prior.create ~a:2.0 ~b:8.0 in
  let post = Extensions.Beta_prior.observe prior ~demands:10 ~failures:3 in
  Prop.check_close "posterior a" 5.0 (Extensions.Beta_prior.a post);
  Prop.check_close "posterior b" 15.0 (Extensions.Beta_prior.b post);
  Prop.check_close ~eps:1e-12 "posterior mean" 0.25 (Extensions.Beta_prior.mean post)

let test_beta_prior_uniform_update () =
  (* Uniform prior + t failure-free demands: P(theta <= x) = 1-(1-x)^(t+1). *)
  let post =
    Extensions.Beta_prior.observe_failure_free Extensions.Beta_prior.uniform
      ~demands:100
  in
  let x = 0.01 in
  Prop.check_close ~eps:1e-10 "closed-form posterior CDF"
    (1.0 -. ((1.0 -. x) ** 101.0))
    (Extensions.Beta_prior.prob_at_most post x)

let test_beta_prior_moment_match () =
  let u = tiny () in
  let dist = Core.Pfd_dist.exact_pair u in
  let matched = Extensions.Beta_prior.moment_matched dist in
  Prop.check_close ~eps:1e-10 "mean matched" (Core.Pfd_dist.mean dist)
    (Extensions.Beta_prior.mean matched)

let test_beta_prior_demands_for_confidence () =
  match
    Extensions.Beta_prior.demands_for_confidence Extensions.Beta_prior.uniform
      ~bound:1e-2 ~confidence:0.95 ~max_demands:10_000
  with
  | None -> Alcotest.fail "reachable"
  | Some d ->
      (* closed form: smallest t with 1-(1-x)^(t+1) >= 0.95 *)
      let expected =
        int_of_float (Float.ceil (log 0.05 /. Float.log1p (-0.01))) - 1
      in
      Alcotest.(check int) "matches closed form" expected d

let () =
  Alcotest.run "voting-estimation"
    [
      ( "betainc",
        [
          Alcotest.test_case "known values" `Quick test_betainc_known_values;
          Alcotest.test_case "symmetry" `Quick test_betainc_symmetry;
          Alcotest.test_case "binomial identity" `Quick test_betainc_binomial_identity;
          Alcotest.test_case "ppf roundtrip" `Quick test_beta_ppf_roundtrip;
          Alcotest.test_case "validation" `Quick test_betainc_validation;
        ] );
      ( "voting",
        [
          Alcotest.test_case "recovers paper model" `Quick
            test_voting_recovers_paper_model;
          Alcotest.test_case "defeat probability" `Quick test_voting_defeat_probability;
          Alcotest.test_case "architecture ordering" `Quick test_voting_ordering;
          Alcotest.test_case "distribution consistency" `Quick
            test_voting_dist_consistency;
          Alcotest.test_case "validation" `Quick test_voting_validation;
          Alcotest.test_case "simulator agreement" `Slow
            test_voting_simulator_agreement;
          Alcotest.test_case "m-out-of-n adjudicator" `Quick
            test_adjudicator_m_out_of_n;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "p_hat" `Quick test_estimator_p_hat;
          Alcotest.test_case "consistency" `Slow test_estimator_consistency;
          Alcotest.test_case "bootstrap interval" `Quick
            test_estimator_bootstrap_interval;
          Alcotest.test_case "validation" `Quick test_estimator_validation;
        ] );
      ( "testing",
        [
          Alcotest.test_case "zero demands" `Quick test_testing_zero_demands_is_identity;
          Alcotest.test_case "big regions scrubbed faster" `Quick
            test_testing_scrubs_big_regions_faster;
          Alcotest.test_case "monotone reliability" `Quick
            test_testing_monotone_reliability;
          Alcotest.test_case "directed testing" `Quick test_directed_testing;
          Alcotest.test_case "trajectory" `Quick test_testing_trajectory;
        ] );
      ( "beta-prior",
        [
          Alcotest.test_case "conjugacy" `Quick test_beta_prior_conjugacy;
          Alcotest.test_case "uniform update" `Quick test_beta_prior_uniform_update;
          Alcotest.test_case "moment match" `Quick test_beta_prior_moment_match;
          Alcotest.test_case "demands for confidence" `Quick
            test_beta_prior_demands_for_confidence;
        ] );
    ]
