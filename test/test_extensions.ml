(* Tests for the model extensions (forced diversity, correlated faults,
   overlap, Bayesian assessment). *)

let rng0 () = Numerics.Rng.create ~seed:31337

let base_universe () =
  Core.Universe.of_pairs [ (0.3, 0.1); (0.2, 0.2); (0.4, 0.05); (0.1, 0.15) ]

(* ------------------------------------------------------------------ *)
(* Forced                                                              *)
(* ------------------------------------------------------------------ *)

let test_forced_of_universe_matches_core () =
  let u = base_universe () in
  let f = Extensions.Forced.of_universe u in
  Prop.check_close "mu_a = mu1" (Core.Moments.mu1 u) (Extensions.Forced.mu_a f);
  Prop.check_close "mu pair = mu2" (Core.Moments.mu2 u) (Extensions.Forced.mu_pair f);
  Prop.check_close "var pair = var2" (Core.Moments.var2 u) (Extensions.Forced.var_pair f);
  Prop.check_close "no common fault" (Core.Fault_count.p_n2_zero u)
    (Extensions.Forced.p_no_common_fault f);
  Prop.check_close "risk ratio" (Core.Fault_count.risk_ratio u)
    (Extensions.Forced.risk_ratio_vs_a f);
  Prop.check_close "gain of unforced is 1" 1.0 (Extensions.Forced.divergence_gain f)

let test_forced_hand_example () =
  let f =
    Extensions.Forced.create ~qs:[| 0.1; 0.2 |] ~pa:[| 0.5; 0.1 |]
      ~pb:[| 0.1; 0.5 |]
  in
  Prop.check_close "mu_a" ((0.5 *. 0.1) +. (0.1 *. 0.2)) (Extensions.Forced.mu_a f);
  Prop.check_close "mu_b" ((0.1 *. 0.1) +. (0.5 *. 0.2)) (Extensions.Forced.mu_b f);
  Prop.check_close "mu pair" ((0.05 *. 0.1) +. (0.05 *. 0.2))
    (Extensions.Forced.mu_pair f);
  Prop.check_close "no common" (0.95 *. 0.95) (Extensions.Forced.p_no_common_fault f)

let test_forced_complementary_preserves_a () =
  let rng = rng0 () in
  let u = base_universe () in
  let f = Extensions.Forced.complementary rng u ~strength:0.7 in
  Prop.check_close "channel A unchanged" (Core.Moments.mu1 u) (Extensions.Forced.mu_a f);
  (* strength 0 keeps B = A exactly *)
  let f0 = Extensions.Forced.complementary rng u ~strength:0.0 in
  Prop.check_close "strength 0: B = A" (Extensions.Forced.mu_a f0)
    (Extensions.Forced.mu_b f0)

let test_forced_validation () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Forced.create: vector length mismatch") (fun () ->
      ignore (Extensions.Forced.create ~qs:[| 0.1 |] ~pa:[| 0.1; 0.2 |] ~pb:[| 0.1 |]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Forced.create: pa outside [0, 1]") (fun () ->
      ignore (Extensions.Forced.create ~qs:[| 0.1 |] ~pa:[| 1.5 |] ~pb:[| 0.1 |]))

(* ------------------------------------------------------------------ *)
(* Correlated                                                          *)
(* ------------------------------------------------------------------ *)

let shock_model ?(shock_prob = 0.2) ?(lift = 2.0) () =
  Extensions.Correlated.of_universe_with_shock (base_universe ())
    ~cluster_size:2 ~shock_prob ~lift

let test_correlated_marginals_preserved () =
  let m = shock_model () in
  let u = Extensions.Correlated.marginal_universe m in
  let base = base_universe () in
  Prop.check_close ~eps:1e-12 "mu1 preserved" (Core.Moments.mu1 base)
    (Core.Moments.mu1 u);
  Prop.check_close ~eps:1e-12 "exact mu1 equals marginal mu1" (Core.Moments.mu1 base)
    (Extensions.Correlated.mu1 m);
  Prop.check_close ~eps:1e-12 "mu2 preserved" (Core.Moments.mu2 base)
    (Extensions.Correlated.mu2 m)

let test_correlated_zero_shock_is_independent () =
  let m = shock_model ~shock_prob:0.0 () in
  let base = base_universe () in
  Prop.check_close ~eps:1e-12 "var1" (Core.Moments.var1 base)
    (Extensions.Correlated.var1 m);
  Prop.check_close ~eps:1e-12 "P(N1=0)" (Core.Fault_count.p_n1_zero base)
    (Extensions.Correlated.p_n1_zero m);
  Prop.check_close ~eps:1e-12 "P(N2=0)" (Core.Fault_count.p_n2_zero base)
    (Extensions.Correlated.p_n2_zero m);
  Prop.check_close ~eps:1e-12 "risk ratio" (Core.Fault_count.risk_ratio base)
    (Extensions.Correlated.risk_ratio m)

let test_correlated_positive_correlation_raises_variance () =
  let independent = shock_model ~shock_prob:0.0 () in
  let correlated = shock_model ~shock_prob:0.3 ~lift:2.2 () in
  Alcotest.(check bool) "variance grows with positive correlation" true
    (Extensions.Correlated.var1 correlated > Extensions.Correlated.var1 independent)

let test_correlated_analytic_vs_monte_carlo () =
  let rng = rng0 () in
  let m = shock_model ~shock_prob:0.25 ~lift:2.0 () in
  let n = 60_000 in
  let n1_zero = ref 0 in
  let pfd_acc = Numerics.Welford.create () in
  for _ = 1 to n do
    let version_pfd, _ = Extensions.Correlated.sample_pair_pfd rng m in
    Numerics.Welford.add pfd_acc version_pfd;
    if version_pfd = 0.0 then incr n1_zero
  done;
  Prop.check_close ~eps:0.01 "MC P(N1=0)"
    (Extensions.Correlated.p_n1_zero m)
    (float_of_int !n1_zero /. float_of_int n);
  Prop.check_close ~eps:0.003 "MC mean PFD" (Extensions.Correlated.mu1 m)
    (Numerics.Welford.mean pfd_acc);
  Prop.check_close ~eps:0.005 "MC std PFD" (Extensions.Correlated.sigma1 m)
    (Numerics.Welford.std pfd_acc)

let test_correlated_pair_mc () =
  let rng = rng0 () in
  let m = shock_model ~shock_prob:0.25 ~lift:2.0 () in
  let n = 60_000 in
  let pair_zero = ref 0 in
  let pair_acc = Numerics.Welford.create () in
  for _ = 1 to n do
    let _, pair_pfd = Extensions.Correlated.sample_pair_pfd rng m in
    Numerics.Welford.add pair_acc pair_pfd;
    if pair_pfd = 0.0 then incr pair_zero
  done;
  Prop.check_close ~eps:0.01 "MC P(N2=0)"
    (Extensions.Correlated.p_n2_zero m)
    (float_of_int !pair_zero /. float_of_int n);
  Prop.check_close ~eps:0.002 "MC pair mean = mu2" (Extensions.Correlated.mu2 m)
    (Numerics.Welford.mean pair_acc)

let test_correlated_fault_free_risk_ratio () =
  (* Zero-denominator path: a process that can introduce no fault has
     P(N1 > 0) = 0, so the eq. (10) ratio is undefined — the guard must
     return nan rather than dividing by (near-)zero. *)
  let m =
    Extensions.Correlated.create
      [|
        { Extensions.Correlated.shock_prob = 0.3;
          faults = [| (0.0, 0.0, 0.1); (0.0, 0.0, 0.2) |] };
      |]
  in
  Prop.check_close ~eps:0.0 "P(N1>0) is exactly zero" 0.0
    (Extensions.Correlated.p_n1_pos m);
  Alcotest.(check bool) "risk ratio is nan, not a division blow-up" true
    (Float.is_nan (Extensions.Correlated.risk_ratio m))

let test_correlated_validation () =
  Alcotest.(check bool) "lift too large raises" true
    (try
       ignore
         (Extensions.Correlated.of_universe_with_shock
            (Core.Universe.of_pairs [ (0.5, 0.1) ])
            ~cluster_size:1 ~shock_prob:0.9 ~lift:3.0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Overlap                                                             *)
(* ------------------------------------------------------------------ *)

let overlapping_space rng =
  Demandspace.Genspace.overlapping_space rng ~width:24 ~height:24 ~n_faults:8
    ~max_extent:7 ~p_lo:0.2 ~p_hi:0.6
    ~profile:(Demandspace.Profile.uniform ~size:(24 * 24))

let test_overlap_analysis_mu1_pessimistic () =
  let rng = rng0 () in
  for i = 0 to 9 do
    let s = overlapping_space (Numerics.Rng.split rng ~index:i) in
    let a = Extensions.Overlap.analyse s in
    if a.Extensions.Overlap.mu1_pessimism < 1.0 -. 1e-12 then
      Alcotest.fail "additive mu1 below exact (impossible)"
  done

let test_overlap_disjoint_is_exact () =
  let rng = rng0 () in
  let s =
    Demandspace.Genspace.disjoint_space rng ~width:24 ~height:24 ~n_faults:8
      ~max_extent:4 ~p_lo:0.2 ~p_hi:0.6
      ~profile:(Demandspace.Profile.uniform ~size:(24 * 24))
  in
  let a = Extensions.Overlap.analyse s in
  Prop.check_close ~eps:1e-12 "no overlap: additive mu1 exact" 1.0
    a.Extensions.Overlap.mu1_pessimism;
  Prop.check_close ~eps:1e-12 "no overlap: additive mu2 exact" 1.0
    a.Extensions.Overlap.mu2_pessimism;
  Alcotest.(check int) "no overlapping pairs" 0 a.Extensions.Overlap.overlap_pairs

let test_overlap_merged_universe () =
  let profile = Demandspace.Profile.uniform ~size:100 in
  let r1 = Demandspace.Region.interval ~space_size:100 ~lo:0 ~hi:9 in
  let r2 = Demandspace.Region.interval ~space_size:100 ~lo:5 ~hi:14 in
  let r3 = Demandspace.Region.interval ~space_size:100 ~lo:50 ~hi:54 in
  let s =
    Demandspace.Space.create ~profile
      ~faults:[| (r1, 0.5); (r2, 0.5); (r3, 0.3) |]
  in
  let u = Extensions.Overlap.merged_universe s in
  Alcotest.(check int) "two merged faults" 2 (Core.Universe.size u);
  (* the merged group: union measure 15/100, p = 1 - 0.25 = 0.75 *)
  let qs = Core.Universe.qs u in
  let ps = Core.Universe.ps u in
  Array.sort compare qs;
  Array.sort compare ps;
  Prop.check_close ~eps:1e-12 "lone region q" 0.05 qs.(0);
  Prop.check_close ~eps:1e-12 "merged union q" 0.15 qs.(1);
  Prop.check_close ~eps:1e-12 "lone region p" 0.3 ps.(0);
  Prop.check_close ~eps:1e-12 "merged p = 1-(1-p1)(1-p2)" 0.75 ps.(1)

let test_overlap_mc_pessimism () =
  let rng = rng0 () in
  let s = overlapping_space (Numerics.Rng.split rng ~index:50) in
  let ratio = Extensions.Overlap.monte_carlo_pessimism rng s ~replications:3000 in
  Alcotest.(check bool) "mean additive/true ratio >= 1" true (ratio >= 1.0 -. 1e-12)

(* ------------------------------------------------------------------ *)
(* Bayes                                                               *)
(* ------------------------------------------------------------------ *)

let prior () =
  Extensions.Bayes.of_mass [ (0.0, 0.3); (1e-4, 0.3); (1e-3, 0.2); (1e-2, 0.2) ]

let test_bayes_prior_statistics () =
  let t = prior () in
  Prop.check_close ~eps:1e-12 "prior mean"
    ((0.3 *. 1e-4) +. (0.2 *. 1e-3) +. (0.2 *. 1e-2))
    (Extensions.Bayes.mean t);
  Prop.check_close "prior P(<=1e-3)" 0.8 (Extensions.Bayes.prob_at_most t 1e-3)

let test_bayes_failure_free_shifts_down () =
  let t = prior () in
  let post = Extensions.Bayes.observe_failure_free t ~demands:1000 in
  Alcotest.(check bool) "posterior mean falls" true
    (Extensions.Bayes.mean post < Extensions.Bayes.mean t);
  Alcotest.(check bool) "confidence in bound rises" true
    (Extensions.Bayes.prob_at_most post 1e-3
    > Extensions.Bayes.prob_at_most t 1e-3)

let test_bayes_exact_update () =
  (* Two-point prior: posterior odds after t failure-free demands are
     prior odds times ((1-a)/(1-b))^t — check against the closed form. *)
  let a = 1e-3 and b = 1e-2 in
  let t = Extensions.Bayes.of_mass [ (a, 0.5); (b, 0.5) ] in
  let demands = 500 in
  let post = Extensions.Bayes.observe_failure_free t ~demands in
  let w_a = (1.0 -. a) ** float_of_int demands in
  let w_b = (1.0 -. b) ** float_of_int demands in
  let expected = w_a /. (w_a +. w_b) in
  Prop.check_close ~eps:1e-10 "two-point posterior" expected
    (Extensions.Bayes.prob_at_most post a)

let test_bayes_with_failures () =
  let t = Extensions.Bayes.of_mass [ (0.0, 0.5); (1e-2, 0.5) ] in
  let post = Extensions.Bayes.observe t ~demands:100 ~failures:1 in
  (* a failure rules out PFD = 0 entirely *)
  Prop.check_close ~eps:1e-12 "failure kills the zero atom" 0.0
    (Extensions.Bayes.prob_at_most post 0.0);
  Alcotest.check_raises "impossible record"
    (Invalid_argument "Bayes.observe: observation impossible under the prior")
    (fun () ->
      ignore
        (Extensions.Bayes.observe
           (Extensions.Bayes.of_mass [ (0.0, 1.0) ])
           ~demands:10 ~failures:1))

let test_bayes_huge_run_no_underflow () =
  let t = prior () in
  let post = Extensions.Bayes.observe_failure_free t ~demands:100_000_000 in
  (* only the PFD=0 atom survives a 10^8 failure-free run *)
  Prop.check_close ~eps:1e-9 "mass concentrates at zero" 1.0
    (Extensions.Bayes.prob_at_most post 0.0)

let test_bayes_demands_for_confidence () =
  let t = prior () in
  match
    Extensions.Bayes.demands_for_confidence t ~bound:1e-3 ~confidence:0.95
      ~max_demands:1_000_000
  with
  | None -> Alcotest.fail "confidence should be reachable"
  | Some d ->
      Alcotest.(check bool) "positive demand count" true (d > 0);
      let post = Extensions.Bayes.observe_failure_free t ~demands:d in
      Alcotest.(check bool) "confidence reached at d" true
        (Extensions.Bayes.prob_at_most post 1e-3 >= 0.95);
      let before = Extensions.Bayes.observe_failure_free t ~demands:(d - 1) in
      Alcotest.(check bool) "not reached at d-1" true
        (Extensions.Bayes.prob_at_most before 1e-3 < 0.95)

let test_bayes_trajectory_monotone () =
  let t = prior () in
  let traj =
    Extensions.Bayes.posterior_trajectory t ~bound:1e-3
      ~demand_counts:[| 0; 10; 100; 1000; 10000 |]
  in
  for i = 0 to Array.length traj - 2 do
    Alcotest.(check bool) "failure-free evidence never lowers confidence" true
      (snd traj.(i) <= snd traj.(i + 1) +. 1e-12)
  done

let test_bayes_roundtrip_with_pfd_dist () =
  let u = base_universe () in
  let dist = Core.Pfd_dist.exact_pair u in
  let t = Extensions.Bayes.of_pfd_dist dist in
  Prop.check_close ~eps:1e-10 "prior mean = dist mean" (Core.Pfd_dist.mean dist)
    (Extensions.Bayes.mean t);
  Prop.check_close ~eps:1e-10 "prior quantile = dist quantile"
    (Core.Pfd_dist.quantile dist 0.9)
    (Extensions.Bayes.quantile t 0.9)

(* Bit pin of a posterior whose prior support includes 0 (dropped by the
   observed failure) and points near 0.9 (masses underflow to 0 after
   1000 demands): the posterior is rebuilt from the prior's own sorted
   support without a sort or merge, and must stay bit-identical. *)
let test_bayes_posterior_pinned () =
  let u = Core.Universe.of_pairs [ (0.5, 1e-4); (0.5, 2e-4); (0.3, 0.9) ] in
  let prior = Extensions.Bayes.of_pfd_dist (Core.Pfd_dist.exact_pair u) in
  let post = Extensions.Bayes.observe prior ~demands:1000 ~failures:1 in
  let bits name expected x =
    Alcotest.(check int64) name expected (Int64.bits_of_float x)
  in
  bits "mean" 4551326555468630453L (Extensions.Bayes.mean post);
  bits "quantile 0.9" 4554169646866313826L (Extensions.Bayes.quantile post 0.9);
  bits "P(pfd <= 1e-4)" 4598636055060102769L
    (Extensions.Bayes.prob_at_most post 1e-4);
  bits "P(pfd <= 2e-4)" 4605149825686154902L
    (Extensions.Bayes.prob_at_most post 2e-4);
  bits "P(pfd <= 0)" 0L (Extensions.Bayes.prob_at_most post 0.0)

let () =
  Alcotest.run "extensions"
    [
      ( "forced",
        [
          Alcotest.test_case "of_universe = core" `Quick
            test_forced_of_universe_matches_core;
          Alcotest.test_case "hand example" `Quick test_forced_hand_example;
          Alcotest.test_case "complementary" `Quick
            test_forced_complementary_preserves_a;
          Alcotest.test_case "validation" `Quick test_forced_validation;
        ] );
      ( "correlated",
        [
          Alcotest.test_case "marginals preserved" `Quick
            test_correlated_marginals_preserved;
          Alcotest.test_case "zero shock = independent" `Quick
            test_correlated_zero_shock_is_independent;
          Alcotest.test_case "positive correlation raises variance" `Quick
            test_correlated_positive_correlation_raises_variance;
          Alcotest.test_case "analytic vs MC (version)" `Slow
            test_correlated_analytic_vs_monte_carlo;
          Alcotest.test_case "analytic vs MC (pair)" `Slow test_correlated_pair_mc;
          Alcotest.test_case "validation" `Quick test_correlated_validation;
          Alcotest.test_case "fault-free risk ratio" `Quick
            test_correlated_fault_free_risk_ratio;
        ] );
      ( "overlap",
        [
          Alcotest.test_case "mu1 pessimistic" `Quick
            test_overlap_analysis_mu1_pessimistic;
          Alcotest.test_case "disjoint exact" `Quick test_overlap_disjoint_is_exact;
          Alcotest.test_case "merged universe" `Quick test_overlap_merged_universe;
          Alcotest.test_case "MC pessimism" `Slow test_overlap_mc_pessimism;
        ] );
      ( "bayes",
        [
          Alcotest.test_case "prior statistics" `Quick test_bayes_prior_statistics;
          Alcotest.test_case "failure-free shifts down" `Quick
            test_bayes_failure_free_shifts_down;
          Alcotest.test_case "exact two-point update" `Quick test_bayes_exact_update;
          Alcotest.test_case "with failures" `Quick test_bayes_with_failures;
          Alcotest.test_case "huge run, no underflow" `Quick
            test_bayes_huge_run_no_underflow;
          Alcotest.test_case "demands for confidence" `Quick
            test_bayes_demands_for_confidence;
          Alcotest.test_case "trajectory monotone" `Quick test_bayes_trajectory_monotone;
          Alcotest.test_case "pfd_dist roundtrip" `Quick
            test_bayes_roundtrip_with_pfd_dist;
          Alcotest.test_case "posterior pinned" `Quick
            test_bayes_posterior_pinned;
        ] );
    ]
