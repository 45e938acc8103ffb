(* Boundary and degenerate-input behaviour across all libraries: the cases
   a downstream user will eventually hit (empty regions, certain and
   impossible faults, algorithm switch points, size-1 and word-boundary
   structures). *)

let rng0 () = Numerics.Rng.create ~seed:31415

(* ------------------------------------------------------------------ *)
(* numerics boundaries                                                 *)
(* ------------------------------------------------------------------ *)

let test_erf_switch_continuity () =
  (* the implementation switches from the series to the continued
     fraction at |x| = 1.5; the two branches must agree there *)
  let below = Numerics.Special.erf (1.5 -. 1e-9) in
  let above = Numerics.Special.erf (1.5 +. 1e-9) in
  Alcotest.(check bool) "continuous at the branch switch" true
    (abs_float (above -. below) < 1e-8);
  let below' = Numerics.Special.erfc (1.5 -. 1e-9) in
  let above' = Numerics.Special.erfc (1.5 +. 1e-9) in
  Alcotest.(check bool) "erfc continuous at the switch" true
    (abs_float (above' -. below') < 1e-8)

let test_normal_ppf_deep_tails () =
  List.iter
    (fun p ->
      let x = Numerics.Normal_dist.ppf p in
      Alcotest.(check bool) "finite deep-tail quantile" true (Float.is_finite x);
      Prop.check_close ~eps:(1e-4 *. p) "tail roundtrip" p (Numerics.Normal_dist.cdf x))
    [ 1e-10; 1e-14 ]

let test_rng_int_bound_one () =
  let rng = rng0 () in
  for _ = 1 to 100 do
    Alcotest.(check int) "bound 1 always 0" 0 (Numerics.Rng.int rng 1)
  done

let test_bitset_word_boundaries () =
  List.iter
    (fun size ->
      let b = Numerics.Bitset.create size in
      Numerics.Bitset.set b (size - 1);
      Alcotest.(check bool) "last bit set" true (Numerics.Bitset.mem b (size - 1));
      Alcotest.(check int) "cardinal 1" 1 (Numerics.Bitset.cardinal b);
      let c = Numerics.Bitset.copy b in
      Numerics.Bitset.clear c (size - 1);
      Alcotest.(check bool) "copy cleared independently" true
        (Numerics.Bitset.mem b (size - 1) && Numerics.Bitset.is_empty c))
    [ 1; 62; 63; 64; 65; 126; 127; 128 ]

let test_alias_extreme_weights () =
  let rng = rng0 () in
  let t = Numerics.Alias.create [| 1e-12; 1e12 |] in
  let ones = ref 0 in
  for _ = 1 to 10_000 do
    if Numerics.Alias.sample t rng = 1 then incr ones
  done;
  Alcotest.(check int) "dominant outcome always drawn" 10_000 !ones

let test_kahan_catastrophic_cancellation () =
  Prop.check_close ~eps:1e-6 "large-small-large" 1.0
    (Numerics.Kahan.sum_array [| 1e16; 1.0; -1e16 |])

let test_logsumexp_with_neg_infinity () =
  Prop.check_close ~eps:1e-12 "ignores impossible terms" 2.0
    (Numerics.Special.logsumexp [| neg_infinity; 2.0; neg_infinity |])

let test_poisson_extremes () =
  let rng = rng0 () in
  Alcotest.(check int) "lambda 0" 0 (Numerics.Sampler.poisson rng ~lambda:0.0);
  let big =
    Array.init 20_000 (fun _ ->
        float_of_int (Numerics.Sampler.poisson rng ~lambda:50.0))
  in
  Prop.check_close ~eps:0.5 "large-lambda splitting path" 50.0 (Numerics.Stats.mean big)

let test_grid_arange () =
  let a = Numerics.Grid.arange ~lo:0.0 ~hi:1.0 ~step:0.25 in
  Alcotest.(check int) "4 points strictly below hi" 4 (Array.length a);
  Prop.check_close "last point" 0.75 a.(3)

(* ------------------------------------------------------------------ *)
(* core boundaries                                                     *)
(* ------------------------------------------------------------------ *)

let test_certain_fault () =
  (* p = 1: every version contains the fault; diversity buys nothing for
     it (common with probability 1). *)
  let u = Core.Universe.of_pairs [ (1.0, 0.1); (0.2, 0.05) ] in
  Prop.check_close "P(N1=0) = 0" 0.0 (Core.Fault_count.p_n1_zero u);
  Prop.check_close "P(N2=0) = 0" 0.0 (Core.Fault_count.p_n2_zero u);
  Prop.check_close "risk ratio 1" 1.0 (Core.Fault_count.risk_ratio u);
  Prop.check_close "mu2 includes the certain fault"
    (0.1 +. (0.04 *. 0.05))
    (Core.Moments.mu2 u);
  let dist = Core.Pfd_dist.exact_single u in
  Prop.check_close "PFD never below q of the certain fault" 0.1
    (Core.Pfd_dist.quantile dist 0.0)

let test_impossible_fault () =
  let u = Core.Universe.of_pairs [ (0.0, 0.3); (0.2, 0.05) ] in
  Prop.check_close "impossible fault contributes nothing" (0.2 *. 0.05)
    (Core.Moments.mu1 u);
  let dist = Core.Pfd_dist.exact_single u in
  Alcotest.(check int) "support excludes the impossible fault" 2
    (Core.Pfd_dist.size dist)

let test_zero_measure_fault () =
  (* q = 0: the fault exists but can never fail — it affects N counts but
     not the PFD. *)
  let u = Core.Universe.of_pairs [ (0.5, 0.0); (0.2, 0.1) ] in
  Alcotest.(check bool) "P(N1>0) > P(Theta1>0)" true
    (Core.Fault_count.p_n1_pos u
    > Core.Pfd_dist.prob_positive (Core.Pfd_dist.exact_single u));
  Prop.check_close "mu1 ignores the null region" 0.02 (Core.Moments.mu1 u)

let test_all_faults_impossible () =
  let u = Core.Universe.of_pairs [ (0.0, 0.1); (0.0, 0.2) ] in
  let dist = Core.Pfd_dist.exact_single u in
  Alcotest.(check int) "point mass at zero" 1 (Core.Pfd_dist.size dist);
  Prop.check_close "mean 0" 0.0 (Core.Pfd_dist.mean dist);
  Alcotest.(check bool) "risk ratio undefined" true
    (Float.is_nan (Core.Fault_count.risk_ratio u))

let test_improvement_factor_zero () =
  let u = Core.Universe.of_pairs [ (0.5, 0.1); (0.2, 0.3) ] in
  let perfect = Core.Improvement.apply_step u (Core.Improvement.Proportional 0.0) in
  Prop.check_close "perfect process: mu1 = 0" 0.0 (Core.Moments.mu1 perfect);
  Prop.check_close "P(N1=0) = 1" 1.0 (Core.Fault_count.p_n1_zero perfect)

let test_poisson_binomial_with_certain_faults () =
  let dist = Core.Fault_count.poisson_binomial [| 1.0; 1.0; 0.5 |] in
  Prop.check_close "P(0) = 0" 0.0 dist.(0);
  Prop.check_close "P(1) = 0" 0.0 dist.(1);
  Prop.check_close "P(2) = 0.5" 0.5 dist.(2);
  Prop.check_close "P(3) = 0.5" 0.5 dist.(3)

let test_grid_dist_with_null_region () =
  let u = Core.Universe.of_pairs [ (0.5, 0.0); (0.3, 0.2) ] in
  let g = Core.Pfd_dist.grid_single u ~bins:64 in
  Prop.check_close ~eps:1e-6 "grid handles zero-measure regions"
    (Core.Moments.mu1 u) (Core.Pfd_dist.mean g)

(* Boundary policy of the Pfd_dist convolvers and their Check.Reference
   counterparts: reject. Every entry point raises Invalid_argument
   naming itself and the first offending index, and accepts the closed
   edges p in {0, 1}, q = 0 and subnormal q. *)
let test_pfd_dist_rejects_out_of_range () =
  let entry_points =
    [
      ( "Pfd_dist.exact_of_vectors",
        fun probs values -> Core.Pfd_dist.exact_of_vectors ~probs ~values () );
      ( "Reference.exact_of_vectors_naive",
        fun probs values ->
          Check.Reference.exact_of_vectors_naive ~probs ~values () );
      ( "Pfd_dist.grid_of_vectors",
        fun probs values ->
          Core.Pfd_dist.grid_of_vectors ~probs ~values ~bins:64 () );
      ( "Reference.grid_of_vectors_naive",
        fun probs values ->
          Check.Reference.grid_of_vectors_naive ~probs ~values ~bins:64 () );
    ]
  in
  let rejected =
    [
      ([| nan; 0.5 |], [| 0.1; 0.2 |], "probs.(0) = nan is not a probability in [0, 1]");
      ([| 0.5; 1.5 |], [| 0.1; 0.2 |], "probs.(1) = 1.5 is not a probability in [0, 1]");
      ([| -0.1 |], [| 0.1 |], "probs.(0) = -0.1 is not a probability in [0, 1]");
      ([| 0.5; 0.5 |], [| 0.1; -0.1 |], "values.(1) = -0.1 is not finite and >= 0");
      ([| 0.5 |], [| nan |], "values.(0) = nan is not finite and >= 0");
      ([| 0.5; 0.5 |], [| 0.1; infinity |], "values.(1) = inf is not finite and >= 0");
    ]
  in
  List.iter
    (fun (name, f) ->
      List.iter
        (fun (probs, values, detail) ->
          Alcotest.check_raises name
            (Invalid_argument (name ^ ": " ^ detail))
            (fun () -> ignore (f probs values)))
        rejected;
      let d = f [| 0.0; 1.0; 0.5 |] [| 0.3; 0.2; 5e-324 |] in
      Prop.check_close (name ^ ": edges accepted, certain fault always present")
        0.0
        (Core.Pfd_dist.cdf d 0.1))
    entry_points

(* Every [0, 1] range guard rejects NaN. A guard written
   [x < 0.0 || x > 1.0] is false for NaN and let it through; each is
   written [not (x >= 0.0 && x <= 1.0)]. The wire rows reach Proto's
   guard as far as a NaN can: it renders as null, which the decoder
   refuses before the range check. *)
let test_range_guards_reject_nan () =
  let u = Core.Universe.of_pairs [ (0.5, 0.1); (0.2, 0.3) ] in
  let space () =
    let profile = Demandspace.Profile.uniform ~size:100 in
    let r = Demandspace.Region.interval ~space_size:100 ~lo:0 ~hi:9 in
    Demandspace.Space.create ~profile ~faults:[| (r, 0.4) |]
  in
  let vote = Core.Voting.vote ~required:1 in
  let invalid msg f =
    ( msg,
      fun () ->
        match f () with
        | () -> Error "accepted"
        | exception Invalid_argument m -> if m = msg then Ok () else Error m )
  in
  let wire field ps qs =
    let line =
      Serve.Proto.render_request
        { Serve.Proto.id = "nan"; u = { ps; qs }; verb = Serve.Proto.Moments }
    in
    let msg = Printf.sprintf "field %S: non-finite entry" field in
    ( msg,
      fun () ->
        match Serve.Proto.parse_line line with
        | Error m when m = msg -> Ok ()
        | Error m -> Error m
        | Ok _ -> Error "accepted" )
  in
  let rows =
    [
      ( "Littlewood_miller.create",
        invalid "Littlewood_miller.create: probs_a outside [0, 1]" (fun () ->
            ignore
              (Baselines.Littlewood_miller.create (space ()) ~probs_a:[| nan |]
                 ~probs_b:[| 0.5 |])) );
      ( "Transform.partial",
        invalid "Transform.partial: fraction outside [0, 1]" (fun () ->
            ignore (Demandspace.Transform.partial (rng0 ()) 8 ~fraction:nan)) );
      ( "Robustness.worst_case_mu2",
        invalid "Robustness.worst_case_mu2: epsilon outside [0, 1]" (fun () ->
            ignore (Demandspace.Robustness.worst_case_mu2 (space ()) ~epsilon:nan)) );
      ( "Devteam.adjudicated_system_pfd",
        invalid "Devteam.adjudicated_system_pfd: detection outside [0, 1]"
          (fun () ->
            ignore
              (Simulator.Devteam.adjudicated_system_pfd ~detection:nan (rng0 ())
                 (Simulator.Devteam.compile u) ~channels:2 ~adjudicator:vote)) );
      ( "Campaign.mission_survival_probability",
        invalid "Campaign.mission_survival_probability: pfd outside [0, 1]"
          (fun () ->
            ignore
              (Simulator.Campaign.mission_survival_probability ~pfd:nan
                 ~mission_demands:10)) );
      ( "Hatton.compare_at",
        invalid "Hatton.compare_at: improvement factor must lie in [0, 1]"
          (fun () ->
            ignore (Baselines.Hatton.compare_at u ~improvement_factor:nan ~k:2.0)) );
      ( "Forced.complementary",
        invalid "Forced.complementary: strength outside [0, 1]" (fun () ->
            ignore (Extensions.Forced.complementary (rng0 ()) u ~strength:nan)) );
      ( "Testing_process.directed_testing",
        invalid "Testing_process.directed_testing: detection outside [0, 1]"
          (fun () ->
            ignore
              (Extensions.Testing_process.directed_testing u
                 ~detection:[| 0.5; nan |] ~cycles:1)) );
      ( "Sim.adjudicated",
        invalid "Sim.adjudicated: detection outside [0, 1]" (fun () ->
            ignore
              (Check.Sim.adjudicated (rng0 ()) u ~channels:2 ~detection:nan
                 ~adjudicator:vote ~replications:1)) );
      ( "Bounds.sigma_ratio_bound",
        invalid "Bounds.sigma_ratio_bound: pmax outside [0, 1]" (fun () ->
            ignore (Core.Bounds.sigma_ratio_bound nan)) );
      ( "Pfd_dist.quantile",
        invalid "Pfd_dist.quantile: alpha outside [0, 1]" (fun () ->
            let d = Core.Pfd_dist.exact_of_vectors ~probs:[| 0.5 |] ~values:[| 0.1 |] () in
            ignore (Core.Pfd_dist.quantile d nan)) );
      ( "Bayes.demands_for_confidence",
        invalid "Bayes.demands_for_confidence: confidence outside (0, 1)"
          (fun () ->
            ignore
              (Extensions.Bayes.demands_for_confidence
                 (Extensions.Bayes.of_mass [ (0.01, 1.0) ])
                 ~bound:0.01 ~confidence:nan ~max_demands:10)) );
      ( "Beta_prior.create",
        invalid "Beta_prior.create: shapes must be positive" (fun () ->
            ignore (Extensions.Beta_prior.create ~a:nan ~b:1.0)) );
      ( "Beta_prior.moment_matched",
        invalid "Beta_prior.moment_matched: degenerate distribution" (fun () ->
            (* -inf and +inf with equal mass: a NaN mean *)
            ignore
              (Extensions.Beta_prior.moment_matched
                 (Core.Pfd_dist.of_mass
                    [ (neg_infinity, 0.5); (infinity, 0.5) ]))) );
      ( "Beta_prior.demands_for_confidence",
        invalid "Beta_prior.demands_for_confidence: confidence outside (0, 1)"
          (fun () ->
            ignore
              (Extensions.Beta_prior.demands_for_confidence
                 Extensions.Beta_prior.uniform ~bound:0.01 ~confidence:nan
                 ~max_demands:10)) );
      ( "Profile.peaked",
        invalid "Profile.peaked: mass must lie strictly in (0, 1)" (fun () ->
            ignore (Demandspace.Profile.peaked ~size:4 ~peak:0 ~mass:nan)) );
      ( "Sprt.create",
        invalid "Sprt.create: error rates must lie strictly in (0, 1)"
          (fun () ->
            ignore
              (Simulator.Sprt.create ~theta0:0.01 ~theta1:0.1 ~alpha:nan
                 ~beta:0.05)) );
      ( "Normal_dist.ppf",
        invalid "Normal_dist.ppf: p must lie strictly inside (0, 1)" (fun () ->
            ignore (Numerics.Normal_dist.ppf nan)) );
      ( "Betainc.regularized",
        invalid "Betainc.regularized: shapes must be positive" (fun () ->
            ignore (Numerics.Betainc.regularized ~a:nan ~b:1.0 0.5)) );
      ( "Sampler.beta",
        invalid "Sampler.beta: shapes must be positive" (fun () ->
            ignore (Numerics.Sampler.beta (rng0 ()) ~a:1.0 ~b:nan)) );
      ( "Tail_bound.guaranteed_bound_single",
        invalid "Tail_bound.guaranteed_bound_single: confidence outside (0, 1)"
          (fun () ->
            ignore (Core.Tail_bound.guaranteed_bound_single u ~confidence:nan))
      );
      ( "Tail_bound.guaranteed_bound_pair",
        invalid "Tail_bound.guaranteed_bound_pair: confidence outside (0, 1)"
          (fun () ->
            ignore (Core.Tail_bound.guaranteed_bound_pair u ~confidence:nan)) );
      ( "Universe.uniform_random",
        invalid "Universe.uniform_random: total_q must lie in (0, 1]"
          (fun () ->
            ignore
              (Core.Universe.uniform_random (rng0 ()) ~n:3 ~p_lo:0.1 ~p_hi:0.2
                 ~total_q:nan)) );
      ( "Universe.power_law_random",
        invalid "Universe.power_law_random: total_q must lie in (0, 1]"
          (fun () ->
            ignore
              (Core.Universe.power_law_random (rng0 ()) ~n:3 ~p_lo:0.1
                 ~p_hi:0.2 ~q_exponent:(-1.0) ~total_q:nan)) );
      ( "Universe.dirichlet_random",
        invalid "Universe.dirichlet_random: total_q must lie in (0, 1]"
          (fun () ->
            ignore
              (Core.Universe.dirichlet_random (rng0 ()) ~n:3 ~p_lo:0.1
                 ~p_hi:0.2 ~alpha:1.0 ~total_q:nan)) );
      ( "Assessment.assess",
        invalid "Assessment.assess: confidence must lie strictly in (0, 1)"
          (fun () ->
            ignore
              (Core.Assessment.assess u ~required_bound:0.01 ~confidence:nan))
      );
      ( "Sensitivity.stationary_p1",
        invalid "Sensitivity.stationary_p1: p2 must lie strictly in (0, 1)"
          (fun () -> ignore (Core.Sensitivity.stationary_p1 ~p2:nan)) );
      (* One-sided "must be positive" guards, written [not (x > 0.0)]. *)
      ( "Normal_dist.pdf ~sigma",
        invalid "Normal_dist.pdf: sigma must be positive" (fun () ->
            ignore (Numerics.Normal_dist.pdf ~sigma:nan 0.0)) );
      ( "Normal_dist.cdf ~sigma",
        invalid "Normal_dist.cdf: sigma must be positive" (fun () ->
            ignore (Numerics.Normal_dist.cdf ~sigma:nan 0.0)) );
      ( "Normal_dist.sf ~sigma",
        invalid "Normal_dist.sf: sigma must be positive" (fun () ->
            ignore (Numerics.Normal_dist.sf ~sigma:nan 0.0)) );
      ( "Normal_dist.ppf ~sigma",
        invalid "Normal_dist.ppf: sigma must be positive" (fun () ->
            ignore (Numerics.Normal_dist.ppf ~sigma:nan 0.5)) );
      ( "Sampler.exponential",
        invalid "Sampler.exponential: rate must be positive" (fun () ->
            ignore (Numerics.Sampler.exponential (rng0 ()) ~rate:nan)) );
      ( "Sampler.gamma",
        invalid "Sampler.gamma: shape must be positive" (fun () ->
            ignore (Numerics.Sampler.gamma (rng0 ()) ~shape:nan)) );
      (* Knuth's product never meets a NaN threshold, and halving an
         infinite rate never ends: both used to recurse without end. *)
      ( "Sampler.poisson",
        invalid "Sampler.poisson: rate must be finite and non-negative"
          (fun () -> ignore (Numerics.Sampler.poisson (rng0 ()) ~lambda:nan)) );
      ( "Sampler.poisson infinite",
        invalid "Sampler.poisson: rate must be finite and non-negative"
          (fun () ->
            ignore (Numerics.Sampler.poisson (rng0 ()) ~lambda:infinity)) );
      ( "Grid.arange",
        invalid "Grid.arange: step must be positive" (fun () ->
            ignore (Numerics.Grid.arange ~lo:0.0 ~hi:1.0 ~step:nan)) );
      ( "Assessment.assess ~required_bound",
        invalid "Assessment.assess: required bound must be positive"
          (fun () ->
            ignore
              (Core.Assessment.assess u ~required_bound:nan ~confidence:0.9)) );
      ( "Assessment.required_pmax_for_bound ~single_bound",
        invalid
          "Assessment.required_pmax_for_bound: single_bound must be positive"
          (fun () ->
            ignore
              (Core.Assessment.required_pmax_for_bound ~single_bound:nan
                 ~required_bound:0.01)) );
      ( "Assessment.required_pmax_for_bound ~required_bound",
        invalid "Assessment.required_pmax_for_bound: required_bound is NaN"
          (fun () ->
            ignore
              (Core.Assessment.required_pmax_for_bound ~single_bound:0.1
                 ~required_bound:nan)) );
      ( "Universe.high_quality",
        invalid "Universe.high_quality: expected_faults must be positive"
          (fun () ->
            ignore
              (Core.Universe.high_quality (rng0 ()) ~n:3 ~expected_faults:nan
                 ~total_q:0.5)) );
      ("Proto p", wire "p" [| 0.5; nan |] [| 0.1; 0.2 |]);
      ("Proto q", wire "q" [| 0.5; 0.2 |] [| nan; 0.2 |]);
    ]
  in
  let failures =
    List.filter_map
      (fun (site, (msg, f)) ->
        match f () with
        | Ok () -> None
        | Error got -> Some (Printf.sprintf "%s with NaN: want %S, got %S" site msg got))
      rows
  in
  if failures <> [] then Alcotest.fail (String.concat "\n" failures)

let test_sigma_ratio_extremes () =
  Prop.check_close "pmax 0" 0.0 (Core.Bounds.sigma_ratio_bound 0.0);
  Prop.check_close ~eps:1e-12 "pmax 1" (sqrt 2.0) (Core.Bounds.sigma_ratio_bound 1.0)

let test_degenerate_normal_bound () =
  (* all p = 1: sigma = 0, so mu + k sigma = mu without touching the CDF. *)
  let u = Core.Universe.homogeneous ~n:3 ~p:1.0 ~q:0.1 in
  Prop.check_close "bound collapses to the mean" 0.3
    (Core.Normal_approx.single_bound u ~k:2.33)

let test_voting_single_channel () =
  let u = Core.Universe.of_pairs [ (0.5, 0.1) ] in
  let v = Core.Voting.create ~channels:1 ~required:1 in
  Prop.check_close "1oo1 defeat probability is p" 0.5
    (Core.Voting.fault_defeats_system v ~p:0.5);
  Prop.check_close "1oo1 mean is mu1" (Core.Moments.mu1 u) (Core.Voting.mu v u)

let test_estimator_fault_never_seen () =
  let obs = Core.Estimator.observe ~n_faults:3 [| [ 0 ]; [ 0 ] |] in
  let p = Core.Estimator.p_hat obs in
  Prop.check_close "unseen fault estimated 0" 0.0 p.(2);
  (* plug-in universe accepts the zero and the never-seen fault simply
     drops out of the predictions *)
  let u = Core.Estimator.plug_in_universe obs ~qs:[| 0.1; 0.1; 0.1 |] in
  Prop.check_close "plug-in mu1" 0.1 (Core.Moments.mu1 u)

(* ------------------------------------------------------------------ *)
(* demandspace / simulator boundaries                                  *)
(* ------------------------------------------------------------------ *)

let test_version_duplicate_faults () =
  let profile = Demandspace.Profile.uniform ~size:50 in
  let r = Demandspace.Region.interval ~space_size:50 ~lo:0 ~hi:4 in
  let space = Demandspace.Space.create ~profile ~faults:[| (r, 0.5) |] in
  let v = Demandspace.Version.create space [ 0; 0; 0 ] in
  Alcotest.(check (list int)) "duplicates collapse" [ 0 ]
    (Demandspace.Version.present_faults v);
  Prop.check_close "pfd counted once" 0.1 (Demandspace.Version.pfd v)

let test_certain_process_space () =
  let rng = rng0 () in
  let profile = Demandspace.Profile.uniform ~size:50 in
  let r = Demandspace.Region.interval ~space_size:50 ~lo:0 ~hi:4 in
  let space = Demandspace.Space.create ~profile ~faults:[| (r, 1.0) |] in
  for _ = 1 to 20 do
    let v = Simulator.Devteam.develop rng space in
    Alcotest.(check (list int)) "certain fault always present" [ 0 ]
      (Demandspace.Version.present_faults v)
  done

let test_runner_single_demand () =
  let rng = rng0 () in
  let profile = Demandspace.Profile.uniform ~size:10 in
  let r = Demandspace.Region.interval ~space_size:10 ~lo:0 ~hi:9 in
  let space = Demandspace.Space.create ~profile ~faults:[| (r, 1.0) |] in
  let v = Demandspace.Version.create space [ 0 ] in
  let system =
    Simulator.Protection.one_out_of_two
      (Simulator.Channel.create ~name:"A" v)
      (Simulator.Channel.create ~name:"B" v)
  in
  let stats = Simulator.Runner.run rng ~system ~demand_count:1 in
  Alcotest.(check int) "one demand, one failure (pfd 1 system)" 1
    stats.Simulator.Runner.system_failures

let test_transform_size_one () =
  let t = Demandspace.Transform.identity 1 in
  Alcotest.(check int) "singleton space" 0 (Demandspace.Transform.apply t 0)

(* ------------------------------------------------------------------ *)
(* extensions boundaries                                               *)
(* ------------------------------------------------------------------ *)

let test_bayes_point_prior () =
  let t = Extensions.Bayes.of_mass [ (0.0, 1.0) ] in
  let post = Extensions.Bayes.observe_failure_free t ~demands:1_000_000 in
  Prop.check_close "perfect prior survives any failure-free run" 1.0
    (Extensions.Bayes.prob_at_most post 0.0);
  Prop.check_close "mean stays 0" 0.0 (Extensions.Bayes.mean post)

let test_correlated_cluster_bigger_than_universe () =
  let u = Core.Universe.of_pairs [ (0.3, 0.1); (0.2, 0.2) ] in
  (* cluster_size larger than n: one cluster holding everything. *)
  let m =
    Extensions.Correlated.of_universe_with_shock u ~cluster_size:10
      ~shock_prob:0.2 ~lift:1.5
  in
  Alcotest.(check int) "all faults in one cluster" 2
    (Extensions.Correlated.fault_count m);
  Prop.check_close ~eps:1e-12 "marginals preserved" (Core.Moments.mu1 u)
    (Extensions.Correlated.mu1 m)

let test_forced_extreme_processes () =
  let f =
    Extensions.Forced.create ~qs:[| 0.2 |] ~pa:[| 1.0 |] ~pb:[| 0.0 |]
  in
  Prop.check_close "a certain and an impossible process never share" 0.0
    (Extensions.Forced.mu_pair f);
  Prop.check_close "no common fault, certainly" 1.0
    (Extensions.Forced.p_no_common_fault f)

let test_testing_huge_campaign () =
  let u = Core.Universe.of_pairs [ (0.5, 0.1); (0.2, 0.3) ] in
  let u' =
    Extensions.Testing_process.operational_testing u ~demands:10_000_000
  in
  Alcotest.(check bool) "long testing drives mu1 to ~0" true
    (Core.Moments.mu1 u' < 1e-30)

let () =
  Alcotest.run "edge-cases"
    [
      ( "numerics",
        [
          Alcotest.test_case "erf switch continuity" `Quick test_erf_switch_continuity;
          Alcotest.test_case "normal deep tails" `Quick test_normal_ppf_deep_tails;
          Alcotest.test_case "rng bound one" `Quick test_rng_int_bound_one;
          Alcotest.test_case "bitset word boundaries" `Quick
            test_bitset_word_boundaries;
          Alcotest.test_case "alias extreme weights" `Quick test_alias_extreme_weights;
          Alcotest.test_case "kahan cancellation" `Quick
            test_kahan_catastrophic_cancellation;
          Alcotest.test_case "logsumexp -inf" `Quick test_logsumexp_with_neg_infinity;
          Alcotest.test_case "poisson extremes" `Slow test_poisson_extremes;
          Alcotest.test_case "grid arange" `Quick test_grid_arange;
        ] );
      ( "core",
        [
          Alcotest.test_case "certain fault" `Quick test_certain_fault;
          Alcotest.test_case "impossible fault" `Quick test_impossible_fault;
          Alcotest.test_case "zero-measure fault" `Quick test_zero_measure_fault;
          Alcotest.test_case "all faults impossible" `Quick test_all_faults_impossible;
          Alcotest.test_case "factor-zero improvement" `Quick
            test_improvement_factor_zero;
          Alcotest.test_case "poisson-binomial certain faults" `Quick
            test_poisson_binomial_with_certain_faults;
          Alcotest.test_case "grid with null region" `Quick
            test_grid_dist_with_null_region;
          Alcotest.test_case "pfd_dist input policy" `Quick
            test_pfd_dist_rejects_out_of_range;
          Alcotest.test_case "range guards reject NaN" `Quick
            test_range_guards_reject_nan;
          Alcotest.test_case "sigma ratio extremes" `Quick test_sigma_ratio_extremes;
          Alcotest.test_case "degenerate normal bound" `Quick
            test_degenerate_normal_bound;
          Alcotest.test_case "voting single channel" `Quick test_voting_single_channel;
          Alcotest.test_case "estimator unseen fault" `Quick
            test_estimator_fault_never_seen;
        ] );
      ( "demandspace-simulator",
        [
          Alcotest.test_case "duplicate faults" `Quick test_version_duplicate_faults;
          Alcotest.test_case "certain process" `Quick test_certain_process_space;
          Alcotest.test_case "single demand run" `Quick test_runner_single_demand;
          Alcotest.test_case "transform size one" `Quick test_transform_size_one;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "point prior" `Quick test_bayes_point_prior;
          Alcotest.test_case "oversized cluster" `Quick
            test_correlated_cluster_bigger_than_universe;
          Alcotest.test_case "extreme forced processes" `Quick
            test_forced_extreme_processes;
          Alcotest.test_case "huge test campaign" `Quick test_testing_huge_campaign;
        ] );
    ]
