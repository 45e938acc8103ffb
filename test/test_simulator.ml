(* Tests for the protection-system simulator. *)

let rng0 () = Numerics.Rng.create ~seed:4242

let make_space () =
  let profile = Demandspace.Profile.uniform ~size:200 in
  let r1 = Demandspace.Region.interval ~space_size:200 ~lo:0 ~hi:19 in
  let r2 = Demandspace.Region.interval ~space_size:200 ~lo:50 ~hi:59 in
  let r3 = Demandspace.Region.points ~space_size:200 [ 100; 150 ] in
  Demandspace.Space.create ~profile
    ~faults:[| (r1, 0.4); (r2, 0.25); (r3, 0.6) |]

(* ------------------------------------------------------------------ *)
(* Devteam                                                             *)
(* ------------------------------------------------------------------ *)

let test_devteam_frequencies () =
  let rng = rng0 () in
  let u = Core.Universe.of_pairs [ (0.4, 0.1); (0.25, 0.1); (0.6, 0.1) ] in
  let counts = Array.make 3 0 in
  let n = 50_000 in
  for _ = 1 to n do
    List.iter
      (fun i -> counts.(i) <- counts.(i) + 1)
      (Simulator.Devteam.sample_fault_set rng u)
  done;
  Prop.check_close ~eps:0.01 "fault 0 at p0" 0.4
    (float_of_int counts.(0) /. float_of_int n);
  Prop.check_close ~eps:0.01 "fault 1 at p1" 0.25
    (float_of_int counts.(1) /. float_of_int n);
  Prop.check_close ~eps:0.01 "fault 2 at p2" 0.6
    (float_of_int counts.(2) /. float_of_int n)

let test_devteam_version_pfd () =
  let rng = rng0 () in
  let u = Core.Universe.of_pairs [ (0.5, 0.2); (0.5, 0.3) ] in
  let c = Simulator.Devteam.compile u in
  let acc = Numerics.Welford.create () in
  for _ = 1 to 50_000 do
    Numerics.Welford.add acc (Simulator.Devteam.version_pfd rng c)
  done;
  Prop.check_close ~eps:0.005 "mean version PFD = mu1" (Core.Moments.mu1 u)
    (Numerics.Welford.mean acc)

let test_devteam_pair_pfd () =
  let rng = rng0 () in
  let u = Core.Universe.of_pairs [ (0.5, 0.2); (0.3, 0.3) ] in
  let c = Simulator.Devteam.compile u in
  let acc = Numerics.Welford.create () in
  for _ = 1 to 50_000 do
    let _, _, pair = Simulator.Devteam.pair_pfd rng c in
    Numerics.Welford.add acc pair
  done;
  Prop.check_close ~eps:0.005 "mean pair PFD = mu2" (Core.Moments.mu2 u)
    (Numerics.Welford.mean acc)

let test_devteam_develop () =
  let rng = rng0 () in
  let space = make_space () in
  let v = Simulator.Devteam.develop rng space in
  List.iter
    (fun i -> if i < 0 || i > 2 then Alcotest.fail "fault index out of range")
    (Demandspace.Version.present_faults v)

(* ------------------------------------------------------------------ *)
(* Channel / Adjudicator / Protection                                  *)
(* ------------------------------------------------------------------ *)

let test_channel_respond () =
  let space = make_space () in
  let v = Demandspace.Version.create space [ 0 ] in
  let c = Simulator.Channel.create ~name:"A" v in
  Alcotest.check Prop.decision "fails inside its region" Core.Voting.No_action
    (Check.Reference.respond c (Demandspace.Demand.of_int 5));
  Alcotest.check Prop.decision "shuts down elsewhere" Core.Voting.Shutdown
    (Check.Reference.respond c (Demandspace.Demand.of_int 120));
  Prop.check_close ~eps:1e-12 "channel pfd" 0.1 (Simulator.Channel.pfd c)

let test_adjudicator_truth_table () =
  let open Core.Voting in
  let adj = vote ~required:1 and combine = Check.Reference.combine in
  Alcotest.check Prop.decision "both good" Shutdown
    (combine adj [ Shutdown; Shutdown ]);
  Alcotest.check Prop.decision "first fails" Shutdown
    (combine adj [ No_action; Shutdown ]);
  Alcotest.check Prop.decision "second fails" Shutdown
    (combine adj [ Shutdown; No_action ]);
  Alcotest.check Prop.decision "both fail" No_action
    (combine adj [ No_action; No_action ]);
  Alcotest.(check bool) "system fails only when all fail" true
    (Check.Reference.system_fails adj [ No_action; No_action ]);
  Alcotest.check_raises "empty outputs"
    (Invalid_argument "Reference.combine: no channel outputs") (fun () ->
      ignore (combine adj []))

let test_protection_pfd () =
  let space = make_space () in
  let a = Demandspace.Version.create space [ 0; 1 ] in
  let b = Demandspace.Version.create space [ 1; 2 ] in
  let system =
    Simulator.Protection.one_out_of_two
      (Simulator.Channel.create ~name:"A" a)
      (Simulator.Channel.create ~name:"B" b)
  in
  Prop.check_close ~eps:1e-12 "system pfd = common fault measure" 0.05
    (Simulator.Protection.true_pfd system);
  Prop.check_close ~eps:1e-12 "matches Version.pair_pfd"
    (Demandspace.Version.pair_pfd a b)
    (Simulator.Protection.true_pfd system);
  (* The system fails exactly on demands where both channels fail. *)
  Alcotest.(check bool) "fails on shared region" true
    (Simulator.Protection.fails_on system (Demandspace.Demand.of_int 55));
  Alcotest.(check bool) "survives single-channel fault" false
    (Simulator.Protection.fails_on system (Demandspace.Demand.of_int 5))

let test_protection_three_channels () =
  let space = make_space () in
  let mk faults = Simulator.Channel.create ~name:"x" (Demandspace.Version.create space faults) in
  let system = Simulator.Protection.create [ mk [ 0 ]; mk [ 0; 1 ]; mk [ 0; 2 ] ] in
  Prop.check_close ~eps:1e-12 "1oo3 pfd = triple intersection" 0.1
    (Simulator.Protection.true_pfd system)

(* Channels over demand spaces of different sizes cannot form a system:
   a smaller later channel would raise mid-simulation and a larger one
   would have its extra demands ignored. Both orders are rejected. *)
let test_protection_space_mismatch () =
  let small =
    let space =
      Demandspace.Space.create
        ~profile:(Demandspace.Profile.uniform ~size:100)
        ~faults:
          [| (Demandspace.Region.interval ~space_size:100 ~lo:0 ~hi:9, 0.5) |]
    in
    Simulator.Channel.create ~name:"small"
      (Demandspace.Version.create space [ 0 ])
  in
  let large =
    Simulator.Channel.create ~name:"large"
      (Demandspace.Version.create (make_space ()) [ 0 ])
  in
  let mismatch =
    Invalid_argument "Protection.create: channels over different demand spaces"
  in
  Alcotest.check_raises "smaller channel first" mismatch (fun () ->
      ignore (Simulator.Protection.one_out_of_two small large));
  Alcotest.check_raises "larger channel first" mismatch (fun () ->
      ignore (Simulator.Protection.one_out_of_two large small))

(* ------------------------------------------------------------------ *)
(* Adjudication calculus                                               *)
(* ------------------------------------------------------------------ *)

let test_decision_equal () =
  let open Core.Voting in
  let decisions = [ Shutdown; No_action; Abstain ] in
  (* equal_decision must agree with structural equality on the whole
     3x3 table *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Format.asprintf "equal %a %a" Prop.pp_decision a Prop.pp_decision
               b)
            (a = b) (equal_decision a b))
        decisions)
    decisions

let test_channel_abstain () =
  let space = make_space () in
  let v = Demandspace.Version.create space [ 0 ] in
  (* self-check covering the whole failure region: every failure becomes
     an abstention *)
  let self_check = Demandspace.Version.failure_set v in
  let c = Simulator.Channel.create ~self_check ~name:"A" v in
  Alcotest.check Prop.decision "abstains on a detected fault"
    Core.Voting.Abstain
    (Check.Reference.respond c (Demandspace.Demand.of_int 5));
  Alcotest.check Prop.decision "shuts down on clean demands"
    Core.Voting.Shutdown
    (Check.Reference.respond c (Demandspace.Demand.of_int 120));
  let abstains channel =
    Numerics.Bitset.mem
      (Simulator.Protection.abstain_set
         (Simulator.Protection.create [ channel ]))
      5
  in
  Alcotest.(check bool) "abstain set covers the detected region" true
    (abstains c);
  (* a plain channel on the same version never abstains *)
  let plain = Simulator.Channel.create ~name:"B" v in
  Alcotest.check Prop.decision "undetected failure is silent"
    Core.Voting.No_action
    (Check.Reference.respond plain (Demandspace.Demand.of_int 5));
  Alcotest.(check bool) "plain abstain set is empty" false (abstains plain);
  Alcotest.check_raises "mis-sized self-check"
    (Invalid_argument "Channel.create: self-check set sized to a different space")
    (fun () ->
      ignore
        (Simulator.Channel.create
           ~self_check:(Numerics.Bitset.create 7)
           ~name:"C" v))

let test_calculus_truth_tables () =
  let open Core.Voting in
  let combine = Check.Reference.combine in
  let sd = Shutdown and na = No_action and ab = Abstain in
  (* unit passes the verdict lattice through (any shutdown wins) *)
  Alcotest.check Prop.decision "unit keeps shutdown" sd (combine Unit [ sd; na ]);
  Alcotest.check Prop.decision "unit keeps abstain" ab (combine Unit [ ab ]);
  (* vote thresholds over mixed vectors: quorum met, lost, and broken *)
  let v2 = vote ~required:2 in
  Alcotest.check Prop.decision "2oo3 quorum met" sd (combine v2 [ sd; sd; na ]);
  Alcotest.check Prop.decision "2oo3 outvoted" na (combine v2 [ sd; na; na ]);
  Alcotest.check Prop.decision "2oo3 quorum broken by abstention" ab
    (combine v2 [ sd; ab; ab ]);
  (* the graceful-degradation cascade: a fallback OR rescues the vote *)
  let cascade = fallback v2 (vote ~required:1) in
  Alcotest.check Prop.decision "fallback rescues the broken quorum" sd
    (combine cascade [ sd; ab; ab ]);
  Alcotest.check Prop.decision "fallback does not fire on a definite verdict" na
    (combine cascade [ sd; na; na ]);
  (* compose cascades the survivors of the first stage *)
  let two_stage = compose v2 (vote ~required:1) in
  Alcotest.check Prop.decision "compose collapses the vote's verdict" sd
    (combine two_stage [ sd; sd; na ]);
  Alcotest.(check int) "min_channels of a vote" 2 (policy_min_channels v2);
  Alcotest.(check int) "min_channels of the cascade" 1
    (policy_min_channels cascade);
  Alcotest.(check bool) "terms compare structurally" true
    (equal_policy cascade (fallback (vote ~required:2) (vote ~required:1)));
  Alcotest.check_raises "vote threshold must be positive"
    (Invalid_argument "Voting.vote: required must be >= 1")
    (fun () -> ignore (vote ~required:0));
  Alcotest.check_raises "arity check"
    (Invalid_argument "Reference.combine: more votes required than channels")
    (fun () -> ignore (combine v2 [ sd ]))

let test_cascade_protection () =
  let space = make_space () in
  let va = Demandspace.Version.create space [ 0 ] in
  let vb = Demandspace.Version.create space [ 1 ] in
  let a =
    Simulator.Channel.create
      ~self_check:(Demandspace.Version.failure_set va)
      ~name:"A" va
  in
  let b = Simulator.Channel.create ~name:"B" vb in
  (* a demand in A's fault region: A abstains, B shuts down *)
  let d = Demandspace.Demand.of_int 5 in
  let strict = Simulator.Protection.create ~adjudicator:(Core.Voting.vote ~required:2) [ a; b ] in
  Alcotest.check Prop.decision "2oo2 loses its quorum" Core.Voting.Abstain
    (Simulator.Protection.respond strict d);
  Alcotest.(check bool) "2oo2 counts it as a system failure" true
    (Simulator.Protection.fails_on strict d);
  let graceful =
    Simulator.Protection.create
      ~adjudicator:
        Core.Voting.(fallback (vote ~required:2) (vote ~required:1))
      [ a; b ]
  in
  Alcotest.check Prop.decision "the cascade degrades to the surviving channel"
    Core.Voting.Shutdown
    (Simulator.Protection.respond graceful d);
  Alcotest.(check bool) "and handles the demand" false
    (Simulator.Protection.fails_on graceful d)

let test_runner_abstentions () =
  let rng = rng0 () in
  let space = make_space () in
  let v = Demandspace.Version.create space [ 0 ] in
  (* a single fully self-checking channel: every failure surfaces as a
     lost quorum, so the runner must attribute every system failure to an
     abstention *)
  let c =
    Simulator.Channel.create
      ~self_check:(Demandspace.Version.failure_set v)
      ~name:"A" v
  in
  let system = Simulator.Protection.create [ c ] in
  let stats = Simulator.Runner.run rng ~system ~demand_count:2000 in
  Alcotest.(check bool) "some demands hit the fault region" true
    (stats.Simulator.Runner.system_failures > 0);
  Alcotest.(check int) "every system failure is an abstention"
    stats.Simulator.Runner.system_failures
    stats.Simulator.Runner.system_abstentions;
  (* the same system without self-checking fails identically often on
     the same demand stream (the verdict changes, not the failure set) *)
  let rng' = rng0 () in
  let plain =
    Simulator.Protection.create [ Simulator.Channel.create ~name:"A" v ]
  in
  let stats' = Simulator.Runner.run rng' ~system:plain ~demand_count:2000 in
  Alcotest.(check int) "failure count matches the silent system"
    stats'.Simulator.Runner.system_failures
    stats.Simulator.Runner.system_failures;
  Alcotest.(check int) "silent system never abstains" 0
    stats'.Simulator.Runner.system_abstentions

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let test_runner_empirical_pfd () =
  let rng = rng0 () in
  let space = make_space () in
  let a = Demandspace.Version.create space [ 0; 1 ] in
  let b = Demandspace.Version.create space [ 1 ] in
  let system =
    Simulator.Protection.one_out_of_two
      (Simulator.Channel.create ~name:"A" a)
      (Simulator.Channel.create ~name:"B" b)
  in
  let stats = Simulator.Runner.run rng ~system ~demand_count:100_000 in
  let truth = Simulator.Protection.true_pfd system in
  Prop.check_close ~eps:0.005 "empirical pfd converges" truth
    stats.Simulator.Runner.estimated_pfd;
  let lo, hi = stats.Simulator.Runner.pfd_ci in
  Alcotest.(check bool) "CI contains truth" true (lo <= truth && truth <= hi);
  Alcotest.(check int) "demand count recorded" 100_000 stats.Simulator.Runner.demands;
  (* channel A contains fault 0 and 1: pfd 0.15 *)
  let est = Simulator.Runner.channel_pfd_estimates stats in
  Prop.check_close ~eps:0.01 "channel A empirical pfd" 0.15 est.(0)

let test_runner_coincident () =
  let rng = rng0 () in
  let space = make_space () in
  let v = Demandspace.Version.create space [ 0 ] in
  let system =
    Simulator.Protection.one_out_of_two
      (Simulator.Channel.create ~name:"A" v)
      (Simulator.Channel.create ~name:"B" v)
  in
  let stats = Simulator.Runner.run rng ~system ~demand_count:20_000 in
  Alcotest.(check int) "identical channels fail coincidentally"
    stats.Simulator.Runner.system_failures stats.Simulator.Runner.coincident_failures

(* ------------------------------------------------------------------ *)
(* Montecarlo                                                          *)
(* ------------------------------------------------------------------ *)

let test_montecarlo_estimate () =
  let rng = rng0 () in
  let u = Core.Universe.of_pairs [ (0.3, 0.1); (0.2, 0.2); (0.4, 0.05) ] in
  let est = Simulator.Montecarlo.estimate rng u ~replications:60_000 in
  Prop.check_close ~eps:0.003 "theta1 mean" (Core.Moments.mu1 u)
    est.Simulator.Montecarlo.theta1.Numerics.Stats.mean;
  Prop.check_close ~eps:0.002 "theta2 mean" (Core.Moments.mu2 u)
    est.Simulator.Montecarlo.theta2.Numerics.Stats.mean;
  Prop.check_close ~eps:0.01 "P(N1>0)" (Core.Fault_count.p_n1_pos u)
    est.Simulator.Montecarlo.p_n1_pos;
  Prop.check_close ~eps:0.02 "risk ratio" (Core.Fault_count.risk_ratio u)
    est.Simulator.Montecarlo.risk_ratio

let test_montecarlo_sigma () =
  let rng = rng0 () in
  let u = Core.Universe.of_pairs [ (0.3, 0.1); (0.2, 0.2); (0.4, 0.05) ] in
  let est = Simulator.Montecarlo.estimate rng u ~replications:60_000 in
  Prop.check_close ~eps:0.003 "theta1 std" (Core.Moments.sigma1 u)
    est.Simulator.Montecarlo.theta1.Numerics.Stats.std

let test_version_population () =
  let rng = rng0 () in
  let space = make_space () in
  let pop = Simulator.Montecarlo.version_population rng space ~count:27 in
  Alcotest.(check int) "27 versions" 27
    (Array.length pop.Simulator.Montecarlo.version_pfds);
  Alcotest.(check int) "351 pairs" 351
    (Array.length pop.Simulator.Montecarlo.pair_pfds);
  let mean_ratio, std_ratio = Simulator.Montecarlo.knight_leveson_shape pop in
  Alcotest.(check bool) "pair mean below version mean" true (mean_ratio < 1.0);
  Alcotest.(check bool) "pair std below version std" true (std_ratio < 1.0)

(* Reproducibility regression guard: the RNG draw counter must be a pure
   function of the seed and the code path — equal seeds, equal draw
   counts, at both the abstract (universe) and concrete (demand-space)
   simulation levels. A change that breaks this silently reorders or
   adds randomness and invalidates seed-pinned experiment outputs. *)
let test_rng_draw_counts () =
  let draws_of seed =
    let rng = Numerics.Rng.create ~seed in
    let u = Core.Universe.of_pairs [ (0.3, 0.1); (0.2, 0.2); (0.4, 0.05) ] in
    ignore (Simulator.Montecarlo.estimate rng u ~replications:2_000);
    let space = make_space () in
    let va, vb = Simulator.Devteam.develop_pair rng space in
    let system =
      Simulator.Protection.one_out_of_two
        (Simulator.Channel.create ~name:"A" va)
        (Simulator.Channel.create ~name:"B" vb)
    in
    ignore (Simulator.Runner.run rng ~system ~demand_count:5_000);
    Numerics.Rng.draws rng
  in
  let d1 = draws_of 4242 and d2 = draws_of 4242 in
  Alcotest.(check int) "equal seeds give equal draw counts" d1 d2;
  Alcotest.(check bool) "draws were actually counted" true (d1 > 0);
  (* split children count their own draws from zero *)
  let parent = rng0 () in
  let child = Numerics.Rng.split parent ~index:1 in
  Alcotest.(check int) "split advances the parent once" 1
    (Numerics.Rng.draws parent);
  Alcotest.(check int) "child starts at zero" 0 (Numerics.Rng.draws child);
  ignore (Numerics.Rng.float child);
  Alcotest.(check int) "child counts independently" 1
    (Numerics.Rng.draws child)

let () =
  Alcotest.run "simulator"
    [
      ( "devteam",
        [
          Alcotest.test_case "fault frequencies" `Slow test_devteam_frequencies;
          Alcotest.test_case "version pfd mean" `Slow test_devteam_version_pfd;
          Alcotest.test_case "pair pfd mean" `Slow test_devteam_pair_pfd;
          Alcotest.test_case "develop" `Quick test_devteam_develop;
        ] );
      ( "channel-adjudicator",
        [
          Alcotest.test_case "channel respond" `Quick test_channel_respond;
          Alcotest.test_case "adjudicator truth table" `Quick
            test_adjudicator_truth_table;
          Alcotest.test_case "protection pfd" `Quick test_protection_pfd;
          Alcotest.test_case "three channels" `Quick test_protection_three_channels;
          Alcotest.test_case "channels over different spaces" `Quick
            test_protection_space_mismatch;
        ] );
      ( "adjudication-calculus",
        [
          Alcotest.test_case "decision equality" `Quick test_decision_equal;
          Alcotest.test_case "self-checking channel" `Quick test_channel_abstain;
          Alcotest.test_case "combinator truth tables" `Quick
            test_calculus_truth_tables;
          Alcotest.test_case "cascade protection" `Quick test_cascade_protection;
          Alcotest.test_case "runner abstentions" `Quick test_runner_abstentions;
        ] );
      ( "plant-runner",
        [
          Alcotest.test_case "runner empirical pfd" `Slow test_runner_empirical_pfd;
          Alcotest.test_case "coincident failures" `Quick test_runner_coincident;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "estimate matches analytic" `Slow test_montecarlo_estimate;
          Alcotest.test_case "sigma matches" `Slow test_montecarlo_sigma;
          Alcotest.test_case "version population" `Quick test_version_population;
          Alcotest.test_case "rng draw counts reproducible" `Quick
            test_rng_draw_counts;
        ] );
    ]
