(* Differential oracle suite: drives the lib/check registry over
   randomized paired scenarios, plus the deterministic satellites —
   adjudicator degenerate configurations, Appendix A golden pins, and
   mutation-power checks showing the comparators actually reject
   corrupted analytic values.

   Like every Prop-based suite, the randomized sections are a pure
   function of PROP_SEED (default 0x5eed_cafe): any reported failure is
   replayable bit-for-bit with `make prop PROP_SEED=<seed>`. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_bits what expected actual =
  Alcotest.(check int64) what expected (Int64.bits_of_float actual)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* ---- registry coverage ---- *)

let test_registry_coverage () =
  let ids = Check.Registry.ids () in
  check_bool "at least 8 oracle pairs registered" true (List.length ids >= 8);
  let sorted = List.sort_uniq String.compare ids in
  check_int "oracle ids unique" (List.length ids) (List.length sorted);
  List.iter
    (fun id ->
      match Check.Registry.find id with
      | Some o -> check_bool id true (String.equal (Check.Oracle.id o) id)
      | None -> Alcotest.failf "Registry.find %S returned None" id)
    ids;
  check_bool "find rejects unknown ids" true
    (Check.Registry.find "no-such-oracle" = None)

let test_registry_descriptions () =
  List.iter
    (fun o ->
      check_bool
        (Check.Oracle.id o ^ " has a description")
        true
        (String.length (Check.Oracle.description o) > 10))
    Check.Registry.all

(* ---- the randomized differential property ---- *)

let fail_outcomes scenario outcomes =
  Alcotest.failf "%d oracle check(s) disagreed on %s:@\n%a"
    (List.length outcomes)
    (Check.Scenario.to_string scenario)
    (Fmt.list ~sep:Fmt.cut Check.Oracle.pp_outcome)
    outcomes

(* The tentpole property: on every randomized architecture/space pair,
   every analytic quantity agrees with its independent estimator under
   the registered comparator. 100 scenarios x 13 oracles ~ 3k checks. *)
let test_differential_sweep () =
  Prop.check ~cases:100 "registry agrees on randomized scenarios"
    (Prop.scenario ())
    (fun scenario ->
      match Check.Registry.failures (Check.Registry.run_all scenario) with
      | [] -> ()
      | bad -> fail_outcomes scenario bad)

(* Verdicts are a pure function of the scenario: running the registry
   twice yields bit-identical simulated values and identical verdicts
   (per-oracle RNG salts, no shared mutable state). *)
let test_determinism () =
  Prop.check ~cases:5 "registry outcomes are deterministic"
    (Prop.scenario ~replications:400 ())
    (fun scenario ->
      let a = Check.Registry.run_all scenario in
      let b = Check.Registry.run_all scenario in
      check_int "outcome count" (List.length a) (List.length b);
      List.iter2
        (fun x y ->
          check_bits
            (x.Check.Oracle.oracle ^ "/" ^ x.quantity)
            (Int64.bits_of_float x.Check.Oracle.simulated)
            y.Check.Oracle.simulated;
          check_bool "same verdict" (Check.Oracle.passed x)
            (Check.Oracle.passed y))
        a b)

let test_sweep_summary () =
  let sweep = Check.Registry.sweep ~seed:7 ~cases:3 ~replications:400 () in
  check_bool "sweep passes" true (Check.Registry.passed sweep);
  check_int "cases" 3 sweep.Check.Registry.cases;
  check_bool "every oracle ran on every case" true
    (List.for_all (fun (_, n, _) -> n >= 3) sweep.Check.Registry.per_oracle);
  let rendered = Check.Registry.render sweep in
  check_bool "render mentions the tally" true
    (contains ~sub:"3 scenarios" rendered)

(* An oracle body that raises is one failing outcome naming the oracle
   and the exception, so the sweep lists the case with its replay seed
   instead of aborting the whole run. *)
let test_raising_oracle () =
  let oracle =
    Check.Oracle.make ~id:"raises" ~description:"a body that raises"
      (fun _ -> failwith "boom")
  in
  let scenario = Check.Scenario.generate (Numerics.Rng.create ~seed:1) in
  match Check.Oracle.run oracle scenario with
  | [ o ] ->
      check_bool "fails" false (Check.Oracle.passed o);
      Alcotest.(check string) "names the oracle" "raises" o.Check.Oracle.oracle;
      let text = Fmt.str "%a" Check.Oracle.pp_outcome o in
      check_bool ("names the exception: " ^ text) true
        (contains ~sub:"Failure(\"boom\")" text)
  | outcomes ->
      Alcotest.failf "want one outcome, got %d" (List.length outcomes)

(* ---- comparator unit behaviour ---- *)

let test_comparators () =
  check_bool "exact_bits accepts identical doubles" true
    (Check.Compare.exact_bits 0.1 0.1).Check.Compare.pass;
  check_bool "exact_bits rejects one-ulp difference" false
    (Check.Compare.exact_bits 0.1 (Float.succ 0.1)).Check.Compare.pass;
  check_bool "exact_bits rejects nan" false
    (Check.Compare.exact_bits Float.nan Float.nan).Check.Compare.pass;
  check_bool "approx tolerates rounding" true
    (Check.Compare.approx 0.3 (0.1 +. 0.2)).Check.Compare.pass;
  check_bool "approx rejects real differences" false
    (Check.Compare.approx 0.3 0.31).Check.Compare.pass;
  check_bool "wilson accepts the true proportion" true
    (Check.Compare.wilson ~expected:0.5 ~successes:249 ~trials:500 ())
      .Check.Compare.pass;
  check_bool "wilson rejects a far-off proportion" false
    (Check.Compare.wilson ~expected:0.9 ~successes:250 ~trials:500 ())
      .Check.Compare.pass;
  Alcotest.check_raises "wilson rejects empty samples"
    (Invalid_argument "Compare.wilson: trials must be positive") (fun () ->
      ignore (Check.Compare.wilson ~expected:0.5 ~successes:0 ~trials:0 ()));
  check_bool "mean_z accepts a mean within tolerance" true
    (Check.Compare.mean_z ~expected:1.0 ~sigma:0.5 ~trials:100 ~mean:1.1 ())
      .Check.Compare.pass;
  check_bool "mean_z rejects a far-off mean" false
    (Check.Compare.mean_z ~expected:1.0 ~sigma:0.5 ~trials:100 ~mean:2.0 ())
      .Check.Compare.pass;
  (* zero sigma and no bound: degrades to the float comparator *)
  check_bool "mean_z zero-sigma exact" true
    (Check.Compare.mean_z ~expected:0.25 ~sigma:0.0 ~trials:10 ~mean:0.25 ())
      .Check.Compare.pass;
  check_bool "mean_z zero-sigma rejects any gap" false
    (Check.Compare.mean_z ~expected:0.25 ~sigma:0.0 ~trials:10 ~mean:0.26 ())
      .Check.Compare.pass;
  (* the Bernstein term widens the tolerance for bounded rare events *)
  let narrow =
    Check.Compare.mean_z ~expected:0.01 ~sigma:0.001 ~trials:100 ~mean:0.012 ()
  in
  let widened =
    Check.Compare.mean_z ~bound:0.05 ~expected:0.01 ~sigma:0.001 ~trials:100
      ~mean:0.012 ()
  in
  check_bool "pure z-test rejects" false narrow.Check.Compare.pass;
  check_bool "bernstein bound accepts" true widened.Check.Compare.pass;
  check_bool "ratio_wilson inconclusive on empty denominator" true
    (Check.Compare.ratio_wilson ~expected:5.0 ~num:3 ~den:0 ~trials:50 ())
      .Check.Compare.pass;
  check_bool "ratio_wilson accepts the true ratio" true
    (Check.Compare.ratio_wilson ~expected:0.5 ~num:100 ~den:200 ~trials:400 ())
      .Check.Compare.pass;
  check_bool "ratio_wilson rejects a far-off ratio" false
    (Check.Compare.ratio_wilson ~expected:5.0 ~num:100 ~den:200 ~trials:400 ())
      .Check.Compare.pass;
  (* approx follows Stats.approx_eq on the float edge matrix *)
  List.iter
    (fun (what, a, b, expected) ->
      let agree x y = (Check.Compare.approx x y).Check.Compare.pass in
      check_bool ("approx " ^ what) expected (agree a b);
      check_bool ("approx " ^ what ^ ", swapped") expected (agree b a))
    Prop.float_edges;
  let tiny = 5e-324 in
  Alcotest.(check string) "approx nan fails the nan guard" "nan-guard"
    (Check.Compare.approx nan 1.0).Check.Compare.comparator;
  check_bool "approx subnormals within abs" true
    (Check.Compare.approx ~rel:0.0 ~abs:1e-310 tiny 1e-310).Check.Compare.pass;
  check_bool "approx subnormals outside abs" false
    (Check.Compare.approx ~rel:0.0 ~abs:1e-320 tiny 1e-310).Check.Compare.pass;
  check_bool "exact_bits +inf vs +inf" true
    (Check.Compare.exact_bits infinity infinity).Check.Compare.pass

(* Every comparator records the two values it tested: the analytic side
   as given, the simulated side as the statistic it compared. *)
let test_verdict_records_values () =
  List.iter
    (fun (what, (v : Check.Compare.verdict), analytic, simulated, pass) ->
      check_bits (what ^ ": analytic") (Int64.bits_of_float analytic) v.analytic;
      check_bits (what ^ ": simulated") (Int64.bits_of_float simulated)
        v.simulated;
      check_bool (what ^ ": pass") pass v.pass)
    Check.Compare.
      [
        ("exact_bits", exact_bits 0.25 0.5, 0.25, 0.5, false);
        ("approx", approx 0.1 0.2, 0.1, 0.2, false);
        ("nan guard", approx 1.0 nan, 1.0, nan, false);
        ("wilson", wilson ~expected:0.5 ~successes:3 ~trials:8 (), 0.5, 0.375, true);
        ( "mean_z",
          mean_z ~expected:1.0 ~sigma:0.5 ~trials:100 ~mean:1.1 (),
          1.0, 1.1, true );
        ( "ratio_wilson",
          ratio_wilson ~expected:0.5 ~num:100 ~den:200 ~trials:400 (),
          0.5, 0.5, true );
        ( "ratio_wilson, empty denominator",
          ratio_wilson ~expected:0.5 ~num:3 ~den:0 ~trials:50 (),
          0.5, nan, true );
        ("lower_bound holds", lower_bound 1.0 1.5, 1.0, 1.5, true);
        ("lower_bound slack", lower_bound 1.0 (1.0 -. 1e-13), 1.0, 1.0 -. 1e-13, true);
        ("lower_bound violated", lower_bound 1.0 0.5, 1.0, 0.5, false);
        ("same_bytes identical", same_bytes "a" "a", 1.0, 1.0, true);
        ("same_bytes different", same_bytes "a" "b", 1.0, 0.0, false);
      ]

let test_scenario_validation () =
  (* overlapping regions: the universe abstraction would be the Section
     6.2 pessimistic approximation, so Scenario.create must refuse *)
  let overlapping =
    Demandspace.Space.create
      ~profile:(Demandspace.Profile.uniform ~size:50)
      ~faults:
        [|
          (Demandspace.Region.interval ~space_size:50 ~lo:0 ~hi:9, 0.2);
          (Demandspace.Region.interval ~space_size:50 ~lo:5 ~hi:14, 0.3);
        |]
  in
  check_bool "overlap detected" false
    (Demandspace.Space.regions_disjoint overlapping);
  (try
     ignore
       (Check.Scenario.create ~arch:Core.Voting.one_out_of_two
          ~space:overlapping ~sim_seed:1 ~replications:10);
     Alcotest.fail "Scenario.create accepted an overlapping space"
   with Invalid_argument _ -> ());
  (* generation is a pure function of the rng state *)
  let s1 = Check.Scenario.generate (Numerics.Rng.create ~seed:99) in
  let s2 = Check.Scenario.generate (Numerics.Rng.create ~seed:99) in
  Alcotest.(check string)
    "generate deterministic"
    (Check.Scenario.to_string s1)
    (Check.Scenario.to_string s2);
  check_bool "generated regions disjoint" true
    (Demandspace.Space.regions_disjoint (Check.Scenario.space s1))

(* ---- adjudicator degenerate configurations ---- *)

let test_adjudicator_degenerate () =
  let open Core.Voting in
  let combine = Check.Reference.combine in
  Alcotest.check_raises "empty output list"
    (Invalid_argument "Reference.combine: no channel outputs") (fun () ->
      ignore (combine (vote ~required:1) []));
  Alcotest.check_raises "zero required votes"
    (Invalid_argument "Voting.vote: required must be >= 1")
    (fun () -> ignore (vote ~required:0));
  (try
     ignore (combine (vote ~required:3) [ Shutdown; Shutdown ]);
     Alcotest.fail "accepted more required votes than channels"
   with Invalid_argument _ -> ());
  (* single channel: the adjudicator is the identity *)
  List.iter
    (fun o ->
      check_bool "single channel passthrough" true
        (combine (vote ~required:1) [ o ] = o))
    [ Shutdown; No_action ];
  (* all-channels-required: one abstaining channel defeats the shutdown *)
  let unanimous = vote ~required:3 in
  check_bool "unanimous, all vote" true
    (combine unanimous [ Shutdown; Shutdown; Shutdown ] = Shutdown);
  check_bool "unanimous, one abstains" true
    (combine unanimous [ Shutdown; No_action; Shutdown ] = No_action);
  check_bool "system_fails tracks the combined output" true
    (Check.Reference.system_fails unanimous [ Shutdown; No_action; Shutdown ])

let test_degenerate_universes () =
  (* the model refuses an empty fault universe outright *)
  (try
     ignore (Core.Universe.of_pairs []);
     Alcotest.fail "accepted an empty universe"
   with Invalid_argument _ -> ());
  (* perfect process (p = 0 everywhere): simulated voted systems never
     carry a fault, matching mu = 0 exactly *)
  let u = Core.Universe.of_pairs [ (0.0, 0.1); (0.0, 0.2) ] in
  let arch = Core.Voting.two_out_of_three in
  let run =
    Check.Sim.voted (Numerics.Rng.create ~seed:5) u ~arch ~replications:200
  in
  Prop.check_close "mu = 0" 0.0 (Core.Voting.mu arch u);
  check_int "no system faults ever" 0 run.Check.Sim.system_faulty;
  check_int "no single faults ever" 0 run.Check.Sim.single_faulty;
  check_bool "all sampled PFDs zero" true
    (Array.for_all (fun x -> x = 0.0) run.Check.Sim.pfds);
  (* certain faults (p = 1): every channel carries every fault, any
     architecture is defeated, and the PFD is the total measure *)
  let u1 = Core.Universe.of_pairs [ (1.0, 0.1); (1.0, 0.2) ] in
  let run1 =
    Check.Sim.voted (Numerics.Rng.create ~seed:6) u1 ~arch ~replications:50
  in
  Prop.check_close "mu = total_q" (Core.Universe.total_q u1)
    (Core.Voting.mu arch u1);
  check_int "every replication system-faulty" 50 run1.Check.Sim.system_faulty;
  check_bool "every sampled PFD = total_q" true
    (Array.for_all
       (fun x -> x = Core.Universe.total_q u1)
       run1.Check.Sim.pfds)

(* ---- Appendix A golden pins ----

   The paper's Appendix A studies, for n = 2, where improving one
   channel stops paying: the risk ratio as a function of p1 at fixed p2
   has its stationary point at p1 = p2 (sqrt (2 / (1 + p2)) - 1)/(1 - p2).
   We pin the stationary point for p2 = 0.3 and every derived quantity
   of the 1-out-of-2 system on a q = (0.012, 0.02) universe to exact
   IEEE-754 bit patterns (captured from the implementation at the time
   this suite was written): any change to the voting algebra, the
   summation order, or the distribution enumeration shows up as a bit
   difference here before any statistical test can see it. *)

let golden_universe () =
  let p2 = 0.3 in
  let p1 = Core.Sensitivity.stationary_p1 ~p2 in
  (p1, p2, Core.Universe.of_pairs [ (p1, 0.012); (p2, 0.02) ])

let test_golden_stationary_point () =
  let p1, p2, u = golden_universe () in
  let arch = Core.Voting.one_out_of_two in
  check_bits "stationary p1" 0x3fba5e9a00689ec2L p1;
  check_bits "Voting.mu" 0x3f5f93c725d77ef9L (Core.Voting.mu arch u);
  check_bits "Voting.var" 0x3f01f7dd602439ebL (Core.Voting.var arch u);
  check_bits "p_some_system_fault" 0x3fb98302c23dc19bL
    (Core.Voting.p_some_system_fault arch u);
  check_bits "risk_ratio_vs_single" 0x3fd123e419dd9a6bL
    (Core.Voting.risk_ratio_vs_single arch u);
  check_bits "Sensitivity.risk_ratio_two" 0x3fd123e419dd9a68L
    (Core.Sensitivity.risk_ratio_two ~p1 ~p2);
  (* the two risk-ratio derivations agree analytically but differ in
     rounding (3 ulps here) — exactly the distinction between the
     exact-bits and approx comparator tiers *)
  check_bool "derivations agree up to rounding" true
    (Check.Compare.approx
       (Core.Voting.risk_ratio_vs_single arch u)
       (Core.Sensitivity.risk_ratio_two ~p1 ~p2))
      .Check.Compare.pass;
  (* stationarity: perturbing p1 in either direction increases the ratio *)
  let rr d = Core.Sensitivity.risk_ratio_two ~p1:(p1 +. d) ~p2 in
  check_bool "stationary point is a minimum" true
    (rr 1e-4 >= rr 0.0 && rr (-1e-4) >= rr 0.0)

let test_golden_pfd_dist () =
  let _, _, u = golden_universe () in
  let d = Core.Voting.pfd_dist Core.Voting.one_out_of_two u in
  check_int "support size" 4 (Core.Pfd_dist.size d);
  let support_bits =
    [ 0x0L; 0x3f889374bc6a7efaL; 0x3f947ae147ae147bL; 0x3fa0624dd2f1a9fcL ]
  in
  let mass_bits =
    [
      0x3feccf9fa7b847cdL;
      0x3f83c62a8ccf5468L;
      0x3fb6cba884b39009L;
      0x3f4f4a75f82382c7L;
    ]
  in
  List.iteri
    (fun i bits ->
      check_bits (Printf.sprintf "support[%d]" i) bits
        (Core.Pfd_dist.support d).(i))
    support_bits;
  List.iteri
    (fun i bits ->
      check_bits (Printf.sprintf "mass[%d]" i) bits (Core.Pfd_dist.masses d).(i))
    mass_bits

(* ---- mutation power ----

   The differential suite is only worth its runtime if a corrupted
   analytic formula actually fails it. These checks corrupt the analytic
   side the way a plausible coding slip would (wrong binomial defeat
   threshold; complement instead of probability) and assert the
   comparator rejects the corrupted value against an honest simulation —
   the in-suite half of the mutation smoke documented in
   EXPERIMENTS.md. *)

let test_mutation_power () =
  let scenario =
    Check.Scenario.create ~arch:Core.Voting.one_out_of_two
      ~space:
        (Demandspace.Space.create
           ~profile:(Demandspace.Profile.uniform ~size:100)
           ~faults:
             [|
               (Demandspace.Region.interval ~space_size:100 ~lo:0 ~hi:9, 0.35);
               (Demandspace.Region.interval ~space_size:100 ~lo:20 ~hi:34, 0.5);
               (Demandspace.Region.interval ~space_size:100 ~lo:50 ~hi:57, 0.2);
             |])
      ~sim_seed:4242 ~replications:20_000
  in
  let u = Check.Scenario.universe scenario in
  let arch = Check.Scenario.arch scenario in
  let r = Check.Scenario.replications scenario in
  let run = Check.Sim.voted (Check.Oracle.rng scenario ~salt:2) u ~arch ~replications:r in
  let mean = Numerics.Stats.mean run.Check.Sim.pfds in
  let verdict expected =
    Check.Compare.mean_z
      ~bound:(Core.Universe.total_q u)
      ~expected
      ~sigma:(Core.Voting.sigma arch u)
      ~trials:r ~mean ()
  in
  (* the honest formula passes... *)
  check_bool "honest mu accepted" true
    (verdict (Core.Voting.mu arch u)).Check.Compare.pass;
  (* ...a wrong defeat threshold (>= 1 channel instead of >= 2, i.e.
     mu1 instead of mu2 for 1-out-of-2) is rejected... *)
  check_bool "mutated defeat threshold rejected" false
    (verdict (Core.Moments.mu1 u)).Check.Compare.pass;
  (* ...as is a sign/complement slip in the event probability *)
  let honest_p = Core.Voting.p_some_system_fault arch u in
  let sys = run.Check.Sim.system_faulty in
  check_bool "honest p_some accepted" true
    (Check.Compare.wilson ~expected:honest_p ~successes:sys ~trials:r ())
      .Check.Compare.pass;
  check_bool "complement slip rejected" false
    (Check.Compare.wilson ~expected:(1.0 -. honest_p) ~successes:sys ~trials:r
       ())
      .Check.Compare.pass

let () =
  Alcotest.run "diff"
    [
      ( "registry",
        [
          Alcotest.test_case "coverage" `Quick test_registry_coverage;
          Alcotest.test_case "descriptions" `Quick test_registry_descriptions;
        ] );
      ( "differential",
        [
          Alcotest.test_case "randomized sweep" `Slow test_differential_sweep;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "sweep summary" `Quick test_sweep_summary;
          Alcotest.test_case "raising oracle fails" `Quick test_raising_oracle;
        ] );
      ( "comparators",
        [
          Alcotest.test_case "verdicts" `Quick test_comparators;
          Alcotest.test_case "verdicts record values" `Quick
            test_verdict_records_values;
          Alcotest.test_case "scenario validation" `Quick
            test_scenario_validation;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "adjudicator" `Quick test_adjudicator_degenerate;
          Alcotest.test_case "universes" `Quick test_degenerate_universes;
        ] );
      ( "golden",
        [
          Alcotest.test_case "appendix A stationary point" `Quick
            test_golden_stationary_point;
          Alcotest.test_case "pfd distribution bits" `Quick
            test_golden_pfd_dist;
        ] );
      ( "mutation",
        [ Alcotest.test_case "power" `Quick test_mutation_power ] );
    ]
