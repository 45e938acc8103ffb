(* Integration tests: cross-library consistency of the full pipeline
   (demand space -> abstract model -> simulator -> inference), plus smoke
   tests of the experiment registry and report rendering. *)

let rng0 () = Numerics.Rng.create ~seed:10101

(* ------------------------------------------------------------------ *)
(* Space -> universe -> distributions -> simulator consistency         *)
(* ------------------------------------------------------------------ *)

let test_space_universe_el_consistency () =
  (* On a disjoint space, three independent computations of E(Theta_1)
     must agree: the abstract model's moments, the EL difficulty-function
     integral, and the exact PFD distribution's mean. *)
  let rng = rng0 () in
  let space =
    Demandspace.Genspace.disjoint_space rng ~width:32 ~height:32 ~n_faults:12
      ~max_extent:4 ~p_lo:0.05 ~p_hi:0.5
      ~profile:(Demandspace.Profile.uniform ~size:(32 * 32))
  in
  let u = Demandspace.Space.to_universe space in
  let mu1_model = Core.Moments.mu1 u in
  let mu1_el = Baselines.Eckhardt_lee.mean_single space in
  let mu1_dist = Core.Pfd_dist.mean (Core.Pfd_dist.exact_single u) in
  Prop.check_close ~eps:1e-10 "model vs EL" mu1_model mu1_el;
  Prop.check_close ~eps:1e-10 "model vs exact dist" mu1_model mu1_dist;
  let mu2_model = Core.Moments.mu2 u in
  Prop.check_close ~eps:1e-10 "pair: model vs EL" mu2_model
    (Baselines.Eckhardt_lee.mean_pair space);
  Prop.check_close ~eps:1e-10 "pair: model vs exact dist" mu2_model
    (Core.Pfd_dist.mean (Core.Pfd_dist.exact_pair u))

let test_develop_and_operate_matches_model () =
  (* Full stack: develop a pair of versions over a zipf profile, build the
     1-out-of-2 system, run operational demands; the observed failure rate
     must match the set-intersection PFD, and over many replications its
     average must approach mu2. *)
  let rng = rng0 () in
  let space =
    Demandspace.Genspace.disjoint_space rng ~width:24 ~height:24 ~n_faults:8
      ~max_extent:5 ~p_lo:0.2 ~p_hi:0.6
      ~profile:(Demandspace.Profile.zipf ~size:(24 * 24) ~exponent:0.7)
  in
  let va, vb = Simulator.Devteam.develop_pair rng space in
  let system =
    Simulator.Protection.one_out_of_two
      (Simulator.Channel.create ~name:"A" va)
      (Simulator.Channel.create ~name:"B" vb)
  in
  let truth = Simulator.Protection.true_pfd system in
  Prop.check_close ~eps:1e-12 "protection pfd = version pair pfd"
    (Demandspace.Version.pair_pfd va vb)
    truth;
  let stats = Simulator.Runner.run rng ~system ~demand_count:150_000 in
  let lo, hi = stats.Simulator.Runner.pfd_ci in
  Alcotest.(check bool) "operational estimate brackets the truth" true
    (lo <= truth +. 1e-9 && truth <= hi +. 1e-9)

let test_montecarlo_matches_fault_count () =
  let rng = rng0 () in
  let u =
    Core.Universe.uniform_random rng ~n:10 ~p_lo:0.05 ~p_hi:0.4 ~total_q:0.6
  in
  let est = Simulator.Montecarlo.estimate rng u ~replications:40_000 in
  Prop.check_close ~eps:0.02 "simulated risk ratio matches eq. (10)"
    (Core.Fault_count.risk_ratio u)
    est.Simulator.Montecarlo.risk_ratio;
  Prop.check_close ~eps:0.01 "simulated P(N2>0)"
    (Core.Fault_count.p_n2_pos u)
    est.Simulator.Montecarlo.p_n2_pos

let test_exact_distribution_vs_simulation_quantiles () =
  let rng = rng0 () in
  let u =
    Core.Universe.uniform_random rng ~n:12 ~p_lo:0.05 ~p_hi:0.5 ~total_q:0.7
  in
  let dist = Core.Pfd_dist.exact_single u in
  let est = Simulator.Montecarlo.estimate rng u ~replications:40_000 in
  List.iter
    (fun alpha ->
      let exact = Core.Pfd_dist.quantile dist alpha in
      let simulated = Simulator.Montecarlo.quantile_theta1 est alpha in
      if abs_float (exact -. simulated) > 0.05 then
        Alcotest.fail
          (Printf.sprintf "q%.2f mismatch: exact %g vs simulated %g" alpha
             exact simulated))
    [ 0.25; 0.5; 0.75; 0.9 ]

let test_bayes_prior_from_simulation_consistent () =
  (* A prior assembled from simulated pair PFDs should lead to posterior
     conclusions close to the exact-distribution prior. *)
  let rng = rng0 () in
  let u =
    Core.Universe.uniform_random rng ~n:10 ~p_lo:0.01 ~p_hi:0.2 ~total_q:0.02
  in
  let exact_prior = Extensions.Bayes.of_pfd_dist (Core.Pfd_dist.exact_pair u) in
  let est = Simulator.Montecarlo.estimate rng u ~replications:30_000 in
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun x ->
      Hashtbl.replace counts x
        (1 + (try Hashtbl.find counts x with Not_found -> 0)))
    est.Simulator.Montecarlo.theta2_samples;
  let empirical_prior =
    Extensions.Bayes.of_mass
      (Hashtbl.fold (fun x c acc -> (x, float_of_int c) :: acc) counts [])
  in
  let bound = 2e-3 in
  let demands = 500 in
  let p_exact =
    Extensions.Bayes.prob_at_most
      (Extensions.Bayes.observe_failure_free exact_prior ~demands)
      bound
  in
  let p_emp =
    Extensions.Bayes.prob_at_most
      (Extensions.Bayes.observe_failure_free empirical_prior ~demands)
      bound
  in
  Prop.check_close ~eps:0.02 "posterior confidence agrees" p_exact p_emp

let test_overlap_el_vs_merged () =
  (* After merging overlapping regions the additive model becomes exact
     again: its mu1 must equal the EL integral on the original space. *)
  let rng = rng0 () in
  let space =
    Demandspace.Genspace.overlapping_space rng ~width:24 ~height:24 ~n_faults:8
      ~max_extent:6 ~p_lo:0.2 ~p_hi:0.6
      ~profile:(Demandspace.Profile.uniform ~size:(24 * 24))
  in
  let merged = Extensions.Overlap.merged_universe space in
  (* Every demand's covering faults all live in one connected overlap
     group, and the merged fault's presence event ("any member present")
     contains the exact failure event there, so the merged universe is a
     sound pessimistic abstraction of the version mean. (It is NOT below
     the additive mean in general: a group member's probability mass is
     smeared over the whole union region.) *)
  let a = Extensions.Overlap.analyse space in
  let merged_mu1 = Core.Moments.mu1 merged in
  Alcotest.(check bool) "merged mu1 covers the exact mean" true
    (merged_mu1 >= a.Extensions.Overlap.exact_mu1 -. 1e-9)

let test_correlated_reduces_to_core_via_montecarlo () =
  (* The correlated sampler with zero shock is another route to the same
     development process as Devteam: their Monte Carlo risk ratios agree. *)
  let rng = rng0 () in
  let u = Core.Universe.of_pairs [ (0.3, 0.1); (0.2, 0.2); (0.4, 0.05) ] in
  let m =
    Extensions.Correlated.of_universe_with_shock u ~cluster_size:3
      ~shock_prob:0.0 ~lift:1.5
  in
  let n = 40_000 in
  let some = ref 0 in
  for _ = 1 to n do
    if Extensions.Correlated.sample_version rng m <> [] then incr some
  done;
  Prop.check_close ~eps:0.01 "correlated sampler matches fault-count model"
    (Core.Fault_count.p_n1_pos u)
    (float_of_int !some /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Experiment registry and report smoke tests                          *)
(* ------------------------------------------------------------------ *)

let test_registry_complete () =
  Alcotest.(check int) "31 experiments registered" 31
    (List.length Experiments.Registry.all);
  List.iter
    (fun id ->
      match Experiments.Registry.find id with
      | Some _ -> ()
      | None -> Alcotest.fail ("missing experiment " ^ id))
    [ "E01"; "e04"; "E13"; "E21" ]

let test_fast_experiments_run () =
  (* The cheap analytic experiments must produce non-empty output. *)
  List.iter
    (fun id ->
      match Experiments.Registry.find id with
      | None -> Alcotest.fail ("missing " ^ id)
      | Some e ->
          let out = e.Experiments.Experiment.run ~seed:7 in
          Alcotest.(check bool)
            (id ^ " produces tables")
            true
            (out.Experiments.Experiment.tables <> []))
    [ "E01"; "E02"; "E04"; "E10"; "E11"; "E19" ]

let test_table_rendering () =
  let t =
    Report.Table.of_rows ~title:"t" ~headers:[ "a"; "b" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let rendered = Report.Table.render t in
  Alcotest.(check bool) "contains title" true
    (String.length rendered > 0
    &&
    let lines = String.split_on_char '\n' rendered in
    List.exists (fun l -> l = "== t ==") lines);
  Alcotest.check_raises "row width mismatch"
    (Invalid_argument "Table.add_row: cell count does not match header count")
    (fun () -> ignore (Report.Table.add_row t [ "only one" ]))

let test_asciiplot_rendering () =
  let s =
    Report.Asciiplot.series ~label:"x^2"
      (Array.init 10 (fun i ->
           let x = float_of_int i in
           (x, x *. x)))
  in
  let rendered = Report.Asciiplot.render ~title:"parabola" [ s ] in
  Alcotest.(check bool) "mentions title" true
    (String.length rendered > 0
    && String.sub rendered 0 3 = "-- ");
  Alcotest.(check bool) "mentions legend" true
    (let lines = String.split_on_char '\n' rendered in
     List.exists (fun l -> String.length l > 0 && String.ends_with ~suffix:"x^2" l) lines)

let test_experiment_output_rendering () =
  let out =
    Experiments.Experiment.output
      ~tables:
        [ Report.Table.of_rows ~title:"x" ~headers:[ "h" ] [ [ "v" ] ] ]
      ~notes:[ "a note" ] ()
  in
  let s = Experiments.Experiment.render_output out in
  Alcotest.(check bool) "table rendered" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> l = "note: a note") lines)

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "space/universe/EL/dist agree" `Quick
            test_space_universe_el_consistency;
          Alcotest.test_case "develop-and-operate" `Slow
            test_develop_and_operate_matches_model;
          Alcotest.test_case "montecarlo vs fault_count" `Slow
            test_montecarlo_matches_fault_count;
          Alcotest.test_case "exact vs simulated quantiles" `Slow
            test_exact_distribution_vs_simulation_quantiles;
          Alcotest.test_case "bayes prior from simulation" `Slow
            test_bayes_prior_from_simulation_consistent;
          Alcotest.test_case "overlap merged universe" `Quick test_overlap_el_vs_merged;
          Alcotest.test_case "correlated zero-shock sampler" `Slow
            test_correlated_reduces_to_core_via_montecarlo;
        ] );
      ( "harness",
        [
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "fast experiments run" `Quick test_fast_experiments_run;
          Alcotest.test_case "table rendering" `Quick test_table_rendering;
          Alcotest.test_case "asciiplot rendering" `Quick test_asciiplot_rendering;
          Alcotest.test_case "experiment output" `Quick test_experiment_output_rendering;
        ] );
    ]
