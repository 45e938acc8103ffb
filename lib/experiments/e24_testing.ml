(* E24 — Section 4.2.3 and ref [13]: testing as fault removal. Operational
   testing scrubs large-region faults first, i.e. it is a non-uniform
   process improvement; the gain from diversity can move non-monotonically
   as the test campaign lengthens. *)

let run ~seed =
  let rng = Numerics.Rng.create ~seed in
  let u =
    Core.Universe.power_law_random
      (Numerics.Rng.split rng ~index:0)
      ~n:20 ~p_lo:0.05 ~p_hi:0.4 ~q_exponent:(-1.3) ~total_q:0.5
  in
  let k = Numerics.Normal_dist.ppf 0.99 in
  let traj =
    Extensions.Testing_process.trajectory u ~k
      ~demand_counts:[| 0; 10; 30; 100; 300; 1_000; 3_000; 10_000 |]
  in
  let rows =
    Array.to_list
      (Array.map
         (fun (p : Extensions.Testing_process.trajectory_point) ->
           [
             Report.Table.int p.demands;
             Report.Table.float p.mu1;
             Report.Table.float p.mu2;
             Report.Table.float p.mean_gain;
             Report.Table.float p.risk_ratio;
             Report.Table.float p.bound_ratio;
           ])
         traj)
  in
  let table =
    Report.Table.of_rows
      ~title:"Operational testing: p_i -> p_i (1-q_i)^t before delivery"
      ~headers:
        [ "test demands"; "mu1"; "mu2"; "mean gain"; "risk ratio"; "bound ratio" ]
      rows
  in
  let fig =
    Report.Asciiplot.render
      ~title:"Diversity gain measures vs test-campaign length (log10 t+1)"
      [
        Report.Asciiplot.series ~label:"risk ratio"
          (Array.map
             (fun (p : Extensions.Testing_process.trajectory_point) ->
               (log10 (float_of_int (p.demands + 1)), p.risk_ratio))
             traj);
        Report.Asciiplot.series ~label:"bound ratio"
          (Array.map
             (fun (p : Extensions.Testing_process.trajectory_point) ->
               (log10 (float_of_int (p.demands + 1)), p.bound_ratio))
             traj);
      ]
  in
  (* The budget question of [13]. *)
  let budget_rows =
    List.map
      (fun budget ->
        let single, pair =
          Extensions.Testing_process.single_vs_pair_testing u
            ~total_demands:budget
        in
        [
          Report.Table.int budget;
          Report.Table.float single;
          Report.Table.float pair;
          Report.Table.bool (pair < single);
        ])
      [ 0; 100; 1_000; 10_000; 100_000 ]
  in
  let budget =
    Report.Table.of_rows
      ~title:
        "Budget split ([13]): one version tested with t demands vs a 1oo2 \
         pair tested with t/2 each"
      ~headers:[ "budget t"; "single mu1"; "pair mu2"; "diversity wins" ]
      budget_rows
  in
  Experiment.output ~tables:[ table; budget ] ~figures:[ fig ]
    ~notes:
      [
        "as testing scrubs the big faults, the surviving universe is \
         dominated by small-q faults whose p_i were never reduced — the \
         diversity gain measures drift accordingly, the non-uniform \
         improvement regime of Appendix A rather than Appendix B";
      ]
    ()

let experiment =
  Experiment.make ~id:"E24" ~paper_ref:"Section 4.2.3, ref [13]"
    ~description:"Testing as non-uniform fault removal and its effect on the gain"
    run
