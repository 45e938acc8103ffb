(* E23 — Section 3.1.1's empirical programme: "the typical values achieved
   by given software development processes could be studied empirically".
   How many observed versions does an assessor need before the estimated
   pmax bound and the predicted diversity gain are usable? A calibration
   study against a known ground-truth universe. *)

let run ~seed =
  let rng = Numerics.Rng.create ~seed in
  let truth =
    Core.Universe.uniform_random
      (Numerics.Rng.split rng ~index:0)
      ~n:12 ~p_lo:0.02 ~p_hi:0.35 ~total_q:0.5
  in
  let qs = Core.Universe.qs truth in
  let true_ratio = Core.Fault_count.risk_ratio truth in
  let true_pmax = Core.Universe.pmax truth in
  let rows =
    List.map
      (fun sample_size ->
        let dev_rng = Numerics.Rng.split rng ~index:sample_size in
        let versions =
          Array.init sample_size (fun _ ->
              Simulator.Devteam.sample_fault_set dev_rng truth)
        in
        let obs = Core.Estimator.observe ~n_faults:12 versions in
        let pred =
          Core.Estimator.predict_risk_ratio
            (Numerics.Rng.split rng ~index:(1000 + sample_size))
            obs ~qs
        in
        [
          Report.Table.int sample_size;
          Report.Table.float (Core.Estimator.pmax_hat obs);
          Report.Table.float (Core.Estimator.pmax_upper obs);
          Report.Table.float pred.Core.Estimator.point;
          Printf.sprintf "[%s, %s]"
            (Report.Table.float pred.Core.Estimator.ci_low)
            (Report.Table.float pred.Core.Estimator.ci_high);
          Report.Table.bool
            (pred.Core.Estimator.ci_low <= true_ratio
            && true_ratio <= pred.Core.Estimator.ci_high);
        ])
      [ 5; 10; 27; 50; 100; 400 ]
  in
  let table =
    Report.Table.of_rows
      ~title:
        (Printf.sprintf
           "Estimating the model from observed versions (truth: pmax=%.3f, \
            risk ratio=%.3f)"
           true_pmax true_ratio)
      ~headers:
        [
          "versions observed"; "pmax MLE"; "pmax 95% upper"; "risk ratio est.";
          "bootstrap 95% CI"; "CI covers truth";
        ]
      rows
  in
  (* What the estimated pmax upper bound buys through eq. (12). *)
  let k = Numerics.Normal_dist.ppf 0.99 in
  let single = Core.Normal_approx.single_bound truth ~k in
  let claims =
    Report.Table.of_rows
      ~title:"Assessor's eq. (12) claim from the estimated pmax (99%)"
      ~headers:[ "versions"; "claimed pair bound"; "true pair bound" ]
      (List.map
         (fun sample_size ->
           let dev_rng = Numerics.Rng.split rng ~index:(2000 + sample_size) in
           let versions =
             Array.init sample_size (fun _ ->
                 Simulator.Devteam.sample_fault_set dev_rng truth)
           in
           let obs = Core.Estimator.observe ~n_faults:12 versions in
           [
             Report.Table.int sample_size;
             Report.Table.float
               (Core.Bounds.pair_bound_from_bound ~single_bound:single
                  ~pmax:(min 1.0 (Core.Estimator.pmax_upper obs)));
             Report.Table.float (Core.Normal_approx.pair_bound truth ~k);
           ])
         [ 10; 27; 100 ])
  in
  Experiment.output ~tables:[ table; claims ]
    ~notes:
      [
        "the 27-version row is Knight-Leveson-sized: at that sample size \
         the pmax upper bound is already informative while per-fault \
         estimates remain noisy — consistent with the paper's remark that \
         'estimating small p_i parameters could be infeasible' but an \
         upper bound suffices";
      ]
    ()

let experiment =
  Experiment.make ~id:"E23" ~paper_ref:"Section 3.1.1 (empirical programme)"
    ~description:
      "Calibration study: estimating pmax and the diversity gain from a \
       finite sample of observed versions"
    run
