(* E02 — the Section 5.1 worked example: mu1=0.01, sigma1=0.001, k=1
   (an 84% confidence bound), pmax=0.1. The paper reports 0.011 for one
   version, 0.001 via eq. (11) and "a more modest 0.004" via eq. (12). *)

let run ~seed:_ =
  let ex = Core.Normal_approx.worked_example () in
  let confidence =
    Numerics.Normal_dist.cdf ex.Core.Normal_approx.k
  in
  let table =
    Report.Table.of_rows ~title:"Section 5.1 worked example"
      ~headers:[ "quantity"; "paper"; "measured" ]
      [
        [ "mu1"; "0.01"; Report.Table.float ex.mu1 ];
        [ "sigma1"; "0.001"; Report.Table.float ex.sigma1 ];
        [ "k"; "1"; Report.Table.float ex.k ];
        [
          "confidence of k=1";
          "84%";
          Report.Table.float ~precision:3 (100.0 *. confidence) ^ "%";
        ];
        [ "pmax"; "0.1"; Report.Table.float ex.pmax ];
        [ "single-version bound"; "0.011"; Report.Table.float ex.single_bound ];
        [
          "pair bound, eq. (11)"; "0.001"; Report.Table.float ex.pair_bound_eq11;
        ];
        [
          "pair bound, eq. (12)"; "0.004"; Report.Table.float ex.pair_bound_eq12;
        ];
      ]
  in
  let quantile_check =
    Report.Table.of_rows
      ~title:"Normal quantile anchors quoted in Section 5"
      ~headers:[ "statement"; "paper"; "measured" ]
      [
        [
          "P(Theta <= mu+3sigma)";
          "0.99865003";
          Report.Table.float ~precision:8
            (Numerics.Normal_dist.cdf 3.0);
        ];
        [
          "k at 99% confidence";
          "2.33";
          Report.Table.float ~precision:5
            (Numerics.Normal_dist.ppf 0.99);
        ];
      ]
  in
  Experiment.output
    ~tables:[ table; quantile_check ]
    ~notes:
      [
        "the paper rounds eq. (11)'s 0.0013... to 0.001 and eq. (12)'s \
         0.00365... to 0.004; both reproduce to the printed precision";
      ]
    ()

let experiment =
  Experiment.make ~id:"E02" ~paper_ref:"Section 5.1 worked example"
    ~description:
      "The numerical example: bounds 0.011 (single), 0.001 (eq. 11), 0.004 \
       (eq. 12), plus the quoted normal-distribution anchors"
    run
