(* E18 — the Hatton [1] debate, posed in-model: one better version (uniform
   improvement of all fault probabilities) vs a 1-out-of-2 pair from the
   unimproved process. *)

let run ~seed =
  let rng = Numerics.Rng.create ~seed in
  let u =
    Core.Universe.uniform_random
      (Numerics.Rng.split rng ~index:0)
      ~n:20 ~p_lo:0.02 ~p_hi:0.3 ~total_q:0.5
  in
  let k = Numerics.Normal_dist.ppf 0.99 in
  let factors = [| 1.0; 0.5; 0.2; 0.1; 0.05; 0.02 |] in
  let comparisons = Baselines.Hatton.sweep u ~k ~factors in
  let rows =
    Array.to_list
      (Array.map
         (fun (c : Baselines.Hatton.comparison) ->
           [
             Report.Table.float c.improvement_factor;
             Report.Table.float c.single_improved_mu;
             Report.Table.float c.pair_mu;
             Report.Table.bool c.diversity_wins_mean;
             Report.Table.float c.single_improved_bound;
             Report.Table.float c.pair_bound;
             Report.Table.bool c.diversity_wins_bound;
           ])
         comparisons)
  in
  let table =
    Report.Table.of_rows
      ~title:"One improved version vs a 1-out-of-2 pair (99% bounds)"
      ~headers:
        [
          "improvement factor"; "single mu"; "pair mu"; "pair wins mean";
          "single bound"; "pair bound"; "pair wins bound";
        ]
      rows
  in
  let break_even = Baselines.Hatton.break_even_factor u in
  let summary =
    Report.Table.of_rows ~title:"Break-even analysis"
      ~headers:[ "quantity"; "value" ]
      [
        [ "break-even improvement factor (mu2/mu1)"; Report.Table.float break_even ];
        [ "pmax (eq. 4 ceiling on the break-even)"; Report.Table.float (Core.Universe.pmax u) ];
        [
          "break-even <= pmax";
          Report.Table.bool (break_even <= Core.Universe.pmax u +. 1e-15);
        ];
      ]
  in
  Experiment.output ~tables:[ table; summary ]
    ~notes:
      [
        "the single version must shrink every fault probability by the \
         break-even factor (here below pmax) to match the pair on mean \
         PFD — the in-model content of the paper's response [6,7] to \
         Hatton's argument";
      ]
    ()

let experiment =
  Experiment.make ~id:"E18" ~paper_ref:"Section 1 (Hatton [1], refs [6][7])"
    ~description:"N-version vs one-good-version comparison inside the model"
    run
