(* E07 — Section 5.2: the paper's numerical conjectures about process
   improvement under the normal approximation:
   1. the bound ratio improves (falls) under proportional improvement;
   2. it may move either way under single-fault improvement;
   3. the bound difference increases with any increase of any p_i. *)

let run ~seed =
  let rng = Numerics.Rng.create ~seed in
  let k = Numerics.Normal_dist.ppf 0.99 in
  (* 1: proportional improvement sweep on random universes. *)
  let prop_violations = ref 0 in
  let prop_trials = 300 in
  for t = 0 to prop_trials - 1 do
    let u =
      Core.Universe.uniform_random
        (Numerics.Rng.split rng ~index:t)
        ~n:15 ~p_lo:0.01 ~p_hi:0.6 ~total_q:0.5
    in
    let prev = ref neg_infinity in
    Array.iter
      (fun f ->
        let r = Core.Normal_approx.bound_ratio (Core.Universe.scale_all_p u f) ~k in
        if r < !prev -. 1e-10 then incr prop_violations;
        prev := r)
      (Numerics.Grid.linspace ~lo:0.1 ~hi:1.0 ~n:10)
  done;
  (* 2: single-fault improvement can move the ratio either direction. *)
  let up = ref 0 and down = ref 0 in
  for t = 0 to 499 do
    let u =
      Core.Universe.uniform_random
        (Numerics.Rng.split rng ~index:(1000 + t))
        ~n:8 ~p_lo:0.01 ~p_hi:0.7 ~total_q:0.5
    in
    let i = Numerics.Rng.int rng 8 in
    let improved =
      Core.Improvement.apply_step u
        (Core.Improvement.Single { index = i; factor = 0.5 })
    in
    let before = Core.Normal_approx.bound_ratio u ~k in
    let after = Core.Normal_approx.bound_ratio improved ~k in
    if after > before +. 1e-12 then incr up
    else if after < before -. 1e-12 then incr down
  done;
  (* 3: bound difference monotone in each p_i — checked per regime of p,
     since the conjecture turns out to hold only for small probabilities. *)
  let diff_regime p_hi =
    let violations = ref 0 in
    let trials = 1000 in
    for t = 0 to trials - 1 do
      let u =
        Core.Universe.uniform_random
          (Numerics.Rng.split rng ~index:(2000 + t + int_of_float (p_hi *. 1e4)))
          ~n:10 ~p_lo:0.01 ~p_hi ~total_q:0.5
      in
      let i = Numerics.Rng.int rng 10 in
      let p = (Core.Universe.ps u).(i) in
      let bigger = Core.Universe.set_p u i (min 1.0 (p *. 1.2)) in
      if
        Core.Normal_approx.bound_difference bigger ~k
        < Core.Normal_approx.bound_difference u ~k -. 1e-12
      then incr violations
    done;
    (trials, !violations)
  in
  let regimes = List.map (fun p_hi -> (p_hi, diff_regime p_hi)) [ 0.1; 0.3; 0.5 ] in
  let table =
    Report.Table.of_rows ~title:"Section 5.2 conjectures, numerically checked"
      ~headers:[ "conjecture"; "trials"; "outcome" ]
      ([
         [
           "bound ratio monotone under proportional improvement";
           Report.Table.int prop_trials;
           Printf.sprintf "%d violations" !prop_violations;
         ];
         [
           "single-fault improvement can move the ratio either way";
           "500";
           Printf.sprintf "%d raised the ratio, %d lowered it" !up !down;
         ];
       ]
      @ List.map
          (fun (p_hi, (trials, violations)) ->
            [
              Printf.sprintf
                "bound difference rises with any p_i increase (p <= %.1f)" p_hi;
              Report.Table.int trials;
              Printf.sprintf "%d violations" violations;
            ])
          regimes)
  in
  Experiment.output ~tables:[ table ]
    ~notes:
      [
        "the paper offers no theorems here; these sweeps are the same kind \
         of numerical evidence it reports, at larger scale";
        "reproduction finding: the third conjecture (bound difference \
         increases with any p_i) holds cleanly only in the small-p regime; \
         with fault probabilities up to 0.5 a p_i increase shrinks the \
         difference in a large share of cases, because d(sigma2)/dp_i \
         scales with 1/sigma2 and overtakes the sigma1 term — see \
         EXPERIMENTS.md";
      ]
    ()

let experiment =
  Experiment.make ~id:"E07" ~paper_ref:"Section 5.2"
    ~description:
      "Numerical verification of the paper's conjectures about process \
       improvement under the normal approximation"
    run
