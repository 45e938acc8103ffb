(* Tests for the rigorous tail bounds and the sequential acceptance test. *)

let rng0 () = Numerics.Rng.create ~seed:161803

let tiny () = Core.Universe.of_pairs [ (0.5, 0.1); (0.2, 0.3) ]

(* ------------------------------------------------------------------ *)
(* Tail bounds                                                         *)
(* ------------------------------------------------------------------ *)

let test_log_mgf_at_zero () =
  Prop.check_close "MGF(0) = 1" 0.0
    (Core.Tail_bound.log_mgf ~probs:[| 0.5; 0.2 |] ~values:[| 0.1; 0.3 |] 0.0)

let test_log_mgf_derivative_is_mean () =
  let probs = [| 0.5; 0.2; 0.1 |] and values = [| 0.1; 0.3; 0.05 |] in
  let mean = Numerics.Kahan.dot probs values in
  let d =
    Numerics.Deriv.richardson
      (fun l -> Core.Tail_bound.log_mgf ~probs ~values l)
      0.0
  in
  Prop.check_close ~eps:1e-8 "d/dl log MGF at 0 = mean" mean d

let test_chernoff_covers_exact () =
  let rng = rng0 () in
  for _ = 1 to 20 do
    let u =
      Core.Universe.uniform_random rng ~n:10 ~p_lo:0.05 ~p_hi:0.6 ~total_q:0.6
    in
    let exact = Core.Pfd_dist.exact_single u in
    let mu = Core.Moments.mu1 u in
    List.iter
      (fun x ->
        let true_sf = Core.Pfd_dist.sf exact x in
        let bound = Core.Tail_bound.chernoff_sf_single u x in
        if bound < true_sf -. 1e-12 then
          Alcotest.fail
            (Printf.sprintf "Chernoff violated at x=%g: bound %g < true %g" x
               bound true_sf))
      [ mu *. 1.2; mu *. 1.5; mu *. 2.0; mu *. 3.0 ]
  done

let test_hoeffding_covers_exact () =
  let rng = rng0 () in
  for _ = 1 to 20 do
    let u =
      Core.Universe.uniform_random rng ~n:10 ~p_lo:0.05 ~p_hi:0.6 ~total_q:0.6
    in
    let exact = Core.Pfd_dist.exact_single u in
    let mu = Core.Moments.mu1 u in
    List.iter
      (fun x ->
        if
          Core.Tail_bound.hoeffding_sf_single u x
          < Core.Pfd_dist.sf exact x -. 1e-12
        then Alcotest.fail "Hoeffding violated")
      [ mu *. 1.5; mu *. 2.5 ]
  done

let test_chernoff_vacuous_below_mean () =
  let u = tiny () in
  Prop.check_close "at the mean the bound is 1" 1.0
    (Core.Tail_bound.chernoff_sf_single u (Core.Moments.mu1 u));
  Prop.check_close "below the mean the bound is 1" 1.0
    (Core.Tail_bound.chernoff_sf_single u 0.01)

let test_chernoff_monotone () =
  let u = tiny () in
  let xs = Numerics.Grid.linspace ~lo:0.12 ~hi:0.39 ~n:10 in
  let prev = ref 1.0 in
  Array.iter
    (fun x ->
      let b = Core.Tail_bound.chernoff_sf_single u x in
      if b > !prev +. 1e-12 then Alcotest.fail "bound not monotone";
      prev := b)
    xs

let test_guaranteed_bound_covers_quantile () =
  let rng = rng0 () in
  for _ = 1 to 10 do
    let u =
      Core.Universe.uniform_random rng ~n:12 ~p_lo:0.05 ~p_hi:0.5 ~total_q:0.6
    in
    let exact = Core.Pfd_dist.exact_single u in
    List.iter
      (fun confidence ->
        let rigorous = Core.Tail_bound.guaranteed_bound_single u ~confidence in
        let quantile = Core.Pfd_dist.quantile exact confidence in
        if rigorous < quantile -. 1e-9 then
          Alcotest.fail
            (Printf.sprintf "guaranteed bound %g below exact quantile %g"
               rigorous quantile))
      [ 0.9; 0.99; 0.999 ]
  done

let test_guaranteed_pair_bound () =
  let u = tiny () in
  let exact = Core.Pfd_dist.exact_pair u in
  let b = Core.Tail_bound.guaranteed_bound_pair u ~confidence:0.99 in
  Alcotest.(check bool) "pair bound covers the exact pair quantile" true
    (b >= Core.Pfd_dist.quantile exact 0.99 -. 1e-9);
  (* with only two faults Chernoff is loose and both bounds can saturate
     at total_q, so the comparison is non-strict *)
  Alcotest.(check bool) "pair bound at most the single bound" true
    (b <= Core.Tail_bound.guaranteed_bound_single u ~confidence:0.99 +. 1e-12)

(* ------------------------------------------------------------------ *)
(* SPRT                                                                *)
(* ------------------------------------------------------------------ *)

let test_sprt_validation () =
  Alcotest.check_raises "theta order"
    (Invalid_argument "Sprt.create: need 0 < theta0 < theta1 < 1") (fun () ->
      ignore (Simulator.Sprt.create ~theta0:0.1 ~theta1:0.05 ~alpha:0.05 ~beta:0.05))

let test_sprt_failures_push_to_reject () =
  let t = Simulator.Sprt.create ~theta0:1e-3 ~theta1:1e-2 ~alpha:0.05 ~beta:0.05 in
  (* consecutive failures should reject quickly *)
  let rec feed n =
    if n > 100 then Alcotest.fail "no rejection after 100 failures"
    else
      match Simulator.Sprt.record t ~failed:true with
      | Simulator.Sprt.Reject -> n
      | _ -> feed (n + 1)
  in
  let n = feed 1 in
  Alcotest.(check bool) "rejects within a few failures" true (n <= 5)

let test_sprt_successes_push_to_accept () =
  let t = Simulator.Sprt.create ~theta0:1e-2 ~theta1:1e-1 ~alpha:0.05 ~beta:0.05 in
  let rec feed n =
    if n > 100_000 then Alcotest.fail "no acceptance"
    else
      match Simulator.Sprt.record t ~failed:false with
      | Simulator.Sprt.Accept -> n
      | _ -> feed (n + 1)
  in
  let n = feed 1 in
  (* Wald: acceptance after ~ log(beta/(1-alpha)) / log((1-t1)/(1-t0)) *)
  let expected =
    log (0.05 /. 0.95) /. (log 0.9 -. log 0.99) |> Float.ceil |> int_of_float
  in
  Alcotest.(check int) "accepts exactly at Wald's boundary" expected n

let test_sprt_decision_is_final () =
  let t = Simulator.Sprt.create ~theta0:1e-3 ~theta1:1e-2 ~alpha:0.05 ~beta:0.05 in
  for _ = 1 to 50 do
    ignore (Simulator.Sprt.record t ~failed:true)
  done;
  let d = Simulator.Sprt.demands_observed t in
  ignore (Simulator.Sprt.record t ~failed:false);
  Alcotest.(check int) "no more demands counted after the decision" d
    (Simulator.Sprt.demands_observed t);
  Alcotest.(check bool) "decision stays Reject" true
    (Simulator.Sprt.state t = Simulator.Sprt.Reject)

let test_sprt_error_rates () =
  (* Systems with true PFD = theta0 should be accepted ~95% of the time. *)
  let rng = rng0 () in
  let profile = Demandspace.Profile.uniform ~size:1000 in
  let region = Demandspace.Region.interval ~space_size:1000 ~lo:0 ~hi:9 in
  let space = Demandspace.Space.create ~profile ~faults:[| (region, 1.0) |] in
  let v = Demandspace.Version.create space [ 0 ] in
  let system =
    Simulator.Protection.create [ Simulator.Channel.create ~name:"x" v ]
  in
  (* true PFD = 0.01 = theta0 *)
  let accepts = ref 0 and trials = 300 in
  for _ = 1 to trials do
    match
      Simulator.Sprt.run rng ~system ~theta0:0.01 ~theta1:0.1 ~alpha:0.05
        ~beta:0.05 ~max_demands:1_000_000
    with
    | Simulator.Sprt.Accept, _ -> incr accepts
    | _ -> ()
  done;
  let rate = float_of_int !accepts /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "acceptance rate ~ 1 - alpha (got %g)" rate)
    true (rate > 0.9)

(* A 1-out-of-2 system whose channels both self-check part of their
   failure regions: on demands 20-27 both abstain (the adjudicated verdict
   is [Abstain]), on 28-29 channel A fails silently. True PFD 0.05. *)
let abstaining_system () =
  let profile = Demandspace.Profile.uniform ~size:200 in
  let ra = Demandspace.Region.interval ~space_size:200 ~lo:0 ~hi:29 in
  let rb = Demandspace.Region.interval ~space_size:200 ~lo:20 ~hi:49 in
  let space =
    Demandspace.Space.create ~profile ~faults:[| (ra, 1.0); (rb, 1.0) |]
  in
  let check lo hi =
    Numerics.Bitset.of_list 200 (List.init (hi - lo + 1) (( + ) lo))
  in
  Simulator.Protection.one_out_of_two
    (Simulator.Channel.create ~self_check:(check 20 27) ~name:"A"
       (Demandspace.Version.create space [ 0 ]))
    (Simulator.Channel.create ~self_check:(check 20 29) ~name:"B"
       (Demandspace.Version.create space [ 1 ]))

(* Values computed before protection systems were compiled to verdict
   bitsets: the decision, the evidence it rests on and the generator's
   draw count pin both the draw stream and the rule that an [Abstain]
   verdict counts as a failed demand. *)
let test_sprt_pinned () =
  let rng = Numerics.Rng.create ~seed:5 in
  let decision, t =
    Simulator.Sprt.run rng ~system:(abstaining_system ()) ~theta0:0.01
      ~theta1:0.1 ~alpha:0.05 ~beta:0.05 ~max_demands:10_000
  in
  Alcotest.(check string) "decision" "reject"
    (match decision with
    | Simulator.Sprt.Accept -> "accept"
    | Reject -> "reject"
    | Continue -> "continue");
  Alcotest.(check int) "demands" 85 (Simulator.Sprt.demands_observed t);
  Alcotest.(check int) "failures" 5 (Simulator.Sprt.failures_observed t);
  Alcotest.(check int) "draws" 170 (Numerics.Rng.draws rng)

let test_sprt_expected_sample_size_positive () =
  let n =
    Simulator.Sprt.expected_sample_size_h0 ~theta0:1e-3 ~theta1:1e-2
      ~alpha:0.05 ~beta:0.05
  in
  Alcotest.(check bool) "positive and finite" true (n > 0.0 && Float.is_finite n)

let () =
  Alcotest.run "tailbound-sprt"
    [
      ( "tail-bounds",
        [
          Alcotest.test_case "MGF at zero" `Quick test_log_mgf_at_zero;
          Alcotest.test_case "MGF derivative" `Quick test_log_mgf_derivative_is_mean;
          Alcotest.test_case "Chernoff covers exact" `Quick test_chernoff_covers_exact;
          Alcotest.test_case "Hoeffding covers exact" `Quick
            test_hoeffding_covers_exact;
          Alcotest.test_case "vacuous below mean" `Quick
            test_chernoff_vacuous_below_mean;
          Alcotest.test_case "monotone" `Quick test_chernoff_monotone;
          Alcotest.test_case "guaranteed bound covers quantile" `Quick
            test_guaranteed_bound_covers_quantile;
          Alcotest.test_case "pair bound" `Quick test_guaranteed_pair_bound;
        ] );
      ( "sprt",
        [
          Alcotest.test_case "validation" `Quick test_sprt_validation;
          Alcotest.test_case "failures reject" `Quick test_sprt_failures_push_to_reject;
          Alcotest.test_case "successes accept" `Quick
            test_sprt_successes_push_to_accept;
          Alcotest.test_case "decision final" `Quick test_sprt_decision_is_final;
          Alcotest.test_case "error rates" `Slow test_sprt_error_rates;
          Alcotest.test_case "abstaining system pinned" `Quick test_sprt_pinned;
          Alcotest.test_case "expected sample size" `Quick
            test_sprt_expected_sample_size_positive;
        ] );
    ]
