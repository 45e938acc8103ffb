(* Unit and property tests for the numerics substrate. *)

open Numerics

let rng0 () = Rng.create ~seed:12345

(* ------------------------------------------------------------------ *)
(* Kahan                                                               *)
(* ------------------------------------------------------------------ *)

let test_kahan_small_terms () =
  (* 1 + 1e-16 added 10^6 times loses the small terms under naive
     summation; Kahan keeps them. *)
  let acc = Kahan.create () in
  Kahan.add acc 1.0;
  for _ = 1 to 1_000_000 do
    Kahan.add acc 1e-16
  done;
  Prop.check_close ~eps:1e-12 "kahan preserves small terms" (1.0 +. 1e-10)
    (Kahan.total acc)

let test_kahan_sum_array () =
  Prop.check_close "sum_array" 6.0 (Kahan.sum_array [| 1.0; 2.0; 3.0 |]);
  Prop.check_close "sum_list" 6.0 (Kahan.sum_list [ 1.0; 2.0; 3.0 ]);
  Prop.check_close "sum_over" 10.0 (Kahan.sum_over 5 float_of_int)

let test_kahan_dot () =
  Prop.check_close "dot" 32.0 (Kahan.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |]);
  Alcotest.check_raises "dot length mismatch"
    (Invalid_argument "Kahan.dot: length mismatch") (fun () ->
      ignore (Kahan.dot [| 1.0 |] [| 1.0; 2.0 |]))

let test_kahan_reset () =
  let acc = Kahan.create () in
  Kahan.add acc 5.0;
  Kahan.reset acc;
  Prop.check_close "reset zeroes" 0.0 (Kahan.total acc)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Rng.next_int64 a)
      (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_float_range () =
  let rng = rng0 () in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_rng_float_mean () =
  let rng = rng0 () in
  let acc = Kahan.create () in
  let n = 100_000 in
  for _ = 1 to n do
    Kahan.add acc (Rng.float rng)
  done;
  Prop.check_close ~eps:0.01 "uniform mean ~ 0.5" 0.5
    (Kahan.total acc /. float_of_int n)

let test_rng_int_bounds () =
  let rng = rng0 () in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.fail "int out of range"
  done;
  Alcotest.check_raises "non-positive bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_int_uniform () =
  let rng = rng0 () in
  let counts = Array.make 5 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int rng 5 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      let freq = float_of_int c /. float_of_int n in
      if abs_float (freq -. 0.2) > 0.01 then
        Alcotest.fail (Printf.sprintf "bucket freq %f too far from 0.2" freq))
    counts

let test_rng_bool_extremes () =
  let rng = rng0 () in
  Alcotest.(check bool) "p=0 never true" false (Rng.bool rng ~p:0.0);
  Alcotest.(check bool) "p=1 always true" true (Rng.bool rng ~p:1.0)

let test_rng_bool_frequency () =
  let rng = rng0 () in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bool rng ~p:0.3 then incr hits
  done;
  Prop.check_close ~eps:0.01 "bernoulli frequency" 0.3
    (float_of_int !hits /. float_of_int n)

let test_rng_split_independence () =
  let parent = rng0 () in
  let a = Rng.split parent ~index:0 in
  let b = Rng.split parent ~index:1 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "split streams diverge" true (!same < 4)

let test_rng_shuffle_permutation () =
  let rng = rng0 () in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle preserves elements"
    (Array.init 50 (fun i -> i))
    sorted

(* ------------------------------------------------------------------ *)
(* Special functions                                                   *)
(* ------------------------------------------------------------------ *)

let test_erf_known_values () =
  Prop.check_close ~eps:1e-12 "erf 0" 0.0 (Special.erf 0.0);
  Prop.check_close ~eps:1e-10 "erf 0.5" 0.5204998778130465 (Special.erf 0.5);
  Prop.check_close ~eps:1e-10 "erf 1" 0.8427007929497149 (Special.erf 1.0);
  Prop.check_close ~eps:1e-10 "erf 2" 0.9953222650189527 (Special.erf 2.0);
  Prop.check_close ~eps:1e-12 "erf 10" 1.0 (Special.erf 10.0)

let test_erf_odd () =
  List.iter
    (fun x ->
      Prop.check_close ~eps:1e-13 "erf odd" (-.Special.erf x) (Special.erf (-.x)))
    [ 0.1; 0.5; 1.0; 2.0; 3.5 ]

let test_erfc_known_values () =
  Prop.check_close ~eps:1e-12 "erfc 0" 1.0 (Special.erfc 0.0);
  Prop.check_close ~eps:1e-16 "erfc 3" 2.209049699858544e-05 (Special.erfc 3.0);
  Prop.check_close ~eps:1e-27 "erfc 5" 1.5374597944280347e-12 (Special.erfc 5.0);
  Prop.check_close ~eps:1e-11 "erfc -1" (2.0 -. Special.erfc 1.0) (Special.erfc (-1.0))

let test_erf_erfc_complement () =
  List.iter
    (fun x ->
      Prop.check_close ~eps:1e-12 "erf + erfc = 1" 1.0
        (Special.erf x +. Special.erfc x))
    [ 0.0; 0.3; 1.0; 1.49; 1.51; 2.5; 4.0 ]

let test_log_gamma () =
  Prop.check_close ~eps:1e-10 "log_gamma 5 = log 24" (log 24.0) (Special.log_gamma 5.0);
  Prop.check_close ~eps:1e-10 "log_gamma 0.5 = log sqrt(pi)"
    (log (sqrt Float.pi))
    (Special.log_gamma 0.5);
  Prop.check_close ~eps:1e-10 "log_gamma 1" 0.0 (Special.log_gamma 1.0)

let test_log_factorial_choose () =
  Prop.check_close ~eps:1e-10 "log 5!" (log 120.0) (Special.log_factorial 5);
  List.iter
    (fun n ->
      Alcotest.(check int64)
        (Printf.sprintf "log %d! bits = log_gamma %d" n (n + 1))
        (Int64.bits_of_float (Special.log_gamma (float_of_int (n + 1))))
        (Int64.bits_of_float (Special.log_factorial n)))
    [ 0; 1; 255; 256 ];
  Prop.check_close ~eps:1e-10 "C(10,3) = 120" (log 120.0) (Special.log_choose 10 3);
  Prop.check_close ~eps:0.0 "choose out of range" neg_infinity
    (Special.log_choose 3 5)

let test_logsumexp () =
  Prop.check_close ~eps:1e-12 "logsumexp of equal terms"
    (log 3.0 +. 10.0)
    (Special.logsumexp [| 10.0; 10.0; 10.0 |]);
  Prop.check_close ~eps:0.0 "logsumexp empty-like" neg_infinity
    (Special.logsumexp [| neg_infinity; neg_infinity |])

(* ------------------------------------------------------------------ *)
(* Normal distribution                                                 *)
(* ------------------------------------------------------------------ *)

let test_normal_cdf_known () =
  Prop.check_close ~eps:1e-12 "Phi(0)" 0.5 (Normal_dist.cdf 0.0);
  Prop.check_close ~eps:1e-9 "Phi(1.96)" 0.9750021048517795 (Normal_dist.cdf 1.96);
  Prop.check_close ~eps:1e-9 "Phi(3)" 0.9986501019683699 (Normal_dist.cdf 3.0);
  Prop.check_close ~eps:1e-9 "Phi(-1)" 0.15865525393145707 (Normal_dist.cdf (-1.0))

let test_normal_ppf_known () =
  Prop.check_close ~eps:1e-9 "ppf 0.99" 2.3263478740408408 (Normal_dist.ppf 0.99);
  Prop.check_close ~eps:1e-9 "ppf 0.5" 0.0 (Normal_dist.ppf 0.5);
  Prop.check_close ~eps:1e-8 "ppf 0.975" 1.959963984540054 (Normal_dist.ppf 0.975)

let test_normal_ppf_cdf_roundtrip () =
  List.iter
    (fun p ->
      Prop.check_close ~eps:1e-11 "cdf(ppf(p)) = p" p
        (Normal_dist.cdf (Normal_dist.ppf p)))
    [ 1e-8; 1e-4; 0.01; 0.2; 0.5; 0.8; 0.99; 0.9999; 1.0 -. 1e-8 ]

let test_normal_location_scale () =
  Prop.check_close ~eps:1e-12 "cdf at mu is 0.5" 0.5
    (Normal_dist.cdf ~mu:3.0 ~sigma:2.0 3.0);
  Prop.check_close ~eps:1e-9 "ppf with mu/sigma"
    (3.0 +. (2.0 *. Normal_dist.ppf 0.9))
    (Normal_dist.ppf ~mu:3.0 ~sigma:2.0 0.9)

let test_normal_sf () =
  List.iter
    (fun x ->
      Prop.check_close ~eps:1e-12 "cdf + sf = 1" 1.0
        (Normal_dist.cdf x +. Normal_dist.sf x))
    [ -3.0; 0.0; 1.5; 6.0 ]

let test_normal_pdf_integrates () =
  let xs = Grid.linspace ~lo:(-8.0) ~hi:8.0 ~n:4001 in
  let ys = Array.map (fun x -> Normal_dist.pdf x) xs in
  Prop.check_close ~eps:1e-6 "pdf integrates to 1" 1.0 (Grid.trapezoid ~xs ~ys)

let test_normal_sampling_moments () =
  let rng = rng0 () in
  let n = 200_000 in
  let samples = Array.init n (fun _ -> Normal_dist.sample rng ~mu:2.0 ~sigma:3.0 ()) in
  Prop.check_close ~eps:0.05 "sample mean" 2.0 (Stats.mean samples);
  Prop.check_close ~eps:0.05 "sample std" 3.0 (Stats.std samples)

let test_normal_invalid_args () =
  Alcotest.check_raises "ppf p=0"
    (Invalid_argument "Normal_dist.ppf: p must lie strictly inside (0, 1)")
    (fun () -> ignore (Normal_dist.ppf 0.0));
  Alcotest.check_raises "cdf sigma<=0"
    (Invalid_argument "Normal_dist.cdf: sigma must be positive") (fun () ->
      ignore (Normal_dist.cdf ~sigma:0.0 1.0))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_approx_eq () =
  Alcotest.(check bool) "equal is approx-equal" true (Stats.approx_eq 1.0 1.0);
  Alcotest.(check bool) "within absolute tolerance" true
    (Stats.approx_eq 0.0 1e-13);
  Alcotest.(check bool) "within relative tolerance" true
    (Stats.approx_eq 1e9 (1e9 +. 0.5));
  Alcotest.(check bool) "distinct values differ" false (Stats.approx_eq 1.0 1.1);
  Alcotest.(check bool) "0.1+0.2 ~ 0.3 (the R1 poster child)" true
    (Stats.approx_eq (0.1 +. 0.2) 0.3);
  (* the edge matrix under the default tolerances, no tolerance at all,
     and a tolerance too wide to mean anything *)
  List.iter
    (fun (what, a, b, expected) ->
      List.iter
        (fun (rel, abs) ->
          let tol = Printf.sprintf "%s (rel=%g, abs=%g)" what rel abs in
          let eq x y = Stats.approx_eq ~rel ~abs x y in
          Alcotest.(check bool) tol expected (eq a b);
          Alcotest.(check bool) (tol ^ ", swapped") expected (eq b a))
        [ (1e-9, 1e-12); (0.0, 0.0); (1.0, Float.max_float) ])
    Prop.float_edges;
  let tiny = 5e-324 in
  (* subnormals compare by the absolute tolerance like any finite value *)
  Alcotest.(check bool) "subnormals within abs" true
    (Stats.approx_eq ~rel:0.0 ~abs:1e-310 tiny 1e-310);
  Alcotest.(check bool) "subnormals outside abs" false
    (Stats.approx_eq ~rel:0.0 ~abs:1e-320 tiny 1e-310);
  Alcotest.(check bool) "subnormal vs its negation, no tolerance" false
    (Stats.approx_eq ~rel:0.0 ~abs:0.0 tiny (-.tiny));
  Alcotest.(check bool) "subnormal vs zero, default abs" true
    (Stats.approx_eq tiny 0.0)

(* Reflexivity and symmetry over finite doubles (one case in four a
   subnormal), paired both with an independent double and with a
   neighbour a few ulps away, under three tolerance settings. *)
let test_stats_approx_eq_laws () =
  Prop.check ~cases:500 "approx_eq is reflexive and symmetric"
    (Prop.triple Prop.finite_float Prop.finite_float (Prop.int_range 0 8))
    (fun (x, y, ulps) ->
      let near = ref x in
      for _ = 1 to ulps do
        near := Float.succ !near
      done;
      List.iter
        (fun (rel, abs) ->
          let eq = Stats.approx_eq ~rel ~abs in
          Alcotest.(check bool) "reflexive" true (eq x x);
          Alcotest.(check bool) "symmetric" (eq x y) (eq y x);
          Alcotest.(check bool) "symmetric near" (eq x !near) (eq !near x))
        [ (1e-9, 1e-12); (0.0, 0.0); (0.0, 1e-310) ])

let test_stats_is_zero () =
  Alcotest.(check bool) "exact zero" true (Stats.is_zero 0.0);
  Alcotest.(check bool) "negative zero" true (Stats.is_zero (-0.0));
  Alcotest.(check bool) "subnormals count as zero" true (Stats.is_zero 1e-310);
  Alcotest.(check bool) "smallest normal still zero" true
    (Stats.is_zero Float.min_float);
  Alcotest.(check bool) "a tiny probability is NOT zero" false
    (Stats.is_zero 1e-300);
  Alcotest.(check bool) "custom eps" true (Stats.is_zero ~eps:1e-6 1e-7);
  Alcotest.(check bool) "nan is not zero" false (Stats.is_zero nan)

let test_stats_mean_variance () =
  let a = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Prop.check_close "mean" 5.0 (Stats.mean a);
  Prop.check_close ~eps:1e-12 "sample variance" (32.0 /. 7.0) (Stats.variance a)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check int) "n" 3 s.Stats.n;
  Prop.check_close "mean" 2.0 s.Stats.mean;
  Prop.check_close "min" 1.0 s.Stats.min;
  Prop.check_close "max" 3.0 s.Stats.max;
  Prop.check_close "variance" 1.0 s.Stats.variance

let test_stats_quantiles () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Prop.check_close "q0" 1.0 (Stats.quantile a 0.0);
  Prop.check_close "q1" 4.0 (Stats.quantile a 1.0);
  Prop.check_close "median interpolates" 2.5 (Stats.median a);
  Prop.check_close "q 1/3" 2.0 (Stats.quantile a (1.0 /. 3.0));
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "p = %g rejected" p)
        (Invalid_argument "Stats.quantile_sorted: p outside [0, 1]")
        (fun () -> ignore (Stats.quantile a p)))
    [ -0.1; 1.5; nan ]

let test_stats_covariance_correlation () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  let b = [| 2.0; 4.0; 6.0; 8.0 |] in
  Prop.check_close ~eps:1e-12 "perfect correlation" 1.0 (Stats.correlation a b);
  let c = [| 8.0; 6.0; 4.0; 2.0 |] in
  Prop.check_close ~eps:1e-12 "perfect anticorrelation" (-1.0) (Stats.correlation a c);
  Prop.check_close ~eps:1e-12 "cov(a,b) = 2 var(a)"
    (2.0 *. Stats.variance a)
    (Stats.covariance a b)

let test_stats_empirical_cdf () =
  let cdf = Stats.empirical_cdf [| 1.0; 2.0; 3.0; 4.0 |] in
  Prop.check_close "below support" 0.0 (cdf 0.5);
  Prop.check_close "at 2" 0.5 (cdf 2.0);
  Prop.check_close "mid-gap" 0.5 (cdf 2.5);
  Prop.check_close "above support" 1.0 (cdf 9.0)

let test_stats_wilson () =
  let lo, hi = Stats.proportion_ci ~successes:0 ~trials:100 () in
  Alcotest.(check bool) "zero successes: lo ~ 0" true (lo < 1e-12);
  Alcotest.(check bool) "zero successes: hi small but positive"
    true
    (hi > 0.0 && hi < 0.05);
  let lo2, hi2 = Stats.proportion_ci ~successes:50 ~trials:100 () in
  Alcotest.(check bool) "centred interval contains p-hat" true
    (lo2 < 0.5 && 0.5 < hi2)

(* ------------------------------------------------------------------ *)
(* Welford                                                             *)
(* ------------------------------------------------------------------ *)

let test_welford_matches_stats () =
  let rng = rng0 () in
  let samples = Array.init 5_000 (fun _ -> Rng.float rng) in
  let w = Welford.create () in
  Array.iter (Welford.add w) samples;
  Prop.check_close ~eps:1e-10 "welford mean" (Stats.mean samples) (Welford.mean w);
  Prop.check_close ~eps:1e-10 "welford variance" (Stats.variance samples)
    (Welford.variance w);
  Prop.check_close "welford min" (Array.fold_left min infinity samples)
    (Welford.min_value w)

let test_welford_merge () =
  let rng = rng0 () in
  let a = Array.init 1000 (fun _ -> Rng.float rng) in
  let b = Array.init 700 (fun _ -> Rng.float rng *. 2.0) in
  let wa = Welford.create () and wb = Welford.create () in
  Array.iter (Welford.add wa) a;
  Array.iter (Welford.add wb) b;
  let merged = Welford.merge wa wb in
  let combined = Array.append a b in
  Prop.check_close ~eps:1e-10 "merged mean" (Stats.mean combined) (Welford.mean merged);
  Prop.check_close ~eps:1e-9 "merged variance" (Stats.variance combined)
    (Welford.variance merged)

(* ------------------------------------------------------------------ *)
(* Alias                                                               *)
(* ------------------------------------------------------------------ *)

let test_alias_normalisation () =
  let t = Alias.create [| 2.0; 6.0; 2.0 |] in
  Prop.check_close "p0" 0.2 (Alias.probability t 0);
  Prop.check_close "p1" 0.6 (Alias.probability t 1);
  Prop.check_close "sum to one" 1.0 (Kahan.sum_array (Alias.probabilities t))

let test_alias_frequencies () =
  let weights = [| 1.0; 2.0; 3.0; 4.0 |] in
  let t = Alias.create weights in
  let rng = rng0 () in
  let counts = Array.make 4 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let i = Alias.sample t rng in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      Prop.check_close ~eps:0.01
        (Printf.sprintf "frequency of outcome %d" i)
        (weights.(i) /. 10.0)
        (float_of_int c /. float_of_int n))
    counts

let test_alias_degenerate () =
  let t = Alias.create [| 0.0; 5.0; 0.0 |] in
  let rng = rng0 () in
  for _ = 1 to 1000 do
    Alcotest.(check int) "only outcome 1 possible" 1 (Alias.sample t rng)
  done

let test_alias_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Alias.create: empty weight vector")
    (fun () -> ignore (Alias.create [||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Alias.create: weights must be non-negative") (fun () ->
      ignore (Alias.create [| 1.0; -1.0 |]));
  Alcotest.check_raises "all zero"
    (Invalid_argument "Alias.create: weights sum to zero") (fun () ->
      ignore (Alias.create [| 0.0; 0.0 |]))

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Alcotest.(check bool) "fresh empty" true (Bitset.is_empty b);
  Bitset.set b 3;
  Bitset.set b 64;
  Bitset.set b 99;
  Alcotest.(check bool) "mem 64" true (Bitset.mem b 64);
  Alcotest.(check bool) "not mem 63" false (Bitset.mem b 63);
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal b);
  Bitset.clear b 64;
  Alcotest.(check int) "cardinal after clear" 2 (Bitset.cardinal b)

let test_bitset_set_ops () =
  let a = Bitset.of_list 20 [ 1; 2; 3 ] in
  let b = Bitset.of_list 20 [ 3; 4; 5 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4; 5 ]
    (Bitset.to_list (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 3 ] (Bitset.to_list (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (Bitset.to_list (Bitset.diff a b));
  Alcotest.(check bool) "not disjoint" false (Bitset.disjoint a b);
  Alcotest.(check bool) "disjoint"
    true
    (Bitset.disjoint a (Bitset.of_list 20 [ 10; 11 ]))

let test_bitset_union_in_place () =
  let a = Bitset.of_list 10 [ 0; 1 ] in
  let b = Bitset.of_list 10 [ 8; 9 ] in
  Bitset.union_in_place a b;
  Alcotest.(check (list int)) "in-place union" [ 0; 1; 8; 9 ] (Bitset.to_list a)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset.mem: index out of range") (fun () ->
      ignore (Bitset.mem b 10))

(* ------------------------------------------------------------------ *)
(* Rootfind / Grid                                                     *)
(* ------------------------------------------------------------------ *)

let test_rootfind_bisect () =
  let root = Rootfind.bisect (fun x -> (x *. x) -. 2.0) ~lo:0.0 ~hi:2.0 in
  Prop.check_close ~eps:1e-9 "sqrt 2 by bisection" (sqrt 2.0) root

let test_rootfind_brent () =
  let root = Rootfind.brent (fun x -> cos x -. x) ~lo:0.0 ~hi:1.0 in
  Prop.check_close ~eps:1e-9 "dottie number" 0.7390851332151607 root;
  Alcotest.check_raises "no sign change"
    (Invalid_argument "Rootfind.brent: no sign change over the bracket")
    (fun () -> ignore (Rootfind.brent (fun x -> x +. 10.0) ~lo:0.0 ~hi:1.0))

let test_rootfind_golden () =
  let m = Rootfind.minimize_golden (fun x -> (x -. 1.5) ** 2.0) ~lo:0.0 ~hi:4.0 in
  Prop.check_close ~eps:1e-6 "minimum of parabola" 1.5 m

let test_grid () =
  let ls = Grid.linspace ~lo:0.0 ~hi:1.0 ~n:5 in
  Prop.check_close "linspace start" 0.0 ls.(0);
  Prop.check_close "linspace end" 1.0 ls.(4);
  Prop.check_close "linspace step" 0.25 ls.(1);
  let lg = Grid.logspace ~lo:1.0 ~hi:100.0 ~n:3 in
  Prop.check_close ~eps:1e-12 "logspace middle" 10.0 lg.(1);
  let xs = Grid.linspace ~lo:0.0 ~hi:1.0 ~n:101 in
  Prop.check_close ~eps:1e-12 "trapezoid of x" 0.5
    (Grid.trapezoid ~xs ~ys:(Array.copy xs))

(* ------------------------------------------------------------------ *)
(* KS / Sampler                                                       *)
(* ------------------------------------------------------------------ *)

let test_ks_uniform () =
  let rng = rng0 () in
  let samples = Array.init 2000 (fun _ -> Rng.float rng) in
  let d = Ks.statistic samples (fun x -> max 0.0 (min 1.0 x)) in
  Alcotest.(check bool) "KS stat small for matching dist" true (d < 0.035);
  let p = Ks.p_value samples (fun x -> max 0.0 (min 1.0 x)) in
  Alcotest.(check bool) "p-value not tiny" true (p > 0.01)

let test_ks_mismatch () =
  let rng = rng0 () in
  let samples = Array.init 2000 (fun _ -> Rng.float rng ** 2.0) in
  let p = Ks.p_value samples (fun x -> max 0.0 (min 1.0 x)) in
  Alcotest.(check bool) "p-value tiny for wrong dist" true (p < 1e-6)

let test_ks_q_function () =
  Prop.check_close "Q(0) = 1" 1.0 (Ks.kolmogorov_q 0.0);
  Alcotest.(check bool) "Q decreasing" true
    (Ks.kolmogorov_q 0.5 > Ks.kolmogorov_q 1.0
    && Ks.kolmogorov_q 1.0 > Ks.kolmogorov_q 2.0);
  Alcotest.(check bool) "Q(3) tiny" true (Ks.kolmogorov_q 3.0 < 1e-6)

let test_sampler_exponential () =
  let rng = rng0 () in
  let samples = Array.init 100_000 (fun _ -> Sampler.exponential rng ~rate:2.0) in
  Prop.check_close ~eps:0.01 "exponential mean 1/rate" 0.5 (Stats.mean samples)

let test_sampler_binomial () =
  let rng = rng0 () in
  let samples =
    Array.init 50_000 (fun _ -> float_of_int (Sampler.binomial rng ~n:20 ~p:0.3))
  in
  Prop.check_close ~eps:0.05 "binomial mean" 6.0 (Stats.mean samples);
  Prop.check_close ~eps:0.1 "binomial variance" 4.2 (Stats.variance samples);
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "p = %g rejected" p)
        (Invalid_argument "Sampler.binomial: p outside [0, 1]")
        (fun () -> ignore (Sampler.binomial rng ~n:10 ~p)))
    [ 1.5; nan ]

let test_sampler_beta () =
  let rng = rng0 () in
  let samples = Array.init 50_000 (fun _ -> Sampler.beta rng ~a:2.0 ~b:3.0) in
  Array.iter
    (fun x -> if x < 0.0 || x > 1.0 then Alcotest.fail "beta out of range")
    samples;
  Prop.check_close ~eps:0.01 "beta mean a/(a+b)" 0.4 (Stats.mean samples)

let test_sampler_gamma () =
  let rng = rng0 () in
  let samples = Array.init 50_000 (fun _ -> Sampler.gamma rng ~shape:3.5) in
  Prop.check_close ~eps:0.05 "gamma mean = shape" 3.5 (Stats.mean samples);
  let small = Array.init 50_000 (fun _ -> Sampler.gamma rng ~shape:0.5) in
  Prop.check_close ~eps:0.02 "gamma mean, shape < 1" 0.5 (Stats.mean small)

let test_sampler_dirichlet () =
  let rng = rng0 () in
  for _ = 1 to 50 do
    let v = Sampler.dirichlet rng ~alphas:[| 1.0; 2.0; 3.0 |] in
    Prop.check_close ~eps:1e-12 "dirichlet sums to 1" 1.0 (Kahan.sum_array v);
    Array.iter
      (fun x -> if x < 0.0 then Alcotest.fail "negative dirichlet weight")
      v
  done

let test_sampler_power_law () =
  let rng = rng0 () in
  for _ = 1 to 2000 do
    let x = Sampler.power_law rng ~exponent:(-1.5) ~lo:0.01 ~hi:1.0 in
    if x < 0.01 || x > 1.0 then Alcotest.fail "power law out of bounds"
  done

let test_sampler_poisson () =
  let rng = rng0 () in
  let samples =
    Array.init 50_000 (fun _ -> float_of_int (Sampler.poisson rng ~lambda:4.0))
  in
  Prop.check_close ~eps:0.05 "poisson mean" 4.0 (Stats.mean samples);
  Prop.check_close ~eps:0.15 "poisson variance" 4.0 (Stats.variance samples)

let test_sampler_truncated () =
  let rng = rng0 () in
  for _ = 1 to 1000 do
    let x = Sampler.truncated rng ~lo:0.4 ~hi:0.6 (fun r -> Rng.float r) in
    if x < 0.4 || x > 0.6 then Alcotest.fail "truncated out of bounds"
  done

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let prop_quantile_monotone () =
  Prop.check ~cases:200 "quantile is monotone in p"
    (Prop.triple
       (Prop.array ~min_len:2 ~max_len:50 (Prop.float_range 0.0 100.0))
       (Prop.float_range 0.0 1.0) (Prop.float_range 0.0 1.0))
    (fun (a, p1, p2) ->
      let lo = min p1 p2 and hi = max p1 p2 in
      assert (Stats.quantile a lo <= Stats.quantile a hi +. 1e-9))

let prop_variance_nonnegative () =
  Prop.check ~cases:200 "variance is non-negative"
    (Prop.array ~min_len:2 ~max_len:50 (Prop.float_range (-100.0) 100.0))
    (fun a -> assert (Stats.variance a >= 0.0))

let prop_bitset_roundtrip () =
  Prop.check ~cases:200 "bitset of_list/to_list roundtrip"
    (Prop.array ~min_len:0 ~max_len:40 (Prop.int_range 0 99))
    (fun ids ->
      let ids = Array.to_list ids in
      let sorted = List.sort_uniq compare ids in
      assert (Bitset.to_list (Bitset.of_list 100 ids) = sorted))

let prop_erf_monotone () =
  Prop.check ~cases:200 "erf is monotone"
    (Prop.pair (Prop.float_range (-6.0) 6.0) (Prop.float_range (-6.0) 6.0))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      assert (Special.erf lo <= Special.erf hi +. 1e-15))

let prop_normal_ppf_inverse () =
  Prop.check ~cases:200 "Phi(Phi^-1(p)) = p"
    (Prop.float_range 1e-6 (1.0 -. 1e-6))
    (fun p ->
      assert (abs_float (Normal_dist.cdf (Normal_dist.ppf p) -. p) < 1e-10))

let prop_kahan_matches_naive_closely () =
  Prop.check ~cases:200 "kahan close to naive on benign data"
    (Prop.array ~min_len:1 ~max_len:100 (Prop.float_range (-1.0) 1.0))
    (fun a ->
      let naive = Array.fold_left ( +. ) 0.0 a in
      assert (abs_float (Kahan.sum_array a -. naive) < 1e-9))

let props =
  [
    Alcotest.test_case "quantile is monotone in p" `Quick
      prop_quantile_monotone;
    Alcotest.test_case "variance is non-negative" `Quick
      prop_variance_nonnegative;
    Alcotest.test_case "bitset of_list/to_list roundtrip" `Quick
      prop_bitset_roundtrip;
    Alcotest.test_case "erf is monotone" `Quick prop_erf_monotone;
    Alcotest.test_case "Phi(Phi^-1(p)) = p" `Quick prop_normal_ppf_inverse;
    Alcotest.test_case "kahan close to naive on benign data" `Quick
      prop_kahan_matches_naive_closely;
  ]

let () =
  Alcotest.run "numerics"
    [
      ( "kahan",
        [
          Alcotest.test_case "small terms" `Quick test_kahan_small_terms;
          Alcotest.test_case "sums" `Quick test_kahan_sum_array;
          Alcotest.test_case "dot" `Quick test_kahan_dot;
          Alcotest.test_case "reset" `Quick test_kahan_reset;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniform;
          Alcotest.test_case "bool extremes" `Quick test_rng_bool_extremes;
          Alcotest.test_case "bool frequency" `Quick test_rng_bool_frequency;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "special",
        [
          Alcotest.test_case "erf values" `Quick test_erf_known_values;
          Alcotest.test_case "erf odd" `Quick test_erf_odd;
          Alcotest.test_case "erfc values" `Quick test_erfc_known_values;
          Alcotest.test_case "erf+erfc" `Quick test_erf_erfc_complement;
          Alcotest.test_case "log_gamma" `Quick test_log_gamma;
          Alcotest.test_case "factorial/choose" `Quick test_log_factorial_choose;
          Alcotest.test_case "logsumexp" `Quick test_logsumexp;
        ] );
      ( "normal",
        [
          Alcotest.test_case "cdf values" `Quick test_normal_cdf_known;
          Alcotest.test_case "ppf values" `Quick test_normal_ppf_known;
          Alcotest.test_case "roundtrip" `Quick test_normal_ppf_cdf_roundtrip;
          Alcotest.test_case "location-scale" `Quick test_normal_location_scale;
          Alcotest.test_case "sf" `Quick test_normal_sf;
          Alcotest.test_case "pdf integral" `Quick test_normal_pdf_integrates;
          Alcotest.test_case "sampling moments" `Slow test_normal_sampling_moments;
          Alcotest.test_case "invalid args" `Quick test_normal_invalid_args;
        ] );
      ( "stats",
        [
          Alcotest.test_case "approx_eq" `Quick test_stats_approx_eq;
          Alcotest.test_case "approx_eq laws" `Quick test_stats_approx_eq_laws;
          Alcotest.test_case "is_zero" `Quick test_stats_is_zero;
          Alcotest.test_case "mean/variance" `Quick test_stats_mean_variance;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "quantiles" `Quick test_stats_quantiles;
          Alcotest.test_case "covariance" `Quick test_stats_covariance_correlation;
          Alcotest.test_case "empirical cdf" `Quick test_stats_empirical_cdf;
          Alcotest.test_case "wilson" `Quick test_stats_wilson;
        ] );
      ( "welford",
        [
          Alcotest.test_case "matches stats" `Quick test_welford_matches_stats;
          Alcotest.test_case "merge" `Quick test_welford_merge;
        ] );
      ( "alias",
        [
          Alcotest.test_case "normalisation" `Quick test_alias_normalisation;
          Alcotest.test_case "frequencies" `Slow test_alias_frequencies;
          Alcotest.test_case "degenerate" `Quick test_alias_degenerate;
          Alcotest.test_case "invalid" `Quick test_alias_invalid;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "set ops" `Quick test_bitset_set_ops;
          Alcotest.test_case "union in place" `Quick test_bitset_union_in_place;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        ] );
      ( "rootfind-deriv-grid",
        [
          Alcotest.test_case "bisect" `Quick test_rootfind_bisect;
          Alcotest.test_case "brent" `Quick test_rootfind_brent;
          Alcotest.test_case "golden" `Quick test_rootfind_golden;
          Alcotest.test_case "grid" `Quick test_grid;
        ] );
      ( "histogram-ks",
        [
          Alcotest.test_case "ks uniform" `Quick test_ks_uniform;
          Alcotest.test_case "ks mismatch" `Quick test_ks_mismatch;
          Alcotest.test_case "kolmogorov q" `Quick test_ks_q_function;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "exponential" `Slow test_sampler_exponential;
          Alcotest.test_case "binomial" `Slow test_sampler_binomial;
          Alcotest.test_case "beta" `Slow test_sampler_beta;
          Alcotest.test_case "gamma" `Slow test_sampler_gamma;
          Alcotest.test_case "dirichlet" `Quick test_sampler_dirichlet;
          Alcotest.test_case "power law" `Quick test_sampler_power_law;
          Alcotest.test_case "poisson" `Slow test_sampler_poisson;
          Alcotest.test_case "truncated" `Quick test_sampler_truncated;
        ] );
      ("properties", props);
    ]
