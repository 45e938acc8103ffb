(* Tests for the demand-space substrate. *)

open Demandspace

let rng0 () = Numerics.Rng.create ~seed:99

(* ------------------------------------------------------------------ *)
(* Demand                                                              *)
(* ------------------------------------------------------------------ *)

let test_demand_basic () =
  let d = Demand.of_int 17 in
  Alcotest.(check int) "roundtrip" 17 (Demand.to_int d);
  Alcotest.check_raises "negative id"
    (Invalid_argument "Demand.of_int: negative demand id") (fun () ->
      ignore (Demand.of_int (-1)))

let test_demand_coords () =
  let d = Demand.of_int 23 in
  let c = Demand.to_coords ~width:10 d in
  Alcotest.(check int) "var1" 3 c.Demand.var1;
  Alcotest.(check int) "var2" 2 c.Demand.var2;
  Alcotest.(check int) "coords roundtrip" 23
    (Demand.to_int (Demand.of_coords ~width:10 c))

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)
(* ------------------------------------------------------------------ *)

let test_profile_uniform () =
  let p = Profile.uniform ~size:10 in
  Alcotest.(check int) "size" 10 (Profile.size p);
  Prop.check_close "each demand 1/10" 0.1 (Profile.probability p (Demand.of_int 3));
  let full = Numerics.Bitset.of_list 10 (List.init 10 Fun.id) in
  Prop.check_close ~eps:1e-12 "measure of everything" 1.0 (Profile.measure p full)

let test_profile_zipf () =
  let p = Profile.zipf ~size:3 ~exponent:1.0 in
  let z = 1.0 +. 0.5 +. (1.0 /. 3.0) in
  Prop.check_close ~eps:1e-12 "zipf head" (1.0 /. z)
    (Profile.probability p (Demand.of_int 0));
  Prop.check_close ~eps:1e-12 "zipf tail" (1.0 /. 3.0 /. z)
    (Profile.probability p (Demand.of_int 2))

let test_profile_peaked () =
  let p = Profile.peaked ~size:5 ~peak:2 ~mass:0.6 in
  Prop.check_close "peak mass" 0.6 (Profile.probability p (Demand.of_int 2));
  Prop.check_close "others share" 0.1 (Profile.probability p (Demand.of_int 0))

let test_profile_sampling () =
  let p = Profile.peaked ~size:4 ~peak:1 ~mass:0.7 in
  let rng = rng0 () in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Demand.to_int (Profile.sample p rng) = 1 then incr hits
  done;
  Prop.check_close ~eps:0.01 "peak sampled at its mass" 0.7
    (float_of_int !hits /. float_of_int n)

let test_profile_measure_subset () =
  let p = Profile.uniform ~size:100 in
  let set = Numerics.Bitset.of_list 100 [ 0; 1; 2; 3; 4 ] in
  Prop.check_close ~eps:1e-12 "measure of 5 points" 0.05 (Profile.measure p set)

(* ------------------------------------------------------------------ *)
(* Region                                                              *)
(* ------------------------------------------------------------------ *)

let test_region_points () =
  let r = Region.points ~space_size:50 [ 1; 7; 7; 30 ] in
  Alcotest.(check int) "cardinal (dedup)" 3 (Region.cardinal r);
  Alcotest.(check bool) "mem" true (Region.mem r (Demand.of_int 7));
  Alcotest.(check bool) "not mem" false (Region.mem r (Demand.of_int 8));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Region.points: demand id out of range") (fun () ->
      ignore (Region.points ~space_size:10 [ 10 ]))

let test_region_interval () =
  let r = Region.interval ~space_size:20 ~lo:5 ~hi:9 in
  Alcotest.(check int) "cardinal" 5 (Region.cardinal r);
  Alcotest.(check bool) "endpoint" true (Region.mem r (Demand.of_int 9))

let test_region_box () =
  let r = Region.box ~width:10 ~height:8 ~x_lo:2 ~x_hi:4 ~y_lo:1 ~y_hi:2 in
  Alcotest.(check int) "3x2 box" 6 (Region.cardinal r);
  (* (3, 1) maps to id 13 on width 10 *)
  Alcotest.(check bool) "interior point" true (Region.mem r (Demand.of_int 13))

let test_region_line () =
  let r = Region.line ~width:10 ~height:10 ~x0:0 ~y0:0 ~dx:1 ~dy:1 ~steps:5 in
  Alcotest.(check int) "diagonal length" 5 (Region.cardinal r);
  Alcotest.(check bool) "diagonal point (3,3)" true (Region.mem r (Demand.of_int 33));
  (* clipping: most of the line falls off the grid but some stays *)
  let clipped = Region.line ~width:10 ~height:10 ~x0:8 ~y0:8 ~dx:1 ~dy:1 ~steps:5 in
  Alcotest.(check int) "clipped" 2 (Region.cardinal clipped);
  Alcotest.check_raises "entirely off grid"
    (Invalid_argument "Region.line: line misses the grid entirely") (fun () ->
      ignore (Region.line ~width:5 ~height:5 ~x0:10 ~y0:10 ~dx:1 ~dy:0 ~steps:3))

let test_region_scatter () =
  let rng = rng0 () in
  let r = Region.scatter rng ~space_size:1000 ~count:25 in
  Alcotest.(check int) "scatter count" 25 (Region.cardinal r);
  let dense = Region.scatter rng ~space_size:20 ~count:15 in
  Alcotest.(check int) "dense scatter count" 15 (Region.cardinal dense)

let test_region_measure () =
  let p = Profile.uniform ~size:100 in
  let r = Region.interval ~space_size:100 ~lo:0 ~hi:24 in
  Prop.check_close ~eps:1e-12 "measure = cardinality/size" 0.25 (Region.measure r p)

let test_region_disjoint_union () =
  let a = Region.interval ~space_size:30 ~lo:0 ~hi:9 in
  let b = Region.interval ~space_size:30 ~lo:10 ~hi:19 in
  let c = Region.interval ~space_size:30 ~lo:5 ~hi:14 in
  Alcotest.(check bool) "a,b disjoint" true (Region.disjoint a b);
  Alcotest.(check bool) "a,c overlap" false (Region.disjoint a c);
  Alcotest.(check int) "union cardinality" 20
    (Numerics.Bitset.cardinal (Region.union_members [ a; b ]))

(* ------------------------------------------------------------------ *)
(* Space and Version                                                   *)
(* ------------------------------------------------------------------ *)

let make_space () =
  let profile = Profile.uniform ~size:100 in
  let r1 = Region.interval ~space_size:100 ~lo:0 ~hi:9 in
  let r2 = Region.interval ~space_size:100 ~lo:20 ~hi:24 in
  let r3 = Region.points ~space_size:100 [ 50; 60; 70 ] in
  Space.create ~profile ~faults:[| (r1, 0.5); (r2, 0.2); (r3, 0.1) |]

let test_space_basic () =
  let s = make_space () in
  Alcotest.(check int) "fault count" 3 (Space.fault_count s);
  Alcotest.(check bool) "disjoint" true (Space.regions_disjoint s);
  Alcotest.(check (list (pair int int))) "no overlap pairs" []
    (Space.overlap_pairs s);
  let q = Space.region_measures s in
  Prop.check_close "q1" 0.1 q.(0);
  Prop.check_close "q2" 0.05 q.(1);
  Prop.check_close "q3" 0.03 q.(2)

let test_space_rejects_probabilities () =
  let profile = Profile.uniform ~size:10 in
  let r = Region.interval ~space_size:10 ~lo:0 ~hi:3 in
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "introduction probability %g" p)
        (Invalid_argument
           "Space.create: introduction probability outside [0, 1]")
        (fun () -> ignore (Space.create ~profile ~faults:[| (r, p) |])))
    [ 1.5; -0.1; nan ]

let test_space_to_universe () =
  let s = make_space () in
  let u = Space.to_universe s in
  Alcotest.(check int) "universe size" 3 (Core.Universe.size u);
  Prop.check_close ~eps:1e-12 "mu1 from space"
    ((0.5 *. 0.1) +. (0.2 *. 0.05) +. (0.1 *. 0.03))
    (Core.Moments.mu1 u)

let test_space_overlap_detection () =
  let profile = Profile.uniform ~size:50 in
  let r1 = Region.interval ~space_size:50 ~lo:0 ~hi:10 in
  let r2 = Region.interval ~space_size:50 ~lo:8 ~hi:20 in
  let s = Space.create ~profile ~faults:[| (r1, 0.1); (r2, 0.1) |] in
  Alcotest.(check bool) "not disjoint" false (Space.regions_disjoint s);
  Alcotest.(check (list (pair int int))) "overlap pair found" [ (0, 1) ]
    (Space.overlap_pairs s)

let test_version_basic () =
  let s = make_space () in
  let v = Version.create s [ 0; 2 ] in
  Alcotest.(check (list int)) "present" [ 0; 2 ] (Version.present_faults v);
  Alcotest.(check bool) "has fault 0" true (Version.has_fault v 0);
  Alcotest.(check bool) "lacks fault 1" false (Version.has_fault v 1);
  Prop.check_close ~eps:1e-12 "pfd = union measure" 0.13 (Version.pfd v);
  Prop.check_close ~eps:1e-12 "additive equals pfd when disjoint" (Version.pfd v)
    (Version.additive_pfd v);
  Alcotest.(check bool) "fails inside region" true
    (Version.fails_on v (Demand.of_int 5));
  Alcotest.(check bool) "correct outside" false
    (Version.fails_on v (Demand.of_int 30))

let test_version_perfect () =
  let s = make_space () in
  let v = Version.perfect s in
  Prop.check_close "perfect has pfd 0" 0.0 (Version.pfd v);
  Alcotest.(check bool) "never fails" false (Version.fails_on v (Demand.of_int 5))

let test_version_pair () =
  let s = make_space () in
  let a = Version.create s [ 0; 1 ] in
  let b = Version.create s [ 1; 2 ] in
  Alcotest.(check (list int)) "common faults" [ 1 ] (Version.common_faults a b);
  Prop.check_close ~eps:1e-12 "pair pfd = common region measure" 0.05
    (Version.pair_pfd a b);
  Prop.check_close ~eps:1e-12 "pair pfd symmetric" (Version.pair_pfd a b)
    (Version.pair_pfd b a)

let test_version_pair_overlap () =
  (* Overlapping regions of DIFFERENT faults create pair failure points. *)
  let profile = Profile.uniform ~size:50 in
  let r1 = Region.interval ~space_size:50 ~lo:0 ~hi:10 in
  let r2 = Region.interval ~space_size:50 ~lo:8 ~hi:20 in
  let s = Space.create ~profile ~faults:[| (r1, 0.5); (r2, 0.5) |] in
  let a = Version.create s [ 0 ] in
  let b = Version.create s [ 1 ] in
  Prop.check_close ~eps:1e-12 "pair fails on the overlap" (3.0 /. 50.0)
    (Version.pair_pfd a b)

(* ------------------------------------------------------------------ *)
(* Genspace                                                            *)
(* ------------------------------------------------------------------ *)

let test_genspace_disjoint_placement () =
  let rng = rng0 () in
  for _ = 1 to 5 do
    let regions =
      Genspace.place_disjoint rng ~width:40 ~height:40 ~n_faults:15 ~max_extent:5
    in
    Alcotest.(check int) "requested faults placed" 15 (Array.length regions);
    Array.iteri
      (fun i ri ->
        Array.iteri
          (fun j rj ->
            if i < j && not (Region.disjoint ri rj) then
              Alcotest.fail "placed regions overlap")
          regions)
      regions
  done

let test_genspace_disjoint_space () =
  let rng = rng0 () in
  let s =
    Genspace.disjoint_space rng ~width:32 ~height:32 ~n_faults:10 ~max_extent:4
      ~p_lo:0.1 ~p_hi:0.3
      ~profile:(Profile.uniform ~size:(32 * 32))
  in
  Alcotest.(check bool) "space is disjoint" true (Space.regions_disjoint s);
  for i = 0 to 9 do
    let p = Space.introduction_prob s i in
    if p < 0.1 || p > 0.3 then Alcotest.fail "p outside requested range"
  done

let test_genspace_fig2 () =
  let rng = rng0 () in
  let s = Genspace.fig2 rng ~width:48 ~height:24 in
  Alcotest.(check int) "five regions" 5 (Space.fault_count s);
  Alcotest.(check bool) "fig2 disjoint" true (Space.regions_disjoint s);
  let rows = Genspace.render ~width:48 ~height:24 s in
  Alcotest.(check int) "render rows" 24 (List.length rows);
  List.iter
    (fun row -> Alcotest.(check int) "render width" 48 (String.length row))
    rows;
  Alcotest.(check bool) "render shows regions" true
    (List.exists (fun row -> String.contains row '1') rows)

let test_genspace_crowding_raises () =
  let rng = rng0 () in
  Alcotest.(check bool) "impossible placement raises" true
    (try
       ignore
         (Genspace.place_disjoint rng ~width:4 ~height:4 ~n_faults:40
            ~max_extent:4);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_profile_normalised () =
  Prop.check ~cases:100 "profile probabilities sum to 1"
    (Prop.array ~min_len:1 ~max_len:50 (Prop.float_range 0.01 10.0))
    (fun weights ->
      let p = Profile.of_weights weights in
      let total =
        Numerics.Kahan.sum_over (Profile.size p) (fun i ->
            Profile.probability p (Demand.of_int i))
      in
      assert (abs_float (total -. 1.0) < 1e-9))

let prop_version_additive_ge_pfd () =
  Prop.check ~cases:50 "additive PFD >= true PFD" (Prop.int_range 0 1000)
    (fun seed ->
      let rng = Numerics.Rng.create ~seed in
      let s =
        Genspace.overlapping_space rng ~width:20 ~height:20 ~n_faults:6
          ~max_extent:6 ~p_lo:0.2 ~p_hi:0.8
          ~profile:(Profile.uniform ~size:400)
      in
      let faults =
        List.filter (fun _ -> Numerics.Rng.bool rng ~p:0.5) [ 0; 1; 2; 3; 4; 5 ]
      in
      let v = Version.create s faults in
      assert (Version.additive_pfd v >= Version.pfd v -. 1e-12))

let props =
  [
    Alcotest.test_case "profile probabilities sum to 1" `Quick
      prop_profile_normalised;
    Alcotest.test_case "additive PFD >= true PFD" `Quick
      prop_version_additive_ge_pfd;
  ]

let () =
  Alcotest.run "demandspace"
    [
      ( "demand",
        [
          Alcotest.test_case "basic" `Quick test_demand_basic;
          Alcotest.test_case "coords" `Quick test_demand_coords;
        ] );
      ( "profile",
        [
          Alcotest.test_case "uniform" `Quick test_profile_uniform;
          Alcotest.test_case "zipf" `Quick test_profile_zipf;
          Alcotest.test_case "peaked" `Quick test_profile_peaked;
          Alcotest.test_case "sampling" `Slow test_profile_sampling;
          Alcotest.test_case "measure subset" `Quick test_profile_measure_subset;
        ] );
      ( "region",
        [
          Alcotest.test_case "points" `Quick test_region_points;
          Alcotest.test_case "interval" `Quick test_region_interval;
          Alcotest.test_case "box" `Quick test_region_box;
          Alcotest.test_case "line" `Quick test_region_line;
          Alcotest.test_case "scatter" `Quick test_region_scatter;
          Alcotest.test_case "measure" `Quick test_region_measure;
          Alcotest.test_case "disjoint/union" `Quick test_region_disjoint_union;
        ] );
      ( "space",
        [
          Alcotest.test_case "basic" `Quick test_space_basic;
          Alcotest.test_case "rejects probabilities" `Quick
            test_space_rejects_probabilities;
          Alcotest.test_case "to universe" `Quick test_space_to_universe;
          Alcotest.test_case "overlap detection" `Quick test_space_overlap_detection;
        ] );
      ( "version",
        [
          Alcotest.test_case "basic" `Quick test_version_basic;
          Alcotest.test_case "perfect" `Quick test_version_perfect;
          Alcotest.test_case "pair" `Quick test_version_pair;
          Alcotest.test_case "pair with overlap" `Quick test_version_pair_overlap;
        ] );
      ( "genspace",
        [
          Alcotest.test_case "disjoint placement" `Quick test_genspace_disjoint_placement;
          Alcotest.test_case "disjoint space" `Quick test_genspace_disjoint_space;
          Alcotest.test_case "fig2" `Quick test_genspace_fig2;
          Alcotest.test_case "crowding" `Quick test_genspace_crowding_raises;
        ] );
      ("properties", props);
    ]
