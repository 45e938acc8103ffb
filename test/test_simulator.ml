(* Tests for the protection-system simulator. *)

let rng0 () = Numerics.Rng.create ~seed:4242

let make_space () =
  let profile = Demandspace.Profile.uniform ~size:200 in
  let r1 = Demandspace.Region.interval ~space_size:200 ~lo:0 ~hi:19 in
  let r2 = Demandspace.Region.interval ~space_size:200 ~lo:50 ~hi:59 in
  let r3 = Demandspace.Region.points ~space_size:200 [ 100; 150 ] in
  Demandspace.Space.create ~profile
    ~faults:[| (r1, 0.4); (r2, 0.25); (r3, 0.6) |]

(* ------------------------------------------------------------------ *)
(* Devteam                                                             *)
(* ------------------------------------------------------------------ *)

let test_devteam_frequencies () =
  let rng = rng0 () in
  let u = Core.Universe.of_pairs [ (0.4, 0.1); (0.25, 0.1); (0.6, 0.1) ] in
  let counts = Array.make 3 0 in
  let n = 50_000 in
  for _ = 1 to n do
    List.iter
      (fun i -> counts.(i) <- counts.(i) + 1)
      (Simulator.Devteam.sample_fault_set rng u)
  done;
  Prop.check_close ~eps:0.01 "fault 0 at p0" 0.4
    (float_of_int counts.(0) /. float_of_int n);
  Prop.check_close ~eps:0.01 "fault 1 at p1" 0.25
    (float_of_int counts.(1) /. float_of_int n);
  Prop.check_close ~eps:0.01 "fault 2 at p2" 0.6
    (float_of_int counts.(2) /. float_of_int n)

let test_devteam_version_pfd () =
  let rng = rng0 () in
  let u = Core.Universe.of_pairs [ (0.5, 0.2); (0.5, 0.3) ] in
  let c = Simulator.Devteam.compile u in
  let acc = Numerics.Welford.create () in
  for _ = 1 to 50_000 do
    Numerics.Welford.add acc (Simulator.Devteam.version_pfd rng c)
  done;
  Prop.check_close ~eps:0.005 "mean version PFD = mu1" (Core.Moments.mu1 u)
    (Numerics.Welford.mean acc)

let test_devteam_pair_pfd () =
  let rng = rng0 () in
  let u = Core.Universe.of_pairs [ (0.5, 0.2); (0.3, 0.3) ] in
  let c = Simulator.Devteam.compile u in
  let acc = Numerics.Welford.create () in
  for _ = 1 to 50_000 do
    let _, _, pair = Simulator.Devteam.pair_pfd rng c in
    Numerics.Welford.add acc pair
  done;
  Prop.check_close ~eps:0.005 "mean pair PFD = mu2" (Core.Moments.mu2 u)
    (Numerics.Welford.mean acc)

let test_devteam_develop () =
  let rng = rng0 () in
  let space = make_space () in
  let v = Simulator.Devteam.develop rng space in
  List.iter
    (fun i -> if i < 0 || i > 2 then Alcotest.fail "fault index out of range")
    (Demandspace.Version.present_faults v)

(* ------------------------------------------------------------------ *)
(* Channel / Adjudicator / Protection                                  *)
(* ------------------------------------------------------------------ *)

let test_channel_respond () =
  let space = make_space () in
  let v = Demandspace.Version.create space [ 0 ] in
  let c = Simulator.Channel.create ~name:"A" v in
  Alcotest.check Prop.decision "fails inside its region" Core.Voting.No_action
    (Check.Reference.respond c (Demandspace.Demand.of_int 5));
  Alcotest.check Prop.decision "shuts down elsewhere" Core.Voting.Shutdown
    (Check.Reference.respond c (Demandspace.Demand.of_int 120));
  Prop.check_close ~eps:1e-12 "channel pfd" 0.1 (Simulator.Channel.pfd c)

let test_adjudicator_truth_table () =
  let open Core.Voting in
  let adj = vote ~required:1 and combine = Check.Reference.combine in
  Alcotest.check Prop.decision "both good" Shutdown
    (combine adj [ Shutdown; Shutdown ]);
  Alcotest.check Prop.decision "first fails" Shutdown
    (combine adj [ No_action; Shutdown ]);
  Alcotest.check Prop.decision "second fails" Shutdown
    (combine adj [ Shutdown; No_action ]);
  Alcotest.check Prop.decision "both fail" No_action
    (combine adj [ No_action; No_action ]);
  Alcotest.(check bool) "system fails only when all fail" true
    (Check.Reference.system_fails adj [ No_action; No_action ]);
  Alcotest.check_raises "empty outputs"
    (Invalid_argument "Reference.combine: no channel outputs") (fun () ->
      ignore (combine adj []))

let test_protection_pfd () =
  let space = make_space () in
  let a = Demandspace.Version.create space [ 0; 1 ] in
  let b = Demandspace.Version.create space [ 1; 2 ] in
  let system =
    Simulator.Protection.one_out_of_two
      (Simulator.Channel.create ~name:"A" a)
      (Simulator.Channel.create ~name:"B" b)
  in
  Prop.check_close ~eps:1e-12 "system pfd = common fault measure" 0.05
    (Simulator.Protection.true_pfd system);
  Prop.check_close ~eps:1e-12 "matches Version.pair_pfd"
    (Demandspace.Version.pair_pfd a b)
    (Simulator.Protection.true_pfd system);
  (* The system fails exactly on demands where both channels fail. *)
  Alcotest.(check bool) "fails on shared region" true
    (Simulator.Protection.fails_on system (Demandspace.Demand.of_int 55));
  Alcotest.(check bool) "survives single-channel fault" false
    (Simulator.Protection.fails_on system (Demandspace.Demand.of_int 5))

let test_protection_three_channels () =
  let space = make_space () in
  let mk faults = Simulator.Channel.create ~name:"x" (Demandspace.Version.create space faults) in
  let system = Simulator.Protection.create [ mk [ 0 ]; mk [ 0; 1 ]; mk [ 0; 2 ] ] in
  Prop.check_close ~eps:1e-12 "1oo3 pfd = triple intersection" 0.1
    (Simulator.Protection.true_pfd system)

(* Channels over demand spaces of different sizes cannot form a system:
   a smaller later channel would raise mid-simulation and a larger one
   would have its extra demands ignored. Both orders are rejected. *)
let test_protection_space_mismatch () =
  let small =
    let space =
      Demandspace.Space.create
        ~profile:(Demandspace.Profile.uniform ~size:100)
        ~faults:
          [| (Demandspace.Region.interval ~space_size:100 ~lo:0 ~hi:9, 0.5) |]
    in
    Simulator.Channel.create ~name:"small"
      (Demandspace.Version.create space [ 0 ])
  in
  let large =
    Simulator.Channel.create ~name:"large"
      (Demandspace.Version.create (make_space ()) [ 0 ])
  in
  let mismatch =
    Invalid_argument "Protection.create: channels over different demand spaces"
  in
  Alcotest.check_raises "smaller channel first" mismatch (fun () ->
      ignore (Simulator.Protection.one_out_of_two small large));
  Alcotest.check_raises "larger channel first" mismatch (fun () ->
      ignore (Simulator.Protection.one_out_of_two large small))

(* ------------------------------------------------------------------ *)
(* Adjudication calculus                                               *)
(* ------------------------------------------------------------------ *)

let test_decision_equal () =
  let open Core.Voting in
  let decisions = [ Shutdown; No_action; Abstain ] in
  (* equal_decision must agree with structural equality on the whole
     3x3 table *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Format.asprintf "equal %a %a" Prop.pp_decision a Prop.pp_decision
               b)
            (a = b) (equal_decision a b))
        decisions)
    decisions

let test_channel_abstain () =
  let space = make_space () in
  let v = Demandspace.Version.create space [ 0 ] in
  (* self-check covering the whole failure region: every failure becomes
     an abstention *)
  let self_check = Demandspace.Version.failure_set v in
  let c = Simulator.Channel.create ~self_check ~name:"A" v in
  Alcotest.check Prop.decision "abstains on a detected fault"
    Core.Voting.Abstain
    (Check.Reference.respond c (Demandspace.Demand.of_int 5));
  Alcotest.check Prop.decision "shuts down on clean demands"
    Core.Voting.Shutdown
    (Check.Reference.respond c (Demandspace.Demand.of_int 120));
  let abstains channel =
    Numerics.Bitset.mem
      (Simulator.Protection.abstain_set
         (Simulator.Protection.create [ channel ]))
      5
  in
  Alcotest.(check bool) "abstain set covers the detected region" true
    (abstains c);
  (* a plain channel on the same version never abstains *)
  let plain = Simulator.Channel.create ~name:"B" v in
  Alcotest.check Prop.decision "undetected failure is silent"
    Core.Voting.No_action
    (Check.Reference.respond plain (Demandspace.Demand.of_int 5));
  Alcotest.(check bool) "plain abstain set is empty" false (abstains plain);
  Alcotest.check_raises "mis-sized self-check"
    (Invalid_argument "Channel.create: self-check set sized to a different space")
    (fun () ->
      ignore
        (Simulator.Channel.create
           ~self_check:(Numerics.Bitset.create 7)
           ~name:"C" v))

let test_calculus_truth_tables () =
  let open Core.Voting in
  let combine = Check.Reference.combine in
  let sd = Shutdown and na = No_action and ab = Abstain in
  (* unit passes the verdict lattice through (any shutdown wins) *)
  Alcotest.check Prop.decision "unit keeps shutdown" sd (combine Unit [ sd; na ]);
  Alcotest.check Prop.decision "unit keeps abstain" ab (combine Unit [ ab ]);
  (* vote thresholds over mixed vectors: quorum met, lost, and broken *)
  let v2 = vote ~required:2 in
  Alcotest.check Prop.decision "2oo3 quorum met" sd (combine v2 [ sd; sd; na ]);
  Alcotest.check Prop.decision "2oo3 outvoted" na (combine v2 [ sd; na; na ]);
  Alcotest.check Prop.decision "2oo3 quorum broken by abstention" ab
    (combine v2 [ sd; ab; ab ]);
  (* the graceful-degradation cascade: a fallback OR rescues the vote *)
  let cascade = fallback v2 (vote ~required:1) in
  Alcotest.check Prop.decision "fallback rescues the broken quorum" sd
    (combine cascade [ sd; ab; ab ]);
  Alcotest.check Prop.decision "fallback does not fire on a definite verdict" na
    (combine cascade [ sd; na; na ]);
  (* compose cascades the survivors of the first stage *)
  let two_stage = compose v2 (vote ~required:1) in
  Alcotest.check Prop.decision "compose collapses the vote's verdict" sd
    (combine two_stage [ sd; sd; na ]);
  Alcotest.(check int) "min_channels of a vote" 2 (policy_min_channels v2);
  Alcotest.(check int) "min_channels of the cascade" 1
    (policy_min_channels cascade);
  Alcotest.(check bool) "terms compare structurally" true
    (cascade = fallback (vote ~required:2) (vote ~required:1));
  Alcotest.check_raises "vote threshold must be positive"
    (Invalid_argument "Voting.vote: required must be >= 1")
    (fun () -> ignore (vote ~required:0));
  Alcotest.check_raises "arity check"
    (Invalid_argument "Reference.combine: more votes required than channels")
    (fun () -> ignore (combine v2 [ sd ]))

let test_cascade_protection () =
  let space = make_space () in
  let va = Demandspace.Version.create space [ 0 ] in
  let vb = Demandspace.Version.create space [ 1 ] in
  let a =
    Simulator.Channel.create
      ~self_check:(Demandspace.Version.failure_set va)
      ~name:"A" va
  in
  let b = Simulator.Channel.create ~name:"B" vb in
  (* a demand in A's fault region: A abstains, B shuts down *)
  let d = Demandspace.Demand.of_int 5 in
  let strict = Simulator.Protection.create ~adjudicator:(Core.Voting.vote ~required:2) [ a; b ] in
  Alcotest.check Prop.decision "2oo2 loses its quorum" Core.Voting.Abstain
    (Simulator.Protection.respond strict d);
  Alcotest.(check bool) "2oo2 counts it as a system failure" true
    (Simulator.Protection.fails_on strict d);
  let graceful =
    Simulator.Protection.create
      ~adjudicator:
        Core.Voting.(fallback (vote ~required:2) (vote ~required:1))
      [ a; b ]
  in
  Alcotest.check Prop.decision "the cascade degrades to the surviving channel"
    Core.Voting.Shutdown
    (Simulator.Protection.respond graceful d);
  Alcotest.(check bool) "and handles the demand" false
    (Simulator.Protection.fails_on graceful d)

let test_runner_abstentions () =
  let rng = rng0 () in
  let space = make_space () in
  let v = Demandspace.Version.create space [ 0 ] in
  (* a single fully self-checking channel: every failure surfaces as a
     lost quorum, so the runner must attribute every system failure to an
     abstention *)
  let c =
    Simulator.Channel.create
      ~self_check:(Demandspace.Version.failure_set v)
      ~name:"A" v
  in
  let system = Simulator.Protection.create [ c ] in
  let stats = Simulator.Runner.run rng ~system ~demand_count:2000 in
  Alcotest.(check bool) "some demands hit the fault region" true
    (stats.Simulator.Runner.system_failures > 0);
  Alcotest.(check int) "every system failure is an abstention"
    stats.Simulator.Runner.system_failures
    stats.Simulator.Runner.system_abstentions;
  (* the same system without self-checking fails identically often on
     the same demand stream (the verdict changes, not the failure set) *)
  let rng' = rng0 () in
  let plain =
    Simulator.Protection.create [ Simulator.Channel.create ~name:"A" v ]
  in
  let stats' = Simulator.Runner.run rng' ~system:plain ~demand_count:2000 in
  Alcotest.(check int) "failure count matches the silent system"
    stats'.Simulator.Runner.system_failures
    stats.Simulator.Runner.system_failures;
  Alcotest.(check int) "silent system never abstains" 0
    stats'.Simulator.Runner.system_abstentions

(* The calculus checked exhaustively over a small scope instead of by
   sampling: every term with leaves [Unit]/[Vote 1..4] and at most three
   [Compose]/[Fallback] nodes (5 + 50 + 1,000 + 25,000 = 26,055 terms),
   on every vector of 0-5 channel outputs — the 56 count vectors and
   the 364 ordered ones. *)

(* [by_nodes.(k)]: every term with exactly [k] internal nodes. *)
let terms_by_nodes max_nodes =
  let open Core.Voting in
  let by_nodes =
    Array.make (max_nodes + 1) [ Unit; Vote 1; Vote 2; Vote 3; Vote 4 ]
  in
  for k = 1 to max_nodes do
    by_nodes.(k) <-
      List.concat_map
        (fun left_nodes ->
          List.concat_map
            (fun a ->
              List.concat_map
                (fun b -> [ Compose (a, b); Fallback (a, b) ])
                by_nodes.(k - 1 - left_nodes))
            by_nodes.(left_nodes))
        (List.init k Fun.id)
  done;
  by_nodes

let rec ordered_vectors n =
  if n = 0 then [ [] ]
  else
    List.concat_map
      (fun v -> Core.Voting.[ Shutdown :: v; No_action :: v; Abstain :: v ])
      (ordered_vectors (n - 1))

(* The documented semantics read directly off an ordered output list,
   with no reference to the counts algebra: [Unit] passes the list
   through, [Vote r] collapses it to one verdict, [Compose] hands the
   survivors on, [Fallback] re-reads the original list when the
   primary's verdict collapses to Abstain. *)
let rec survivors policy outs =
  let open Core.Voting in
  match policy with
  | Unit -> outs
  | Vote r ->
      (* shutdown votes and channels still voting, in one pass *)
      let rec tally shut voting = function
        | [] ->
            if shut >= r then [ Shutdown ]
            else if voting < r then [ Abstain ]
            else [ No_action ]
        | Shutdown :: rest -> tally (shut + 1) (voting + 1) rest
        | No_action :: rest -> tally shut (voting + 1) rest
        | Abstain :: rest -> tally shut voting rest
      in
      tally 0 0 outs
  | Compose (a, b) -> survivors b (survivors a outs)
  | Fallback (a, b) -> (
      let first = survivors a outs in
      match verdict first with Abstain -> survivors b outs | _ -> first)

(* Any surviving shutdown vote carries, then any silent failure. *)
and verdict outs =
  let open Core.Voting in
  let rec scan silent = function
    | [] -> if silent then No_action else Abstain
    | Shutdown :: _ -> Shutdown
    | No_action :: rest -> scan true rest
    | Abstain :: rest -> scan silent rest
  in
  scan false outs

let test_calculus_exhaustive () =
  let open Core.Voting in
  let max_channels = 5 in
  let by_nodes = terms_by_nodes 3 in
  (* a count vector's slot in a per-term verdict table *)
  let base = max_channels + 1 in
  let key s na ab = (((s * base) + na) * base) + ab in
  let upto n = List.init (n + 1) Fun.id in
  let count_vectors =
    List.concat_map
      (fun s ->
        List.concat_map
          (fun na ->
            List.map (fun ab -> (s, na, ab)) (upto (max_channels - s - na)))
          (upto (max_channels - s)))
      (upto max_channels)
  in
  let vectors =
    Array.of_list
      (List.concat_map
         (fun n ->
           List.map
             (fun outs ->
               let s, na, ab =
                 List.fold_left
                   (fun (s, na, ab) -> function
                     | Shutdown -> (s + 1, na, ab)
                     | No_action -> (s, na + 1, ab)
                     | Abstain -> (s, na, ab + 1))
                   (0, 0, 0) outs
               in
               (outs, key s na ab, n))
             (ordered_vectors n))
         (upto max_channels))
  in
  (* law -> (violation count, first counterexample) *)
  let violations = Hashtbl.create 8 in
  let violated law example =
    match Hashtbl.find_opt violations law with
    | Some (n, first) -> Hashtbl.replace violations law (n + 1, first)
    | None -> Hashtbl.replace violations law (1, example ())
  in
  let on_counts t (s, na, ab) () =
    Fmt.str "%a on (%d shutdown, %d no-action, %d abstain)" pp_policy t s na
      ab
  in
  let on_list t outs () =
    Fmt.str "%a on [%a]" pp_policy t
      Fmt.(list ~sep:semi Prop.pp_decision)
      outs
  in
  (* Per-channel states for [policy_defeat_prob]: a Shutdown entry is a
     clean channel (1 - p), No_action an undetected carrier p (1 - d),
     Abstain a detected carrier p d. *)
  let grid =
    List.concat_map
      (fun p -> List.map (fun d -> (p, d)) [ 0.0; 0.35; 0.5; 1.0 ])
      [ 0.0; 5e-324; 1e-3; 0.3; 0.5; 0.99; 1.0 ]
  in
  let state_probs =
    List.map
      (fun (p, d) ->
        Array.map
          (fun (outs, _, _) ->
            List.fold_left
              (fun acc o ->
                acc
                *.
                match o with
                | Shutdown -> 1.0 -. p
                | No_action -> p *. (1.0 -. d)
                | Abstain -> p *. d)
              1.0 outs)
          vectors)
      grid
  in
  let check_defeat_prob t table =
    List.iter2
      (fun (p, detection) probs ->
        (* enumerated.(n): the mass of the failing n-channel states *)
        let enumerated = Array.make (max_channels + 1) 0.0 in
        Array.iteri
          (fun i (_, k, n) ->
            if not (equal_decision table.(k) Shutdown) then
              enumerated.(n) <- enumerated.(n) +. probs.(i))
          vectors;
        for channels = 1 to max_channels do
          let closed = policy_defeat_prob t ~channels ~detection ~p () in
          if not (Float.abs (closed -. enumerated.(channels)) <= 1e-12) then
            violated "policy_defeat_prob = per-channel enumeration" (fun () ->
                Fmt.str "%a, %d channels, p %h, detection %g: %.17g vs %.17g"
                  pp_policy t channels p detection closed
                  enumerated.(channels))
        done)
      grid state_probs
  in
  Array.iteri
    (fun nodes terms ->
      List.iter
        (fun t ->
          let floor = policy_min_channels t in
          let table = Array.make (base * base * base) Abstain in
          List.iter
            (fun ((s, na, ab) as c) ->
              let d p = decide p ~shutdowns:s ~no_actions:na ~abstains:ab in
              let dt = d t in
              table.(key s na ab) <- dt;
              if not (equal_decision (d (compose Unit t)) dt) then
                violated "compose unit t = t" (on_counts t c);
              if not (equal_decision (d (compose t Unit)) dt) then
                violated "compose t unit = t" (on_counts t c);
              if ab = 0 && not (equal_decision (d (fallback t t)) dt) then
                violated "fallback t t = t (abstain-free)" (on_counts t c);
              if s + na + ab < floor && not (equal_decision dt Abstain) then
                violated "no verdict below policy_min_channels" (on_counts t c))
            count_vectors;
          Array.iter
            (fun (outs, k, n) ->
              if not (equal_decision (verdict (survivors t outs)) table.(k))
              then violated "decide = list interpreter" (on_list t outs);
              (* every ordering of a count vector: permutation invariance
                 of the list path. combine only counts before [decide],
                 so terms of up to two nodes cover it. *)
              if
                nodes <= 2 && n >= floor
                && not
                     (equal_decision (Check.Reference.combine t outs) table.(k))
              then
                violated "combine = decide on every ordering" (on_list t outs))
            vectors;
          if nodes <= 2 then check_defeat_prob t table)
        terms)
    by_nodes;
  Array.iter
    (fun (outs, _, n) ->
      if not (List.exists (equal_decision Abstain) outs) then
        for required = 1 to n do
          let legacy = Check.Reference.legacy_combine ~required outs in
          let t = vote ~required in
          if not (equal_decision (Check.Reference.combine t outs) legacy) then
            violated "vote r = legacy decision" (on_list t outs);
          if
            Check.Reference.system_fails t outs
            <> not (equal_decision legacy Shutdown)
          then violated "system_fails = legacy predicate" (on_list t outs)
        done)
    vectors;
  (* The floor is tight on the leaves and on two-vote fallbacks: some
     vector of exactly that many outputs gets a definite verdict. *)
  let two_vote_fallbacks =
    List.concat_map
      (fun a -> List.map (fun b -> fallback (Vote a) (Vote b)) [ 1; 2; 3; 4 ])
      [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun t ->
      let floor = policy_min_channels t in
      if
        not
          (List.exists
             (fun (s, na, ab) ->
               s + na + ab = floor
               && not
                    (equal_decision
                       (decide t ~shutdowns:s ~no_actions:na ~abstains:ab)
                       Abstain))
             count_vectors)
      then
        violated "policy_min_channels tight" (fun () ->
            Fmt.str "%a at %d channels" pp_policy t floor))
    (by_nodes.(0) @ two_vote_fallbacks);
  Alcotest.(check int) "terms in scope" 26_055
    (Array.fold_left (fun n ts -> n + List.length ts) 0 by_nodes);
  Alcotest.(check (list string))
    "no law violated in scope" []
    (List.sort compare
       (Hashtbl.fold
          (fun law (n, first) acc ->
            Printf.sprintf "%s: %d violations, first %s" law n first :: acc)
          violations []))

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let test_runner_empirical_pfd () =
  let rng = rng0 () in
  let space = make_space () in
  let a = Demandspace.Version.create space [ 0; 1 ] in
  let b = Demandspace.Version.create space [ 1 ] in
  let system =
    Simulator.Protection.one_out_of_two
      (Simulator.Channel.create ~name:"A" a)
      (Simulator.Channel.create ~name:"B" b)
  in
  let stats = Simulator.Runner.run rng ~system ~demand_count:100_000 in
  let truth = Simulator.Protection.true_pfd system in
  Prop.check_close ~eps:0.005 "empirical pfd converges" truth
    stats.Simulator.Runner.estimated_pfd;
  let lo, hi = stats.Simulator.Runner.pfd_ci in
  Alcotest.(check bool) "CI contains truth" true (lo <= truth && truth <= hi);
  Alcotest.(check int) "demand count recorded" 100_000 stats.Simulator.Runner.demands;
  (* channel A contains fault 0 and 1: pfd 0.15 *)
  let est = Simulator.Runner.channel_pfd_estimates stats in
  Prop.check_close ~eps:0.01 "channel A empirical pfd" 0.15 est.(0)

let test_runner_coincident () =
  let rng = rng0 () in
  let space = make_space () in
  let v = Demandspace.Version.create space [ 0 ] in
  let system =
    Simulator.Protection.one_out_of_two
      (Simulator.Channel.create ~name:"A" v)
      (Simulator.Channel.create ~name:"B" v)
  in
  let stats = Simulator.Runner.run rng ~system ~demand_count:20_000 in
  Alcotest.(check int) "identical channels fail coincidentally"
    stats.Simulator.Runner.system_failures stats.Simulator.Runner.coincident_failures

(* ------------------------------------------------------------------ *)
(* Montecarlo                                                          *)
(* ------------------------------------------------------------------ *)

let test_montecarlo_estimate () =
  let rng = rng0 () in
  let u = Core.Universe.of_pairs [ (0.3, 0.1); (0.2, 0.2); (0.4, 0.05) ] in
  let est = Simulator.Montecarlo.estimate rng u ~replications:60_000 in
  Prop.check_close ~eps:0.003 "theta1 mean" (Core.Moments.mu1 u)
    est.Simulator.Montecarlo.theta1.Numerics.Stats.mean;
  Prop.check_close ~eps:0.002 "theta2 mean" (Core.Moments.mu2 u)
    est.Simulator.Montecarlo.theta2.Numerics.Stats.mean;
  Prop.check_close ~eps:0.01 "P(N1>0)" (Core.Fault_count.p_n1_pos u)
    est.Simulator.Montecarlo.p_n1_pos;
  Prop.check_close ~eps:0.02 "risk ratio" (Core.Fault_count.risk_ratio u)
    est.Simulator.Montecarlo.risk_ratio

let test_montecarlo_sigma () =
  let rng = rng0 () in
  let u = Core.Universe.of_pairs [ (0.3, 0.1); (0.2, 0.2); (0.4, 0.05) ] in
  let est = Simulator.Montecarlo.estimate rng u ~replications:60_000 in
  Prop.check_close ~eps:0.003 "theta1 std" (Core.Moments.sigma1 u)
    est.Simulator.Montecarlo.theta1.Numerics.Stats.std

let test_version_population () =
  let rng = rng0 () in
  let space = make_space () in
  let pop = Simulator.Montecarlo.version_population rng space ~count:27 in
  Alcotest.(check int) "27 versions" 27
    (Array.length pop.Simulator.Montecarlo.version_pfds);
  Alcotest.(check int) "351 pairs" 351
    (Array.length pop.Simulator.Montecarlo.pair_pfds);
  let mean_ratio, std_ratio = Simulator.Montecarlo.knight_leveson_shape pop in
  Alcotest.(check bool) "pair mean below version mean" true (mean_ratio < 1.0);
  Alcotest.(check bool) "pair std below version std" true (std_ratio < 1.0)

(* Reproducibility regression guard: the RNG draw counter must be a pure
   function of the seed and the code path — equal seeds, equal draw
   counts, at both the abstract (universe) and concrete (demand-space)
   simulation levels. A change that breaks this silently reorders or
   adds randomness and invalidates seed-pinned experiment outputs. *)
let test_rng_draw_counts () =
  let draws_of seed =
    let rng = Numerics.Rng.create ~seed in
    let u = Core.Universe.of_pairs [ (0.3, 0.1); (0.2, 0.2); (0.4, 0.05) ] in
    ignore (Simulator.Montecarlo.estimate rng u ~replications:2_000);
    let space = make_space () in
    let va, vb = Simulator.Devteam.develop_pair rng space in
    let system =
      Simulator.Protection.one_out_of_two
        (Simulator.Channel.create ~name:"A" va)
        (Simulator.Channel.create ~name:"B" vb)
    in
    ignore (Simulator.Runner.run rng ~system ~demand_count:5_000);
    Numerics.Rng.draws rng
  in
  let d1 = draws_of 4242 and d2 = draws_of 4242 in
  Alcotest.(check int) "equal seeds give equal draw counts" d1 d2;
  Alcotest.(check bool) "draws were actually counted" true (d1 > 0);
  (* split children count their own draws from zero *)
  let parent = rng0 () in
  let child = Numerics.Rng.split parent ~index:1 in
  Alcotest.(check int) "split advances the parent once" 1
    (Numerics.Rng.draws parent);
  Alcotest.(check int) "child starts at zero" 0 (Numerics.Rng.draws child);
  ignore (Numerics.Rng.float child);
  Alcotest.(check int) "child counts independently" 1
    (Numerics.Rng.draws child)

let () =
  Alcotest.run "simulator"
    [
      ( "devteam",
        [
          Alcotest.test_case "fault frequencies" `Slow test_devteam_frequencies;
          Alcotest.test_case "version pfd mean" `Slow test_devteam_version_pfd;
          Alcotest.test_case "pair pfd mean" `Slow test_devteam_pair_pfd;
          Alcotest.test_case "develop" `Quick test_devteam_develop;
        ] );
      ( "channel-adjudicator",
        [
          Alcotest.test_case "channel respond" `Quick test_channel_respond;
          Alcotest.test_case "adjudicator truth table" `Quick
            test_adjudicator_truth_table;
          Alcotest.test_case "protection pfd" `Quick test_protection_pfd;
          Alcotest.test_case "three channels" `Quick test_protection_three_channels;
          Alcotest.test_case "channels over different spaces" `Quick
            test_protection_space_mismatch;
        ] );
      ( "adjudication-calculus",
        [
          Alcotest.test_case "decision equality" `Quick test_decision_equal;
          Alcotest.test_case "self-checking channel" `Quick test_channel_abstain;
          Alcotest.test_case "combinator truth tables" `Quick
            test_calculus_truth_tables;
          Alcotest.test_case "cascade protection" `Quick test_cascade_protection;
          Alcotest.test_case "runner abstentions" `Quick test_runner_abstentions;
          Alcotest.test_case "exhaustive small scope" `Quick
            test_calculus_exhaustive;
        ] );
      ( "plant-runner",
        [
          Alcotest.test_case "runner empirical pfd" `Slow test_runner_empirical_pfd;
          Alcotest.test_case "coincident failures" `Quick test_runner_coincident;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "estimate matches analytic" `Slow test_montecarlo_estimate;
          Alcotest.test_case "sigma matches" `Slow test_montecarlo_sigma;
          Alcotest.test_case "version population" `Quick test_version_population;
          Alcotest.test_case "rng draw counts reproducible" `Quick
            test_rng_draw_counts;
        ] );
    ]
