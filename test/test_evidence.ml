(* lib/evidence end to end: the streaming proven-in-use assessor.

   The load-bearing property is that the final verdict is a pure
   function of the run log's contents — any windowing of the stream
   (window size 1, 64, random split points, one batch) renders byte
   for byte the same verdict — and that the assessor's counters
   reconcile exactly with what Fleet.observe reports for the same
   seed. The CLI verb is smoke-tested through the real executable. *)

module Assessor = Evidence.Assessor
module Verdict = Evidence.Verdict
module Drift = Evidence.Drift
module Schema = Evidence.Schema
module Source = Evidence.Source
module Runlog = Obs.Runlog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fixture: a small logged fleet campaign                             *)
(* ------------------------------------------------------------------ *)

let small_space () =
  let size = 64 in
  let faults =
    [|
      (Demandspace.Region.interval ~space_size:size ~lo:3 ~hi:6, 0.4);
      (Demandspace.Region.interval ~space_size:size ~lo:20 ~hi:24, 0.3);
      (Demandspace.Region.interval ~space_size:size ~lo:40 ~hi:41, 0.5);
    |]
  in
  Demandspace.Space.create
    ~profile:(Demandspace.Profile.uniform ~size)
    ~faults

let with_temp_file f =
  let path = Filename.temp_file "evidence_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* Deploy and observe a fleet with a streaming run-log sink on a file,
   exactly as the CLI does with --log, and return the log's lines next
   to the in-process observation for reconciliation. ~shards:1 keeps the
   event order deterministic (sharded observation records runner.run
   events from worker domains). *)
let fleet_log ~seed ~plants ~demands_per_plant =
  let space = small_space () in
  let rng = Numerics.Rng.create ~seed in
  with_temp_file (fun path ->
      let oc = open_out path in
      Runlog.set_sink (Some (Runlog.create_streaming oc));
      let fleet =
        Fun.protect
          ~finally:(fun () ->
            Runlog.set_sink None;
            close_out oc)
          (fun () ->
            Runlog.record ~kind:"run.start"
              [
                ("target", Obs.Json.String "test.fleet");
                ("seed", Obs.Json.Int seed);
                ("shards", Obs.Json.Int 1);
              ];
            let systems =
              Simulator.Fleet.deploy_pairs ~shards:1 rng space ~plants
            in
            let fleet =
              Simulator.Fleet.observe ~shards:1 rng systems ~demands_per_plant
            in
            Runlog.record ~kind:"run.end"
              [
                ("target", Obs.Json.String "test.fleet");
                ("seed", Obs.Json.Int seed);
                ("shards", Obs.Json.Int 1);
                ("rng_draws", Obs.Json.Int (Numerics.Rng.total_draws ()));
                ("duration_ns", Obs.Json.Int 0);
              ];
            fleet)
      in
      (read_lines path, fleet))

let uniform_profile size =
  Demandspace.Profile.probabilities (Demandspace.Profile.uniform ~size)

let config_with_profile () =
  {
    Assessor.default_config with
    Assessor.expected_profile = Some (uniform_profile 64);
  }

let verdict_of_lines config lines =
  let a = Assessor.create config in
  List.iter (Assessor.ingest_line a) lines;
  Verdict.render_json (Verdict.of_assessor a)

(* Write [lines] to a run-log file and hand [f] a cursor over it: the
   path the CLI ingests through. *)
let with_source lines f =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      let src = Source.open_file path in
      Fun.protect ~finally:(fun () -> Source.close src) (fun () -> f src))

(* ------------------------------------------------------------------ *)
(* Windowed streaming == batch                                        *)
(* ------------------------------------------------------------------ *)

let test_windowed_equals_batch () =
  let lines, _fleet = fleet_log ~seed:11 ~plants:6 ~demands_per_plant:300 in
  let n = List.length lines in
  let config = config_with_profile () in
  let batch = verdict_of_lines config lines in
  let windowed w =
    let a = Assessor.create config in
    with_source lines (fun src ->
        let rec go () =
          let read = Assessor.ingest_source a src ~max_lines:w in
          (* interim verdicts must not perturb the final one *)
          ignore (Verdict.of_assessor a);
          if read = w then go ()
        in
        go ());
    Verdict.render_json (Verdict.of_assessor a)
  in
  Prop.check ~cases:30 "windowed streaming == batch"
    (Prop.int_range 1 n)
    (fun w ->
      let v = windowed w in
      if v <> batch then
        Alcotest.failf "window %d diverges from the batch verdict" w)

let test_random_split_points () =
  let lines, _fleet = fleet_log ~seed:12 ~plants:5 ~demands_per_plant:250 in
  let n = List.length lines in
  let config = config_with_profile () in
  let batch = verdict_of_lines config lines in
  Prop.check ~cases:30 "any split points == batch"
    (Prop.pair (Prop.int_range 0 n) (Prop.int_range 0 n))
    (fun (i, j) ->
      let lo = min i j and hi = max i j in
      let a = Assessor.create config in
      with_source lines (fun src ->
          List.iter
            (fun k -> ignore (Assessor.ingest_source a src ~max_lines:k))
            [ lo; hi - lo; n - hi ]);
      let v = Verdict.render_json (Verdict.of_assessor a) in
      if v <> batch then
        Alcotest.failf "splits (%d, %d) diverge from the batch verdict" lo hi)

(* A verdict is a snapshot: ingesting more lines after it was taken
   moves the assessor, not the verdict. *)
let test_verdict_is_a_snapshot () =
  let lines, _fleet = fleet_log ~seed:14 ~plants:5 ~demands_per_plant:200 in
  let half = List.length lines / 2 in
  let a = Assessor.create (config_with_profile ()) in
  List.iteri (fun i l -> if i < half then Assessor.ingest_line a l) lines;
  let v = Verdict.of_assessor a in
  let json = Verdict.render_json v and text = Verdict.render_text v in
  List.iteri (fun i l -> if i >= half then Assessor.ingest_line a l) lines;
  check_string "JSON unchanged by later ingest" json (Verdict.render_json v);
  check_string "text unchanged by later ingest" text (Verdict.render_text v);
  check_bool "the assessor itself moved on" true
    (Verdict.render_json (Verdict.of_assessor a) <> json)

(* A sharded campaign records its runner.run and fleet.plant events in
   whatever order its domains finish; the verdict must not notice. *)
let test_reordered_lines () =
  let lines, _fleet = fleet_log ~seed:26 ~plants:8 ~demands_per_plant:200 in
  let config = config_with_profile () in
  let in_order = verdict_of_lines config lines in
  let lines = Array.of_list lines in
  let movable =
    List.init (Array.length lines) Fun.id
    |> List.filter (fun i ->
           match Schema.parse_line lines.(i) with
           | Schema.Event (Schema.Runner_run _ | Schema.Fleet_plant _) -> true
           | _ -> false)
    |> Array.of_list
  in
  check_bool "the log has runner.run and fleet.plant lines to move" true
    (Array.length movable > 8);
  let permutation =
    Prop.make
      ~pp:(fun ppf p ->
        Format.fprintf ppf "[%s]"
          (String.concat "; " (Array.to_list (Array.map string_of_int p))))
      (fun rng ->
        let p = Array.copy movable in
        for i = Array.length p - 1 downto 1 do
          let j = Numerics.Rng.int rng (i + 1) in
          let x = p.(i) in
          p.(i) <- p.(j);
          p.(j) <- x
        done;
        p)
  in
  Prop.check ~cases:30 "reordered runner.run/fleet.plant lines == in order"
    permutation (fun p ->
      let shuffled = Array.copy lines in
      Array.iteri (fun k src -> shuffled.(movable.(k)) <- lines.(src)) p;
      if verdict_of_lines config (Array.to_list shuffled) <> in_order then
        Alcotest.fail "the reordered log renders a different verdict")

(* ------------------------------------------------------------------ *)
(* Reconciliation with Fleet.observe                                  *)
(* ------------------------------------------------------------------ *)

let test_reconciles_with_fleet_observe () =
  let plants = 7 and demands_per_plant = 400 in
  let lines, fleet = fleet_log ~seed:42 ~plants ~demands_per_plant in
  let a = Assessor.create (config_with_profile ()) in
  List.iter (Assessor.ingest_line a) lines;
  let v = Verdict.of_assessor a in
  check_int "plants" plants (List.length v.Verdict.plants);
  check_int "fleet demands" (plants * demands_per_plant) v.Verdict.fleet.demands;
  check_int "fleet failures"
    (Simulator.Fleet.total_failures fleet)
    v.Verdict.fleet.failures;
  let records = Simulator.Fleet.records fleet in
  let per_plant = Assessor.plant_counts a in
  check_int "one entry per plant" plants (List.length per_plant);
  List.iteri
    (fun i (c : Assessor.plant_counts) ->
      check_int (Printf.sprintf "plant %d id" i) i c.Assessor.plant;
      check_int
        (Printf.sprintf "plant %d demands" i)
        records.(i).Simulator.Fleet.demands c.Assessor.demands;
      check_int
        (Printf.sprintf "plant %d failures" i)
        records.(i).Simulator.Fleet.failures c.Assessor.failures)
    per_plant;
  (* runner.run events cover the same campaign: totals agree *)
  let c = v.Verdict.counts in
  check_int "runner demands" v.Verdict.fleet.demands c.Assessor.runner_demands;
  check_int "runner failures" v.Verdict.fleet.failures c.Assessor.runner_failures;
  (* the demand histogram accounts for every demand *)
  let hist_total = Array.fold_left ( + ) 0 (Assessor.demand_counts a) in
  check_int "demand histogram total" v.Verdict.fleet.demands hist_total;
  check_bool "verdict reconciled against fleet.observe" true
    v.Verdict.reconciled;
  check_int "no skipped events" 0 c.Assessor.skipped_total;
  check_int "no malformed lines" 0 c.Assessor.malformed

(* ------------------------------------------------------------------ *)
(* Drift detection                                                    *)
(* ------------------------------------------------------------------ *)

let sampled_counts profile ~size ~seed ~n =
  let rng = Numerics.Rng.create ~seed in
  let counts = Array.make size 0 in
  let buf = Array.make n 0 in
  Demandspace.Profile.sample_many profile rng buf ~n;
  Array.iter (fun id -> counts.(id) <- counts.(id) + 1) buf;
  counts

let test_drift_true_negative () =
  (* Evidence really drawn from the declared profile: no alarm. *)
  let size = 200 in
  let uniform = Demandspace.Profile.uniform ~size in
  let counts = sampled_counts uniform ~size ~seed:7 ~n:20_000 in
  let r =
    Drift.assess
      ~expected:(Demandspace.Profile.probabilities uniform)
      ~counts ~alpha:1e-3
  in
  check_bool
    (Printf.sprintf "no alarm on matching profile (p=%g)" r.Drift.p_value)
    false r.Drift.alarm;
  check_int "no impossible demands" 0 r.Drift.impossible

let test_drift_true_positive () =
  (* Evidence drawn from a zipf profile, declared uniform: alarm. *)
  let size = 200 in
  let zipf = Demandspace.Profile.zipf ~size ~exponent:1.2 in
  let counts = sampled_counts zipf ~size ~seed:7 ~n:20_000 in
  let r =
    Drift.assess
      ~expected:(Demandspace.Profile.probabilities
                   (Demandspace.Profile.uniform ~size))
      ~counts ~alpha:1e-3
  in
  check_bool
    (Printf.sprintf "alarm on drifted profile (p=%g)" r.Drift.p_value)
    true r.Drift.alarm

let test_drift_impossible_demands () =
  (* Demands where the declared profile has zero mass always alarm,
     with finite statistics. *)
  let expected = [| 0.5; 0.5; 0.0 |] in
  let counts = [| 40; 45; 5 |] in
  let r = Drift.assess ~expected ~counts ~alpha:1e-3 in
  check_int "impossible demands counted" 5 r.Drift.impossible;
  check_bool "alarm" true r.Drift.alarm;
  check_bool "statistics stay finite" true
    (Float.is_finite r.Drift.chi_square && Float.is_finite r.Drift.p_value
   && Float.is_finite r.Drift.kl_divergence)

let test_drift_alarm_rejects_verdict () =
  (* End to end: a fleet log assessed under the wrong declared profile
     is rejected for drift regardless of its failure record. *)
  let lines, _fleet = fleet_log ~seed:13 ~plants:6 ~demands_per_plant:2_000 in
  let config =
    {
      Assessor.default_config with
      Assessor.expected_profile =
        Some
          (Demandspace.Profile.probabilities
             (Demandspace.Profile.peaked ~size:64 ~peak:0 ~mass:0.9));
    }
  in
  let a = Assessor.create config in
  List.iter (Assessor.ingest_line a) lines;
  let v = Verdict.of_assessor a in
  (match v.Verdict.fleet.drift with
  | Some d -> check_bool "drift alarm raised" true d.Drift.alarm
  | None -> Alcotest.fail "drift detection should be enabled");
  check_string "verdict rejected" "rejected"
    (Verdict.overall_string v.Verdict.fleet.overall)

(* ------------------------------------------------------------------ *)
(* Schema robustness                                                  *)
(* ------------------------------------------------------------------ *)

let test_malformed_and_skipped () =
  let a = Assessor.create Assessor.default_config in
  Assessor.ingest_line a "this is not json";
  Assessor.ingest_line a "{\"event\":\"mystery.kind\",\"x\":1}";
  Assessor.ingest_line a "{\"event\":\"mystery.kind\"}";
  Assessor.ingest_line a "{\"no_event_field\":true}";
  (* well-formed JSON, out-of-range values: counted as malformed *)
  Assessor.ingest_line a
    "{\"event\":\"fleet.plant\",\"plant\":0,\"demands\":10,\"failures\":11,\"true_pfd\":0.1}";
  Assessor.ingest_line a
    "{\"event\":\"fleet.plant\",\"plant\":1,\"demands\":10,\"failures\":2,\"true_pfd\":0.1}";
  let v = Verdict.of_assessor a in
  let c = v.Verdict.counts in
  check_int "one event consumed" 1 c.Assessor.accepted;
  check_int "unknown kinds counted, not fatal" 2 c.Assessor.skipped_total;
  check_bool "skipped kinds tallied by name" true
    (List.assoc_opt "mystery.kind" v.Verdict.skipped_kinds = Some 2);
  check_int "malformed lines counted" 3 c.Assessor.malformed;
  check_int "only the valid plant landed" 10 v.Verdict.fleet.demands

let test_schema_parse () =
  (match
     Schema.parse_line
       "{\"event\":\"sprt.decision\",\"decision\":\"accept\",\"demands\":5,\"failures\":0,\"log_lr\":-4.7}"
   with
  | Schema.Event
      (Schema.Sprt_decision { decision; demands; failures = _; log_lr = _ }) ->
      check_bool "decision" true (decision = Schema.Accept);
      check_int "demands" 5 demands
  | _ -> Alcotest.fail "sprt.decision should parse");
  (match Schema.parse_line "{\"event\":\"campaign.mission\",\"missions\":3}" with
  | Schema.Skipped kind -> check_string "skip kind" "campaign.mission" kind
  | _ -> Alcotest.fail "unknown kind should be Skipped");
  match Schema.parse_line "{\"event\":42}" with
  | Schema.Malformed _ -> ()
  | _ -> Alcotest.fail "non-string event should be Malformed"

(* Every diagnostic the schema emits, pinned byte for byte: the verdict
   reports these counts, and the text is what an operator greps for. *)
let test_malformed_messages () =
  let runner hist =
    Printf.sprintf
      "{\"event\":\"runner.run\",\"demands\":10,\"system_failures\":1,\"coincident_failures\":0,\"rng_draws\":20,\"demand_hist\":%s}"
      hist
  in
  List.iter
    (fun (line, expected) ->
      match Schema.parse_line line with
      | Schema.Malformed msg -> check_string line expected msg
      | _ -> Alcotest.failf "not malformed: %s" line)
    [
      ("", "empty line");
      ("{\"event\":", "invalid JSON: unexpected end of input at offset 9");
      ("[1]", "line is not a JSON object");
      ("{\"x\":1}", "object has no \"event\" field");
      ("{\"event\":1}", "\"event\" field is not a string");
      ( "{\"event\":\"run.start\",\"seed\":1,\"shards\":1}",
        "event \"run.start\": missing field \"target\"" );
      ( "{\"event\":\"run.start\",\"target\":\"t\",\"seed\":1.5,\"shards\":1}",
        "event \"run.start\": field \"seed\" is not an integer" );
      ( "{\"event\":\"run.start\",\"target\":7,\"seed\":1,\"shards\":1}",
        "event \"run.start\": field \"target\" is not a string" );
      ( "{\"event\":\"fleet.plant\",\"plant\":0,\"demands\":5,\"failures\":1,\"true_pfd\":\"x\"}",
        "event \"fleet.plant\": field \"true_pfd\" is not a number" );
      ( "{\"event\":\"fleet.plant\",\"plant\":-1,\"demands\":5,\"failures\":1,\"true_pfd\":0}",
        "event \"fleet.plant\": field \"plant\" must be non-negative" );
      ( "{\"event\":\"fleet.plant\",\"plant\":0,\"demands\":0,\"failures\":0,\"true_pfd\":0}",
        "event \"fleet.plant\": field \"demands\" must be positive" );
      ( "{\"event\":\"fleet.plant\",\"plant\":0,\"demands\":5,\"failures\":6,\"true_pfd\":0}",
        "event \"fleet.plant\": field \"failures\" outside [0, demands]" );
      ( "{\"event\":\"sprt.decision\",\"decision\":\"maybe\",\"demands\":5,\"failures\":0,\"log_lr\":1}",
        "event \"sprt.decision\": unknown SPRT decision \"maybe\"" );
      (runner "3", "event \"runner.run\": field \"demand_hist\" is not a list");
      (runner "[[1]]", "event \"runner.run\": field \"demand_hist\" entry is not a pair");
      ( runner "[[-1,2]]",
        "event \"runner.run\": field \"demand_hist\" entry is not a non-negative \
         [id, count] pair" );
      ( runner "[[4611686018427387000,1]]",
        "event \"runner.run\": field \"demand_hist\" id 4611686018427387000 \
         exceeds max_demand_id 1048575" );
      ( String.concat "" [ "{\"event\":\"runner.run\",\"demands\":0,"; "\"system_failures\":0,";
          "\"coincident_failures\":0,\"rng_draws\":0}" ],
        "event \"runner.run\": field \"demands\" must be positive" );
      ( String.concat "" [ "{\"event\":\"runner.run\",\"demands\":1,"; "\"system_failures\":2,";
          "\"coincident_failures\":0,\"rng_draws\":0}" ],
        "event \"runner.run\": field \"system_failures\" outside [0, demands]" );
    ]

(* A demand id is bounded before it can size the assessor's histogram:
   the largest admissible id is ingested, one past it is a damaged line
   (counted, never fatal), as is the id that used to crash the CLI with
   Invalid_argument "Array.make". *)
let test_demand_id_bound () =
  let runner id =
    Printf.sprintf
      "{\"event\":\"runner.run\",\"demands\":10,\"system_failures\":1,\"coincident_failures\":0,\"rng_draws\":20,\"demand_hist\":[[%d,1]]}"
      id
  in
  let a = Assessor.create Assessor.default_config in
  Assessor.ingest_line a (runner Schema.max_demand_id);
  Assessor.ingest_line a (runner (Schema.max_demand_id + 1));
  Assessor.ingest_line a (runner 4611686018427387000);
  let c = Assessor.counts a in
  check_int "the largest admissible id is ingested" 1 c.Assessor.accepted;
  check_int "ids past the bound are malformed" 2 c.Assessor.malformed;
  check_int "histogram sized by the admissible id" (Schema.max_demand_id + 1)
    (Array.length (Assessor.demand_counts a))

(* ------------------------------------------------------------------ *)
(* File sources: streaming writer, cursor                             *)
(* ------------------------------------------------------------------ *)

let test_streaming_writer () =
  with_temp_file (fun path ->
      let oc = open_out path in
      let log = Runlog.create_streaming oc in
      Runlog.set_sink (Some log);
      Fun.protect
        ~finally:(fun () -> Runlog.set_sink None)
        (fun () ->
          Runlog.record ~kind:"alpha" [ ("x", Obs.Json.Int 1) ];
          Runlog.record ~kind:"beta" [];
          Runlog.record ~kind:"gamma" [ ("y", Obs.Json.Float 0.5) ]);
      close_out oc;
      check_int "streaming log counts events" 3 (Runlog.size log);
      let lines = In_channel.with_open_text path In_channel.input_lines in
      check_int "one line per event" 3 (List.length lines);
      List.iter
        (fun line ->
          match Obs.Json.parse line with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "invalid JSONL line (%s): %s" e line)
        lines)

let test_file_matches_memory () =
  let lines, _fleet = fleet_log ~seed:17 ~plants:4 ~demands_per_plant:150 in
  let config = config_with_profile () in
  let from_memory = verdict_of_lines config lines in
  with_source lines (fun src ->
      let a = Assessor.create config in
      Source.iter_lines src ~f:(Assessor.ingest_line a);
      check_string "file ingest == in-memory ingest" from_memory
        (Verdict.render_json (Verdict.of_assessor a)))

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)
(* ------------------------------------------------------------------ *)

(* Every numeric field is checked with a guard NaN cannot pass: one
   out-of-range row and one NaN row per field. *)
let test_config_validation () =
  let d = Assessor.default_config in
  let rates = "Evidence.Assessor: error rates must lie strictly in (0, 1)"
  and prior = "Evidence.Assessor: prior parameters must be positive"
  and bound = "Evidence.Assessor: bound must lie strictly in (0, 1)"
  and confidence = "Evidence.Assessor: confidence must lie strictly in (0, 1)"
  and drift = "Evidence.Assessor: drift_alpha must lie strictly in (0, 1)" in
  List.iter
    (fun (name, config, msg) ->
      Alcotest.check_raises name (Invalid_argument msg) (fun () ->
          ignore (Assessor.create config)))
    [
      ("alpha 1", { d with alpha = 1.0 }, rates);
      ("alpha nan", { d with alpha = nan }, rates);
      ("beta 0", { d with beta = 0.0 }, rates);
      ("beta nan", { d with beta = nan }, rates);
      ("prior_a 0", { d with prior_a = 0.0 }, prior);
      ("prior_a nan", { d with prior_a = nan }, prior);
      ("prior_b -1", { d with prior_b = -1.0 }, prior);
      ("prior_b nan", { d with prior_b = nan }, prior);
      ("bound 1", { d with bound = 1.0 }, bound);
      ("bound nan", { d with bound = nan }, bound);
      ("confidence 0", { d with confidence = 0.0 }, confidence);
      ("confidence nan", { d with confidence = nan }, confidence);
      ("drift_alpha 1", { d with drift_alpha = 1.0 }, drift);
      ("drift_alpha nan", { d with drift_alpha = nan }, drift);
    ];
  List.iter
    (fun alpha ->
      Alcotest.check_raises
        (Printf.sprintf "Drift.assess alpha %g" alpha)
        (Invalid_argument "Drift.assess: alpha must lie strictly in (0, 1)")
        (fun () ->
          ignore (Drift.assess ~expected:[| 1.0 |] ~counts:[| 1 |] ~alpha)))
    [ 0.0; nan ]

(* ------------------------------------------------------------------ *)
(* Wald boundary and posterior sanity                                 *)
(* ------------------------------------------------------------------ *)

let test_wald_of_counts () =
  let c = Assessor.default_config in
  let w0 = Assessor.wald_of_counts c ~demands:0 ~failures:0 in
  check_bool "no evidence: undecided" true
    (w0.Assessor.w_decision = Schema.Undecided);
  let accept = Assessor.wald_of_counts c ~demands:10_000 ~failures:0 in
  check_bool "clean record accepts" true
    (accept.Assessor.w_decision = Schema.Accept);
  let reject = Assessor.wald_of_counts c ~demands:1_000 ~failures:50 in
  check_bool "bad record rejects" true
    (reject.Assessor.w_decision = Schema.Reject);
  check_bool "boundaries ordered" true
    (accept.Assessor.w_log_b < accept.Assessor.w_log_a)

let test_posterior_of_counts () =
  let c = Assessor.default_config in
  let p = Assessor.posterior_of_counts c ~demands:5_000 ~failures:5 in
  check_bool "interval ordered" true
    (p.Assessor.post_lo <= p.Assessor.post_mean
    && p.Assessor.post_mean <= p.Assessor.post_hi);
  check_bool "mean near the empirical rate" true
    (p.Assessor.post_mean > 5e-4 && p.Assessor.post_mean < 3e-3);
  check_bool "confidence in 1e-2 bound is high" true
    (p.Assessor.confidence_in_bound > 0.99)

(* ------------------------------------------------------------------ *)
(* Golden verdict pin (seed 42)                                       *)
(* ------------------------------------------------------------------ *)

let golden_path = "golden/evidence_seed42.json"

let test_golden_verdict () =
  let lines, _fleet = fleet_log ~seed:42 ~plants:4 ~demands_per_plant:200 in
  let got = verdict_of_lines (config_with_profile ()) lines ^ "\n" in
  let ic = open_in_bin golden_path in
  let n = in_channel_length ic in
  let expected = really_input_string ic n in
  close_in ic;
  if got <> expected then
    Alcotest.failf
      "seed-42 verdict diverges from the golden pin \
       (test/%s)\n--- expected ---\n%s--- got ---\n%s"
      golden_path expected got

(* ------------------------------------------------------------------ *)
(* CLI: the evidence verb end to end                                  *)
(* ------------------------------------------------------------------ *)

let cli_exe = "../bin/experiments_cli.exe"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_cli_window_byte_identity () =
  let lines, _fleet = fleet_log ~seed:42 ~plants:5 ~demands_per_plant:300 in
  with_temp_file (fun log_path ->
      let oc = open_out log_path in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      let verdict window =
        with_temp_file (fun out_path ->
            let args =
              [ "evidence"; log_path; "--json"; "--profile"; "uniform:64" ]
              @ (if window > 0 then [ "--window"; string_of_int window ]
                 else [])
            in
            let status =
              Sys.command
                (Filename.quote_command cli_exe args ~stdout:out_path)
            in
            check_int
              (Printf.sprintf "evidence --window %d exits 0" window)
              0 status;
            read_file out_path)
      in
      let whole = verdict 0 in
      check_bool "verdict is non-empty JSON" true
        (String.length whole > 2 && whole.[0] = '{');
      check_string "--window 1 byte-identical" whole (verdict 1);
      check_string "--window 64 byte-identical" whole (verdict 64);
      (* text mode smoke: exits 0 and prints a verdict *)
      with_temp_file (fun out_path ->
          let status =
            Sys.command
              (Filename.quote_command cli_exe
                 [ "evidence"; log_path; "--window"; "8" ]
                 ~stdout:out_path)
          in
          check_int "text mode exits 0" 0 status;
          let text = read_file out_path in
          let contains s sub =
            let n = String.length s and m = String.length sub in
            let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
            at 0
          in
          check_bool "interim verdicts printed" true (contains text "interim @");
          check_bool "final text report rendered" true
            (contains text "proven-in-use verdict:")))

(* Interim reports record no metric: the [evidence.*] counters of a
   --metrics snapshot are the same at every window size. The declared
   profile is far from the log's uniform demands, so the drift detector
   alarms in every window and the final verdict counts one alarm. *)
let test_cli_window_metrics () =
  let lines, _fleet = fleet_log ~seed:42 ~plants:5 ~demands_per_plant:300 in
  with_temp_file (fun log_path ->
      let oc = open_out log_path in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      let counters window =
        with_temp_file (fun metrics_path ->
            let status =
              Sys.command
                (Filename.quote_command cli_exe
                   [ "evidence"; log_path; "--profile"; "peaked:64:0:0.9";
                     "--window"; string_of_int window; "--metrics"; metrics_path ]
                   ~stdout:Filename.null)
            in
            check_int (Printf.sprintf "--window %d exits 0" window) 0 status;
            let snapshot =
              match Obs.Json.parse (read_file metrics_path) with
              | Ok j -> j
              | Error e -> Alcotest.failf "metrics snapshot: %s" e
            in
            Option.bind (Obs.Json.member "counters" snapshot) Obs.Json.to_list
            |> Option.value ~default:[]
            |> List.filter_map (fun c ->
                   match
                     ( Option.bind (Obs.Json.member "name" c) Obs.Json.to_string,
                       Option.bind (Obs.Json.member "value" c) Obs.Json.to_int )
                   with
                   | Some name, Some v
                     when String.length name > 9 && String.sub name 0 9 = "evidence."
                     ->
                       Some (Printf.sprintf "%s=%d" name v)
                   | _ -> None)
            |> String.concat " ")
      in
      let whole = counters 0 in
      check_bool "the final verdict alarms once" true
        (let needle = "evidence.drift_alarms=1" in
         let n = String.length whole and m = String.length needle in
         let rec at i = i + m <= n && (String.sub whole i m = needle || at (i + 1)) in
         at 0);
      check_string "--window 1 counters" whole (counters 1);
      check_string "--window 400 counters" whole (counters 400))

(* One damaged line with a huge demand id, between two good ones: the
   CLI counts it as malformed and exits 0, in batch and windowed mode. *)
let test_cli_huge_demand_id () =
  with_temp_file (fun log_path ->
      let oc = open_out log_path in
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        [
          "{\"event\":\"fleet.plant\",\"plant\":0,\"demands\":100,\"failures\":1,\"true_pfd\":0.01}";
          "{\"event\":\"runner.run\",\"demands\":1,\"system_failures\":0,\"coincident_failures\":0,\"rng_draws\":2,\"demand_hist\":[[4611686018427387000,1]]}";
          "{\"event\":\"fleet.plant\",\"plant\":1,\"demands\":100,\"failures\":0,\"true_pfd\":0.01}";
        ];
      close_out oc;
      List.iter
        (fun window ->
          with_temp_file (fun out_path ->
              let status =
                Sys.command
                  (Filename.quote_command cli_exe
                     [ "evidence"; log_path; "--json"; "--window"; string_of_int window ]
                     ~stdout:out_path)
              in
              check_int (Printf.sprintf "--window %d exits 0" window) 0 status;
              let out = read_file out_path in
              let contains sub =
                let n = String.length out and m = String.length sub in
                let rec at i = i + m <= n && (String.sub out i m = sub || at (i + 1)) in
                at 0
              in
              check_bool "damaged line counted as malformed" true
                (contains "\"accepted\":2,\"skipped\":0,\"malformed\":1")))
        [ 0; 1 ])

(* The declared profile may not be larger than the demand ids a run log
   can carry: SIZE = max_demand_id + 1 is accepted, one more is a
   command-line error naming the bound, before any line is read. *)
let test_cli_profile_size_bound () =
  with_temp_file (fun log_path ->
      let oc = open_out log_path in
      output_string oc
        "{\"event\":\"fleet.plant\",\"plant\":0,\"demands\":100,\"failures\":1,\"true_pfd\":0.01}\n";
      close_out oc;
      let status size =
        with_temp_file (fun err_path ->
            let st =
              Sys.command
                (Filename.quote_command cli_exe
                   [ "evidence"; log_path; "--json"; "--profile";
                     Printf.sprintf "uniform:%d" size ]
                   ~stdout:Filename.null ~stderr:err_path)
            in
            (st, read_file err_path))
      in
      let bound = Schema.max_demand_id + 1 in
      let ok, _ = status bound in
      check_int "SIZE = max_demand_id + 1 is accepted" 0 ok;
      let st, err = status (bound + 1) in
      check_bool "SIZE past the bound is refused" true (st <> 0);
      let needle = Printf.sprintf "SIZE <= %d" bound in
      let n = String.length err and m = String.length needle in
      let rec at i = i + m <= n && (String.sub err i m = needle || at (i + 1)) in
      check_bool "the error names the bound" true (at 0))

(* Regenerate the pin after an intentional verdict-schema change:
     EVIDENCE_PRINT_GOLDEN=1 ./test_evidence.exe > test/golden/evidence_seed42.json *)
let () =
  if Sys.getenv_opt "EVIDENCE_PRINT_GOLDEN" <> None then begin
    let lines, _fleet = fleet_log ~seed:42 ~plants:4 ~demands_per_plant:200 in
    print_string
      (verdict_of_lines (config_with_profile ()) lines ^ "\n");
    exit 0
  end

let () =
  Alcotest.run "evidence"
    [
      ( "streaming",
        [
          Alcotest.test_case "windowed == batch (property)" `Quick
            test_windowed_equals_batch;
          Alcotest.test_case "random split points == batch (property)" `Quick
            test_random_split_points;
          Alcotest.test_case "verdict is a snapshot" `Quick
            test_verdict_is_a_snapshot;
          Alcotest.test_case "reordered lines == in order (property)" `Quick
            test_reordered_lines;
        ] );
      ( "reconciliation",
        [
          Alcotest.test_case "counters match Fleet.observe" `Quick
            test_reconciles_with_fleet_observe;
        ] );
      ( "drift",
        [
          Alcotest.test_case "true negative (matching profile)" `Quick
            test_drift_true_negative;
          Alcotest.test_case "true positive (zipf vs uniform)" `Quick
            test_drift_true_positive;
          Alcotest.test_case "impossible demands" `Quick
            test_drift_impossible_demands;
          Alcotest.test_case "alarm rejects the verdict" `Quick
            test_drift_alarm_rejects_verdict;
        ] );
      ( "schema",
        [
          Alcotest.test_case "malformed and unknown lines counted" `Quick
            test_malformed_and_skipped;
          Alcotest.test_case "event parsing" `Quick test_schema_parse;
          Alcotest.test_case "malformed diagnostics pinned" `Quick
            test_malformed_messages;
          Alcotest.test_case "demand id bound" `Quick test_demand_id_bound;
        ] );
      ( "sources",
        [
          Alcotest.test_case "streaming runlog writer" `Quick
            test_streaming_writer;
          Alcotest.test_case "file ingest == in-memory ingest" `Quick
            test_file_matches_memory;
        ] );
      ( "config",
        [ Alcotest.test_case "validation" `Quick test_config_validation ] );
      ( "judgements",
        [
          Alcotest.test_case "wald boundary" `Quick test_wald_of_counts;
          Alcotest.test_case "posterior bounds" `Quick test_posterior_of_counts;
        ] );
      ( "golden",
        [ Alcotest.test_case "seed-42 verdict pin" `Quick test_golden_verdict ] );
      ( "cli",
        [
          Alcotest.test_case "--window byte-identity" `Quick
            test_cli_window_byte_identity;
          Alcotest.test_case "--window leaves evidence counters alone" `Quick
            test_cli_window_metrics;
          Alcotest.test_case "huge demand id is malformed, exit 0" `Quick
            test_cli_huge_demand_id;
          Alcotest.test_case "--profile SIZE capped at the demand-id bound" `Quick
            test_cli_profile_size_bound;
        ] );
    ]
