(* The telemetry layer: histogram bucket geometry at PFD magnitudes,
   span nesting/ordering, well-formedness of every JSON artefact, and
   the zero-allocation guarantee of the disabled path. *)

module Json = Obs.Json
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Runlog = Obs.Runlog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Metrics and Trace keep global state; every test that enables them
   restores the default (disabled, empty) world on the way out. *)
let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset_values ())

let with_trace f =
  Trace.set_enabled true;
  Trace.reset ();
  Fun.protect f ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())

let parse_ok label s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: invalid JSON (%s): %s" label e s

(* ------------------------------------------------------------------ *)
(* Json: render/parse round-trips and strictness                      *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("n", Json.Int (-42));
        ("pfd", Json.Float 3.25e-7);
        ("s", Json.String "line\none\ttab \"quoted\" back\\slash");
        ("items", Json.List [ Json.Int 1; Json.Float 0.5; Json.String "" ]);
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
      ]
  in
  let reparsed = parse_ok "round-trip" (Json.render doc) in
  check_bool "render/parse round-trips" true (reparsed = doc)

let test_json_strictness () =
  let bad = [ "{"; "[1,]"; "{\"a\":1} extra"; "\"unterminated"; "01a"; "nul" ] in
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "rejects %S" s)
        true
        (match Json.parse s with Ok _ -> false | Error _ -> true))
    bad;
  (* Non-finite floats must never leak into the output. *)
  check_string "nan renders null" "null" (Json.render (Json.Float Float.nan));
  check_string "inf renders null" "null" (Json.render (Json.Float infinity));
  (* \u escapes decode to UTF-8. *)
  match Json.parse "\"\\u00e9\"" with
  | Ok (Json.String s) -> check_string "utf-8 decode" "\xc3\xa9" s
  | _ -> Alcotest.fail "\\u escape did not parse as a string"

(* ------------------------------------------------------------------ *)
(* Metrics: histogram geometry at PFD scales                          *)
(* ------------------------------------------------------------------ *)

(* The bucket that counted [v] must actually contain it. *)
let containing_bucket h v =
  let hit =
    Array.to_list (Metrics.buckets h)
    |> List.filter (fun (_, _, n) -> n > 0)
  in
  match hit with
  | [ (lo, hi, 1) ] ->
      (* Edges are computed as lo * 10^(i/per_decade), so allow an
         ulp-scale slack against the decimal literal. *)
      check_bool
        (Printf.sprintf "%g inside its bucket [%g, %g)" v lo hi)
        true
        (lo *. (1.0 -. 1e-12) <= v && v < hi *. (1.0 +. 1e-12));
      (lo, hi)
  | _ -> Alcotest.failf "expected exactly one occupied bucket for %g" v

let test_histogram_pfd_edges () =
  with_metrics (fun () ->
      (* Exact decade edges across the PFD range must open their decade,
         not fall one bucket short to log10 rounding. *)
      List.iter
        (fun v ->
          let h =
            Metrics.histogram (Printf.sprintf "test.edge.%g" v)
          in
          Metrics.observe h v;
          let lo, _ = containing_bucket h v in
          check_bool
            (Printf.sprintf "%g is a bucket lower edge (got %g)" v lo)
            true
            (Float.abs (lo -. v) /. v < 1e-9))
        [ 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1 ];
      (* Interior values land in a containing bucket too. *)
      List.iter
        (fun v ->
          let h =
            Metrics.histogram (Printf.sprintf "test.mid.%g" v)
          in
          Metrics.observe h v;
          ignore (containing_bucket h v))
        [ 3.2e-7; 4.7e-5; 2.3e-3; 0.13; 0.97 ])

let test_histogram_under_overflow () =
  with_metrics (fun () ->
      let h = Metrics.histogram "test.flow" in
      (* 0 is a legitimate PFD; it and sub-lo values go to underflow. *)
      Metrics.observe h 0.0;
      Metrics.observe h 1e-12;
      (* The default range tops out at 1.0; a PFD of exactly 1 and
         anything above overflows. *)
      Metrics.observe h 1.0;
      Metrics.observe h 2.5;
      let bs = Metrics.buckets h in
      let u_lo, u_hi, u_n = bs.(0) in
      check_bool "underflow bucket is [0, lo)" true (u_lo = 0.0 && u_hi = 1e-9);
      check_int "underflow count" 2 u_n;
      let o_lo, o_hi, o_n = bs.(Array.length bs - 1) in
      check_bool "overflow lower edge is the top edge ~ 1.0" true
        (Float.abs (o_lo -. 1.0) < 1e-9);
      check_bool "overflow upper edge is infinite" true (o_hi = infinity);
      check_int "overflow count" 2 o_n;
      check_int "total count" 4 (Metrics.histogram_count h);
      check_bool "min tracks underflow values" true
        (Metrics.histogram_min h = Some 0.0);
      check_bool "max tracks overflow values" true
        (Metrics.histogram_max h = Some 2.5))

let test_histogram_quantile () =
  with_metrics (fun () ->
      let h = Metrics.histogram "test.quantile" in
      check_bool "empty histogram has no quantiles" true
        (Metrics.quantile h 0.5 = None);
      for _ = 1 to 90 do
        Metrics.observe h 1e-4
      done;
      for _ = 1 to 10 do
        Metrics.observe h 0.5
      done;
      (match Metrics.quantile h 0.5 with
      | Some q ->
          check_bool
            (Printf.sprintf "median ~ 1e-4 scale (got %g)" q)
            true
            (q > 5e-5 && q < 5e-4)
      | None -> Alcotest.fail "median missing");
      (match Metrics.quantile h 0.99 with
      | Some q ->
          check_bool
            (Printf.sprintf "p99 ~ 0.5 scale (got %g)" q)
            true
            (q > 0.1 && q < 1.0)
      | None -> Alcotest.fail "p99 missing");
      List.iter
        (fun q ->
          Alcotest.check_raises
            (Printf.sprintf "q = %g rejected" q)
            (Invalid_argument "Metrics.quantile: q outside [0, 1]")
            (fun () -> ignore (Metrics.quantile h q)))
        [ 1.5; nan ])

let test_quantile_summaries () =
  with_metrics (fun () ->
      let h = Metrics.histogram "test.qsummary" in
      for _ = 1 to 90 do
        Metrics.observe h 1e-4
      done;
      for _ = 1 to 10 do
        Metrics.observe h 0.5
      done;
      let doc = parse_ok "quantile snapshot" (Metrics.render_json ()) in
      let hist =
        match Option.bind (Json.member "histograms" doc) Json.to_list with
        | Some items ->
            List.find_opt
              (fun item ->
                Option.bind (Json.member "name" item) Json.to_string
                = Some "test.qsummary")
              items
        | None -> None
      in
      match hist with
      | None -> Alcotest.fail "test.qsummary missing from snapshot"
      | Some item ->
          let value field =
            match Option.bind (Json.member field item) Json.to_float with
            | Some q -> q
            | None -> Alcotest.failf "snapshot lacks %s" field
          in
          (* Each summary member is the bucket-resolution estimate of
             [Metrics.quantile] at its level, as the snapshot renders it. *)
          List.iter
            (fun (field, q) ->
              check_string
                (Printf.sprintf "%s is quantile %g" field q)
                (Json.render (Json.Float (Option.get (Metrics.quantile h q))))
                (Json.render (Json.Float (value field))))
            [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99) ];
          check_bool "p50 at the bulk scale" true
            (value "p50" > 0.0 && value "p50" < 1e-3);
          check_bool "p50 <= p95 <= p99" true
            (value "p50" <= value "p95" && value "p95" <= value "p99");
          check_bool "p99 at the outlier scale" true (value "p99" > 0.1))

let test_counters_and_gauges () =
  let c = Metrics.counter "test.counter" in
  let g = Metrics.gauge "test.gauge" in
  (* Disabled (the default): mutations are dropped. *)
  Metrics.incr c;
  Metrics.add c 10;
  Metrics.set g 3.0;
  check_int "disabled counter stays 0" 0 (Metrics.counter_value c);
  check_bool "disabled gauge stays unset" true (Metrics.gauge_value g = None);
  with_metrics (fun () ->
      Metrics.incr c;
      Metrics.add c 10;
      Metrics.set g 3.0;
      Metrics.set g 0.125;
      check_int "enabled counter counts" 11 (Metrics.counter_value c);
      check_bool "enabled gauge holds last value" true
        (Metrics.gauge_value g = Some 0.125);
      Metrics.reset_values ();
      check_int "reset zeroes counters" 0 (Metrics.counter_value c);
      check_bool "reset unsets gauges" true (Metrics.gauge_value g = None))

let test_metrics_json () =
  with_metrics (fun () ->
      let c = Metrics.counter "test.snapshot.counter" in
      let h = Metrics.histogram "test.snapshot.hist" in
      Metrics.incr c;
      Metrics.observe h 1e-5;
      let doc = parse_ok "metrics snapshot" (Metrics.render_json ()) in
      let names section =
        match Option.bind (Json.member section doc) Json.to_list with
        | Some items ->
            List.filter_map
              (fun item -> Option.bind (Json.member "name" item) Json.to_string)
              items
        | None -> Alcotest.failf "snapshot lacks %S list" section
      in
      check_bool "counter listed" true
        (List.mem "test.snapshot.counter" (names "counters"));
      check_bool "histogram listed" true
        (List.mem "test.snapshot.hist" (names "histograms"));
      check_bool "gauges section present" true
        (Json.member "gauges" doc <> None))

(* ------------------------------------------------------------------ *)
(* Trace: nesting, ordering, Chrome export                            *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_trace (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_span "inner.a" (fun () -> ());
          Trace.with_span "inner.b" (fun () ->
              Trace.with_span "leaf" (fun () -> ())));
      Trace.with_span "sibling" (fun () -> ());
      let spans = Trace.spans () in
      check_int "span count" 5 (List.length spans);
      let names = List.map (fun s -> s.Trace.name) spans in
      Alcotest.(check (list string))
        "spans in start order"
        [ "outer"; "inner.a"; "inner.b"; "leaf"; "sibling" ]
        names;
      let depths = List.map (fun s -> s.Trace.depth) spans in
      Alcotest.(check (list int)) "nesting depths" [ 0; 1; 1; 2; 0 ] depths;
      List.iter
        (fun s ->
          check_bool
            (s.Trace.name ^ " is closed with a non-negative duration")
            true
            (s.Trace.dur_ns >= 0L))
        spans;
      (* Start timestamps never go backwards within the record. *)
      let starts = List.map (fun s -> s.Trace.start_ns) spans in
      check_bool "monotone start order" true
        (List.sort compare starts = starts))

let test_trace_disabled () =
  Trace.reset ();
  let h = Trace.enter "ignored" in
  check_bool "disabled enter yields the null handle" true
    (h = Trace.null_handle);
  Trace.leave h;
  check_int "nothing recorded while disabled" 0 (Trace.span_count ())

let test_chrome_json () =
  with_trace (fun () ->
      Trace.with_span "parent" (fun () ->
          Trace.with_span "child" (fun () -> ()));
      let doc = parse_ok "chrome trace" (Trace.render_chrome_json ()) in
      let events =
        match Option.bind (Json.member "traceEvents" doc) Json.to_list with
        | Some items -> items
        | None -> Alcotest.fail "no traceEvents array"
      in
      check_int "one event per span" 2 (List.length events);
      List.iter
        (fun ev ->
          check_bool "complete event" true
            (Option.bind (Json.member "ph" ev) Json.to_string = Some "X");
          check_bool "has a name" true
            (Option.is_some (Option.bind (Json.member "name" ev) Json.to_string));
          check_bool "has numeric ts and dur" true
            (Option.is_some (Option.bind (Json.member "ts" ev) Json.to_float)
            && Option.is_some (Option.bind (Json.member "dur" ev) Json.to_float)))
        events;
      (* Timestamps are relative to the first span. *)
      match events with
      | first :: _ ->
          check_bool "first event starts at ts 0" true
            (Option.bind (Json.member "ts" first) Json.to_float = Some 0.0)
      | [] -> ())

(* ------------------------------------------------------------------ *)
(* Runlog: sink lifecycle and JSONL output                            *)
(* ------------------------------------------------------------------ *)

let test_runlog () =
  Runlog.set_sink None;
  check_bool "inactive without a sink" true (not (Runlog.active ()));
  Runlog.record ~kind:"dropped" [ ("x", Json.Int 1) ];
  let path = Filename.temp_file "runlog_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      let oc = open_out path in
      let log = Runlog.create_streaming oc in
      Runlog.set_sink (Some log);
      Fun.protect
        ~finally:(fun () ->
          Runlog.set_sink None;
          close_out oc)
        (fun () ->
          check_bool "active with a sink" true (Runlog.active ());
          Runlog.record ~kind:"alpha" [ ("pfd", Json.Float 1e-6) ];
          Runlog.record ~kind:"beta" []);
      check_int "both events captured, dropped one lost" 2 (Runlog.size log);
      let lines =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      check_int "one line per event" 2 (List.length lines);
      let docs = List.map (parse_ok "runlog line") lines in
      List.iteri
        (fun i doc ->
          check_bool "has event kind" true
            (Option.is_some
               (Option.bind (Json.member "event" doc) Json.to_string));
          check_bool "seq numbers count up from 1" true
            (Option.bind (Json.member "seq" doc) Json.to_int = Some (i + 1));
          check_bool "has a timestamp" true
            (Option.is_some (Option.bind (Json.member "t_ns" doc) Json.to_int)))
        docs;
      match docs with
      | first :: _ ->
          check_bool "payload fields preserved" true
            (Option.bind (Json.member "pfd" first) Json.to_float = Some 1e-6)
      | [] -> ())

(* ------------------------------------------------------------------ *)
(* Clock                                                              *)
(* ------------------------------------------------------------------ *)

let test_clock () =
  let t0 = Obs.Clock.now_ns () in
  let x = ref 0 in
  for i = 1 to 1_000 do
    x := !x + i
  done;
  let dt = Obs.Clock.elapsed_ns ~since:t0 in
  check_bool "monotonic elapsed time" true (dt >= 0L);
  let v, spent = Obs.Clock.timed (fun () -> 7 * 6) in
  check_int "timed returns the result" 42 v;
  check_bool "timed measures non-negative time" true (spent >= 0L);
  check_bool "unit conversions agree" true
    (Obs.Clock.ns_to_us 1_000L = 1.0
    && Obs.Clock.ns_to_ms 1_000_000L = 1.0
    && Obs.Clock.ns_to_s 1_000_000_000L = 1.0)

(* ------------------------------------------------------------------ *)
(* The zero-allocation disabled path                                  *)
(* ------------------------------------------------------------------ *)

let test_disabled_path_no_alloc () =
  (* With everything disabled (the default state the simulator runs in),
     a hot loop of instrument calls must not touch the minor heap — this
     is the contract that lets instrumentation live inside the
     per-demand loops. *)
  Metrics.set_enabled false;
  Trace.set_enabled false;
  Runlog.set_sink None;
  let c = Metrics.counter "test.noalloc.counter" in
  let g = Metrics.gauge "test.noalloc.gauge" in
  let h = Metrics.histogram "test.noalloc.hist" in
  let iterations = 100_000 in
  let words_before = Gc.minor_words () in
  for _ = 1 to iterations do
    Metrics.incr c;
    Metrics.add c 3;
    Metrics.set g 0.25;
    Metrics.observe h 0.25;
    Trace.leave (Trace.enter "hot");
    if Runlog.active () then Runlog.record ~kind:"hot" []
  done;
  let delta = Gc.minor_words () -. words_before in
  (* Allow the few words the Gc probe itself boxes; real leakage would
     show up as >= one word per iteration. *)
  check_bool
    (Printf.sprintf "disabled path allocates nothing (%.0f words / %d iters)"
       delta iterations)
    true
    (delta < float_of_int iterations /. 100.0);
  check_int "and records nothing" 0 (Metrics.counter_value c);
  check_int "no spans either" 0 (Trace.span_count ())

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "render/parse round-trip" `Quick
            test_json_roundtrip;
          Alcotest.test_case "strict parsing" `Quick test_json_strictness;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_counters_and_gauges;
          Alcotest.test_case "histogram pfd decade edges" `Quick
            test_histogram_pfd_edges;
          Alcotest.test_case "histogram under/overflow" `Quick
            test_histogram_under_overflow;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantile;
          Alcotest.test_case "quantile summaries (json)" `Quick
            test_quantile_summaries;
          Alcotest.test_case "json snapshot" `Quick test_metrics_json;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting and order" `Quick test_span_nesting;
          Alcotest.test_case "disabled tracing" `Quick test_trace_disabled;
          Alcotest.test_case "chrome trace export" `Quick test_chrome_json;
        ] );
      ( "runlog", [ Alcotest.test_case "sink and jsonl" `Quick test_runlog ] );
      ( "clock", [ Alcotest.test_case "monotonic timing" `Quick test_clock ] );
      ( "overhead",
        [
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_path_no_alloc;
        ] );
    ]
