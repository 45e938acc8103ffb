(* Command-line front end for the reproduction experiments.

   Usage:
     divrel-experiments list
     divrel-experiments run E04 [--seed 7]
     divrel-experiments all [--seed 7]

   Telemetry (run / all): --metrics FILE writes a JSON metrics snapshot
   (counters, gauges, PFD histograms, RNG draw counts), --trace FILE a
   Chrome trace-event file of the nested simulator spans, --log FILE a
   JSONL structured run log. Instrumentation is off unless requested and
   never perturbs the experiments: same seeds, same outputs.

   Parallelism (run / all): --domains N sizes the default Exec pool
   (also settable via DIVREL_DOMAINS), --shards M sets the default
   shard count of the sharded library entry points. Domains never
   change results; shards change them deterministically. *)

open Cmdliner

let setup_logs () =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning)

let seed_arg =
  let doc = "Random seed used by every stochastic experiment component." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let trace_arg =
  let doc = "Write a Chrome trace-event JSON file of the simulator spans." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write a JSON metrics snapshot (counters, gauges, histograms, RNG draws)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let log_arg =
  let doc = "Write a JSONL structured run log (one event object per line)." in
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE" ~doc)

let domains_arg =
  let doc =
    "Size of the default execution pool (worker domains). Overrides the \
     DIVREL_DOMAINS environment variable. Results are independent of this \
     value."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Default shard count for sharded map-reduce entry points. Part of the \
     deterministic contract: outputs are a pure function of (seed, shards)."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"M" ~doc)

let setup_parallelism domains shards =
  Option.iter Exec.Pool.set_default_domains domains;
  Option.iter Exec.set_default_shards shards

(* Process-wide RNG consumption, reported in the metrics snapshot. *)
let m_rng_draws = Obs.Metrics.counter "rng.draws"

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* Run [f] with a streaming run log on [path] (if any) installed as the
   global sink: events reach the file as they are recorded, so a long run
   holds none of its log in memory. The sink is removed and the file
   closed however [f] exits. *)
let with_runlog path f =
  match path with
  | None -> f ()
  | Some path ->
      let oc = open_out path in
      Obs.Runlog.set_sink (Some (Obs.Runlog.create_streaming oc));
      Fun.protect
        ~finally:(fun () ->
          Obs.Runlog.set_sink None;
          close_out_noerr oc)
        (fun () ->
          let result = f () in
          close_out oc;
          result)

(* Run [f] with the telemetry sinks the flags request, then write the
   artefacts. With all three flags absent this is just [f ()]. *)
let with_telemetry ~label ~seed ~trace ~metrics ~log f =
  if trace = None && metrics = None && log = None then f ()
  else begin
    if metrics <> None then Obs.Metrics.set_enabled true;
    if trace <> None then Obs.Trace.set_enabled true;
    let result =
      with_runlog log (fun () ->
          if Obs.Runlog.active () then
            Obs.Runlog.record ~kind:"run.start"
              [
                ("target", Obs.Json.String label);
                ("seed", Obs.Json.Int seed);
                (* outputs are a pure function of (seed, shards): recording the
                   effective default shard count makes a logged run replayable *)
                ("shards", Obs.Json.Int (Exec.default_shards ()));
              ];
          let draws0 = Numerics.Rng.total_draws () in
          let span = Obs.Trace.enter label in
          let result, dur_ns = Obs.Clock.timed f in
          Obs.Trace.leave span;
          let draws = Numerics.Rng.total_draws () - draws0 in
          Obs.Metrics.add m_rng_draws draws;
          if Obs.Runlog.active () then
            Obs.Runlog.record ~kind:"run.end"
              [
                ("target", Obs.Json.String label);
                ("seed", Obs.Json.Int seed);
                ("shards", Obs.Json.Int (Exec.default_shards ()));
                ("rng_draws", Obs.Json.Int draws);
                ("duration_ns", Obs.Json.Int (Int64.to_int dur_ns));
              ];
          result)
    in
    Option.iter (fun path -> write_file path (Obs.Metrics.render_json ())) metrics;
    Option.iter
      (fun path -> write_file path (Obs.Trace.render_chrome_json ()))
      trace;
    Obs.Trace.set_enabled false;
    Obs.Metrics.set_enabled false;
    result
  end

let list_cmd =
  let run () =
    setup_logs ();
    List.iter
      (fun e ->
        Printf.printf "%-4s %-38s %s\n" e.Experiments.Experiment.id
          e.Experiments.Experiment.paper_ref e.Experiments.Experiment.description)
      Experiments.Registry.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List every reproduced table/figure/claim")
    Term.(const run $ const ())

let run_cmd =
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id, e.g. E04 (see 'list').")
  in
  let run id seed trace metrics log domains shards =
    setup_logs ();
    setup_parallelism domains shards;
    match Experiments.Registry.find id with
    | Some e ->
        let rendered =
          with_telemetry ~label:("experiment." ^ e.Experiments.Experiment.id)
            ~seed ~trace ~metrics ~log (fun () ->
              Experiments.Experiment.render ~seed e)
        in
        print_string rendered;
        `Ok ()
    | None ->
        `Error
          ( false,
            Printf.sprintf "unknown experiment %S; known: %s" id
              (String.concat ", " (Experiments.Registry.ids ())) )
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment by id")
    Term.(
      ret
        (const run $ id_arg $ seed_arg $ trace_arg $ metrics_arg $ log_arg
       $ domains_arg $ shards_arg))

let all_cmd =
  let run seed trace metrics log domains shards =
    setup_logs ();
    setup_parallelism domains shards;
    let rendered =
      with_telemetry ~label:"experiments.all" ~seed ~trace ~metrics ~log
        (fun () -> Experiments.Registry.render_all ~seed)
    in
    print_string rendered
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment in order")
    Term.(
      const run $ seed_arg $ trace_arg $ metrics_arg $ log_arg $ domains_arg
      $ shards_arg)

let check_cmd =
  let cases_arg =
    let doc = "Number of randomized scenarios to sweep." in
    Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let replications_arg =
    let doc = "Monte-Carlo replications per scenario." in
    Arg.(value & opt int 1200 & info [ "replications" ] ~docv:"R" ~doc)
  in
  let run seed cases replications trace metrics log domains shards =
    setup_logs ();
    setup_parallelism domains shards;
    if cases < 1 then `Error (false, "--cases must be >= 1")
    else if replications < 1 then `Error (false, "--replications must be >= 1")
    else begin
      let sweep =
        with_telemetry ~label:"check.sweep" ~seed ~trace ~metrics ~log
          (fun () -> Check.Registry.sweep ~seed ~cases ~replications ())
      in
      print_string (Check.Registry.render sweep);
      if Check.Registry.passed sweep then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf
              "%d differential check(s) failed (replay with --seed %d)"
              (List.length sweep.Check.Registry.failed)
              seed )
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Sweep the differential oracle registry over randomized \
          architectures: every analytic quantity (voting moments, PFD \
          distributions, risk ratios, baseline identities) is cross-checked \
          against an independent simulation estimator. Deterministic for a \
          fixed --seed; exits non-zero on any disagreement.")
    Term.(
      ret
        (const run $ seed_arg $ cases_arg $ replications_arg $ trace_arg
       $ metrics_arg $ log_arg $ domains_arg $ shards_arg))

(* Declared-profile specs for the evidence verb: the drift detector
   needs the profile the operating evidence was supposedly collected
   under, given on the command line as a constructor spec. SIZE is
   capped at the demand ids a run log may carry: a run over a larger
   space writes lines the schema counts as malformed. *)
let max_profile_size = Evidence.Schema.max_demand_id + 1

let parse_profile spec =
  let err () =
    Error
      (Printf.sprintf
         "bad --profile %S: expected uniform:SIZE, zipf:SIZE:EXPONENT, or \
          peaked:SIZE:PEAK:MASS with 0 < SIZE <= %d"
         spec max_profile_size)
  in
  let size_of s =
    match int_of_string_opt s with
    | Some n when n > 0 && n <= max_profile_size -> Some n
    | _ -> None
  in
  let build f = try Ok (Demandspace.Profile.probabilities (f ())) with
    | Invalid_argument msg -> Error ("bad --profile: " ^ msg)
  in
  match String.split_on_char ':' spec with
  | [ "uniform"; n ] -> (
      match size_of n with
      | Some size -> build (fun () -> Demandspace.Profile.uniform ~size)
      | None -> err ())
  | [ "zipf"; n; e ] -> (
      match (size_of n, float_of_string_opt e) with
      | Some size, Some exponent ->
          build (fun () -> Demandspace.Profile.zipf ~size ~exponent)
      | _ -> err ())
  | [ "peaked"; n; p; m ] -> (
      match (size_of n, int_of_string_opt p, float_of_string_opt m) with
      | Some size, Some peak, Some mass ->
          build (fun () -> Demandspace.Profile.peaked ~size ~peak ~mass)
      | _ -> err ())
  | _ -> err ()

let evidence_cmd =
  let runlog_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"RUNLOG"
          ~doc:"JSONL run log to assess (written by run/all/check --log).")
  in
  let window_arg =
    let doc =
      "Ingest in windows of $(docv) lines, printing an interim verdict line \
       after each window (suppressed under --json, where output depends only \
       on the log's contents). 0 ingests the whole log as one batch. The \
       final verdict is identical for every window size."
    in
    Arg.(value & opt int 0 & info [ "window" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc =
      "Print the final verdict as canonical JSON instead of text. \
       Byte-identical for any --window."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let profile_arg =
    let doc =
      "Declared operational profile for drift detection: uniform:SIZE, \
       zipf:SIZE:EXPONENT, or peaked:SIZE:PEAK:MASS. Omitted: drift \
       detection disabled."
    in
    Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"SPEC" ~doc)
  in
  let run file window json profile metrics =
    setup_logs ();
    if window < 0 then `Error (false, "--window must be >= 0")
    else
      let profile_result =
        match profile with
        | None -> Ok None
        | Some spec -> Result.map Option.some (parse_profile spec)
      in
      match profile_result with
      | Error msg -> `Error (false, msg)
      | Ok expected_profile ->
          let config =
            { Evidence.Assessor.default_config with expected_profile }
          in
          let assessor = Evidence.Assessor.create config in
          if metrics <> None then Obs.Metrics.set_enabled true;
          let src = Evidence.Source.open_file file in
          Fun.protect
            ~finally:(fun () -> Evidence.Source.close src)
            (fun () ->
              (* Single pass, one line resident at a time. The chunk (one
                 window, or 64k lines) is the unit the ingest rate is
                 observed over and, with --window, the point an interim
                 verdict is printed at. *)
              let chunk = if window > 0 then window else 65536 in
              let rec drain () =
                let n =
                  Evidence.Assessor.ingest_source assessor src ~max_lines:chunk
                in
                if n > 0 then begin
                  if window > 0 && not json then begin
                    let v = Evidence.Verdict.of_assessor assessor in
                    let fleet = v.Evidence.Verdict.fleet in
                    Printf.printf
                      "interim @ %7d line(s): %-21s fleet %d/%d \
                       failures/demands, P(pfd<=%g)=%.4f\n"
                      (Evidence.Source.lines_read src)
                      (Evidence.Verdict.overall_string v.Evidence.Verdict.overall)
                      fleet.Evidence.Assessor.f_failures
                      fleet.Evidence.Assessor.f_demands
                      config.Evidence.Assessor.bound
                      v.Evidence.Verdict.fleet_posterior
                        .Evidence.Assessor.confidence_in_bound
                  end;
                  if n = chunk then drain ()
                end
              in
              drain ());
          let verdict = Evidence.Verdict.of_assessor assessor in
          if json then print_string (Evidence.Verdict.render_json verdict ^ "\n")
          else print_string (Evidence.Verdict.render_text verdict);
          Option.iter
            (fun path -> write_file path (Obs.Metrics.render_json ()))
            metrics;
          if metrics <> None then Obs.Metrics.set_enabled false;
          `Ok ()
  in
  Cmd.v
    (Cmd.info "evidence"
       ~doc:
         "Assess a JSONL run log as proven-in-use evidence: stream it in one \
          pass, reconcile per-plant and fleet demand/failure counters, \
          derive Bayesian posterior PFD bounds and a Wald accept/reject \
          boundary over the aggregate, detect demand-profile drift against \
          a declared profile, and print a verdict report (text or JSON). \
          The final verdict depends only on the log's contents, never on \
          how it was windowed.")
    Term.(
      ret
        (const run $ runlog_arg $ window_arg $ json_arg $ profile_arg
       $ metrics_arg))

(* ------------------------------------------------------------------ *)
(* Assessment service verbs                                           *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Listen on (or connect to) a Unix-domain socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc =
    "Listen on (or connect to) loopback TCP port $(docv); 0 picks an \
     ephemeral port (announced on stdout)."
  in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let listen_of_flags socket port =
  match (socket, port) with
  | Some path, None -> Ok (Serve.Server.Unix_path path)
  | None, Some p -> Ok (Serve.Server.Tcp_port p)
  | None, None -> Ok (Serve.Server.Tcp_port 0)
  | Some _, Some _ -> Error "--socket and --port are mutually exclusive"

(* Request script lines from a file or stdin; blank lines are skipped
   (both here and in serve-client, so scripts render identically). *)
let read_script path =
  let read_channel ic =
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    List.rev !lines
  in
  let lines =
    match path with
    | "-" -> read_channel stdin
    | path ->
        let ic = open_in path in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read_channel ic)
  in
  List.filter (fun l -> String.trim l <> "") lines

let script_arg =
  let doc = "Request script: one JSON request per line ('-' for stdin)." in
  Arg.(value & pos 0 string "-" & info [] ~docv:"SCRIPT" ~doc)

let serve_cmd =
  let workers_arg =
    let doc =
      "Dispatcher pool size. Responses are byte-identical for any value."
    in
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Admission queue capacity; past it requests are rejected with a busy \
       line carrying retry_after_ms."
    in
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"D" ~doc)
  in
  let batch_arg =
    let doc = "Most requests dispatched per pool batch." in
    Arg.(value & opt int 8 & info [ "batch" ] ~docv:"B" ~doc)
  in
  let run socket port workers queue_depth batch seed metrics =
    setup_logs ();
    if workers < 1 then `Error (false, "--workers must be >= 1")
    else if queue_depth < 1 then `Error (false, "--queue-depth must be >= 1")
    else if batch < 1 then `Error (false, "--batch must be >= 1")
    else
      match listen_of_flags socket port with
      | Error msg -> `Error (false, msg)
      | Ok listen ->
          let config =
            {
              Serve.Server.listen;
              workers;
              queue_capacity = queue_depth;
              batch_max = batch;
              seed;
            }
          in
          if metrics <> None then Obs.Metrics.set_enabled true;
          let on_ready port =
            (match port with
            | Some p -> Printf.printf "serve: listening tcp port=%d\n" p
            | None ->
                Printf.printf "serve: listening socket=%s\n"
                  (match listen with
                  | Serve.Server.Unix_path p -> p
                  | Serve.Server.Tcp_port _ -> assert false));
            flush stdout
          in
          let stats = Serve.Server.serve ~on_ready config in
          Printf.printf
            "serve: done served=%d rejected=%d malformed=%d batches=%d \
             draws=%d\n"
            stats.Serve.Server.served stats.Serve.Server.rejected
            stats.Serve.Server.malformed stats.Serve.Server.batches
            stats.Serve.Server.draws_total;
          Option.iter
            (fun path -> write_file path (Obs.Metrics.render_json ()))
            metrics;
          if metrics <> None then Obs.Metrics.set_enabled false;
          `Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the assessment daemon: JSONL requests (moments, risk-ratio, \
          pfd-dist, fleet-mission, stats, shutdown) over a Unix or loopback \
          TCP socket, bounded admission queue with deterministic \
          retry-after backpressure, batched dispatch onto an Exec pool. \
          Every response is a pure function of (--seed, request): \
          byte-identical to 'assess' output for any --workers value.")
    Term.(
      ret
        (const run $ socket_arg $ port_arg $ workers_arg $ queue_arg
       $ batch_arg $ seed_arg $ metrics_arg))

let serve_client_cmd =
  let run socket port script =
    setup_logs ();
    match listen_of_flags socket port with
    | Error msg -> `Error (false, msg)
    | Ok (Serve.Server.Tcp_port 0) ->
        `Error (false, "serve-client needs --socket PATH or --port PORT")
    | Ok listen -> (
        let lines = read_script script in
        let client = Serve.Client.connect listen in
        let finish () = Serve.Client.close client in
        match
          Fun.protect ~finally:finish (fun () ->
              List.fold_left
                (fun acc line ->
                  match acc with
                  | Error _ -> acc
                  | Ok () -> (
                      match Serve.Client.round_trip client line with
                      | Some reply ->
                          print_endline reply;
                          Ok ()
                      | None -> Error "server closed before replying"))
                (Ok ()) lines)
        with
        | Ok () -> `Ok ()
        | Error msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "serve-client"
       ~doc:
         "Scripted client for the assessment daemon: send each non-blank \
          line of SCRIPT as a request, print each reply line. Exactly one \
          reply per request, in order.")
    Term.(ret (const run $ socket_arg $ port_arg $ script_arg))

let assess_cmd =
  let run seed script =
    setup_logs ();
    List.iter
      (fun line ->
        let reply =
          match Serve.Proto.parse_line line with
          | Error detail -> Serve.Proto.error_line ~error:"parse" ~detail ()
          | Ok (Serve.Proto.Work r) -> Serve.Engine.eval ~seed r
          | Ok (Serve.Proto.Admin { id; _ }) ->
              Serve.Proto.error_line ~id ~error:"unsupported"
                ~detail:"admin verb requires the daemon" ()
        in
        print_endline reply)
      (read_script script)
  in
  Cmd.v
    (Cmd.info "assess"
       ~doc:
         "One-shot assessment: evaluate each non-blank request line of \
          SCRIPT directly (no daemon) and print the response lines. \
          Byte-identical to what 'serve' answers for the same --seed and \
          requests, for any worker count — the anchor the serve-vs-cli \
          differential tests compare against.")
    Term.(const run $ seed_arg $ script_arg)

let main =
  let doc =
    "Reproduction harness for Popov & Strigini, 'The Reliability of Diverse \
     Systems' (DSN 2001)"
  in
  Cmd.group
    (Cmd.info "divrel-experiments" ~doc)
    [
      list_cmd;
      run_cmd;
      all_cmd;
      check_cmd;
      evidence_cmd;
      serve_cmd;
      serve_client_cmd;
      assess_cmd;
    ]

let () = exit (Cmd.eval main)
