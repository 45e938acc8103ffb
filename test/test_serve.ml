(* lib/serve — the assessment service.

   Layered the way the service is: codec properties (parse ∘ render ≡ id
   plus malformed-line rejection), admission/backpressure units, engine
   determinism, dispatcher byte-identity across pool sizes, a
   daemon-vs-one-shot CLI differential matrix over subprocesses, a
   64-client soak with exact draw conservation, and a golden-pinned
   session transcript under seed 42.

   Regenerate the golden transcript (from _build/default/test) with:
     SERVE_PRINT_GOLDEN=1 ./test_serve.exe > golden/serve_session_seed42.jsonl *)

module Proto = Serve.Proto
module Engine = Serve.Engine
module Admission = Serve.Admission
module Dispatcher = Serve.Dispatcher
module Server = Serve.Server
module Client = Serve.Client

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* The shared test universe: three faults, mixed creation probabilities,
   small disjoint failure regions. *)
let u3 : Proto.universe_spec =
  { ps = [| 0.1; 0.02; 0.3 |]; qs = [| 1.0e-3; 1.0e-4; 5.0e-3 |] }

let work_requests : Proto.request list =
  [
    { Proto.id = "t1"; u = u3; verb = Proto.Moments };
    { Proto.id = "t2"; u = u3; verb = Proto.Risk_ratio { channels = 2; required = 1 } };
    {
      Proto.id = "t3";
      u = u3;
      verb = Proto.Pfd_dist { channels = 2; required = 1; bins = 0 };
    };
    {
      Proto.id = "t4";
      u = u3;
      verb =
        Proto.Fleet_mission
          {
            plants = 4;
            demands_per_plant = 100;
            mission_demands = 1000;
            salt = 7;
            shards = 3;
            space = 128;
          };
    };
  ]

(* The scripted session shared by the differential matrix and the golden
   pin: every work verb plus one malformed line (answered, counted,
   never fatal). *)
let session_work_lines =
  List.map Proto.render_request work_requests @ [ "{ not json" ]

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)
(* ------------------------------------------------------------------ *)

let test_request_roundtrip_prop () =
  Prop.check ~cases:300 "serve request codec round-trip"
    (Prop.serve_request ()) (fun r ->
      match Proto.parse_line (Proto.render_request r) with
      | Ok (Proto.Work r') ->
          if not (Proto.equal_request r r') then
            failwith "parse (render r) not structurally equal to r";
          if not (String.equal (Proto.render_request r') (Proto.render_request r))
          then failwith "re-rendering the parsed request changed bytes"
      | Ok (Proto.Admin _) -> failwith "request parsed as an admin line"
      | Error e -> failwith ("request failed to parse: " ^ e))

let test_admin_roundtrip () =
  List.iter
    (fun verb ->
      let line = Proto.render_admin ~id:"a1" verb in
      match Proto.parse_line line with
      | Ok (Proto.Admin { id; verb = v }) ->
          check_string "admin id survives" "a1" id;
          check_bool "admin verb survives" true (v = verb)
      | _ -> Alcotest.failf "admin line did not round-trip: %s" line)
    [ Proto.Stats; Proto.Shutdown ]

(* Every malformed shape is rejected by the parser (and therefore
   answered with an error line, never evaluated). *)
let malformed_lines =
  [
    "";
    "{ not json";
    "[]";
    "{}";
    {|{"verb":"moments","p":[0.1],"q":[0.01]}|};
    {|{"id":"","verb":"moments","p":[0.1],"q":[0.01]}|};
    {|{"id":"x","verb":"frobnicate","p":[0.1],"q":[0.01]}|};
    {|{"id":"x","verb":"moments","p":[0.1,0.2],"q":[0.01]}|};
    {|{"id":"x","verb":"moments","p":[1.5],"q":[0.01]}|};
    {|{"id":"x","verb":"moments","p":[0.1],"q":[-0.2]}|};
    {|{"id":"x","verb":"moments","p":[null],"q":[0.01]}|};
    {|{"id":"x","verb":"moments","p":[],"q":[]}|};
    {|{"id":"x","verb":"risk-ratio","p":[0.1],"q":[0.01],"channels":2,"required":3}|};
    {|{"id":"x","verb":"risk-ratio","p":[0.1],"q":[0.01],"channels":99,"required":1}|};
    {|{"id":"x","verb":"pfd-dist","p":[0.1],"q":[0.01],"channels":2,"required":1,"bins":1}|};
    {|{"id":"x","verb":"pfd-dist","p":[0.1],"q":[0.01],"channels":2,"required":1}|};
    {|{"id":"x","verb":"fleet-mission","p":[0.1],"q":[0.01],"plants":0,"demands":10,"mission":10,"salt":0,"shards":1,"space":64}|};
    {|{"id":"x","verb":"fleet-mission","p":[0.1],"q":[0.01],"plants":1,"demands":10,"mission":10,"salt":0,"shards":1,"space":8}|};
  ]

let test_malformed_rejected () =
  List.iter
    (fun line ->
      match Proto.parse_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed line accepted: %s" line)
    malformed_lines

(* The numeric boundary policy of the "p"/"q" entries, as proto.mli
   declares it. Each row puts one token first in "p" or last in "q" and
   pins the decoded entry's bits (%h keeps the sign of zero) or the
   error text. *)
let test_numeric_boundary_policy () =
  let line field tok =
    if field = "p" then
      Printf.sprintf {|{"id":"b","verb":"moments","p":[%s,0.5],"q":[0.1,0.2]}|} tok
    else Printf.sprintf {|{"id":"b","verb":"moments","p":[0.5,0.5],"q":[0.1,%s]}|} tok
  in
  let decode field tok =
    match Proto.parse_line (line field tok) with
    | Ok (Proto.Work r) ->
        Printf.sprintf "Ok %h" (if field = "p" then r.Proto.u.ps.(0) else r.Proto.u.qs.(1))
    | Ok (Proto.Admin _) -> "Ok admin"
    | Error e -> "Error " ^ e
  in
  let long = "0.12345678901234567890123" in
  List.iter
    (fun (tok, want_p, want_q) ->
      check_string (Printf.sprintf "p entry %s" tok) want_p (decode "p" tok);
      check_string (Printf.sprintf "q entry %s" tok) want_q (decode "q" tok))
    [
      ("1e999", {|Error field "p": non-finite entry|}, {|Error field "q": non-finite entry|});
      ("-1e999", {|Error field "p": non-finite entry|}, {|Error field "q": non-finite entry|});
      ("1e-400", "Ok 0x0p+0", "Ok 0x0p+0");
      ("-0.0", "Ok -0x0p+0", "Ok -0x0p+0");
      ("4.9406564584124654e-324", "Ok 0x0.0000000000001p-1022", "Ok 0x0.0000000000001p-1022");
      (long, Printf.sprintf "Ok %h" (float_of_string long), Printf.sprintf "Ok %h" (float_of_string long));
      ("1.", "Ok 0x1p+0", "Ok 0x1p+0");
      ( ".5",
        "Error malformed JSON: unexpected character '.' at offset 32",
        "Error malformed JSON: unexpected character '.' at offset 50" );
      ("01", "Ok 0x1p+0", "Ok 0x1p+0");
    ]

let test_retry_after_policy () =
  check_int "floor is 1 ms" 1 (Proto.retry_after_ms ~queue_depth:0 ~capacity:64);
  check_int "linear in overload" 65
    (Proto.retry_after_ms ~queue_depth:64 ~capacity:64);
  let prev = ref 0 in
  for depth = 0 to 256 do
    let r = Proto.retry_after_ms ~queue_depth:depth ~capacity:64 in
    check_bool "well-formed (>= 1)" true (r >= 1);
    check_bool "monotone in depth" true (r >= !prev);
    prev := r
  done;
  (* The busy line carries exactly the policy's advice. *)
  let line = Proto.busy_line ~id:"b1" ~queue_depth:8 ~capacity:8 in
  match Proto.parse_response line with
  | Ok resp ->
      check_bool "busy is not ok" false resp.Proto.resp_ok;
      check_bool "busy error tag" true (resp.Proto.resp_error = Some "busy");
      check_bool "busy echoes depth" true
        (resp.Proto.resp_queue_depth = Some 8);
      check_bool "busy echoes advice" true
        (resp.Proto.resp_retry_after_ms
        = Some (Proto.retry_after_ms ~queue_depth:8 ~capacity:8))
  | Error e -> Alcotest.failf "busy line unparseable: %s" e

(* ------------------------------------------------------------------ *)
(* Admission                                                          *)
(* ------------------------------------------------------------------ *)

let test_admission_bounded_fifo () =
  let q = Admission.create ~capacity:3 in
  check_int "capacity" 3 (Admission.capacity q);
  List.iter
    (fun i ->
      check_bool "admitted under capacity" true
        (Admission.offer q i = Admission.Admitted))
    [ 1; 2; 3 ];
  (match Admission.offer q 4 with
  | Admission.Rejected { queue_depth } ->
      check_int "depth observed at rejection" 3 queue_depth
  | Admission.Admitted -> Alcotest.fail "offer past capacity admitted");
  check_int "accepted counter" 3 (Admission.accepted q);
  check_int "rejected counter" 1 (Admission.rejected q);
  check_bool "FIFO prefix" true (Admission.take_batch q ~max:2 = [| 1; 2 |]);
  check_int "depth after batch" 1 (Admission.depth q);
  check_bool "admits again after drain" true
    (Admission.offer q 5 = Admission.Admitted);
  check_bool "FIFO rest" true (Admission.take_batch q ~max:10 = [| 3; 5 |]);
  check_bool "empty drain" true (Admission.take_batch q ~max:4 = [||])

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let test_engine_determinism () =
  List.iter
    (fun (r : Proto.request) ->
      let name = Proto.verb_name r in
      let a = Engine.eval ~seed:42 r in
      check_string (name ^ " repeatable") a (Engine.eval ~seed:42 r);
      (* The request carries its own shard count; the process-wide
         default must never leak into a response. *)
      let saved = Exec.default_shards () in
      Exec.set_default_shards 5;
      let b = Engine.eval ~seed:42 r in
      Exec.set_default_shards saved;
      check_string (name ^ " invariant under default-shards") a b;
      match Proto.parse_response a with
      | Ok resp ->
          check_bool (name ^ " is ok") true resp.Proto.resp_ok;
          check_bool (name ^ " echoes id") true
            (resp.Proto.resp_id = Some r.Proto.id);
          check_bool (name ^ " echoes seed") true
            (resp.Proto.resp_seed = Some 42)
      | Error e -> Alcotest.failf "%s response unparseable: %s" name e)
    work_requests;
  (* Fleet simulation draws randomness; the analytic verbs draw none. *)
  let draws_of r =
    match Proto.parse_response (Engine.eval ~seed:42 r) with
    | Ok resp -> Option.value resp.Proto.resp_draws ~default:(-1)
    | Error e -> Alcotest.failf "response unparseable: %s" e
  in
  check_int "moments draws nothing" 0 (draws_of (List.nth work_requests 0));
  check_bool "fleet-mission draws" true (draws_of (List.nth work_requests 3) > 0);
  (* The seed is part of the envelope even for seed-independent verbs. *)
  check_bool "seed is part of the response" true
    (not
       (String.equal
          (Engine.eval ~seed:42 (List.hd work_requests))
          (Engine.eval ~seed:43 (List.hd work_requests))))

let test_engine_unsupported_exact () =
  let n = Core.Pfd_dist.max_exact_faults + 1 in
  let u = { Proto.ps = Array.make n 0.1; qs = Array.make n 1.0e-4 } in
  let r =
    {
      Proto.id = "big";
      u;
      verb = Proto.Pfd_dist { channels = 2; required = 1; bins = 0 };
    }
  in
  let line = Engine.eval ~seed:42 r in
  check_string "unsupported is deterministic" line (Engine.eval ~seed:42 r);
  match Proto.parse_response line with
  | Ok resp ->
      check_bool "not ok" false resp.Proto.resp_ok;
      check_bool "tagged unsupported" true
        (resp.Proto.resp_error = Some "unsupported");
      check_bool "echoes id" true (resp.Proto.resp_id = Some "big")
  | Error e -> Alcotest.failf "error line unparseable: %s" e

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                         *)
(* ------------------------------------------------------------------ *)

(* A mixed batch — verb kinds interleaved — must come back in arrival
   order with bytes identical to direct evaluation, for a sequential and
   a parallel pool alike. *)
let test_dispatcher_byte_identity () =
  let reindex i (r : Proto.request) =
    { r with Proto.id = Printf.sprintf "b%d-%s" i r.Proto.id }
  in
  let batch =
    [ 3; 0; 2; 0; 1; 3 ]
    |> List.mapi (fun i k -> reindex i (List.nth work_requests k))
    |> Array.of_list
  in
  let direct = Array.map (fun r -> Engine.eval ~seed:42 r) batch in
  List.iter
    (fun domains ->
      let pool = Exec.Pool.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Exec.Pool.shutdown pool)
        (fun () ->
          let d = Dispatcher.create ~pool ~seed:42 in
          check_int "workers reports pool size" domains (Dispatcher.workers d);
          check_int "seed echoed" 42 (Dispatcher.seed d);
          let results = Dispatcher.run_batch d batch in
          check_int "one result per request" (Array.length batch)
            (Array.length results);
          Array.iteri
            (fun i (res : Dispatcher.result) ->
              check_string
                (Printf.sprintf "slot %d identical (%d domains)" i domains)
                direct.(i) res.Dispatcher.line;
              check_bool "latency non-negative" true
                (Int64.compare res.Dispatcher.elapsed_ns 0L >= 0))
            results))
    [ 1; 4 ]

(* Telemetry stays on under the dispatcher's pool: with metrics and a
   run log on, a batch on a 2-domain pool answers with the same bytes
   (the [draws] fields included) as with both off, and the kernels'
   instruments fill up. *)
let test_dispatcher_telemetry_on () =
  let batch =
    [ 3; 0; 3; 1; 2; 3 ]
    |> List.mapi (fun i k ->
           let r = List.nth work_requests k in
           { r with Proto.id = Printf.sprintf "m%d-%s" i r.Proto.id })
    |> Array.of_list
  in
  let pool = Exec.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      let d = Dispatcher.create ~pool ~seed:42 in
      let lines () =
        Array.map (fun (r : Dispatcher.result) -> r.Dispatcher.line)
          (Dispatcher.run_batch d batch)
      in
      let off = lines () in
      let path = Filename.temp_file "dispatcher_runlog" ".jsonl" in
      Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
          let oc = open_out path in
          Obs.Metrics.set_enabled true;
          Obs.Runlog.set_sink (Some (Obs.Runlog.create_streaming oc));
          let on, snapshot =
            Fun.protect
              ~finally:(fun () ->
                Obs.Runlog.set_sink None;
                close_out oc;
                Obs.Metrics.set_enabled false;
                Obs.Metrics.reset_values ())
              (fun () ->
                let on = lines () in
                (on, Obs.Metrics.snapshot ()))
          in
          Array.iteri
            (fun i line ->
              check_string (Printf.sprintf "slot %d identical with telemetry on" i)
                line on.(i))
            off;
          let count section field name =
            match Option.bind (Obs.Json.member section snapshot) Obs.Json.to_list with
            | Some items -> (
                match
                  List.find_opt
                    (fun item ->
                      Obs.Json.member "name" item = Some (Obs.Json.String name))
                    items
                with
                | Some item ->
                    Option.value ~default:0
                      (Option.bind (Obs.Json.member field item) Obs.Json.to_int)
                | None -> Alcotest.failf "%s missing from the snapshot" name)
            | None -> Alcotest.failf "snapshot lacks %s" section
          in
          (* three fleet-mission requests of four plants each *)
          check_int "runner.runs" 12 (count "counters" "value" "runner.runs");
          check_int "runner.estimated_pfd observations" 12
            (count "histograms" "count" "runner.estimated_pfd");
          check_int "fleet.plant_true_pfd observations" 12
            (count "histograms" "count" "fleet.plant_true_pfd");
          let events =
            In_channel.with_open_bin path In_channel.input_all
            |> String.split_on_char '\n'
            |> List.filter (fun l -> l <> "")
          in
          check_bool "the run log holds the fleet events" true
            (List.length events >= 3 * (1 + (2 * 4)))))

(* ------------------------------------------------------------------ *)
(* Daemon subprocess harness                                          *)
(* ------------------------------------------------------------------ *)

(* Resolve sibling build artefacts relative to this test binary, not the
   working directory: `dune runtest` runs tests from _build/default/test
   but `dune exec test/test_serve.exe` runs them from the project root,
   and the daemon/golden fixtures must work either way. *)
let in_test_dir path = Filename.concat (Filename.dirname Sys.executable_name) path
let cli_exe = in_test_dir "../bin/experiments_cli.exe"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let non_blank_lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let write_lines path lines =
  let oc = open_out_bin path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

(* One-shot CLI reference output for a script, under a given domain
   count (which must be inert: responses are pure in (seed, request)). *)
let assess_lines ~seed ~domains lines =
  let script = Filename.temp_file "serve-script" ".jsonl" in
  let out = Filename.temp_file "serve-assess" ".jsonl" in
  write_lines script lines;
  let cmd =
    Printf.sprintf "DIVREL_DOMAINS=%d %s" domains
      (Filename.quote_command cli_exe
         [ "assess"; "--seed"; string_of_int seed; script ]
         ~stdout:out)
  in
  let rc = Sys.command cmd in
  check_int "assess exit code" 0 rc;
  let got = non_blank_lines (read_file out) in
  Sys.remove script;
  Sys.remove out;
  got

let temp_socket () =
  let path = Filename.temp_file "divrel-serve" ".sock" in
  Sys.remove path;
  path

let env_with key value =
  let prefix = key ^ "=" in
  let keeps s =
    not
      (String.length s >= String.length prefix
      && String.sub s 0 (String.length prefix) = prefix)
  in
  Array.of_list
    ((prefix ^ value)
    :: (Array.to_list (Unix.environment ()) |> List.filter keeps))

let spawn_daemon ~env args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env cli_exe
      (Array.of_list (cli_exe :: args))
      env Unix.stdin null null
  in
  Unix.close null;
  pid

let run_session ~socket lines =
  let c = Client.connect (Server.Unix_path socket) in
  let replies =
    List.map
      (fun l ->
        match Client.round_trip c l with
        | Some reply -> reply
        | None -> Alcotest.failf "daemon closed while awaiting reply to: %s" l)
      lines
  in
  Client.close c;
  replies

let reap_daemon pid =
  let _, status = Unix.waitpid [] pid in
  check_bool "daemon exited cleanly" true (status = Unix.WEXITED 0)

(* The differential matrix of the satellite spec: daemon output is
   byte-identical to the one-shot CLI for seeds {42, 271828}, workers
   {1, 4} and DIVREL_DOMAINS {1, 2}. *)
let test_daemon_vs_assess () =
  List.iter
    (fun seed ->
      List.iter
        (fun domains ->
          let expected = assess_lines ~seed ~domains session_work_lines in
          check_int "assess answers every line"
            (List.length session_work_lines)
            (List.length expected);
          List.iter
            (fun workers ->
              let socket = temp_socket () in
              let env = env_with "DIVREL_DOMAINS" (string_of_int domains) in
              let pid =
                spawn_daemon ~env
                  [
                    "serve";
                    "--socket";
                    socket;
                    "--workers";
                    string_of_int workers;
                    "--seed";
                    string_of_int seed;
                  ]
              in
              let got =
                run_session ~socket
                  (session_work_lines
                  @ [ Proto.render_admin ~id:"bye" Proto.Shutdown ])
              in
              reap_daemon pid;
              List.iteri
                (fun i e ->
                  check_string
                    (Printf.sprintf "seed=%d domains=%d workers=%d line %d"
                       seed domains workers i)
                    e (List.nth got i))
                expected)
            [ 1; 4 ])
        [ 1; 2 ])
    [ 42; 271828 ]

(* ------------------------------------------------------------------ *)
(* Soak                                                               *)
(* ------------------------------------------------------------------ *)

(* 64 concurrent clients against a deliberately tight queue (capacity 8)
   so admission rejections actually happen. Every request must be
   answered exactly once, busy lines must carry well-formed retry
   advice, and the server's draw meter must equal the sum of the
   per-response draw fields — the conservation law that proves nothing
   was lost, duplicated or double-counted. *)
let test_soak () =
  let socket = temp_socket () in
  let config =
    {
      Server.listen = Server.Unix_path socket;
      workers = 4;
      queue_capacity = 8;
      batch_max = 4;
      seed = 42;
    }
  in
  let stats_slot = ref None in
  let server = Thread.create (fun () -> stats_slot := Some (Server.serve config)) () in
  let n_clients = 64 and per_client = 5 in
  let ok_counts = Array.make n_clients 0 in
  let draw_sums = Array.make n_clients 0 in
  let busy_counts = Array.make n_clients 0 in
  let failures = ref [] in
  let failures_mtx = Mutex.create () in
  let record_failure msg =
    Mutex.lock failures_mtx;
    failures := msg :: !failures;
    Mutex.unlock failures_mtx
  in
  let client ci =
    let c = Client.connect (Server.Unix_path socket) in
    for r = 0 to per_client - 1 do
      let id = Printf.sprintf "c%d-%d" ci r in
      let req =
        if r mod 2 = 0 then { Proto.id; u = u3; verb = Proto.Moments }
        else
          {
            Proto.id;
            u = u3;
            verb =
              Proto.Fleet_mission
                {
                  plants = 2;
                  demands_per_plant = 40;
                  mission_demands = 100;
                  salt = (ci * per_client) + r;
                  shards = 2;
                  space = 64;
                };
          }
      in
      let line = Proto.render_request req in
      let rec attempt budget =
        if budget <= 0 then record_failure (id ^ ": retry budget exhausted")
        else
          match Client.round_trip c line with
          | None -> record_failure (id ^ ": connection closed")
          | Some reply -> (
              match Proto.parse_response reply with
              | Ok resp when resp.Proto.resp_ok ->
                  if resp.Proto.resp_id <> Some id then
                    record_failure (id ^ ": reply id mismatch: " ^ reply)
                  else begin
                    ok_counts.(ci) <- ok_counts.(ci) + 1;
                    draw_sums.(ci) <-
                      draw_sums.(ci)
                      + Option.value resp.Proto.resp_draws ~default:0
                  end
              | Ok resp when resp.Proto.resp_error = Some "busy" -> (
                  busy_counts.(ci) <- busy_counts.(ci) + 1;
                  match
                    (resp.Proto.resp_retry_after_ms, resp.Proto.resp_queue_depth)
                  with
                  | Some ms, Some depth when ms >= 1 && depth >= 0 ->
                      Thread.delay (float_of_int ms /. 1000.0);
                      attempt (budget - 1)
                  | _ -> record_failure (id ^ ": ill-formed busy line: " ^ reply))
              | Ok _ -> record_failure (id ^ ": unexpected reply: " ^ reply)
              | Error e -> record_failure (id ^ ": unparseable reply: " ^ e))
      in
      attempt 10_000
    done;
    Client.close c
  in
  let threads = List.init n_clients (Thread.create client) in
  List.iter Thread.join threads;
  let ctrl = Client.connect (Server.Unix_path socket) in
  let stats_reply =
    match Client.round_trip ctrl (Proto.render_admin ~id:"stats" Proto.Stats) with
    | Some reply -> reply
    | None -> Alcotest.fail "no stats reply"
  in
  (match Client.round_trip ctrl (Proto.render_admin ~id:"bye" Proto.Shutdown) with
  | Some _ -> ()
  | None -> Alcotest.fail "no shutdown reply");
  Client.close ctrl;
  Thread.join server;
  (match !failures with
  | [] -> ()
  | fs ->
      Alcotest.failf "%d soak failure(s); first: %s" (List.length fs)
        (List.nth fs (List.length fs - 1)));
  let sum = Array.fold_left ( + ) 0 in
  let total_ok = sum ok_counts in
  let total_busy = sum busy_counts in
  let total_draws = sum draw_sums in
  check_int "every request answered exactly once" (n_clients * per_client)
    total_ok;
  check_bool "simulation actually drew randomness" true (total_draws > 0);
  let stats =
    match !stats_slot with
    | Some s -> s
    | None -> Alcotest.fail "server thread returned no stats"
  in
  check_int "server served every request" (n_clients * per_client)
    stats.Server.served;
  check_int "server rejections = client busy replies" total_busy
    stats.Server.rejected;
  check_int "no malformed lines" 0 stats.Server.malformed;
  check_bool "dispatched in batches" true (stats.Server.batches >= 1);
  check_int "draw conservation: server meter = sum of response meters"
    total_draws stats.Server.draws_total;
  (* The stats verb reports the same session counters over the wire. *)
  match Proto.parse_response stats_reply with
  | Ok resp -> (
      check_bool "stats is ok" true resp.Proto.resp_ok;
      match resp.Proto.resp_body with
      | Some body ->
          let int_field name =
            match Option.bind (Obs.Json.member name body) Obs.Json.to_int with
            | Some v -> v
            | None -> Alcotest.failf "stats body lacks %S: %s" name stats_reply
          in
          check_int "stats body served" stats.Server.served (int_field "served");
          check_int "stats body rejected" stats.Server.rejected
            (int_field "rejected");
          check_int "stats body draws_total" stats.Server.draws_total
            (int_field "draws_total")
      | None -> Alcotest.failf "stats reply has no body: %s" stats_reply)
  | Error e -> Alcotest.failf "stats reply unparseable: %s" e

(* A client that sends 2 MiB with no newline gets exactly one parse
   error and is disconnected once its buffer passes the 1 MiB line
   limit; a second client on the same daemon is served throughout. *)
let test_overlong_line () =
  let socket = temp_socket () in
  let config =
    {
      Server.listen = Server.Unix_path socket;
      workers = 1;
      queue_capacity = 8;
      batch_max = 4;
      seed = 42;
    }
  in
  let stats_slot = ref None in
  let server = Thread.create (fun () -> stats_slot := Some (Server.serve config)) () in
  (* Connecting through [Client] first waits out the daemon's bind. *)
  let good = Client.connect (Server.Unix_path socket) in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let chunk = Bytes.make 65536 'x' in
  let rec flood left =
    if left > 0 then
      match Unix.write fd chunk 0 (Bytes.length chunk) with
      | n -> flood (left - n)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  flood (2 lsl 20);
  let buf = Buffer.create 256 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  drain ();
  Unix.close fd;
  (match String.split_on_char '\n' (Buffer.contents buf) with
  | [ line; "" ] -> (
      match Proto.parse_response line with
      | Ok resp ->
          check_bool "not ok" false resp.Proto.resp_ok;
          check_bool "parse error" true (resp.Proto.resp_error = Some "parse");
          check_bool "names the limit" true
            (resp.Proto.resp_detail = Some "line exceeds 1 MiB")
      | Error e -> Alcotest.failf "unparseable reply %S: %s" line e)
  | _ ->
      Alcotest.failf "expected exactly one reply line, got %S"
        (Buffer.contents buf));
  let req = List.hd work_requests in
  (match Client.round_trip good (Proto.render_request req) with
  | Some reply ->
      check_string "second client served" (Engine.eval ~seed:42 req) reply
  | None -> Alcotest.fail "second client: connection closed");
  (match Client.round_trip good (Proto.render_admin ~id:"bye" Proto.Shutdown) with
  | Some _ -> ()
  | None -> Alcotest.fail "no shutdown reply");
  Client.close good;
  Thread.join server;
  match !stats_slot with
  | Some st ->
      check_int "one malformed" 1 st.Server.malformed;
      check_int "one served" 1 st.Server.served
  | None -> Alcotest.fail "server thread returned no stats"

(* ------------------------------------------------------------------ *)
(* Golden session transcript                                          *)
(* ------------------------------------------------------------------ *)

let golden_path = in_test_dir "golden/serve_session_seed42.jsonl"

(* One full scripted session against a subprocess daemon pinned at
   seed 42, workers 1, queue 64: the four work verbs, a malformed line,
   stats, shutdown — seven reply lines. Deterministic end to end, so
   byte-pinnable. *)
let golden_session () =
  let socket = temp_socket () in
  let pid =
    spawn_daemon
      ~env:(env_with "DIVREL_DOMAINS" "1")
      [
        "serve";
        "--socket";
        socket;
        "--workers";
        "1";
        "--queue-depth";
        "64";
        "--seed";
        "42";
      ]
  in
  let lines =
    session_work_lines
    @ [
        Proto.render_admin ~id:"s1" Proto.Stats;
        Proto.render_admin ~id:"bye" Proto.Shutdown;
      ]
  in
  let got = run_session ~socket lines in
  reap_daemon pid;
  String.concat "" (List.map (fun l -> l ^ "\n") got)

let test_golden_session () =
  let transcript = golden_session () in
  let expected = read_file golden_path in
  if not (String.equal expected transcript) then
    Alcotest.failf
      "session transcript drifted from %s@.expected:@.%s@.got:@.%s@.(regenerate \
       with SERVE_PRINT_GOLDEN=1 ./test_serve.exe > %s)"
      golden_path expected transcript golden_path

(* ------------------------------------------------------------------ *)

let () =
  if Sys.getenv_opt "SERVE_PRINT_GOLDEN" <> None then begin
    print_string (golden_session ());
    exit 0
  end

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          Alcotest.test_case "request round-trip property" `Quick
            test_request_roundtrip_prop;
          Alcotest.test_case "admin round-trip" `Quick test_admin_roundtrip;
          Alcotest.test_case "malformed lines rejected" `Quick
            test_malformed_rejected;
          Alcotest.test_case "numeric boundary policy" `Quick
            test_numeric_boundary_policy;
          Alcotest.test_case "retry-after policy" `Quick test_retry_after_policy;
        ] );
      ( "admission",
        [ Alcotest.test_case "bounded FIFO" `Quick test_admission_bounded_fifo ]
      );
      ( "engine",
        [
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "unsupported exact dist" `Quick
            test_engine_unsupported_exact;
        ] );
      ( "dispatcher",
        [
          Alcotest.test_case "byte-identity across pool sizes" `Quick
            test_dispatcher_byte_identity;
          Alcotest.test_case "telemetry on under a 2-domain pool" `Quick
            test_dispatcher_telemetry_on;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "byte-identity vs one-shot assess" `Quick
            test_daemon_vs_assess;
          Alcotest.test_case "soak: 64 clients, tight queue" `Quick test_soak;
          Alcotest.test_case "overlong line disconnects" `Quick
            test_overlong_line;
          Alcotest.test_case "golden session transcript" `Quick
            test_golden_session;
        ] );
    ]
