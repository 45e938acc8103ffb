(* Benchmark probe. It generates the benchmark's inputs from a seed,
   computes the expected outputs in-process, drives the daemon as a
   closed-loop client, and times calls into the program's layers for the
   traced run. Everything in this file is benchmark code; the program
   under test is the libraries it links and the experiments_cli binary
   that run.py starts.

   Usage: probe.exe COMMAND --key value ...   (commands: see the end)
   Every command prints one JSON object on stdout. *)

let now () = Int64.to_int (Obs.Clock.now_ns ())
let seconds_since t0 = float_of_int (now () - t0) *. 1e-9

(* serve-analytic: distinct requests the generator cycles through, the
   length of one phase of a round, and in-process passes per traced run.
   A phase is shorter than the host's fast and slow states last (see
   perfbench/README.md), so most rounds run in one state or the other and
   run.py can read its figures from the slow ones. *)
let serve_requests = 1024
let phase_s = 0.05
let serve_passes = 2

(* evidence-ingest: short synthetic events before the E26 log, and the
   traced pass keeps the spans of every [evidence_sample]-th line. *)
let evidence_events = 250_000
let evidence_sample = 16

(* Runs of the host reference kernel; its median is reported. *)
let host_ref_reps = 5

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("probe: " ^ s);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

(* Spans live in preallocated columns so that recording one allocates
   nothing on the minor heap; they are written out once, at the end of
   the command. [words] holds the minor-heap words allocated inside the
   span (the [Gc.minor_words] counter that [Gc.quick_stat] reports). *)
type spans = {
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable item : int array;
  mutable arg : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable words : float array;
}

let sp =
  {
    n = 0;
    name = [||];
    parent = [||];
    item = [||];
    arg = [||];
    t0 = [||];
    t1 = [||];
    words = [||];
  }

let names = ref [||]

let intern s =
  match Array.find_index (String.equal s) !names with
  | Some i -> i
  | None ->
      names := Array.append !names [| s |];
      Array.length !names - 1

let grow () =
  let cap = max 4096 (2 * Array.length sp.name) in
  let ext a d =
    let b = Array.make cap d in
    Array.blit a 0 b 0 sp.n;
    b
  in
  sp.name <- ext sp.name 0;
  sp.parent <- ext sp.parent 0;
  sp.item <- ext sp.item 0;
  sp.arg <- ext sp.arg 0;
  sp.t0 <- ext sp.t0 0;
  sp.t1 <- ext sp.t1 0;
  sp.words <- ext sp.words 0.0

let tracing = ref false

(* [span name ~item ~arg ~parent f] runs [f id] inside a span whose id
   is [id] (children pass it as their [~parent]); with tracing off it
   runs [f (-1)] and records nothing. *)
let span name ~item ~arg ~parent f =
  if not !tracing then f (-1)
  else begin
    if sp.n = Array.length sp.name then grow ();
    let id = sp.n in
    sp.n <- id + 1;
    sp.name.(id) <- name;
    sp.parent.(id) <- parent;
    sp.item.(id) <- item;
    sp.arg.(id) <- arg;
    sp.words.(id) <- Gc.minor_words ();
    sp.t0.(id) <- now ();
    let r = f id in
    sp.t1.(id) <- now ();
    sp.words.(id) <- Gc.minor_words () -. sp.words.(id);
    r
  end

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [rounds] untraced and traced runs of [pass] alternate, so drift of the
   host between runs does not read as tracing overhead. Returns the
   median wall time of each kind. *)
let alternate ~rounds pass =
  let u = Array.make rounds 0.0 and t = Array.make rounds 0.0 in
  for k = 0 to rounds - 1 do
    u.(k) <- pass ();
    tracing := true;
    t.(k) <- pass ();
    tracing := false
  done;
  (median u, median t)

let write_spans path =
  let oc = open_out_bin path in
  output_string oc "id\tparent\tname\titem\targ\tstart_ns\tend_ns\tminor_words\n";
  for i = 0 to sp.n - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%.0f\n" i sp.parent.(i)
      !names.(sp.name.(i))
      sp.item.(i) sp.arg.(i) sp.t0.(i) sp.t1.(i) sp.words.(i)
  done;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Small helpers                                                      *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match In_channel.input_line ic with
    | Some l -> go (l :: acc)
    | None ->
        close_in ic;
        Array.of_list (List.rev acc)
  in
  go []

let write_lines path lines =
  let oc = open_out_bin path in
  Array.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

(* ------------------------------------------------------------------ *)
(* serve-analytic: requests, expected replies, closed-loop generator  *)
(* ------------------------------------------------------------------ *)

(* A synthetic mix of moments, risk-ratio and small-grid pfd-dist
   requests over universes of 16-256 faults: the weights and ranges are
   guesses, each argued in perfbench/README.md. Sum of q stays below 1 so
   every universe is valid; bins >= 2 keeps pfd-dist on the gridded path,
   which accepts every universe size. *)
let gen_requests ~seed ~count =
  let st = Random.State.make [| seed; 0x5e7e |] in
  Array.init count (fun i ->
      let n = 16 + Random.State.int st 241 in
      let ps = Array.init n (fun _ -> 0.001 +. Random.State.float st 0.299) in
      let qs =
        Array.init n (fun _ ->
            1e-6 +. Random.State.float st (0.9 /. float_of_int n))
      in
      let verb =
        match Random.State.int st 10 with
        | 0 | 1 | 2 | 3 -> Serve.Proto.Moments
        | 4 | 5 | 6 | 7 ->
            let channels = 2 + Random.State.int st 3 in
            Serve.Proto.Risk_ratio
              { channels; required = 1 + Random.State.int st channels }
        | _ ->
            let channels = 1 + Random.State.int st 3 in
            Serve.Proto.Pfd_dist
              {
                channels;
                required = 1 + Random.State.int st channels;
                bins = [| 16; 32; 64 |].(Random.State.int st 3);
              }
      in
      { Serve.Proto.id = Printf.sprintf "r%d" i; u = { ps; qs }; verb })

let expected_reply ~seed line =
  match Serve.Proto.parse_line line with
  | Ok (Serve.Proto.Work r) -> Serve.Engine.eval ~seed r
  | Ok (Serve.Proto.Admin _) -> die "generated an admin line: %s" line
  | Error e -> die "generated request does not parse: %s" e

let serve_prep ~seed ~requests ~expected =
  let lines =
    Array.map Serve.Proto.render_request (gen_requests ~seed ~count:serve_requests)
  in
  let replies = Array.map (expected_reply ~seed) lines in
  Array.iteri
    (fun i reply ->
      match Serve.Proto.parse_response reply with
      | Ok { Serve.Proto.resp_ok = true; _ } -> ()
      | _ -> die "request %d is not answered ok: %s" i reply)
    replies;
  write_lines requests lines;
  write_lines expected replies;
  Printf.printf "{\"requests\":%d}\n" serve_requests

(* Line reader over a blocking socket, with a check for lines already
   buffered so a burst of replies can be answered with one write. *)
type reader = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable lo : int; mutable hi : int }

let find_nl r =
  let rec go i = if i >= r.hi then -1 else if Bytes.get r.buf i = '\n' then i else go (i + 1) in
  go r.lo

let rec read_line r =
  let nl = find_nl r in
  if nl >= 0 then begin
    let s = Bytes.sub_string r.buf r.lo (nl - r.lo) in
    r.lo <- nl + 1;
    Some s
  end
  else begin
    if r.lo > 0 then begin
      Bytes.blit r.buf r.lo r.buf 0 (r.hi - r.lo);
      r.hi <- r.hi - r.lo;
      r.lo <- 0
    end;
    if r.hi = Bytes.length r.buf then begin
      let b = Bytes.create (2 * Bytes.length r.buf) in
      Bytes.blit r.buf 0 b 0 r.hi;
      r.buf <- b
    end;
    let k =
      try Unix.read r.fd r.buf r.hi (Bytes.length r.buf - r.hi)
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> -1
    in
    if k < 0 then read_line r
    else if k = 0 then None
    else begin
      r.hi <- r.hi + k;
      read_line r
    end
  end

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.single_write fd b off (Bytes.length b - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> go off
  in
  go 0

type phase = { mutable sent : int; mutable ok : int; mutable failed : int; mutable secs : float }

let phase_json p =
  Printf.sprintf "{\"sent\":%d,\"ok\":%d,\"failed\":%d,\"seconds\":%.9f}" p.sent p.ok
    p.failed p.secs

(* Phase [rtt] keeps one request in flight and records write-to-read
   latency; phase [batch] keeps [window] in flight, answering each burst
   of replies with one write of as many new requests. The two phases
   alternate in rounds of [phase_s] each, so both see the same host
   conditions;
   each batch round reports its own rate. A reply counts as ok only when
   it is byte-identical to the in-process answer. *)
let serve_gen ~socket ~requests ~expected ~seconds ~window ~latencies =
  let reqs = Array.map (fun l -> l ^ "\n") (read_lines requests) in
  let exp = read_lines expected in
  let n = Array.length reqs in
  if n = 0 || Array.length exp <> n then die "request and reply files disagree";
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (* The generator spins on a non-blocking socket instead of sleeping,
     so its own wake-up latency stays out of the measured round trip. *)
  Unix.set_nonblock fd;
  let r = { fd; buf = Bytes.create 65536; lo = 0; hi = 0 } in
  let next = ref 0 in
  let judge p i = function
    | Some reply when String.equal reply exp.(i) -> p.ok <- p.ok + 1
    | Some _ -> p.failed <- p.failed + 1
    | None -> die "daemon closed the connection"
  in
  let slices = max 1 (int_of_float (seconds /. (2.0 *. phase_s))) in
  let rtt = { sent = 0; ok = 0; failed = 0; secs = 0.0 } in
  let batch = { sent = 0; ok = 0; failed = 0; secs = 0.0 } in
  let lat = Buffer.create (1 lsl 20) in
  let rates = ref [] in
  let outstanding = Queue.create () in
  let send k =
    let b = Buffer.create 65536 in
    for _ = 1 to k do
      let i = !next mod n in
      incr next;
      Queue.push i outstanding;
      Buffer.add_string b reqs.(i)
    done;
    batch.sent <- batch.sent + k;
    write_all fd (Buffer.contents b)
  in
  for slice = 0 to slices - 1 do
    let t_phase = now () in
    while seconds_since t_phase < phase_s do
      let i = !next mod n in
      incr next;
      let t0 = now () in
      write_all fd reqs.(i);
      let reply = read_line r in
      let t1 = now () in
      rtt.sent <- rtt.sent + 1;
      Printf.bprintf lat "%d %d\n" slice (t1 - t0);
      judge rtt i reply
    done;
    rtt.secs <- rtt.secs +. seconds_since t_phase;
    let t_phase = now () and ok0 = batch.ok in
    send window;
    while not (Queue.is_empty outstanding) do
      judge batch (Queue.pop outstanding) (read_line r);
      let answered = ref 1 in
      while find_nl r >= 0 do
        judge batch (Queue.pop outstanding) (read_line r);
        incr answered
      done;
      if seconds_since t_phase < phase_s then send !answered
    done;
    let secs = seconds_since t_phase in
    batch.secs <- batch.secs +. secs;
    rates := (float_of_int (batch.ok - ok0) /. secs) :: !rates
  done;
  write_all fd (Serve.Proto.render_admin ~id:"bye" Serve.Proto.Shutdown ^ "\n");
  ignore (read_line r);
  Unix.close fd;
  let oc = open_out_bin latencies in
  Buffer.output_buffer oc lat;
  close_out oc;
  Printf.printf "{\"rtt\":%s,\"batch\":%s,\"batch_rates\":[%s]}\n" (phase_json rtt)
    (phase_json batch)
    (String.concat "," (List.rev_map (Printf.sprintf "%.6f") !rates))

(* The verb of a request, carried as the [arg] of its eval span so that
   evaluation cost can be reported per verb. *)
let verb_code (r : Serve.Proto.request) =
  match r.verb with
  | Serve.Proto.Moments -> 0
  | Serve.Proto.Risk_ratio _ -> 1
  | Serve.Proto.Pfd_dist _ -> 2
  | Serve.Proto.Fleet_mission _ -> 3

(* Traced in-process pass over the same requests: decode, evaluate and
   render each one, then dispatch them in batches the daemon's size. *)
let serve_trace ~seed ~requests ~expected ~batch ~spans =
  let lines = read_lines requests in
  let exp = read_lines expected in
  let n = Array.length lines in
  let trees =
    Array.map
      (fun l ->
        match Obs.Json.parse l with Ok t -> t | Error e -> die "reply: %s" e)
      exp
  in
  let parsed =
    Array.map
      (fun l ->
        match Serve.Proto.parse_line l with
        | Ok (Serve.Proto.Work r) -> r
        | _ -> die "request does not parse")
      lines
  in
  let s_request = intern "request"
  and s_decode = intern "proto.decode"
  and s_eval = intern "engine.eval"
  and s_render = intern "json.render"
  and s_direct = intern "engine.eval_batch"
  and s_batch = intern "dispatcher.run_batch" in
  let pool = Exec.Pool.create ~domains:1 () in
  let disp = Serve.Dispatcher.create ~pool ~seed in
  let checks = ref 0 and mismatches = ref 0 in
  let check ok =
    incr checks;
    if not ok then incr mismatches
  in
  let one_pass () =
    let t0 = now () in
    for _ = 1 to serve_passes do
      for i = 0 to n - 1 do
        span s_request ~item:i ~arg:0 ~parent:(-1) (fun root ->
            match
              span s_decode ~item:i ~arg:(String.length lines.(i)) ~parent:root
                (fun _ -> Serve.Proto.parse_line lines.(i))
            with
            | Ok (Serve.Proto.Work r) ->
                let reply =
                  span s_eval ~item:i ~arg:(verb_code r) ~parent:root (fun _ ->
                      Serve.Engine.eval ~seed r)
                in
                check (String.equal reply exp.(i));
                ignore
                  (span s_render ~item:i ~arg:0 ~parent:root (fun _ ->
                       Obs.Json.render trees.(i)))
            | _ -> check false)
      done;
      (* Each batch is evaluated twice in a row: request by request and
         through the dispatcher; the difference is the dispatcher's. The
         two spans are recorded back to back, so each one's twin is its
         neighbour. Which runs first alternates by batch, so neither
         gains from the caches the other has just warmed. *)
      let b = ref 0 in
      while !b * batch < n do
        let lo = !b * batch in
        let k = min batch (n - lo) in
        let reqs = Array.sub parsed lo k in
        let direct () =
          ignore
            (span s_direct ~item:!b ~arg:k ~parent:(-1) (fun _ ->
                 Array.map (Serve.Engine.eval ~seed) reqs))
        in
        let dispatched () =
          span s_batch ~item:!b ~arg:k ~parent:(-1) (fun _ ->
              Serve.Dispatcher.run_batch disp reqs)
          |> Array.iteri (fun j (x : Serve.Dispatcher.result) ->
                 check (String.equal x.Serve.Dispatcher.line exp.(lo + j)))
        in
        if !b mod 2 = 0 then (direct (); dispatched ())
        else (dispatched (); direct ());
        incr b
      done
    done;
    seconds_since t0
  in
  ignore (one_pass ());
  let untraced, traced = alternate ~rounds:3 one_pass in
  Exec.Pool.shutdown pool;
  write_spans spans;
  Printf.printf
    "{\"untraced_s\":%.9f,\"traced_s\":%.9f,\"checks\":%d,\"mismatches\":%d}\n"
    untraced traced !checks !mismatches

(* ------------------------------------------------------------------ *)
(* evidence-ingest: run log and in-process reference ingest          *)
(* ------------------------------------------------------------------ *)

(* About one line in a thousand is damaged (counted as malformed) and
   two in a thousand carry a kind the assessor does not consume
   (counted as skipped); the rest are short runner/fleet/sprt events.
   The real E26 log, with its long histogram lines, is appended. *)
let evidence_gen ~seed ~append ~out =
  let st = Random.State.make [| seed; 0xe71d |] in
  let oc = open_out_bin out in
  let lines = ref 0 and malformed = ref 0 and skipped = ref 0 in
  let line s =
    output_string oc s;
    output_char oc '\n';
    incr lines
  in
  line
    (Printf.sprintf
       "{\"event\":\"run.start\",\"seq\":0,\"target\":\"bench.evidence\",\"seed\":%d,\"shards\":1}"
       seed);
  for seq = 1 to evidence_events do
    let r = Random.State.int st 1000 in
    if r = 0 then begin
      incr malformed;
      if Random.State.bool st then
        line (Printf.sprintf "{\"event\":\"runner.run\",\"seq\":%d,\"demands\":" seq)
      else line (Printf.sprintf "{\"event\":\"fleet.plant\",\"seq\":%d,\"plant\":3}" seq)
    end
    else if r <= 2 then begin
      incr skipped;
      line
        (Printf.sprintf "{\"event\":\"campaign.mission\",\"seq\":%d,\"missions\":%d}" seq
           (Random.State.int st 100))
    end
    else
      match r mod 3 with
      | 0 ->
          let demands = 500 + Random.State.int st 1500 in
          let pairs = 2 + Random.State.int st 3 in
          let hist =
            String.concat ","
              (List.init pairs (fun _ ->
                   Printf.sprintf "[%d,%d]" (Random.State.int st 1600)
                     (1 + Random.State.int st 400)))
          in
          line
            (Printf.sprintf
               "{\"event\":\"runner.run\",\"seq\":%d,\"demands\":%d,\"system_failures\":%d,\"coincident_failures\":%d,\"rng_draws\":%d,\"demand_hist\":[%s]}"
               seq demands (Random.State.int st 8) (Random.State.int st 2)
               (2 * demands) hist)
      | 1 ->
          line
            (Printf.sprintf
               "{\"event\":\"fleet.plant\",\"seq\":%d,\"plant\":%d,\"demands\":1000,\"failures\":%d,\"true_pfd\":%.6g}"
               seq (Random.State.int st 400) (Random.State.int st 7)
               (Random.State.float st 0.01))
      | _ ->
          line
            (Printf.sprintf
               "{\"event\":\"sprt.decision\",\"seq\":%d,\"decision\":\"%s\",\"demands\":%d,\"failures\":%d,\"log_lr\":%.6g}"
               seq
               [| "accept"; "reject"; "undecided" |].(Random.State.int st 3)
               (100 + Random.State.int st 5000)
               (Random.State.int st 10)
               (Random.State.float st 8.0 -. 4.0))
  done;
  line
    (Printf.sprintf
       "{\"event\":\"run.end\",\"seq\":%d,\"target\":\"bench.evidence\",\"seed\":%d,\"shards\":1,\"rng_draws\":0,\"duration_ns\":0}"
       (evidence_events + 1) seed);
  let ic = open_in_bin append in
  let rec copy () =
    match In_channel.input_line ic with
    | Some l ->
        line l;
        copy ()
    | None -> close_in ic
  in
  copy ();
  close_out oc;
  Printf.printf "{\"lines\":%d,\"malformed\":%d,\"skipped\":%d}\n" !lines
    !malformed !skipped

let assessor ~profile_size =
  Evidence.Assessor.create
    {
      Evidence.Assessor.default_config with
      expected_profile =
        Some
          (Demandspace.Profile.probabilities
             (Demandspace.Profile.uniform ~size:profile_size));
    }

(* One pass from file to verdict JSON, split at the layer boundaries the
   CLI's [Assessor.ingest_line] crosses: read, JSON parse, schema
   classification, ingest. With tracing on, every [sample]-th line is
   recorded. *)
let evidence_pass ~log ~profile_size ~sample =
  let a = assessor ~profile_size in
  let src = Evidence.Source.open_file log in
  let s_line = intern "line"
  and s_read = intern "source.read"
  and s_parse = intern "json.parse"
  and s_schema = intern "schema.parse"
  and s_ingest = intern "assessor.ingest" in
  let traced = !tracing in
  let t0 = now () in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    tracing := traced && !i mod sample = 0;
    span s_line ~item:!i ~arg:0 ~parent:(-1) (fun root ->
        match
          span s_read ~item:!i ~arg:0 ~parent:root (fun _ ->
              Evidence.Source.next_line src)
        with
        | None -> continue := false
        | Some l ->
            let parsed =
              if String.trim l = "" then Evidence.Schema.Malformed "empty line"
              else
                match
                  span s_parse ~item:!i ~arg:(String.length l) ~parent:root
                    (fun _ -> Obs.Json.parse l)
                with
                | Ok json ->
                    span s_schema ~item:!i ~arg:0 ~parent:root (fun _ ->
                        Evidence.Schema.parse_json json)
                | Error msg -> Evidence.Schema.Malformed ("invalid JSON: " ^ msg)
            in
            span s_ingest ~item:!i ~arg:0 ~parent:root (fun _ ->
                Evidence.Assessor.ingest_parsed a parsed));
    incr i
  done;
  tracing := traced;
  Evidence.Source.close src;
  let s_verdict = intern "verdict.render" in
  let verdict = ref "" in
  for k = 0 to 4 do
    verdict :=
      span s_verdict ~item:k ~arg:0 ~parent:(-1) (fun _ ->
          Evidence.Verdict.render_json (Evidence.Verdict.of_assessor a))
  done;
  (!verdict, seconds_since t0, !i - 1)

let evidence_ref ~log ~profile_size ~out =
  let verdict, secs, lines = evidence_pass ~log ~profile_size ~sample:1 in
  let oc = open_out_bin out in
  output_string oc (verdict ^ "\n");
  close_out oc;
  Printf.printf "{\"seconds\":%.9f,\"lines\":%d}\n" secs lines

let evidence_trace ~log ~profile_size ~rounds ~spans =
  let verdicts = ref [] and lines = ref 0 in
  let pass () =
    let v, secs, n = evidence_pass ~log ~profile_size ~sample:evidence_sample in
    verdicts := v :: !verdicts;
    lines := n;
    secs
  in
  let untraced, traced = alternate ~rounds pass in
  write_spans spans;
  Printf.printf
    "{\"untraced_s\":%.9f,\"traced_s\":%.9f,\"lines\":%d,\"verdicts_equal\":%b}\n"
    untraced traced !lines
    (List.for_all (String.equal (List.hd !verdicts)) !verdicts)

(* ------------------------------------------------------------------ *)
(* cli-all: per-experiment passes                                     *)
(* ------------------------------------------------------------------ *)

let render_pass ~seed ~domains ~pass =
  Exec.Pool.set_default_domains domains;
  let s_all = intern "all" in
  let t0 = now () in
  let out =
    span s_all ~item:pass ~arg:domains ~parent:(-1) (fun root ->
        String.concat ""
          (List.map
             (fun e ->
               span (intern ("experiment." ^ e.Experiments.Experiment.id))
                 ~item:pass ~arg:domains ~parent:root (fun _ ->
                   Experiments.Experiment.render ~seed e))
             Experiments.Registry.all))
  in
  (out, seconds_since t0)

(* Pass 0 renders at one domain (the reference and the baseline of the
   speed-up), pass 1 at the default domain count with Gc and CPU
   counters around it; with [overhead], pass 2 repeats pass 1 untraced. *)
let cli_trace ~seed ~overhead ~spans =
  let domains = Exec.Pool.auto_domains () in
  tracing := true;
  let reference, one_s = render_pass ~seed ~domains:1 ~pass:0 in
  let g0 = Gc.quick_stat () and c0 = Unix.times () in
  let traced_out, traced_s = render_pass ~seed ~domains ~pass:1 in
  let g1 = Gc.quick_stat () and c1 = Unix.times () in
  tracing := false;
  let untraced_s, equal =
    if overhead then
      let out, s = render_pass ~seed ~domains ~pass:2 in
      (s, String.equal out reference)
    else (0.0, true)
  in
  Exec.Pool.shutdown (Exec.Pool.default ());
  write_spans spans;
  let cpu =
    c1.Unix.tms_utime -. c0.Unix.tms_utime +. c1.Unix.tms_stime
    -. c0.Unix.tms_stime
  in
  Printf.printf
    "{\"domains\":%d,\"one_domain_s\":%.9f,\"traced_s\":%.9f,\"untraced_s\":%.9f,\"cpu_s\":%.6f,\"minor_collections\":%d,\"major_collections\":%d,\"outputs_equal\":%b}\n"
    domains one_s traced_s untraced_s cpu
    (g1.Gc.minor_collections - g0.Gc.minor_collections)
    (g1.Gc.major_collections - g0.Gc.major_collections)
    (equal && String.equal traced_out reference)

(* ------------------------------------------------------------------ *)
(* Host reference                                                     *)
(* ------------------------------------------------------------------ *)

(* A fixed float-format-and-parse loop, the kind of work JSON rendering
   and parsing do, that calls no program code: it moves only when the
   machine does. Median of [host_ref_reps] runs, in ms. *)
let host_ref () =
  let once () =
    let t0 = now () in
    let acc = ref 0.0 in
    for i = 1 to 20_000 do
      acc := !acc +. float_of_string (Printf.sprintf "%.17g" (float_of_int i *. 0.1))
    done;
    if !acc <= 0.0 then die "host reference";
    seconds_since t0 *. 1e3
  in
  Printf.printf "{\"ms\":%.6f}\n"
    (median (Array.init host_ref_reps (fun _ -> once ())))

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv in
  let cmd, rest =
    match argv with _ :: c :: r -> (c, r) | _ -> die "usage: probe COMMAND --key value ..."
  in
  let rec pairs acc = function
    | k :: v :: r when String.length k > 2 && String.sub k 0 2 = "--" ->
        pairs ((String.sub k 2 (String.length k - 2), v) :: acc) r
    | [] -> acc
    | x :: _ -> die "unexpected argument %S" x
  in
  let args = pairs [] rest in
  let str k = match List.assoc_opt k args with Some v -> v | None -> die "missing --%s" k in
  let int k = match int_of_string_opt (str k) with Some v -> v | None -> die "--%s: not an integer" k in
  let float k = match float_of_string_opt (str k) with Some v -> v | None -> die "--%s: not a number" k in
  match cmd with
  | "serve-prep" ->
      serve_prep ~seed:(int "seed") ~requests:(str "requests")
        ~expected:(str "expected")
  | "serve-gen" ->
      serve_gen ~socket:(str "socket") ~requests:(str "requests")
        ~expected:(str "expected") ~seconds:(float "seconds")
        ~window:(int "window") ~latencies:(str "latencies")
  | "serve-trace" ->
      serve_trace ~seed:(int "seed") ~requests:(str "requests")
        ~expected:(str "expected") ~batch:(int "batch") ~spans:(str "spans")
  | "evidence-gen" ->
      evidence_gen ~seed:(int "seed") ~append:(str "append") ~out:(str "out")
  | "evidence-ref" ->
      evidence_ref ~log:(str "log") ~profile_size:(int "profile-size") ~out:(str "out")
  | "evidence-trace" ->
      evidence_trace ~log:(str "log") ~profile_size:(int "profile-size")
        ~rounds:(int "rounds") ~spans:(str "spans")
  | "cli-trace" ->
      cli_trace ~seed:(int "seed") ~overhead:(str "overhead" = "1") ~spans:(str "spans")
  | "host-ref" -> host_ref ()
  | c -> die "unknown command %s" c
