(* The assessment daemon: a single-threaded [Unix.select] event loop
   over a Unix-domain or loopback TCP listener, speaking the JSONL
   protocol of [Proto].

   Concurrency model: the event loop owns every socket, buffer, the
   admission queue and the server's instruments; parallelism lives
   exclusively inside [Dispatcher.run_batch] (an [Exec.Pool] batch that
   blocks the loop until joined). So there is exactly one thread of
   control touching mutable state, the kernels' telemetry inside a
   batch is replayed in request order at its join (lib/obs Capture),
   and the response bytes are those of [Engine.eval] — a pure function
   of (seed, request) — regardless of worker count, batching or
   arrival interleaving.

   Protocol invariant: every complete line received is answered with
   exactly one line (result, busy rejection, or error). A client that
   closes its connection forfeits its undelivered replies; nothing
   else is ever dropped or duplicated. *)

type listen = Unix_path of string | Tcp_port of int

type config = {
  listen : listen;
  workers : int;
  queue_capacity : int;
  batch_max : int;
  seed : int;
}

type stats = {
  served : int;
  rejected : int;
  malformed : int;
  batches : int;
  draws_total : int;
}

(* Longest inbound line tolerated before the connection is dropped as
   malformed: generous for the protocol's largest request (~50 KB at
   max_faults) yet bounding per-connection memory. *)
let max_line_bytes = 1 lsl 20

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  outbuf : Buffer.t;
  mutable out_ofs : int;
  mutable eof : bool;
  mutable dead : bool;
}

(* Server-side instruments, registered once per process (the registry
   is global and append-only; re-running [serve] in one process must
   not register duplicates). *)
type instruments = {
  m_queue_depth : Obs.Metrics.gauge;
  m_served : Obs.Metrics.counter;
  m_rejected : Obs.Metrics.counter;
  m_malformed : Obs.Metrics.counter;
  m_latency : (string * Obs.Metrics.histogram) list;
}

let instruments =
  lazy
    {
      m_queue_depth = Obs.Metrics.gauge "serve.queue_depth";
      m_served = Obs.Metrics.counter "serve.served_total";
      m_rejected = Obs.Metrics.counter "serve.rejected_total";
      m_malformed = Obs.Metrics.counter "serve.malformed_total";
      m_latency =
        List.map
          (fun v -> (v, Obs.Metrics.histogram ("serve.latency_s." ^ v)))
          [ "moments"; "risk-ratio"; "pfd-dist"; "fleet-mission" ];
    }

let mk_conn fd = { fd; inbuf = Buffer.create 512; outbuf = Buffer.create 512; out_ofs = 0; eof = false; dead = false }

let kill c =
  if not c.dead then begin
    c.dead <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let pending_out c = Buffer.length c.outbuf - c.out_ofs > 0

let push_line c line =
  if not c.dead then begin
    Buffer.add_string c.outbuf line;
    Buffer.add_char c.outbuf '\n'
  end

let flush_conn c =
  if (not c.dead) && pending_out c then begin
    let data = Buffer.contents c.outbuf in
    let len = String.length data - c.out_ofs in
    match Unix.write_substring c.fd data c.out_ofs len with
    | n ->
        c.out_ofs <- c.out_ofs + n;
        if c.out_ofs = String.length data then begin
          Buffer.clear c.outbuf;
          c.out_ofs <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        kill c
  end

(* Drain complete lines out of the connection's input buffer, leaving
   any trailing partial line buffered. Trailing CR is stripped so CRLF
   clients work. *)
let split_lines c =
  let data = Buffer.contents c.inbuf in
  let n = String.length data in
  let lines = ref [] in
  let start = ref 0 in
  (try
     while true do
       let i = String.index_from data !start '\n' in
       let stop = if i > !start && data.[i - 1] = '\r' then i - 1 else i in
       lines := String.sub data !start (stop - !start) :: !lines;
       start := i + 1
     done
   with Not_found -> ());
  if !start > 0 then begin
    Buffer.clear c.inbuf;
    Buffer.add_substring c.inbuf data !start (n - !start)
  end;
  List.rev !lines

let serve ?on_ready config =
  if config.workers < 1 then invalid_arg "Server.serve: workers must be >= 1";
  if config.queue_capacity < 1 then
    invalid_arg "Server.serve: queue_capacity must be >= 1";
  if config.batch_max < 1 then invalid_arg "Server.serve: batch_max must be >= 1";
  let ins = Lazy.force instruments in
  (* A peer vanishing mid-write must surface as EPIPE, not a signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let draws0 = Numerics.Rng.total_draws () in
  let listener, actual_port, cleanup =
    match config.listen with
    | Unix_path path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        ( fd,
          None,
          fun () -> (try Unix.unlink path with Unix.Unix_error _ -> ()) )
    | Tcp_port port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let actual =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        (fd, Some actual, fun () -> ())
  in
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  (match on_ready with Some f -> f actual_port | None -> ());
  let pool = Exec.Pool.create ~domains:config.workers () in
  let disp = Dispatcher.create ~pool ~seed:config.seed in
  let queue : (conn * Proto.request) Admission.t =
    Admission.create ~capacity:config.queue_capacity
  in
  let conns = ref [] in
  let served = ref 0 in
  let malformed = ref 0 in
  let batches = ref 0 in
  let stopping = ref false in
  let scratch = Bytes.create 65536 in

  let stats_body () =
    Obs.Json.Obj
      [
        ("served", Obs.Json.Int !served);
        ("rejected", Obs.Json.Int (Admission.rejected queue));
        ("malformed", Obs.Json.Int !malformed);
        ("queue_depth", Obs.Json.Int (Admission.depth queue));
        ("queue_capacity", Obs.Json.Int (Admission.capacity queue));
        ("workers", Obs.Json.Int (Dispatcher.workers disp));
        ("draws_total", Obs.Json.Int (Numerics.Rng.total_draws () - draws0));
      ]
  in

  let handle_line c line =
    match Proto.parse_line line with
    | Error detail ->
        (* Malformed input is counted and answered, never fatal — the
           lib/evidence policy applied to the wire. *)
        incr malformed;
        Obs.Metrics.incr ins.m_malformed;
        push_line c (Proto.error_line ~error:"parse" ~detail ())
    | Ok (Proto.Admin { id; verb = Proto.Stats }) ->
        push_line c
          (Proto.ok_line ~id ~verb:"stats" ~seed:config.seed ~draws:0
             ~body:(stats_body ()))
    | Ok (Proto.Admin { id; verb = Proto.Shutdown }) ->
        push_line c
          (Proto.ok_line ~id ~verb:"shutdown" ~seed:config.seed ~draws:0
             ~body:(Obs.Json.Obj [ ("stopping", Obs.Json.Bool true) ]));
        stopping := true
    | Ok (Proto.Work req) -> (
        match Admission.offer queue (c, req) with
        | Admission.Admitted -> ()
        | Admission.Rejected { queue_depth } ->
            Obs.Metrics.incr ins.m_rejected;
            push_line c
              (Proto.busy_line ~id:req.Proto.id ~queue_depth
                 ~capacity:(Admission.capacity queue)))
  in

  (* Reads until EAGAIN, but stops once the buffer passes the line limit
     so a client that keeps its socket full cannot grow [inbuf] without
     bound; [process_input] then answers the overlong line. *)
  let rec read_conn c =
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | 0 -> c.eof <- true
    | n ->
        Buffer.add_subbytes c.inbuf scratch 0 n;
        if Buffer.length c.inbuf <= max_line_bytes then read_conn c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        kill c
  in

  let process_input c =
    List.iter (handle_line c) (split_lines c);
    if Buffer.length c.inbuf > max_line_bytes then begin
      incr malformed;
      Obs.Metrics.incr ins.m_malformed;
      push_line c
        (Proto.error_line ~error:"parse" ~detail:"line exceeds 1 MiB" ());
      flush_conn c;
      kill c
    end
  in

  let rec accept_all () =
    match Unix.accept listener with
    | fd, _ ->
        Unix.set_nonblock fd;
        conns := mk_conn fd :: !conns;
        accept_all ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_all ()
  in

  let dispatch () =
    let batch = Admission.take_batch queue ~max:config.batch_max in
    if Array.length batch > 0 then begin
      incr batches;
      let results = Dispatcher.run_batch disp (Array.map snd batch) in
      Array.iteri
        (fun i (res : Dispatcher.result) ->
          let c, req = batch.(i) in
          incr served;
          Obs.Metrics.incr ins.m_served;
          (match List.assoc_opt (Proto.verb_name req) ins.m_latency with
          | Some h ->
              Obs.Metrics.observe h (Obs.Clock.ns_to_s res.Dispatcher.elapsed_ns)
          | None -> ());
          push_line c res.Dispatcher.line)
        results
    end;
    Obs.Metrics.set ins.m_queue_depth (float_of_int (Admission.depth queue))
  in

  let rec loop () =
    conns := List.filter (fun c -> not c.dead) !conns;
    let live = !conns in
    let finished =
      !stopping
      && Admission.depth queue = 0
      && List.for_all (fun c -> not (pending_out c)) live
    in
    if not finished then begin
      let reads =
        if !stopping then []
        else
          listener
          :: List.filter_map
               (fun c -> if c.eof then None else Some c.fd)
               live
      in
      let writes =
        List.filter_map (fun c -> if pending_out c then Some c.fd else None) live
      in
      let timeout =
        if Admission.depth queue > 0 then 0.0
        else if !stopping then 0.01
        else -1.0
      in
      let readable, _writable, _ =
        try Unix.select reads writes [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.memq listener readable then accept_all ();
      List.iter
        (fun c ->
          if (not c.dead) && List.memq c.fd readable then begin
            read_conn c;
            process_input c
          end)
        live;
      dispatch ();
      List.iter (fun c -> flush_conn c) !conns;
      List.iter
        (fun c -> if c.eof && not (pending_out c) then kill c)
        !conns;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill !conns;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      cleanup ();
      Exec.Pool.shutdown pool)
    loop;
  {
    served = !served;
    rejected = Admission.rejected queue;
    malformed = !malformed;
    batches = !batches;
    draws_total = Numerics.Rng.total_draws () - draws0;
  }
