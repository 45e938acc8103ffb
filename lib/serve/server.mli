(** The assessment daemon: JSONL over a Unix-domain or loopback TCP
    socket, single-threaded {!Unix.select} event loop.

    The loop owns every socket, buffer, the admission queue and all
    instruments; parallelism lives exclusively inside
    {!Dispatcher.run_batch}, which blocks the loop until the pool
    joins. Hence one thread of control over mutable state, instrument
    observations only while workers are parked (the lib/obs
    single-writer rule), and response bytes that are exactly
    {!Engine.eval}'s — pure in (seed, request) — for any worker count,
    batch composition or arrival interleaving.

    Protocol invariant: every complete line received is answered with
    exactly one line — a result envelope, a busy rejection carrying
    [queue_depth] and [retry_after_ms], or an error line. Malformed
    lines are counted and answered, never fatal. A client that closes
    its connection forfeits its undelivered replies; nothing else is
    dropped or duplicated.

    Registered instruments (global {!Obs.Metrics} registry, recorded
    when telemetry is enabled): [serve.queue_depth] gauge,
    [serve.served_total] / [serve.rejected_total] /
    [serve.malformed_total] counters, and per-verb
    [serve.latency_s.<verb>] histograms (seconds; p50/p95/p99 in the
    rendered summaries). *)

type listen =
  | Unix_path of string  (** Unix-domain socket path (unlinked on exit). *)
  | Tcp_port of int  (** Loopback TCP; [0] picks an ephemeral port. *)

type config = {
  listen : listen;
  workers : int;  (** {!Exec.Pool} size for the dispatcher. *)
  queue_capacity : int;  (** admission bound; past it, busy lines. *)
  batch_max : int;  (** most requests dispatched per pool batch. *)
  seed : int;  (** the seed every evaluation is pure in. *)
}

type stats = {
  served : int;  (** evaluated requests (exactly one response each). *)
  rejected : int;  (** admission rejections (busy lines). *)
  malformed : int;  (** unparseable lines (answered with error lines). *)
  batches : int;  (** pool batches dispatched. *)
  draws_total : int;
      (** exact RNG draws consumed over the server's lifetime
          ({!Numerics.Rng.total_draws} delta, read between batches,
          after each pool join, so it is exact). *)
}

val serve : ?on_ready:(int option -> unit) -> config -> stats
(** Run the daemon until a [shutdown] line is received, then drain the
    queue, flush replies and return the session's stats. [on_ready]
    fires once the socket is listening, with [Some port] for TCP (the
    actual port, after ephemeral resolution) or [None] for a
    Unix-domain path. Raises [Invalid_argument] on a non-positive
    [workers], [queue_capacity] or [batch_max]; [Unix.Unix_error] if
    the socket cannot be bound. *)
