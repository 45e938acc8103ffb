(** Batch dispatch of admitted requests onto an {!Exec.Pool}.

    A drained batch is evaluated, in arrival order, as one pool batch.
    Worker count is pure scheduling: every evaluation is
    {!Engine.eval}, a pure function of (seed, request), so the response
    bytes are identical for any pool size and any batch composition.

    Telemetry stays on while the batch runs: {!Exec.Pool.run} replays
    each request's gauge, histogram and run-log writes in request order
    at join, so the kernels' instruments fill up (the [runner.*] and
    [fleet.*] ones of fleet-mission requests, say) exactly as a
    1-domain run fills them, and the response bytes and [draws] fields
    do not change. Server-side instruments are observed between
    batches. *)

type t

type result = {
  line : string;  (** the response line, ready to write *)
  elapsed_ns : int64;  (** evaluation latency of this request *)
}

val create : pool:Exec.Pool.t -> seed:int -> t

val seed : t -> int

val workers : t -> int
(** Pool size, including the calling domain. *)

val run_batch : t -> Proto.request array -> result array
(** Evaluate a batch; results in the same order as the input. Blocks
    until the whole batch is done. *)
