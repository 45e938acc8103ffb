(** Batch dispatch of admitted requests onto an {!Exec.Pool}.

    A drained batch is evaluated, in arrival order, as one pool batch.
    Worker count is pure scheduling: every evaluation is
    {!Engine.eval}, a pure function of (seed, request), so the response
    bytes are identical for any pool size and any batch composition.

    The global {!Obs.Metrics} flag is forced off while the pool batch
    runs (and restored after): kernel-level instruments would otherwise
    be written concurrently from several worker domains, violating the
    single-writer rule. Server-side instruments are observed between
    batches, when the workers are parked. *)

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
