(** Nested spans over the monotonic {!Clock}, exported as a text tree or
    Chrome trace-event JSON.

    Tracing is globally disabled by default: {!enter} then costs one
    branch and returns the null handle, and {!leave} on it is a no-op, so
    spans can be left permanently in hot loops. Spans are recorded in
    start order with their nesting depth taken from the currently open
    spans {e of the same shard}: each shard (see {!with_shard}, applied
    by [Exec.map_shards] to every worker task) keeps its own open-span
    stack, so traces from parallel runs remain well-nested per shard.
    While enabled, recording is protected by a mutex and safe to use
    from multiple domains. *)

val set_enabled : bool -> unit

val with_shard : int -> (unit -> 'a) -> 'a
(** [with_shard k f] runs [f] with spans attributed to shard [k]
    (domain-local state; restored on exit). Code outside any sharded
    region records under shard 0. *)

type handle
(** Token returned by {!enter}; pass it to {!leave}. *)

val null_handle : handle
(** The handle returned while tracing is disabled; {!leave} ignores it. *)

val enter : string -> handle
(** Open a span. The span nests under the most recently opened span that
    has not been left yet. *)

val leave : handle -> unit
(** Close the span, recording its duration. Out-of-order leaves are
    tolerated (the span's duration is still recorded). *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] brackets [f] in a span, leaving it even if [f]
    raises. *)

val reset : unit -> unit
(** Drop all recorded spans and any open-span state. *)

type span = {
  name : string;
  shard : int;  (** owning shard (Chrome export ["tid"]); 0 outside sharded regions *)
  depth : int;
  start_ns : int64;
  dur_ns : int64;
}
(** Immutable view of a recorded span; [dur_ns] is [-1] while open. *)

val spans : unit -> span list
(** All recorded spans in start order. *)

val span_count : unit -> int

val to_text : unit -> string
(** Indented tree, one line per span with a human-readable duration. *)

val render_chrome_json : unit -> string
(** Chrome trace-event JSON (["ph":"X"] complete events, microsecond
    timestamps relative to the first span); loadable in chrome://tracing
    and Perfetto. *)
