(** Structured JSONL run log.

    Instrumented code appends events through an optional global sink;
    with no sink installed (the default) {!record} costs one branch.
    Call sites that build a field list should guard with {!active} so
    nothing is allocated on the disabled path:

    {[
      if Obs.Runlog.active () then
        Obs.Runlog.record ~kind:"sprt.decision"
          [ ("demands", Obs.Json.Int n) ]
    ]}

    Every event carries its kind, a per-log sequence number ([seq]) and a
    monotonic nanosecond timestamp ([t_ns]). A log appends each event to
    its channel as it is recorded and retains nothing, so long
    operational histories serialise in O(1) memory. This module only
    writes; [Evidence.Source] reads a log back line by line with the
    stdlib's [In_channel.input_line]. *)

type t

val create_streaming : out_channel -> t
(** Streaming log: each recorded event is rendered to the channel as one
    JSONL line immediately and not retained, so producing a
    million-event run log does not hold the log in memory. The caller
    owns the channel (flushing/closing it); {!size} counts events. *)

val set_sink : t option -> unit
(** Install (or remove, with [None]) the global sink that {!record}
    appends to. *)

val active : unit -> bool

val record : kind:string -> (string * Json.t) list -> unit
(** Append an event to the installed sink; no-op without one. The given
    fields follow the standard [event]/[seq]/[t_ns] fields.

    Domain safety: any code may record, parallel or not. Appends are
    serialised by the log's mutex. Inside an [Exec.Pool.run] task the
    event is rendered at once and deferred to the task's {!Capture}; the
    pool's calling domain writes the tasks' events in task-index order,
    assigning [seq] and [t_ns] then. A log therefore has the same lines
    in the same order at any domain count, once [t_ns] (and any timing
    field) is set aside. *)

val size : t -> int
