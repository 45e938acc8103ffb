(** The join rule of parallel telemetry. [Exec.Pool.run] runs each task
    of a multi-domain batch under its own capture while telemetry is on.
    Inside one, {!Metrics.set}, {!Metrics.observe} and {!Runlog.record}
    defer their effect ({!apply}); the pool's calling domain {!replay}s the
    captures in task-index order. So gauges, histograms and the run log
    see a 1-domain run's effects in its order, written by one domain.
    Counters are atomic and never deferred. *)

type t

val create : unit -> t

val within : t -> (unit -> 'a) -> 'a
(** Run with [t] as this domain's capture; the previous one is restored
    on return or raise. *)

val apply : (unit -> unit) -> unit
(** Run the effect now, or defer it to this domain's capture if there is
    one. *)

val replay : t -> unit
(** Run the deferred effects in order and forget them. Replayed inside
    another capture, they are deferred again, into that one. *)
