(** Monotonic time — the only sanctioned time source in the repo.

    divlint rule R7 rejects [Unix.gettimeofday] / [Unix.time] / [Sys.time]
    outside [lib/obs/], so all timing flows through this module and is
    immune to wall-clock adjustments (NTP slew, DST). *)

val now_ns : unit -> int64
(** Monotonic clock reading in nanoseconds. Only differences are
    meaningful; the epoch is unspecified (on Linux: CLOCK_MONOTONIC). *)

val elapsed_ns : since:int64 -> int64
(** [elapsed_ns ~since] is [now_ns () - since]. *)

val ns_to_us : int64 -> float
val ns_to_ms : int64 -> float
val ns_to_s : int64 -> float

val timed : (unit -> 'a) -> 'a * int64
(** [timed f] runs [f] and returns its result with the elapsed
    nanoseconds. *)
