(** Counters, gauges and log-bucketed histograms with a global registry.

    All instruments share one global enabled flag (default: off). While
    disabled, every mutation ({!incr}, {!add}, {!set}, {!observe}) costs a
    single load-and-branch and allocates nothing, so instrumentation can
    live in the simulator hot loops. Creating an instrument registers it
    in creation order for {!snapshot} regardless of the flag.

    Domain safety: counters are atomic (concurrent {!incr}/{!add} from
    pool workers are never lost). Gauges and histograms are
    single-writer: inside an [Exec.Pool.run] task, {!set} and {!observe}
    defer their write to the task's {!Capture}, and the pool's calling
    domain replays the writes in task-index order. So any code,
    parallel or not, may call them, and the values (a histogram's float
    [sum] included) do not depend on the domain count. Create
    instruments from the main domain. *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Fresh counter registered under the given name, starting at 0. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set : gauge -> float -> unit

val gauge_value : gauge -> float option
(** [None] until the first (enabled) {!set}. *)

(** {1 Log-bucketed histograms}

    Buckets are log-spaced, sized for PFD magnitudes: by default 9 decades
    from [1e-9] to [1.0], always with 4 buckets per decade, plus an underflow
    bucket (holding everything below [lo], including 0) and an overflow
    bucket. *)

type histogram

val histogram : ?lo:float -> ?decades:int -> string -> histogram
(** Raises [Invalid_argument] unless [lo > 0] and [decades > 0]. *)

val observe : histogram -> float -> unit

val buckets : histogram -> (float * float * int) array
(** All buckets in order as [(lower, upper, count)]: the underflow bucket
    [(0, lo)] first, then the log buckets, then the overflow bucket with
    upper edge [infinity]. *)

val histogram_count : histogram -> int
val histogram_min : histogram -> float option
val histogram_max : histogram -> float option

val quantile : histogram -> float -> float option
(** Bucket-resolution quantile estimate (geometric midpoint of the bucket
    where the cumulative count crosses [q]); [None] on an empty histogram.
    Raises [Invalid_argument] if [q] is outside [0, 1] or NaN. *)

(** {1 Registry} *)

val reset_values : unit -> unit
(** Zero every registered instrument (counts, gauge values, buckets). The
    instruments themselves stay registered. *)

val snapshot : unit -> Json.t
(** The full registry as JSON: [{"counters": [...], "gauges": [...],
    "histograms": [...]}] in registration order. Each histogram object
    carries [p50]/[p95]/[p99] fields ([null] while empty) alongside
    [count], [sum], [min], [max] and the bucket list. *)

val render_json : unit -> string
(** [Json.render (snapshot ())]. *)
