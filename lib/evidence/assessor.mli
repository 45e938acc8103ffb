(** Streaming proven-in-use assessor over the JSONL run log.

    Ingests run-log events from a file read incrementally, in one pass,
    maintaining counters only: per-plant demands and failures, a demand
    histogram, skipped kinds, and the scalar counters of one {!counts}
    record, which {!Verdict} reads as a copy. Every judgement —
    Bayesian posterior PFD bounds (conjugate Beta,
    {!Extensions.Beta_prior}), the Wald
    ("SPRT-style") accept/reject boundary re-evaluated on the aggregate
    counts, demand-profile drift against the declared profile
    ({!Drift}) — is derived from those counters on demand. The final
    verdict is therefore a pure function of the multiset of ingested
    events: windowed streaming and batch ingestion agree byte for byte
    (property-tested, and asserted end-to-end for the CLI).

    Unlike the online {!Simulator.Sprt}, which stops at the first
    boundary crossing, the assessor sees aggregated counts and
    re-evaluates the boundary over all evidence so far — same
    hypotheses and thresholds, no stopping rule. *)

type config = {
  theta0 : float;  (** acceptable PFD (H0) *)
  theta1 : float;  (** rejectable PFD (H1), > theta0 *)
  alpha : float;  (** type-I error rate of the Wald boundary *)
  beta : float;  (** type-II error rate of the Wald boundary *)
  prior_a : float;  (** Beta prior: alpha parameter *)
  prior_b : float;  (** Beta prior: beta parameter *)
  bound : float;  (** PFD bound the posterior confidence is reported for *)
  confidence : float;  (** coverage of the reported posterior interval *)
  expected_profile : float array option;
      (** declared operational profile (probability by demand id); [None]
          disables drift detection *)
  drift_alpha : float;  (** drift alarm threshold on the chi-square p-value *)
}

val default_config : config
(** theta0 1e-3, theta1 1e-2, alpha = beta = 0.01, uniform Beta(1,1)
    prior, bound 1e-2, 90% interval, no declared profile, drift alarm at
    p < 1e-3. *)

type t

val create : config -> t
(** Raises [Invalid_argument] on an inconsistent configuration (see the
    field docs for the constraints). *)

val config : t -> config

(** {1 Ingest} *)

val ingest_line : t -> string -> unit
(** Classify and ingest one JSONL line. Never raises: malformed lines
    and unconsumed kinds are counted (and surfaced in the verdict and
    the [evidence.*] metrics), not fatal. *)

val ingest_parsed : t -> Schema.parsed -> unit

val ingest_source : t -> Source.t -> max_lines:int -> int
(** Read and ingest up to [max_lines] lines from the cursor, each as it
    is read (one line resident at a time), and return how many were
    ingested: fewer than [max_lines] means the end of the file. The
    chunk is timed as one batch, feeding the [evidence.ingest_rate]
    histogram (events/second) when metrics are enabled. Raises
    [Invalid_argument] if [max_lines < 0]. *)

(** {1 Derived judgements}

    Pure functions of the configuration and the accumulated counters —
    calling them (e.g. to render an interim verdict) never perturbs the
    assessor state. *)

type wald = {
  w_decision : Schema.sprt_outcome;
  w_log_lr : float;
  w_log_a : float;  (** reject boundary: log_lr >= log_a *)
  w_log_b : float;  (** accept boundary: log_lr <= log_b *)
}

val wald_of_counts : config -> demands:int -> failures:int -> wald

type posterior = {
  post_mean : float;
  post_lo : float;  (** lower end of the central [confidence] interval *)
  post_hi : float;  (** upper end of the central [confidence] interval *)
  confidence_in_bound : float;  (** posterior P(PFD <= bound) *)
}

val posterior_of_counts : config -> demands:int -> failures:int -> posterior

val drift : t -> Drift.result option
(** [None] when no profile was declared in the configuration. *)

val record_drift_alarm : unit -> unit
(** Bump the [evidence.drift_alarms] counter — called by the verdict
    layer when a rendered verdict carries an active alarm. *)

(** {1 Accessors for verdict construction} *)

type counts = private {
  mutable accepted : int;  (** schema-valid events consumed *)
  mutable skipped_total : int;  (** well-formed events of other kinds *)
  mutable malformed : int;
  mutable run_starts : int;
  mutable run_ends : int;
  mutable declared_seed : int option;  (** first run.start seed seen *)
  mutable declared_shards : int option;
  mutable declared_target : string option;
  mutable fleet_observes : int;  (** fleet.observe events seen *)
  mutable declared_plants : int;  (** max [plants] over fleet.observe *)
  mutable declared_fleet_failures : int;
      (** sum of fleet.observe failure totals *)
  mutable runner_runs : int;
  mutable runner_demands : int;
  mutable runner_failures : int;
  mutable runner_coincident : int;
  mutable runner_rng_draws : int;
  mutable sprt_accepts : int;
  mutable sprt_rejects : int;
  mutable sprt_undecided : int;
  mutable sprt_demands : int;
  mutable sprt_failures : int;
}
(** The assessor's scalar counters. Only the assessor assigns them;
    callers read. *)

val counts : t -> counts
(** A copy of the counters: later ingest does not move it. *)

type plant_counts = { plant : int; demands : int; failures : int }

val plant_counts : t -> plant_counts list
(** Sorted by plant id. *)

val skipped_kinds : t -> (string * int) list
(** Skipped events tallied by kind, sorted by kind. *)

val demand_counts : t -> int array
(** Copy of the accumulated empirical demand histogram (by id). *)
