(** Proven-in-use verdict reports.

    A verdict snapshots everything the assessor can claim from the
    evidence ingested so far. Construction is read-only on the assessor
    and copies its counters, so a verdict does not move as more lines
    are ingested; pooled fleet totals and the sorted skipped kinds are
    computed once, here. An interim (windowed) report needs only
    {!fleet}, which skips the per-plant posteriors and records no
    metric: interim reports are cheap and leave the [evidence.*]
    counters as they would be without them. Rendering contains no
    timestamps or rates: the verdict for a given multiset of events is
    byte-identical however the stream was windowed. *)

type overall =
  | Accepted
      (** Wald boundary accepts, the posterior puts at least the
          configured confidence below the PFD bound, and no drift
          alarm. *)
  | Rejected  (** Wald boundary rejects, or the drift detector alarms. *)
  | Insufficient  (** anything else: keep collecting evidence *)

type plant = {
  plant : int;
  demands : int;
  failures : int;
  posterior : Assessor.posterior;
  wald : Assessor.wald;
}

type fleet = {
  overall : overall;
  demands : int;  (** pooled over the plants *)
  failures : int;  (** pooled over the plants *)
  posterior : Assessor.posterior;
  wald : Assessor.wald;
  drift : Drift.result option;
}
(** The fleet-level judgement over the pooled plant counters. *)

type t = {
  config : Assessor.config;
  counts : Assessor.counts;  (** a copy, taken when the verdict was built *)
  skipped_kinds : (string * int) list;  (** sorted by kind *)
  plants : plant list;  (** sorted by plant id *)
  fleet : fleet;
  reconciled : bool;
      (** fleet.observe summaries agree with the pooled fleet.plant
          counters (vacuously true when no summary events were seen) *)
}

val fleet : Assessor.t -> fleet
(** The fleet-level judgement from the assessor's current counters, as
    {!of_assessor} computes it, but with no per-plant posteriors and no
    metric recorded. *)

val of_assessor : Assessor.t -> t
(** Derive a verdict from the assessor's current counters. Bumps the
    [evidence.drift_alarms] metric when the drift detector is alarming;
    otherwise read-only. *)

val overall_string : overall -> string

val render_json : t -> string

val render_text : t -> string
(** Human-readable report; at most 16 per-plant rows, with the rest
    elided (the JSON form always carries all). *)
