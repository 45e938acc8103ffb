(** Typed, consumer-side contract for the JSONL run-log event schema.

    The producer side (instrumented simulator code appending through
    {!Obs.Runlog}) is free-form; this module pins down the event kinds
    and required fields the proven-in-use assessor consumes — the schema
    documented in EXPERIMENTS.md ("Run-log event schema"). Parsing never
    raises: damaged lines become {!Malformed} and well-formed events of
    unconsumed kinds become {!Skipped}, both of which the assessor counts
    and reports rather than aborting on. *)

type sprt_outcome = Accept | Reject | Undecided

type event =
  | Run_start of { target : string; seed : int; shards : int }
  | Run_end of {
      target : string;
      seed : int;
      shards : int;
      rng_draws : int;
      duration_ns : int;
    }
  | Runner_run of {
      demands : int;
      system_failures : int;
      coincident_failures : int;
      rng_draws : int;
      demand_hist : (int * int) list;
          (** sparse empirical demand histogram: (id, count), count > 0 *)
    }
  | Fleet_plant of {
      plant : int;
      demands : int;
      failures : int;
      true_pfd : float;
    }
  | Fleet_observe of {
      plants : int;
      demands_per_plant : int;
      failures : int;
    }
  | Sprt_decision of {
      decision : sprt_outcome;
      demands : int;
      failures : int;
      log_lr : float;
    }

type parsed =
  | Event of event  (** a consumed, schema-valid event *)
  | Skipped of string
      (** a well-formed event of a kind the assessor does not consume
          (e.g. [campaign.mission], [check.oracle]); the payload is the
          kind *)
  | Malformed of string
      (** not JSON, not an object, or a consumed kind missing/ill-typing
          a required field; the payload is a diagnostic *)

val max_demand_id : int
(** Largest demand id a [demand_hist] entry may carry (2{^20} - 1, well
    above the 65,536-demand spaces the serve protocol admits). An entry
    above it makes the line {!Malformed}: the assessor sizes its
    histogram by the largest id, so the bound caps that allocation.
    A logged run over a space of more than [max_demand_id + 1] demands
    therefore yields malformed lines; the [evidence] CLI refuses a
    declared [--profile] of that size. *)

val parse_json : Obs.Json.t -> parsed
(** Classify one already-parsed run-log event. *)

val parse_line : string -> parsed
(** Classify one JSONL line. Never raises. *)
