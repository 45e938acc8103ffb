(** The differential oracle registry: every analytic quantity the
    library exposes, paired with at least one independent estimator and
    the statistical comparator appropriate to the pairing.

    The registry is the single source the property suite
    ([test/test_diff.ml]) and the [experiments_cli check] verb both
    drive; DESIGN.md's cross-check matrix documents the full
    quantity-by-estimator table. All verdicts on a fixed scenario are
    deterministic (per-oracle RNG salts, see {!Oracle.rng}), so a sweep
    is replayable from its seed alone. *)

val all : Oracle.t list
(** The registered oracles, in documentation order. *)

val ids : unit -> string list
val find : string -> Oracle.t option

val run_all : Scenario.t -> Oracle.outcome list
(** Every oracle's outcomes on one scenario, in registry order. *)

val failures : Oracle.outcome list -> Oracle.outcome list

type sweep = {
  cases : int;
  checks : int;  (** total outcomes across all cases and oracles *)
  failed : (int * Scenario.t * Oracle.outcome) list;
      (** (case index, scenario, outcome) for every failed check *)
  per_oracle : (string * int * int) list;
      (** per oracle id: checks run, checks failed *)
}

val sweep : ?replications:int -> seed:int -> cases:int -> unit -> sweep
(** Generate [cases] scenarios from [seed] (case [k] uses
    [Rng.split (Rng.create ~seed) ~index:k], {!Scenario.generate}'s
    default sizes) and run the whole registry on each. Deterministic:
    the same seed always yields the same sweep. Raises
    [Invalid_argument] when [cases < 1]. *)

val passed : sweep -> bool

val render : sweep -> string
(** Per-oracle tally table (via [Report.Table]) followed by one block
    per failed check. *)
