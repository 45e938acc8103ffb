(** A differential oracle: one analytic quantity paired with an
    independent estimator of the same quantity, plus the comparator that
    decides agreement.

    An oracle's body returns one [(quantity, verdict)] pair per checked
    quantity; {!run} turns each into an {!outcome}, taking [analytic]
    and [simulated] from the values the comparator recorded in the
    verdict. For Monte-Carlo oracles the [simulated] side is a sample
    statistic; for closed-form-vs-closed-form oracles (e.g. exact
    enumeration against direct summation) it is the second derivation of
    the same value. *)

type outcome = {
  oracle : string;
  quantity : string;  (** e.g. ["mu2 (eq. 1)"] *)
  analytic : float;
  simulated : float;
  verdict : Compare.verdict;
}

type t

val make :
  id:string ->
  description:string ->
  (Scenario.t -> (string * Compare.verdict) list) ->
  t

val id : t -> string
val description : t -> string

val run : t -> Scenario.t -> outcome list
(** Evaluate both sides and compare; each outcome carries the oracle id
    and the verdict's recorded [analytic]/[simulated] pair. A body that
    raises gives one failing outcome whose quantity names the exception
    (comparator ["no exception"], NaN on both sides). When a run log is
    active (lib/obs), every outcome is recorded as a [check.oracle]
    event. *)

val passed : outcome -> bool

val rng : Scenario.t -> salt:int -> Numerics.Rng.t
(** The oracle's private simulation substream:
    [Rng.split (Rng.create ~seed:(sim_seed scenario)) ~index:salt].
    Distinct salts give independent streams, so registry membership
    never perturbs another oracle's verdict. *)

val pp_outcome : Format.formatter -> outcome -> unit
