(** Reference evaluators and agreement helpers, one copy each, shared by
    the registry oracles ({!Registry}) and the property suite. *)

val legacy_combine :
  required:int -> Simulator.Channel.output list -> Simulator.Channel.output
(** The seed's M-out-of-N adjudicator, reimplemented verbatim: shut down
    iff at least [required] channels demand it. *)

val reference_cascade :
  Simulator.Channel.output list -> Simulator.Channel.output
(** [fallback (vote 2) (vote 1)] evaluated directly over the output list,
    with no reference to the counts algebra. *)

val shuffle : Numerics.Rng.t -> 'a list -> 'a list
(** A uniformly random permutation, drawn by
    {!Numerics.Rng.shuffle_in_place}. *)

val gradient_tol : float array -> float
(** [gradient_tol naive] is [1e-9 * (1 + ||naive||_inf)], NaN coordinates
    skipped: the incremental-vs-naive gradient agreement bound. *)

val gradient_gap : float array -> float array -> float
(** [gradient_gap fast naive] is the largest coordinate difference
    [|fast.(i) - naive.(i)|], counting a coordinate NaN on both sides as
    agreement; NaN when one side alone is NaN. *)
