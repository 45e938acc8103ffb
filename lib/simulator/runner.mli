(** Operational testing of a protection system: feed it a stream of demands
    from the plant and record failures.

    The plant is a demand source. The paper's footnote 2: "Our analysis
    refers to systems whose operation can be seen as a series of
    demands, possibly separated by idle periods." Idle steps change no
    per-demand quantity, so a run draws only the demands, from the
    space's operational profile ({!Demandspace.Profile.sample_many}).

    This closes the loop the paper cannot close analytically: the empirical
    failure frequency of the executed system converges to the model PFD
    (the sum over common faults of q_i) — tested in the integration suite. *)

type stats = {
  demands : int;
  system_failures : int;
      (** demands the adjudicated system left unhandled (for the
          paper's OR adjudication: demands on which every channel
          failed); includes the unresolved abstentions below *)
  system_abstentions : int;
      (** system failures on which the adjudicator's verdict was
          [Abstain] (quorum lost to self-checking channels) rather than
          a silent [No_action]; always 0 without self-checking
          channels *)
  channel_failures : int array;  (** per-channel failure counts *)
  coincident_failures : int;
      (** demands on which at least two channels failed *)
  estimated_pfd : float;
  pfd_ci : float * float;  (** Wilson 95% interval *)
}

val run : Numerics.Rng.t -> system:Protection.t -> demand_count:int -> stats
(** Run the system on [demand_count] demands drawn from the space's
    operational profile. *)

val channel_pfd_estimates : stats -> float array
(** Empirical per-channel PFDs. *)

val pp_stats : Format.formatter -> stats -> unit
