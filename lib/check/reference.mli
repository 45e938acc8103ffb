(** Reference evaluators and agreement helpers, one copy each, shared by
    the registry oracles ({!Registry}) and the test suites. *)

(** {1 Per-demand adjudication}

    The list-level path that {!Simulator.Protection.create}'s compiled
    verdict bitsets replaced, kept as the reference side of the
    [compiled protection = per-demand adjudication] property and of the
    list-path oracles. *)

val respond : Simulator.Channel.t -> Demandspace.Demand.t -> Core.Voting.decision
(** A channel's output on a demand: [Shutdown] off its version's failure
    set; on it, [Abstain] when the self-check covers the demand,
    [No_action] otherwise. *)

val combine : Core.Voting.policy -> Core.Voting.decision list -> Core.Voting.decision
(** {!Core.Voting.decide} of the counts of a vector of channel outputs.
    Raises [Invalid_argument] on an empty output list or when the policy
    needs more channels than are present
    ({!Core.Voting.policy_min_channels}). *)

val system_fails : Core.Voting.policy -> Core.Voting.decision list -> bool
(** True when the combined output is not [Shutdown] — the plant misses
    the intervention whether the verdict is [No_action] or an unresolved
    [Abstain]. *)

val legacy_combine :
  required:int -> Core.Voting.decision list -> Core.Voting.decision
(** The seed's M-out-of-N adjudicator, reimplemented verbatim: shut down
    iff at least [required] channels demand it. *)

val gradient_tol : float array -> float
(** [gradient_tol naive] is [1e-9 * (1 + ||naive||_inf)], NaN coordinates
    skipped: the incremental-vs-naive gradient agreement bound. *)

val gradient_gap : float array -> float array -> float
(** [gradient_gap fast naive] is the largest coordinate difference
    [|fast.(i) - naive.(i)|], counting a coordinate NaN on both sides as
    agreement; NaN when one side alone is NaN. *)

(** {1 Reference kernels}

    The historical implementations the fast kernels in [Core] replaced,
    kept only as the reference sides of the [pfd-fast-vs-legacy] and
    [gradient-incremental-vs-naive] oracles and their bench pairs. *)

val exact_of_vectors_naive :
  probs:float array -> values:float array -> unit -> Core.Pfd_dist.t
(** The allocating doubling pass (fresh buffers and two [Array.sub] per
    fault, [of_mass] finalisation). Bit-identical to
    {!Core.Pfd_dist.exact_of_vectors}, same input policy
    ({!Core.Pfd_dist.validate_exact}). *)

val grid_of_vectors_naive :
  probs:float array -> values:float array -> bins:int -> unit -> Core.Pfd_dist.t
(** One dense sweep per fault in index order, on the grid and under the
    input policy of {!Core.Pfd_dist.grid_of_vectors}
    ({!Core.Pfd_dist.grid_layout}). *)

val risk_ratio_gradient_naive : float array -> float array
(** O(n^2): one independent {!Core.Sensitivity.risk_ratio_partial} Kahan
    sum per coordinate. *)

val risk_ratio_k_derivative_naive : b:float array -> k:float -> float
(** O(n^2) reference for {!Core.Sensitivity.risk_ratio_k_derivative}:
    one {!Core.Sensitivity.risk_ratio_partial} per coordinate. *)
