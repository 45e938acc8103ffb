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
