(** Random demand-space generators reproducing the failure-region geometry
    of the paper's Fig. 2 and the shapes it cites from the literature:
    compact blobs, thin lines, and non-connected scatters of points. *)

val place_disjoint :
  Numerics.Rng.t ->
  width:int ->
  height:int ->
  n_faults:int ->
  max_extent:int ->
  Region.t array
(** Rejection-place pairwise-disjoint random regions (the model's
    assumption). Raises [Invalid_argument] when the grid is too crowded. *)

val disjoint_space :
  Numerics.Rng.t ->
  width:int ->
  height:int ->
  n_faults:int ->
  max_extent:int ->
  p_lo:float ->
  p_hi:float ->
  profile:Profile.t ->
  Space.t
(** Full model instance satisfying the non-overlap assumption, with
    introduction probabilities uniform in [p_lo, p_hi]. *)

val overlapping_space :
  Numerics.Rng.t ->
  width:int ->
  height:int ->
  n_faults:int ->
  max_extent:int ->
  p_lo:float ->
  p_hi:float ->
  profile:Profile.t ->
  Space.t
(** Regions placed independently so overlaps occur — the Section 6.2
    assumption-violation setting. *)

val fig2 : Numerics.Rng.t -> width:int -> height:int -> Space.t
(** A five-region space laid out like the paper's Fig. 2 (boxes of two
    sizes, a diagonal line, a scatter), uniform profile. Requires at least
    a 16 x 16 grid. *)

val render : width:int -> height:int -> Space.t -> string list
(** ASCII rendering, one string per grid row (top row first): '.' empty,
    digit = region index + 1, '#' = overlapping regions. *)
