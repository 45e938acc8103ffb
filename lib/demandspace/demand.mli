(** Demands on the protection system (Section 2.1).

    A demand is an occasion on which the plant requires intervention; in
    this reproduction the demand space is finite and a demand is an opaque
    id. Two-dimensional demand spaces (the paper's Fig. 2: two sensed input
    variables) map coordinates onto ids row-major. *)

type t = private int
(** Demand identifier in [0, space size). *)

val of_int : int -> t
(** Raises [Invalid_argument] on negatives. *)

val to_int : t -> int

type coords = { var1 : int; var2 : int }
(** A point of a two-dimensional demand grid, in the paper's Fig. 2 naming. *)

val to_coords : width:int -> t -> coords
(** Interpret an id on a grid of the given width. *)

val of_coords : width:int -> coords -> t
