(** Failure regions in the demand space (Section 2.1 and Fig. 2).

    "A design fault in a version consists in the fact that, for one or more
    possible demands, that version will not respond as required. Any such
    demand is a failure point ... Any set of demands on which a version
    will fail is called a failure region."

    The constructors cover the shapes the paper reports from the
    literature: simple blobs (boxes/intervals), lines, and "non-intuitive
    shapes, including non-connected regions like arrays of separate points". *)

type shape =
  | Points of int list
  | Interval of { lo : int; hi : int }
  | Box of { x_lo : int; x_hi : int; y_lo : int; y_hi : int; width : int }
  | Line of { x0 : int; y0 : int; dx : int; dy : int; steps : int; width : int }
  | Scatter of { seed : int; count : int }

type t
(** A set of demands over a fixed-size space, tagged with how it was built. *)

val members : t -> Numerics.Bitset.t
val shape : t -> shape
val space_size : t -> int

val cardinal : t -> int
(** Number of failure points. *)

val mem : t -> Demand.t -> bool
(** Is this demand a failure point of the region? *)

val points : space_size:int -> int list -> t
(** Explicit list of failure points. *)

val interval : space_size:int -> lo:int -> hi:int -> t
(** Contiguous 1-D region [lo, hi]. *)

val box : width:int -> height:int -> x_lo:int -> x_hi:int -> y_lo:int -> y_hi:int -> t
(** Axis-aligned rectangle on a 2-D grid (the simple Fig. 2 shapes). *)

val line :
  width:int -> height:int -> x0:int -> y0:int -> dx:int -> dy:int -> steps:int -> t
(** Discrete line with the given direction; points falling off the grid are
    dropped. Raises if the whole line misses the grid. *)

val scatter : Numerics.Rng.t -> space_size:int -> count:int -> t
(** Non-connected region of randomly scattered failure points. *)

val disjoint : t -> t -> bool

val union_members : t list -> Numerics.Bitset.t
(** Union of the member sets (fresh bitset). *)

val measure : t -> Profile.t -> float
(** The region's probability q under the operational profile. *)

val shape_name : t -> string
val pp : Format.formatter -> t -> unit
