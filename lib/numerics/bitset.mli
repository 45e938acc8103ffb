(** Fixed-size bit sets.

    Failure regions over a finite demand space, and the failure set of a
    version (the union of its faults' regions), are represented as bitsets
    so that the system-failure set of a 1-out-of-2 pair is just the
    intersection of the two versions' failure sets (Section 2.1). *)

type t
(** A mutable set of integers in [0, size). *)

val create : int -> t
(** Empty set over [0, size). *)

val length : t -> int
(** The size of the underlying universe (not the cardinality). *)

val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool
val copy : t -> t

val reset : t -> unit
(** Remove every element, keeping the size. *)

val union : t -> t -> t
(** New set; arguments must have equal sizes. *)

val inter : t -> t -> t
val diff : t -> t -> t

val union_in_place : t -> t -> unit
(** [union_in_place a b] adds all of [b] into [a]. *)

val cardinal : t -> int
val is_empty : t -> bool

val disjoint : t -> t -> bool
(** True when the two sets share no element. *)

val iter : (int -> unit) -> t -> unit
(** Visit members in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list
val of_list : int -> int list -> t
