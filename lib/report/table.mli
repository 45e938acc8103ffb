(** Fixed-width text tables: every reproduced paper table is rendered
    through this module so bench output and the EXPERIMENTS.md record share
    one format. *)

type cell = string
type t

val create : title:string -> headers:string list -> t

val add_row : t -> cell list -> t
(** Raises [Invalid_argument] when the row width differs from the header
    count. *)

val of_rows : title:string -> headers:string list -> cell list list -> t

val float : ?precision:int -> float -> cell
(** Compact numeric formatting (default 4 significant digits). *)

val int : int -> cell
val bool : bool -> cell

val title : t -> string
val headers : t -> string list
val rows : t -> cell list list

val render : t -> string
(** Aligned text rendering with a title line. *)
