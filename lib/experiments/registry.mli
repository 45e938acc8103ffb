(** All reproduced paper artefacts, keyed by the DESIGN.md experiment ids. *)

val all : Experiment.t list
(** Every experiment, in id order. *)

val find : string -> Experiment.t option
(** Case-insensitive lookup by id (e.g. "E04"). *)

val ids : unit -> string list

val render_all : seed:int -> string
(** Run every experiment and render the concatenated reports (the `all`
    verb of the CLI). The caller prints. *)
