(** Common shape of a reproduced paper artefact: an id (see DESIGN.md's
    per-experiment index), the paper section it reproduces, and a runner
    producing tables, ASCII figures and free-form notes. *)

type output = {
  tables : Report.Table.t list;
  figures : string list;
  notes : string list;
}

type t = {
  id : string;
  paper_ref : string;
  description : string;
  run : seed:int -> output;
}

val make :
  id:string -> paper_ref:string -> description:string -> (seed:int -> output) -> t

val output :
  ?tables:Report.Table.t list ->
  ?figures:string list ->
  ?notes:string list ->
  unit ->
  output

val render_output : output -> string

val render : seed:int -> t -> string
(** Run the experiment and render it (header plus {!render_output}) as a
    string. Printing is left to the caller: lib code must stay free of
    output side effects (divlint rule R5). *)
