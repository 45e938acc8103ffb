(** Line cursor over a run-log file.

    Reads a JSONL run log one line at a time — never the whole file —
    and counts the lines handed out. *)

type t

val open_file : string -> t
(** Opens the file in binary mode. Raises [Sys_error] if the file cannot
    be opened. The channel is closed by {!close}. *)

val next_line : t -> string option
(** Next line without its terminator; [None] at end of file. A growing
    file can be polled: once the writer appends more lines, [next_line]
    returns them. *)

val lines_read : t -> int
(** Lines handed out by this cursor since creation. *)

val iter_lines : t -> f:(string -> unit) -> unit

val close : t -> unit
(** Close the file {!open_file} opened. Closing twice is harmless. *)
