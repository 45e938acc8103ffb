(** Resumable line cursor over a run-log file.

    Reads a JSONL run log one line at a time — never the whole file —
    and exposes the byte offset after each line so a consumer can stop,
    reopen the file later, and {!resume} where it left off. *)

type t

val open_file : string -> t
(** Opens the file in binary mode (offsets are byte-exact). Raises
    [Sys_error] if the file cannot be opened. The channel is closed by
    {!close}. *)

val next_line : t -> string option
(** Next line without its terminator; [None] at end of file. A growing
    file can be polled: once the writer appends more lines, [next_line]
    returns them. *)

val offset : t -> int
(** Current byte offset (the position the next {!next_line} reads
    from). Persist it to resume after reopening. *)

val resume : t -> offset:int -> unit
(** Seek to a byte offset previously returned by {!offset}. *)

val lines_read : t -> int
(** Lines handed out by this cursor since creation (not affected by
    {!resume}). *)

val iter_lines : t -> f:(string -> unit) -> unit

val close : t -> unit
(** Close the file {!open_file} opened. Closing twice is harmless. *)
