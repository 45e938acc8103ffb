(* Line cursor over a run-log file.

   The assessor must handle run logs far larger than memory, so the
   source hands out one line at a time from a channel and counts the
   lines it has handed out. A growing log can be polled: once the writer
   appends, [next_line] returns the new lines. *)

type t = { ic : in_channel; mutable lines : int }

let open_file path = { ic = open_in_bin path; lines = 0 }

let next_line t =
  match In_channel.input_line t.ic with
  | Some _ as line ->
      t.lines <- t.lines + 1;
      line
  | None -> None

let lines_read t = t.lines

let close t = close_in t.ic

let iter_lines t ~f =
  let rec go () =
    match next_line t with
    | None -> ()
    | Some line ->
        f line;
        go ()
  in
  go ()
