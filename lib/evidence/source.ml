(* Resumable line cursor over a run-log file.

   The assessor must handle run logs far larger than memory, so the
   source hands out one line at a time from a channel and exposes the
   byte offset after each line. A consumer that stops mid-file (e.g. a
   windowed CLI run, or a monitor polling a growing log) can reopen the
   file later and [resume] from the saved offset without re-reading the
   prefix. *)

type t = { ic : in_channel; mutable lines : int }

let open_file path = { ic = open_in_bin path; lines = 0 }

let next_line t =
  match Obs.Runlog.input_line_opt t.ic with
  | Some line ->
      t.lines <- t.lines + 1;
      Some line
  | None -> None

let offset t = pos_in t.ic
let lines_read t = t.lines
let resume t ~offset = seek_in t.ic offset

let close t = close_in t.ic

let fold_lines t ~init ~f =
  let rec go acc =
    match next_line t with None -> acc | Some line -> go (f acc line)
  in
  go init

let iter_lines t ~f = fold_lines t ~init:() ~f:(fun () line -> f line)
