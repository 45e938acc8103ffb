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

let make ~id ~paper_ref ~description run = { id; paper_ref; description; run }

let output ?(tables = []) ?(figures = []) ?(notes = []) () =
  { tables; figures; notes }

let render_output out =
  let buf = Buffer.create 1024 in
  List.iter (fun t -> Buffer.add_string buf (Report.Table.render t)) out.tables;
  List.iter
    (fun f ->
      Buffer.add_string buf f;
      if not (String.length f > 0 && f.[String.length f - 1] = '\n') then
        Buffer.add_char buf '\n')
    out.figures;
  List.iter (fun n -> Buffer.add_string buf ("note: " ^ n ^ "\n")) out.notes;
  Buffer.contents buf

let render ~seed t =
  Printf.sprintf "\n################ %s — %s ################\n%s\n%s" t.id
    t.paper_ref t.description
    (render_output (t.run ~seed))
