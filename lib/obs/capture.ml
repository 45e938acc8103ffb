(* A capture is written only by the domain running its task, and read by
   the pool's calling domain only after the task is reported done under
   the pool lock, so it needs no lock of its own. *)

type t = { mutable effects : (unit -> unit) list (* newest first *) }

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let create () = { effects = [] }

let within c f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some c);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

(* A deferred effect applies itself again when replayed, so inside an
   outer capture it is deferred once more, into that one. *)
let rec apply effect =
  match Domain.DLS.get key with
  | Some c -> c.effects <- (fun () -> apply effect) :: c.effects
  | None -> effect ()

let replay c =
  let effects = List.rev c.effects in
  c.effects <- [];
  List.iter (fun effect -> effect ()) effects
