(* Structured JSONL run log.

   A run log is a sequence of JSON objects; instrumented code appends
   through the optional global sink, so with no sink installed (the
   default) [record] is one branch. Call sites that must build a field
   list should guard with [active] so the list is never allocated on the
   disabled path. Each event carries the event kind, a sequence number
   and a monotonic timestamp.

   A log renders each event to its channel as it is recorded and
   retains nothing, so a million-event operational history costs O(1)
   memory to produce.

   Domain safety: appends are serialised by a per-log mutex (taken only
   when a sink is installed, so the disabled path stays lock-free).
   Inside a pool task (a [Capture]) an event is rendered at once but
   written later: the pool's calling domain replays the task's events in
   task-index order, and the event gets its [seq] and [t_ns] then. So the line order does not depend on the domain count, and the
   task holds rendered text, not a JSON tree, until the replay. *)

type t = { lock : Mutex.t; oc : out_channel; mutable count : int }

let create_streaming oc = { lock = Mutex.create (); oc; count = 0 }

let global : t option ref = ref None

let set_sink s = global := s
let active () = match !global with Some _ -> true | None -> false

(* [body] is the rendered object of the event's own fields; it is
   spliced after the standard fields, so the line is the rendering of one
   object. *)
let write t ~kind body =
  Mutex.lock t.lock;
  t.count <- t.count + 1;
  Printf.fprintf t.oc "{\"event\":%s,\"seq\":%d,\"t_ns\":%Ld"
    (Json.render (Json.String kind)) t.count (Clock.now_ns ());
  if String.length body > 2 then output_char t.oc ',';
  output_substring t.oc body 1 (String.length body - 1);
  output_char t.oc '\n';
  Mutex.unlock t.lock

let record ~kind fields =
  match !global with
  | None -> ()
  | Some t ->
      let body = Json.render (Json.Obj fields) in
      Capture.apply (fun () -> write t ~kind body)

let size t = t.count
