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
   Deterministic event *order* under parallelism is the caller's job:
   lib/exec call sites collect per-shard outcomes and record them in
   shard order at join rather than logging from worker domains. *)

type t = { lock : Mutex.t; oc : out_channel; mutable count : int }

let create_streaming oc = { lock = Mutex.create (); oc; count = 0 }

let global : t option ref = ref None

let set_sink s = global := s
let active () = match !global with Some _ -> true | None -> false

(* Must be called with [t.lock] held. *)
let append_locked t ~kind fields =
  t.count <- t.count + 1;
  let event =
    Json.Obj
      (("event", Json.String kind)
      :: ("seq", Json.Int t.count)
      :: ("t_ns", Json.Int (Int64.to_int (Clock.now_ns ())))
      :: fields)
  in
  output_string t.oc (Json.render event);
  output_char t.oc '\n'

let record ~kind fields =
  match !global with
  | None -> ()
  | Some t ->
      Mutex.lock t.lock;
      append_locked t ~kind fields;
      Mutex.unlock t.lock

let record_all ~kind batch =
  match !global with
  | None -> ()
  | Some t ->
      Mutex.lock t.lock;
      List.iter (fun fields -> append_locked t ~kind fields) batch;
      Mutex.unlock t.lock

let size t = t.count
