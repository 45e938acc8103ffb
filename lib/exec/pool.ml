(* Domain-based worker pool.

   The pool owns [size - 1] worker domains pulling thunks from a shared
   queue; the caller participates in draining the queue during [run], so
   a pool of size 1 spawns no domains and executes everything inline on
   the calling domain. Determinism is the caller's contract: tasks must
   depend only on their own index (e.g. a per-shard split RNG), never on
   which domain runs them or in what order — [run] returns results in
   task-index order regardless of scheduling.

   This module is the only sanctioned home of Domain.spawn / Domain.join
   (divlint rule R8 `domain-containment`). *)

type task = unit -> unit

type t = {
  size : int;
  lock : Mutex.t;
  work_available : Condition.t;
  work_done : Condition.t;
  queue : task Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t list;
}

(* ------------------------------------------------------------------ *)
(* Sizing                                                             *)
(* ------------------------------------------------------------------ *)

let env_var = "DIVREL_DOMAINS"

let env_domains () =
  match Sys.getenv_opt env_var with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let auto_domains () =
  match env_domains () with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Workers                                                            *)
(* ------------------------------------------------------------------ *)

let rec worker_loop t =
  Mutex.lock t.lock;
  while t.live && Queue.is_empty t.queue do
    Condition.wait t.work_available t.lock
  done;
  match Queue.take_opt t.queue with
  | None ->
      (* only reachable on shutdown with an empty queue *)
      Mutex.unlock t.lock
  | Some task ->
      Mutex.unlock t.lock;
      task ();
      worker_loop t

let create ?domains () =
  let size = match domains with Some n -> n | None -> auto_domains () in
  if size < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      size;
      lock = Mutex.create ();
      work_available = Condition.create ();
      work_done = Condition.create ();
      queue = Queue.create ();
      live = true;
      workers = [];
    }
  in
  t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.size

let shutdown t =
  Mutex.lock t.lock;
  t.live <- false;
  Condition.broadcast t.work_available;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

(* ------------------------------------------------------------------ *)
(* Running a batch                                                    *)
(* ------------------------------------------------------------------ *)

let run t ~n f =
  if n < 0 then invalid_arg "Pool.run: negative task count";
  if n = 0 then [||]
  else if t.size = 1 || n = 1 then Array.init n f
  else begin
    (* Task [i]'s outcome lands in slot [i] under the pool lock, which
       also publishes it to the caller. With telemetry on, each task runs
       under its own capture, replayed by the caller in index order once
       every earlier task has finished: the instruments and the run log
       see a 1-domain run's effects in its order, and the batch holds
       only the effects of tasks that finished ahead of an earlier one. *)
    let outcomes = Array.make n None in
    let captures =
      if Obs.Metrics.is_enabled () || Obs.Runlog.active () then
        Some (Array.init n (fun _ -> Obs.Capture.create ()))
      else None
    in
    let task i () =
      let outcome =
        try
          Ok
            (match captures with
            | Some cs -> Obs.Capture.within cs.(i) (fun () -> f i)
            | None -> f i)
        with exn -> Error exn
      in
      Mutex.lock t.lock;
      outcomes.(i) <- Some outcome;
      Condition.broadcast t.work_done;
      Mutex.unlock t.lock
    in
    Mutex.lock t.lock;
    for i = 0 to n - 1 do
      Queue.push (task i) t.queue
    done;
    Condition.broadcast t.work_available;
    Mutex.unlock t.lock;
    (* The caller drains the queue alongside the workers, replays each
       newly finished prefix of tasks, and waits for a task to finish
       when it has neither. *)
    let rec drive replayed =
      Mutex.lock t.lock;
      let ready = ref replayed in
      while !ready < n && Option.is_some outcomes.(!ready) do
        incr ready
      done;
      let next = if !ready < n then Queue.take_opt t.queue else None in
      if Option.is_none next && !ready = replayed then
        Condition.wait t.work_done t.lock;
      Mutex.unlock t.lock;
      Option.iter
        (fun cs ->
          for i = replayed to !ready - 1 do
            Obs.Capture.replay cs.(i)
          done)
        captures;
      Option.iter (fun task -> task ()) next;
      if !ready < n then drive !ready
    in
    drive 0;
    (* The failed task of lowest index raises, as in a 1-domain run. *)
    Array.map
      (function Some (Ok v) -> v | Some (Error exn) -> raise exn | None -> assert false)
      outcomes
  end

(* ------------------------------------------------------------------ *)
(* The process-wide default pool                                      *)
(* ------------------------------------------------------------------ *)

(* Lazily created on first use so libraries can take [?pool] arguments
   without forcing domain spawns at module initialisation. Managed from
   the main domain only (CLI flag parsing, bench setup). *)

let configured_domains = ref None
let the_default = ref None

let set_default_domains n =
  if n < 1 then invalid_arg "Pool.set_default_domains: domains must be >= 1";
  (match !the_default with Some p -> shutdown p | None -> ());
  the_default := None;
  configured_domains := Some n

let default () =
  match !the_default with
  | Some p -> p
  | None ->
      let domains =
        match !configured_domains with Some n -> n | None -> auto_domains ()
      in
      let p = create ~domains () in
      the_default := Some p;
      p
