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
    (* Results land by index; completion and the first exception are
       tracked under the pool lock, which also publishes the result
       array writes to the joining caller. *)
    let results = Array.make n None in
    let remaining = ref n in
    let first_exn = ref None in
    let task i () =
      (match f i with
      | v -> results.(i) <- Some v
      | exception exn ->
          Mutex.lock t.lock;
          if !first_exn = None then first_exn := Some exn;
          Mutex.unlock t.lock);
      Mutex.lock t.lock;
      decr remaining;
      if !remaining = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.lock
    in
    Mutex.lock t.lock;
    for i = 0 to n - 1 do
      Queue.push (task i) t.queue
    done;
    Condition.broadcast t.work_available;
    Mutex.unlock t.lock;
    (* The caller drains the queue alongside the workers... *)
    let rec help () =
      Mutex.lock t.lock;
      match Queue.take_opt t.queue with
      | Some task ->
          Mutex.unlock t.lock;
          task ();
          help ()
      | None -> Mutex.unlock t.lock
    in
    help ();
    (* ...then waits for in-flight tasks still running on workers. *)
    Mutex.lock t.lock;
    while !remaining > 0 do
      Condition.wait t.work_done t.lock
    done;
    Mutex.unlock t.lock;
    (match !first_exn with Some exn -> raise exn | None -> ());
    Array.map
      (function
        | Some v -> v
        | None -> invalid_arg "Pool.run: task produced no result")
      results
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
