(* Nested spans over the monotonic clock.

   Spans record (name, shard, depth, start, duration) into a growable
   global array in start order, which the Chrome trace-event JSON
   renders as one complete ("ph":"X") event per span with the shard as
   its "tid", so
   traces from parallel runs stay well-nested per shard lane. With
   tracing disabled (the default), [enter] returns the null handle after
   a single branch and [leave] is a no-op, so hot loops can carry spans
   permanently.

   Domain safety: all mutation of the span store happens under [lock]
   (only reached while tracing is enabled). Nesting depth is tracked per
   shard — lib/exec tags each worker task with its shard id via
   {!with_shard}, so concurrent shards each maintain their own open-span
   stack instead of corrupting a global one. *)

let enabled = ref false
let set_enabled b = enabled := b

(* The shard id is domain-local state: the main domain (and any code
   outside a sharded region) reports shard 0. *)
let shard_key = Domain.DLS.new_key (fun () -> 0)
let current_shard () = Domain.DLS.get shard_key

let with_shard shard f =
  let prev = Domain.DLS.get shard_key in
  Domain.DLS.set shard_key shard;
  Fun.protect ~finally:(fun () -> Domain.DLS.set shard_key prev) f

type record = {
  r_name : string;
  r_shard : int;
  r_depth : int;
  r_start_ns : int64;
  mutable r_dur_ns : int64;  (* -1 while the span is open *)
}

let dummy = { r_name = ""; r_shard = 0; r_depth = 0; r_start_ns = 0L; r_dur_ns = 0L }

let lock = Mutex.create ()

(* Growable event store; OCaml 5.1 has no Dynarray yet. *)
let events = ref ([||] : record array)
let count = ref 0

(* shard id -> indices of that shard's currently open spans *)
let open_stacks : (int, int list) Hashtbl.t = Hashtbl.create 8

let append r =
  let arr = !events in
  let n = !count in
  let arr =
    if n < Array.length arr then arr
    else begin
      let grown = Array.make (if n = 0 then 256 else 2 * n) dummy in
      Array.blit arr 0 grown 0 n;
      events := grown;
      grown
    end
  in
  arr.(n) <- r;
  count := n + 1;
  n

type handle = int

let null_handle = -1

let enter name =
  if not !enabled then null_handle
  else begin
    let shard = current_shard () in
    Mutex.lock lock;
    let stack =
      match Hashtbl.find_opt open_stacks shard with Some s -> s | None -> []
    in
    let idx =
      append
        {
          r_name = name;
          r_shard = shard;
          r_depth = List.length stack;
          r_start_ns = Clock.now_ns ();
          r_dur_ns = -1L;
        }
    in
    Hashtbl.replace open_stacks shard (idx :: stack);
    Mutex.unlock lock;
    idx
  end

let leave handle =
  if handle >= 0 then begin
    Mutex.lock lock;
    if handle < !count then begin
      let r = (!events).(handle) in
      r.r_dur_ns <- Clock.elapsed_ns ~since:r.r_start_ns;
      match Hashtbl.find_opt open_stacks r.r_shard with
      | Some (top :: rest) when top = handle ->
          Hashtbl.replace open_stacks r.r_shard rest
      | _ -> () (* mismatched leave: keep the stack as-is rather than corrupt it *)
    end;
    Mutex.unlock lock
  end

let with_span name f =
  let h = enter name in
  Fun.protect ~finally:(fun () -> leave h) f

let reset () =
  Mutex.lock lock;
  events := [||];
  count := 0;
  Hashtbl.reset open_stacks;
  Mutex.unlock lock

type span = {
  name : string;
  shard : int;
  depth : int;
  start_ns : int64;
  dur_ns : int64;
}

let spans () =
  Mutex.lock lock;
  let all =
    List.init !count (fun i ->
        let r = (!events).(i) in
        {
          name = r.r_name;
          shard = r.r_shard;
          depth = r.r_depth;
          start_ns = r.r_start_ns;
          dur_ns = r.r_dur_ns;
        })
  in
  Mutex.unlock lock;
  all

let span_count () = !count

let to_chrome_json () =
  (* Chrome trace-event format ("ph":"X" complete events), timestamps in
     microseconds relative to the first span so the numbers stay small.
     The shard id becomes the "tid", one lane per shard. Loadable in
     chrome://tracing and Perfetto. *)
  let all = spans () in
  let base = match all with s :: _ -> s.start_ns | [] -> 0L in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String "obs");
        ("ph", Json.String "X");
        ("pid", Json.Int 0);
        ("tid", Json.Int s.shard);
        ("ts", Json.Float (Clock.ns_to_us (Int64.sub s.start_ns base)));
        ("dur", Json.Float (Clock.ns_to_us (Int64.max 0L s.dur_ns)));
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event all));
      ("displayTimeUnit", Json.String "ms");
    ]

let render_chrome_json () = Json.render (to_chrome_json ())
