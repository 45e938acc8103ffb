(* Counters, gauges and log-bucketed histograms with a global registry.

   All mutation goes through a single enabled flag, so with telemetry off
   (the default) every instrument operation costs exactly one load and one
   conditional branch and allocates nothing — the simulator hot loops stay
   as fast as uninstrumented code. Instrument *creation* happens at module
   initialisation regardless of the flag, so enabling telemetry later
   observes every registered instrument.

   Domain safety: counters are atomic, so concurrent increments from
   pool workers are never lost. Gauges and histograms are single-writer
   structures: inside a pool task (a [Capture]) [set] and [observe]
   defer their write, and the pool's calling domain replays the writes
   in task-index order (see capture.mli), which is both race-free and
   independent of the domain count. *)

let enabled = ref false
let set_enabled b = enabled := b
let is_enabled () = !enabled

type counter = { c_name : string; count : int Atomic.t }
type gauge = { g_name : string; mutable g_value : float; mutable g_set : bool }

type histogram = {
  h_name : string;
  lo : float;  (* lower edge of the first log bucket *)
  n_buckets : int;  (* log buckets, excluding underflow/overflow *)
  counts : int array;  (* [0] underflow, [1..n] log buckets, [n+1] overflow *)
  mutable total : int;
  mutable sum : float;
  mutable min_seen : float;
  mutable max_seen : float;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : instrument list ref = ref []
let register i = registry := i :: !registry

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

let counter name =
  let c = { c_name = name; count = Atomic.make 0 } in (* divlint: allow domain-containment *)
  register (Counter c);
  c

(* divlint: allow domain-containment *)
let incr c = if !enabled then Atomic.incr c.count

let add c n =
  (* divlint: allow domain-containment *)
  if !enabled then ignore (Atomic.fetch_and_add c.count n)

let counter_value c = Atomic.get c.count (* divlint: allow domain-containment *)

(* ------------------------------------------------------------------ *)
(* Gauges                                                             *)
(* ------------------------------------------------------------------ *)

let gauge name =
  let g = { g_name = name; g_value = 0.0; g_set = false } in
  register (Gauge g);
  g

let set g v =
  if !enabled then
    Capture.apply (fun () ->
        g.g_value <- v;
        g.g_set <- true)

let gauge_value g = if g.g_set then Some g.g_value else None

(* ------------------------------------------------------------------ *)
(* Histograms                                                         *)
(* ------------------------------------------------------------------ *)

(* Log-spaced buckets sized for PFD magnitudes: by default 9 decades from
   1e-9 up to 1.0, [per_decade] buckets per decade. Values below [lo]
   (including 0, a common PFD) land in the underflow bucket; values at or
   above the top edge land in the overflow bucket. *)
let per_decade = 4

let histogram ?(lo = 1e-9) ?(decades = 9) name =
  if not (lo > 0.0) then invalid_arg "Metrics.histogram: lo must be positive";
  if decades <= 0 then invalid_arg "Metrics.histogram: decades must be positive";
  let n_buckets = decades * per_decade in
  let h =
    {
      h_name = name;
      lo;
      n_buckets;
      counts = Array.make (n_buckets + 2) 0;
      total = 0;
      sum = 0.0;
      min_seen = infinity;
      max_seen = neg_infinity;
    }
  in
  register (Histogram h);
  h

(* Index of the log bucket holding [x], in [0, n_buckets); out-of-range
   values map to -1 (underflow) / n_buckets (overflow). The 1e-9 nudge
   keeps exact decade edges (1e-7, 1e-6, ...) in the bucket they open
   despite log10 rounding. *)
let log_index h x =
  if x < h.lo then -1
  else
    let i =
      int_of_float
        (Float.floor ((Float.log10 (x /. h.lo) *. float_of_int per_decade) +. 1e-9))
    in
    if i < 0 then -1 else if i > h.n_buckets then h.n_buckets else i

let observe h x =
  if !enabled then
    Capture.apply (fun () ->
        h.total <- h.total + 1;
        h.sum <- h.sum +. x;
        if x < h.min_seen then h.min_seen <- x;
        if x > h.max_seen then h.max_seen <- x;
        let i = log_index h x in
        let slot =
          if i < 0 then 0 else if i >= h.n_buckets then h.n_buckets + 1 else i + 1
        in
        h.counts.(slot) <- h.counts.(slot) + 1)

let bucket_edge h i =
  (* Lower edge of log bucket [i]; [i = n_buckets] gives the top edge. *)
  h.lo *. (10.0 ** (float_of_int i /. float_of_int per_decade))

let buckets h =
  Array.init
    (h.n_buckets + 2)
    (fun slot ->
      if slot = 0 then (0.0, h.lo, h.counts.(0))
      else if slot = h.n_buckets + 1 then
        (bucket_edge h h.n_buckets, infinity, h.counts.(slot))
      else (bucket_edge h (slot - 1), bucket_edge h slot, h.counts.(slot)))

let histogram_count h = h.total
let histogram_min h = if h.total = 0 then None else Some h.min_seen
let histogram_max h = if h.total = 0 then None else Some h.max_seen

let quantile h q =
  (* Bucket-resolution estimate: the geometric midpoint of the bucket in
     which the cumulative count crosses [q]; the underflow/overflow
     buckets report their finite edge. *)
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Metrics.quantile: q outside [0, 1]";
  if h.total = 0 then None
  else begin
    let target =
      let t = int_of_float (Float.ceil (q *. float_of_int h.total)) in
      if t < 1 then 1 else t
    in
    let slot = ref 0 and seen = ref 0 in
    (try
       for i = 0 to h.n_buckets + 1 do
         seen := !seen + h.counts.(i);
         if !seen >= target then begin
           slot := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !slot = 0 then Some h.lo
    else if !slot = h.n_buckets + 1 then Some (bucket_edge h h.n_buckets)
    else
      let lo = bucket_edge h (!slot - 1) and hi = bucket_edge h !slot in
      Some (sqrt (lo *. hi))
  end

(* ------------------------------------------------------------------ *)
(* Registry-wide operations                                           *)
(* ------------------------------------------------------------------ *)

let reset_values () =
  List.iter
    (function
      | Counter c -> Atomic.set c.count 0 (* divlint: allow domain-containment *)
      | Gauge g ->
          g.g_value <- 0.0;
          g.g_set <- false
      | Histogram h ->
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.total <- 0;
          h.sum <- 0.0;
          h.min_seen <- infinity;
          h.max_seen <- neg_infinity)
    !registry

(* The quantiles every histogram snapshot summarises with: median plus
   the two tail percentiles operators actually alert on. Bucket-resolution
   estimates (see {!quantile}). *)
let summary_quantiles = [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99) ]

let snapshot () =
  let counters, gauges, histograms =
    List.fold_left
      (fun (cs, gs, hs) i ->
        match i with
        | Counter c ->
            ( Json.Obj
                [ ("name", Json.String c.c_name); ("value", Json.Int (counter_value c)) ]
              :: cs,
              gs,
              hs )
        | Gauge g ->
            let v =
              match gauge_value g with
              | Some v -> Json.Float v
              | None -> Json.Null
            in
            (cs, Json.Obj [ ("name", Json.String g.g_name); ("value", v) ] :: gs, hs)
        | Histogram h ->
            let bucket_items =
              Array.to_list (buckets h)
              |> List.filter_map (fun (lo, hi, n) ->
                     if n = 0 then None
                     else
                       Some
                         (Json.Obj
                            [
                              ("lo", Json.Float lo);
                              ("hi", Json.Float hi);
                              ("count", Json.Int n);
                            ]))
            in
            let stat f = match f with Some v -> Json.Float v | None -> Json.Null in
            let quantile_fields =
              List.map
                (fun (label, q) -> (label, stat (quantile h q)))
                summary_quantiles
            in
            ( cs,
              gs,
              Json.Obj
                ([
                   ("name", Json.String h.h_name);
                   ("count", Json.Int h.total);
                   ("sum", Json.Float h.sum);
                   ("min", stat (histogram_min h));
                   ("max", stat (histogram_max h));
                 ]
                @ quantile_fields
                @ [ ("buckets", Json.List bucket_items) ])
              :: hs ))
      ([], [], []) !registry
  in
  Json.Obj
    [
      ("counters", Json.List counters);
      ("gauges", Json.List gauges);
      ("histograms", Json.List histograms);
    ]

let render_json () = Json.render (snapshot ())
