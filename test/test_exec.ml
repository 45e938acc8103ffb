(* The determinism contract of lib/exec: sharded map-reduce outputs are
   a pure function of (seed, shards) and byte-identical for any domain
   count. Every parallel entry point is run on a 1-domain (inline
   sequential) pool and a 4-domain pool and compared bit-for-bit; shard
   substream accounting and the pool mechanics get unit tests of their
   own. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Bit-level float comparison: the contract is byte identity, not
   tolerance. *)
let bits = Array.map Int64.bits_of_float
let check_bits name a b = Alcotest.(check (array int64)) name (bits a) (bits b)

let check_float_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Pools shared by all tests. The container may expose a single core —
   that slows the 4-domain pool down but cannot change any output, which
   is exactly what these tests pin. *)
let pool1 = lazy (Exec.Pool.create ~domains:1 ())
let pool4 = lazy (Exec.Pool.create ~domains:4 ())

let universe n =
  let rng = Numerics.Rng.create ~seed:11 in
  Core.Universe.uniform_random rng ~n ~p_lo:0.01 ~p_hi:0.4 ~total_q:0.5

let space seed =
  let rng = Numerics.Rng.create ~seed in
  Demandspace.Genspace.disjoint_space rng ~width:32 ~height:32 ~n_faults:10
    ~max_extent:4 ~p_lo:0.05 ~p_hi:0.4
    ~profile:(Demandspace.Profile.uniform ~size:(32 * 32))

let system seed =
  let rng = Numerics.Rng.create ~seed in
  let va, vb = Simulator.Devteam.develop_pair rng (space seed) in
  Simulator.Protection.one_out_of_two
    (Simulator.Channel.create ~name:"A" va)
    (Simulator.Channel.create ~name:"B" vb)

(* ---- shard_bounds ---- *)

let test_shard_bounds () =
  let check_cover ~range ~shards =
    let b = Exec.shard_bounds ~range ~shards in
    check_int "one entry per shard" shards (Array.length b);
    let seen = Array.make range 0 in
    Array.iter
      (fun (lo, len) ->
        check_bool "len >= 0" true (len >= 0);
        for i = lo to lo + len - 1 do
          seen.(i) <- seen.(i) + 1
        done)
      b;
    Array.iteri
      (fun i c -> check_int (Printf.sprintf "index %d covered once" i) 1 c)
      seen;
    let lens = Array.map snd b in
    let mn = Array.fold_left min max_int lens
    and mx = Array.fold_left max 0 lens in
    check_bool "balanced to within one" true (mx - mn <= 1)
  in
  check_cover ~range:10 ~shards:4;
  check_cover ~range:16 ~shards:16;
  check_cover ~range:1 ~shards:3;
  check_cover ~range:1000 ~shards:7;
  (* more shards than work: trailing shards are empty, coverage holds *)
  let b = Exec.shard_bounds ~range:2 ~shards:5 in
  check_int "empty tail shards" 3
    (Array.fold_left (fun acc (_, len) -> if len = 0 then acc + 1 else acc) 0 b)

(* ---- map_shards_rng ---- *)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_map_shards_rng () =
  let shards = 5 and range = 23 in
  let draw_some r = Array.init 16 (fun _ -> Numerics.Rng.float r) in
  let run pool =
    let parent = Numerics.Rng.create ~seed:99 in
    let out =
      Exec.map_shards_rng ~pool parent ~shards ~range ~f:(fun ~lo ~len rng_k ->
          ((lo, len), draw_some rng_k))
    in
    (parent, out)
  in
  let parent1, out1 = run (Lazy.force pool1) in
  let parent4, out4 = run (Lazy.force pool4) in
  check_int "parent advances exactly shards draws" shards
    (Numerics.Rng.draws parent1);
  (* the reference: split the same parent by hand, in index order *)
  let reference = Numerics.Rng.create ~seed:99 in
  let expected =
    Array.init shards (fun k ->
        draw_some (Numerics.Rng.split reference ~index:k))
  in
  let bounds = Exec.shard_bounds ~range ~shards in
  Array.iteri
    (fun k (slice, xs) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "shard %d slice = shard_bounds" k)
        bounds.(k) slice;
      check_bits
        (Printf.sprintf "shard %d stream = Rng.split ~index:%d" k k)
        expected.(k) xs;
      check_bits
        (Printf.sprintf "shard %d bit-identical on pool4" k)
        xs
        (snd out4.(k)))
    out1;
  let after = draw_some reference in
  check_bits "parent continues as after the splits" after (draw_some parent1);
  check_bits "parent continues the same on pool4" after (draw_some parent4);
  let parent = Numerics.Rng.create ~seed:99 in
  let noop ~lo:_ ~len:_ _ = () in
  check_bool "shards = 0 raises Invalid_argument" true
    (raises_invalid (fun () ->
         Exec.map_shards_rng parent ~shards:0 ~range:4 ~f:noop));
  check_bool "negative range raises Invalid_argument" true
    (raises_invalid (fun () ->
         Exec.map_shards_rng parent ~shards:2 ~range:(-1) ~f:noop));
  check_int "a rejected call draws nothing" 0 (Numerics.Rng.draws parent)

(* ---- Pool.run ---- *)

let test_pool_run () =
  let p4 = Lazy.force pool4 in
  check_int "pool size" 4 (Exec.Pool.size p4);
  let r = Exec.Pool.run p4 ~n:257 (fun i -> (i * i) - i) in
  Alcotest.(check (array int))
    "results in index order"
    (Array.init 257 (fun i -> (i * i) - i))
    r;
  let r0 = Exec.Pool.run p4 ~n:0 (fun _ -> assert false) in
  check_int "empty batch" 0 (Array.length r0)

exception Boom of int

let test_pool_exception () =
  let p4 = Lazy.force pool4 in
  let raised =
    match Exec.Pool.run p4 ~n:64 (fun i -> if i = 37 then raise (Boom i) else i) with
    | _ -> false
    | exception Boom 37 -> true
  in
  check_bool "task exception propagates" true raised;
  (* the pool survives a failed batch *)
  let r = Exec.Pool.run p4 ~n:8 (fun i -> i + 1) in
  Alcotest.(check (array int)) "pool reusable after failure"
    (Array.init 8 (fun i -> i + 1)) r

(* ---- telemetry replay at join ---- *)

let g_task = Obs.Metrics.gauge "test.pool.last_task"
let h_task = Obs.Metrics.histogram "test.pool.value"

(* The value task [i] observes: thirds of tenths, so the histogram's
   float sum depends on the order the values are added in. *)
let task_value i = float_of_int (i + 1) *. 0.1 /. 3.0

(* Run [n] telemetry-writing tasks on [pool] with metrics on and a run
   log installed; returns the metrics snapshot, the tasks of the logged
   events in log order, their [seq]s, and how the batch ended. Task 0
   waits until every other task has finished (or 2 s pass), so on a
   multi-domain pool the tasks finish out of index order. *)
let telemetry_batch ?(raising = []) pool ~n =
  let path = Filename.temp_file "pool_replay" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      let oc = open_out path in
      Obs.Metrics.set_enabled true;
      Obs.Runlog.set_sink (Some (Obs.Runlog.create_streaming oc));
      let others_done = Atomic.make 0 in
      let outcome =
        Fun.protect
          ~finally:(fun () ->
            Obs.Runlog.set_sink None;
            close_out oc)
          (fun () ->
            match
              Exec.Pool.run pool ~n (fun i ->
                  if i = 0 && Exec.Pool.size pool > 1 then begin
                    let t0 = Unix.gettimeofday () in
                    while
                      Atomic.get others_done < n - 1
                      && Unix.gettimeofday () -. t0 < 2.0
                    do
                      Domain.cpu_relax ()
                    done
                  end;
                  Obs.Metrics.set g_task (float_of_int i);
                  Obs.Metrics.observe h_task (task_value i);
                  Obs.Runlog.record ~kind:"test.task" [ ("task", Obs.Json.Int i) ];
                  if i > 0 then Atomic.incr others_done;
                  if List.mem i raising then raise (Boom i);
                  i)
            with
            | _ -> Ok ()
            | exception Boom i -> Error i)
      in
      let snapshot = Obs.Metrics.render_json () in
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset_values ();
      let events =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l ->
               match Obs.Json.parse l with
               | Ok doc ->
                   let int k =
                     Option.get (Option.bind (Obs.Json.member k doc) Obs.Json.to_int)
                   in
                   (int "task", int "seq")
               | Error e -> Alcotest.fail e)
      in
      (snapshot, List.map fst events, List.map snd events, outcome))

let pool2 = lazy (Exec.Pool.create ~domains:2 ())

let test_pool_telemetry_replay () =
  let n = 24 in
  let snapshot1, tasks1, _, _ = telemetry_batch (Lazy.force pool1) ~n in
  let snapshot2, tasks2, seqs2, outcome = telemetry_batch (Lazy.force pool2) ~n in
  check_bool "batch succeeded" true (outcome = Ok ());
  let index_order = List.init n Fun.id in
  Alcotest.(check (list int)) "1 domain: log in index order" index_order tasks1;
  Alcotest.(check (list int)) "2 domains: log in index order" index_order tasks2;
  Alcotest.(check (list int)) "seq follows the index order"
    (List.init n (fun i -> i + 1)) seqs2;
  (* The metrics snapshot carries the gauge and the histogram's sum as
     exact doubles: equal bytes mean equal bits. *)
  Alcotest.(check string) "snapshot identical to a 1-domain run" snapshot1 snapshot2;
  let member_of name section =
    match Obs.Json.parse snapshot2 with
    | Ok doc ->
        List.find
          (fun item -> Obs.Json.member "name" item = Some (Obs.Json.String name))
          (Option.get (Option.bind (Obs.Json.member section doc) Obs.Json.to_list))
    | Error e -> Alcotest.fail e
  in
  let float_member field item =
    Option.get (Option.bind (Obs.Json.member field item) Obs.Json.to_float)
  in
  check_float_bits "gauge holds the last index" (float_of_int (n - 1))
    (float_member "value" (member_of "test.pool.last_task" "gauges"));
  let in_order = List.fold_left (fun acc i -> acc +. task_value i) 0.0 index_order in
  let reversed =
    List.fold_left (fun acc i -> acc +. task_value i) 0.0 (List.rev index_order)
  in
  check_bool "the sum's bits depend on the order (the check has teeth)" true
    (Int64.bits_of_float in_order <> Int64.bits_of_float reversed);
  check_float_bits "histogram sum is the index-order sum" in_order
    (float_member "sum" (member_of "test.pool.value" "histograms"))

(* When tasks raise, the effects every task made (a raising task's up to
   its raise) are still replayed in index order, and the exception of
   the lowest raising index is the one re-raised. *)
let test_pool_telemetry_raise () =
  let n = 12 in
  let snapshot1, tasks1, _, outcome1 =
    telemetry_batch ~raising:[ 11 ] (Lazy.force pool1) ~n
  in
  let snapshot2, tasks2, _, outcome2 =
    telemetry_batch ~raising:[ 5; 11 ] (Lazy.force pool2) ~n
  in
  check_bool "1 domain raises the raising task's exception" true (outcome1 = Error 11);
  check_bool "2 domains raise the lowest index" true (outcome2 = Error 5);
  Alcotest.(check (list int)) "every task's effects replayed, in index order"
    (List.init n Fun.id) tasks2;
  Alcotest.(check (list int)) "as a 1-domain run that raises last" tasks1 tasks2;
  Alcotest.(check string) "same metrics as that 1-domain run" snapshot1 snapshot2

(* ---- Montecarlo.estimate: byte identity across domain counts ---- *)

let estimate ~pool ~shards ~seed =
  let rng = Numerics.Rng.create ~seed in
  Simulator.Montecarlo.estimate ~pool ~shards rng (universe 200) ~replications:96

let test_estimate_identical () =
  let a = estimate ~pool:(Lazy.force pool1) ~shards:4 ~seed:7 in
  let b = estimate ~pool:(Lazy.force pool4) ~shards:4 ~seed:7 in
  check_bits "theta1 samples" a.Simulator.Montecarlo.theta1_samples
    b.Simulator.Montecarlo.theta1_samples;
  check_bits "theta2 samples" a.theta2_samples b.theta2_samples;
  check_float_bits "theta1 mean" a.theta1.Numerics.Stats.mean
    b.theta1.Numerics.Stats.mean;
  check_float_bits "theta2 std" a.theta2.Numerics.Stats.std
    b.theta2.Numerics.Stats.std;
  check_float_bits "risk ratio" a.risk_ratio b.risk_ratio;
  check_float_bits "p_n1_pos" a.p_n1_pos b.p_n1_pos;
  Alcotest.(check (array int)) "per-shard draw counts" a.shard_draws b.shard_draws

let test_estimate_shard_accounting () =
  let a = estimate ~pool:(Lazy.force pool4) ~shards:6 ~seed:3 in
  let b = estimate ~pool:(Lazy.force pool4) ~shards:6 ~seed:3 in
  check_int "shards recorded" 6 a.Simulator.Montecarlo.shards;
  check_int "one draw count per shard" 6 (Array.length a.shard_draws);
  Alcotest.(check (array int)) "draw counts reproducible" a.shard_draws
    b.shard_draws;
  Array.iter (fun d -> check_bool "every shard drew" true (d > 0)) a.shard_draws

let test_estimate_shards_matter () =
  (* Changing the shard count changes the substreams — deterministically
     different outputs, which is why shards defaults to a constant. *)
  let a = estimate ~pool:(Lazy.force pool1) ~shards:4 ~seed:7 in
  let b = estimate ~pool:(Lazy.force pool1) ~shards:8 ~seed:7 in
  check_bool "different shard counts, different samples" true
    (bits a.Simulator.Montecarlo.theta1_samples
    <> bits b.Simulator.Montecarlo.theta1_samples)

(* ---- Campaign ---- *)

let mttf ~pool ~seed =
  let rng = Numerics.Rng.create ~seed in
  Simulator.Campaign.estimate_mttf ~pool ~shards:4 rng ~system:(system 21)
    ~missions:64 ~max_demands:400

let test_campaign_identical () =
  let a = mttf ~pool:(Lazy.force pool1) ~seed:5 in
  let b = mttf ~pool:(Lazy.force pool4) ~seed:5 in
  check_int "missions" a.Simulator.Campaign.missions b.Simulator.Campaign.missions;
  check_int "failures" a.failures b.failures;
  check_int "censored" a.censored b.censored;
  check_float_bits "mttf" a.mean_time_to_failure b.mean_time_to_failure;
  check_float_bits "failure rate" a.failure_rate b.failure_rate

let test_survival_identical () =
  let run pool =
    let rng = Numerics.Rng.create ~seed:13 in
    Simulator.Campaign.simulate_mission_survival ~pool ~shards:4 rng
      ~system:(system 21) ~mission_demands:300 ~missions:80
  in
  check_float_bits "survival probability" (run (Lazy.force pool1))
    (run (Lazy.force pool4))

(* ---- literal pins ---- *)

(* Values computed before the shard primitive existed. The identity
   tests above compare two pools of the current code; these catch a
   drift in the split order or the slice assignment, which would move
   both pools together. *)

let digest_bits a =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_estimate_pinned () =
  let e = estimate ~pool:(Lazy.force pool4) ~shards:4 ~seed:7 in
  Alcotest.(check (array int)) "shard_draws" [| 9600; 9600; 9600; 9600 |]
    e.Simulator.Montecarlo.shard_draws;
  Alcotest.(check string) "theta1 sample bits"
    "72c3dbc7c6c8ecd0f611ffb65737211f" (digest_bits e.theta1_samples);
  Alcotest.(check string) "theta2 sample bits"
    "da95f2853fc0a9b096e4f0c350a6c4ad" (digest_bits e.theta2_samples)

let test_mttf_pinned () =
  let rng = Numerics.Rng.create ~seed:5 in
  let m =
    Simulator.Campaign.estimate_mttf ~pool:(Lazy.force pool4) ~shards:4 rng
      ~system:(system 1) ~missions:64 ~max_demands:400
  in
  Alcotest.(check (array int)) "shard_draws" [| 6490; 5200; 6614; 7308 |]
    m.Simulator.Campaign.shard_draws;
  check_int "failures" 46 m.failures;
  check_int "censored" 18 m.censored;
  Alcotest.(check int64) "mttf bits" 4638276225194695635L
    (Int64.bits_of_float m.mean_time_to_failure);
  Alcotest.(check int64) "failure rate bits" 4570429163305933713L
    (Int64.bits_of_float m.failure_rate)

(* A 1-out-of-2 system with self-checking channels: on demands 20-27
   both channels abstain and the verdict is [Abstain], which the mission
   must count as a failure. The pin was computed before protection
   systems were compiled to verdict bitsets. *)
let abstaining_system () =
  let profile = Demandspace.Profile.uniform ~size:200 in
  let ra = Demandspace.Region.interval ~space_size:200 ~lo:0 ~hi:29 in
  let rb = Demandspace.Region.interval ~space_size:200 ~lo:20 ~hi:49 in
  let space =
    Demandspace.Space.create ~profile ~faults:[| (ra, 1.0); (rb, 1.0) |]
  in
  let check lo hi =
    Numerics.Bitset.of_list 200 (List.init (hi - lo + 1) (( + ) lo))
  in
  Simulator.Protection.one_out_of_two
    (Simulator.Channel.create ~self_check:(check 20 27) ~name:"A"
       (Demandspace.Version.create space [ 0 ]))
    (Simulator.Channel.create ~self_check:(check 20 29) ~name:"B"
       (Demandspace.Version.create space [ 1 ]))

let test_survival_pinned () =
  let rng = Numerics.Rng.create ~seed:23 in
  let fraction =
    Simulator.Campaign.simulate_mission_survival ~pool:(Lazy.force pool4)
      ~shards:4 rng ~system:(abstaining_system ()) ~mission_demands:30
      ~missions:120
  in
  Alcotest.(check int64) "survival fraction bits" 4598925819483171499L
    (Int64.bits_of_float fraction);
  check_int "parent draws" 4 (Numerics.Rng.draws rng)

(* ---- trace spans from parallel regions ---- *)

let test_trace_shards () =
  Obs.Trace.set_enabled true;
  let _ = estimate ~pool:(Lazy.force pool4) ~shards:4 ~seed:31 in
  let rendered = Obs.Trace.render_chrome_json () in
  Obs.Trace.set_enabled false;
  (match Obs.Json.parse rendered with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("chrome trace is not valid JSON: " ^ e));
  check_bool "spans carry a shard lane (tid)" true
    (let needle = "\"tid\"" in
     let nl = String.length needle and hl = String.length rendered in
     let rec go i =
       i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1))
     in
     go 0)

let () =
  Alcotest.run "exec"
    [
      ( "mechanics",
        [
          Alcotest.test_case "shard_bounds" `Quick test_shard_bounds;
          Alcotest.test_case "map_shards_rng" `Quick test_map_shards_rng;
          Alcotest.test_case "pool run" `Quick test_pool_run;
          Alcotest.test_case "pool exceptions" `Quick test_pool_exception;
          Alcotest.test_case "pool replays telemetry in index order" `Quick
            test_pool_telemetry_replay;
          Alcotest.test_case "pool replays telemetry of a failed batch" `Quick
            test_pool_telemetry_raise;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "montecarlo estimate" `Quick test_estimate_identical;
          Alcotest.test_case "shard draw accounting" `Quick
            test_estimate_shard_accounting;
          Alcotest.test_case "shards change outputs" `Quick
            test_estimate_shards_matter;
          Alcotest.test_case "campaign mttf" `Quick test_campaign_identical;
          Alcotest.test_case "mission survival" `Quick test_survival_identical;
          Alcotest.test_case "montecarlo estimate pinned" `Quick
            test_estimate_pinned;
          Alcotest.test_case "campaign mttf pinned" `Quick test_mttf_pinned;
          Alcotest.test_case "mission survival pinned" `Quick
            test_survival_pinned;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "trace shard lanes" `Quick test_trace_shards ] );
    ]
