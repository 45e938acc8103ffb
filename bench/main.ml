(* Bench harness.

   Pass 1 regenerates every table and figure of the paper (one experiment
   per artefact, see DESIGN.md's index) — the reproduction output proper.
   Pass 2 times the computational kernels with bechamel, one Test.make per
   kernel, so performance regressions in the library are visible.

   Run with:  dune exec bench/main.exe            (both passes)
              dune exec bench/main.exe -- tables  (reproduction only)
              dune exec bench/main.exe -- kernels (timings only)
              dune exec bench/main.exe -- json [--smoke] [-o FILE]
                 (kernel timings as BENCH_kernels.json; --smoke runs a
                  minimal-iteration pass for CI structural validation)

   Every mode also accepts --domains N (size of the default Exec pool)
   and --shards M (default shard count for the sharded library entry
   points). Changing domains never changes results; changing shards
   changes them deterministically.

   The json mode records the seed and, when the caller passes it, the git
   short revision via the GIT_REV environment variable — `make bench-json`
   does both — so the perf trajectory in BENCH_kernels.json is
   attributable to a commit. *)

open Bechamel
open Toolkit

let seed = 42

(* ------------------------------------------------------------------ *)
(* Kernel benchmarks                                                   *)
(* ------------------------------------------------------------------ *)

let kernel_universe n =
  let rng = Numerics.Rng.create ~seed in
  Core.Universe.uniform_random rng ~n ~p_lo:0.01 ~p_hi:0.4 ~total_q:0.5

(* Synthetic but schema-valid run log for the evidence-ingest kernel,
   generated once per process through the streaming runlog writer (so
   the file never lives in memory) and removed at exit. Alternating
   runner.run / fleet.plant events with a small demand histogram keep
   the lines at realistic field counts without E26's 1600-bin
   histograms dominating the byte count. *)
let evidence_log_path ~events =
  lazy
    (let path = Filename.temp_file "divrel_bench_evidence" ".jsonl" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     let oc = open_out path in
     let log = Obs.Runlog.create_streaming oc in
     Obs.Runlog.set_sink (Some log);
     Obs.Runlog.record ~kind:"run.start"
       [
         ("target", Obs.Json.String "bench.evidence");
         ("seed", Obs.Json.Int seed);
         ("shards", Obs.Json.Int 1);
       ];
     for i = 1 to events do
       if i land 1 = 0 then
         Obs.Runlog.record ~kind:"fleet.plant"
           [
             ("plant", Obs.Json.Int (i mod 400));
             ("demands", Obs.Json.Int 1000);
             ("failures", Obs.Json.Int (i mod 7));
             ("true_pfd", Obs.Json.Float 0.001);
           ]
       else
         Obs.Runlog.record ~kind:"runner.run"
           [
             ("demands", Obs.Json.Int 1000);
             ("system_failures", Obs.Json.Int (i mod 7));
             ("coincident_failures", Obs.Json.Int 0);
             ("rng_draws", Obs.Json.Int 2000);
             ( "demand_hist",
               Obs.Json.List
                 [
                   Obs.Json.List
                     [ Obs.Json.Int (i mod 64); Obs.Json.Int 600 ];
                   Obs.Json.List
                     [ Obs.Json.Int ((i + 7) mod 64); Obs.Json.Int 400 ];
                 ] );
           ]
     done;
     Obs.Runlog.record ~kind:"run.end"
       [
         ("target", Obs.Json.String "bench.evidence");
         ("seed", Obs.Json.Int seed);
         ("shards", Obs.Json.Int 1);
         ("rng_draws", Obs.Json.Int 0);
         ("duration_ns", Obs.Json.Int 0);
       ];
     Obs.Runlog.set_sink None;
     close_out oc;
     path)

let tests ~smoke () =
  let u_small = kernel_universe 16 in
  let u_big = kernel_universe 1000 in
  let ps_big = Core.Universe.ps u_big in
  let rng = Numerics.Rng.create ~seed:(seed + 1) in
  let space =
    Demandspace.Genspace.disjoint_space rng ~width:48 ~height:48 ~n_faults:12
      ~max_extent:4 ~p_lo:0.05 ~p_hi:0.4
      ~profile:(Demandspace.Profile.uniform ~size:(48 * 48))
  in
  let va, vb = Simulator.Devteam.develop_pair rng space in
  let system =
    Simulator.Protection.one_out_of_two
      (Simulator.Channel.create ~name:"A" va)
      (Simulator.Channel.create ~name:"B" vb)
  in
  let prior = Extensions.Bayes.of_pfd_dist (Core.Pfd_dist.exact_pair u_small) in
  (* Fixed-size pools for the parallel-estimate kernels: same seed, same
     shard count, different domain counts — the pair demonstrates (and
     the determinism test asserts) that timings may move but outputs
     cannot. Created lazily, and the kernels using them run last:
     spawned-but-idle domains make every stop-the-world Gc round (and
     hence bechamel's stabilization between samples) far more expensive,
     which would starve the sequential kernels of samples. *)
  let pool1 = lazy (Exec.Pool.create ~domains:1 ()) in
  let pool4 = lazy (Exec.Pool.create ~domains:4 ()) in
  let fleet_systems =
    lazy
      (let r = Numerics.Rng.create ~seed:(seed + 5) in
       Simulator.Fleet.deploy_pairs ~shards:1 r space ~plants:24)
  in
  (* Smoke mode validates structure, not timings: a 20k-event log keeps
     the CI gate fast while the full run ingests the advertised 1e6. *)
  let evidence_log =
    evidence_log_path ~events:(if smoke then 20_000 else 1_000_000)
  in
  (* Assessment-service throughput: an in-process daemon per worker
     count (spawned lazily, shut down at exit) and one persistent
     client; an iteration pipelines a 32-request batch of moments
     evaluations and drains the replies, timing codec + admission +
     dispatch + socket I/O end to end. Responses are byte-identical
     across the pair — only the timing may move. *)
  let serve_lines =
    lazy
      (Array.init 32 (fun i ->
           Serve.Proto.render_request
             {
               Serve.Proto.id = Printf.sprintf "k%d" i;
               u =
                 {
                   Serve.Proto.ps = [| 0.1; 0.02; 0.3 |];
                   qs = [| 1e-3; 1e-4; 5e-3 |];
                 };
               verb = Serve.Proto.Moments;
             }))
  in
  (* JSON parse of the two untrusted-input shapes: a serve request (a
     risk-ratio request over 128 faults, floats printed at %.17g as the
     codec renders them) and a short run-log line (the runner.run shape
     of the evidence-ingest log). *)
  let json_serve_request =
    let u = kernel_universe 128 in
    Serve.Proto.render_request
      {
        Serve.Proto.id = "k0";
        u = { Serve.Proto.ps = Core.Universe.ps u; qs = Core.Universe.qs u };
        verb = Serve.Proto.Risk_ratio { channels = 2; required = 1 };
      }
  in
  let json_runlog_line =
    Obs.Json.render
      (Obs.Json.Obj
         [
           ("event", Obs.Json.String "runner.run");
           ("seq", Obs.Json.Int 1041);
           ("demands", Obs.Json.Int 1000);
           ("system_failures", Obs.Json.Int 3);
           ("coincident_failures", Obs.Json.Int 0);
           ("rng_draws", Obs.Json.Int 2000);
           ( "demand_hist",
             Obs.Json.List
               [
                 Obs.Json.List [ Obs.Json.Int 17; Obs.Json.Int 600 ];
                 Obs.Json.List [ Obs.Json.Int 24; Obs.Json.Int 400 ];
               ] );
         ])
  in
  let serve_client workers =
    lazy
      (let path = Filename.temp_file "divrel_bench_serve" ".sock" in
       Sys.remove path;
       let config =
         {
           Serve.Server.listen = Serve.Server.Unix_path path;
           workers;
           queue_capacity = 64;
           batch_max = 8;
           seed;
         }
       in
       let thread =
         Thread.create (fun () -> ignore (Serve.Server.serve config)) ()
       in
       let client = Serve.Client.connect (Serve.Server.Unix_path path) in
       at_exit (fun () ->
           (try
              ignore
                (Serve.Client.round_trip client
                   (Serve.Proto.render_admin ~id:"bye" Serve.Proto.Shutdown));
              Serve.Client.close client
            with _ -> ());
           try Thread.join thread with _ -> ());
       client)
  in
  let serve_round client =
    let lines = Lazy.force serve_lines in
    Array.iter (Serve.Client.send_line client) lines;
    for _ = 1 to Array.length lines do
      match Serve.Client.recv_line client with
      | Some _ -> ()
      | None -> failwith "serve bench: server closed the connection"
    done
  in
  [
    Test.make ~name:"moments/n=1000"
      (Staged.stage (fun () -> ignore (Core.Moments.compute u_big)));
    Test.make ~name:"risk-ratio/n=1000"
      (Staged.stage (fun () -> ignore (Core.Fault_count.risk_ratio u_big)));
    Test.make ~name:"poisson-binomial/n=1000"
      (Staged.stage (fun () -> ignore (Core.Fault_count.poisson_binomial ps_big)));
    Test.make ~name:"exact-pfd-dist/n=16"
      (Staged.stage (fun () -> ignore (Core.Pfd_dist.exact_single u_small)));
    (* Fast-vs-naive kernel pairs for the rewritten hot paths: the
       unsuffixed names above/below time whatever the library defaults
       to (now the incremental formulations), the explicit pairs keep
       both sides measurable so benchdiff can track the gap as the
       kernels evolve. *)
    Test.make ~name:"exact-pfd-dist-fast/n=16"
      (Staged.stage
         (let probs = Core.Universe.ps u_small
          and values = Core.Universe.qs u_small in
          fun () -> ignore (Core.Pfd_dist.exact_of_vectors ~probs ~values ())));
    Test.make ~name:"exact-pfd-dist-naive/n=16"
      (Staged.stage
         (let probs = Core.Universe.ps u_small
          and values = Core.Universe.qs u_small in
          fun () ->
            ignore (Core.Pfd_dist.exact_of_vectors_naive ~probs ~values ())));
    Test.make ~name:"grid-pfd-dist/n=1000,bins=2048"
      (Staged.stage (fun () -> ignore (Core.Pfd_dist.grid_single u_big ~bins:2048)));
    Test.make ~name:"sensitivity-gradient/n=1000"
      (Staged.stage (fun () ->
           ignore (Core.Sensitivity.risk_ratio_gradient ps_big)));
    Test.make ~name:"sensitivity-gradient-naive/n=1000"
      (Staged.stage (fun () ->
           ignore (Core.Sensitivity.risk_ratio_gradient_naive ps_big)));
    Test.make ~name:"normal-ppf"
      (Staged.stage
         (let p = ref 0.001 in
          fun () ->
            p := if !p > 0.99 then 0.001 else !p +. 0.001;
            ignore (Numerics.Normal_dist.ppf !p)));
    Test.make ~name:"develop-pair/n=1000"
      (Staged.stage
         (let r = Numerics.Rng.create ~seed:(seed + 2) in
          let c = Simulator.Devteam.compile u_big in
          fun () -> ignore (Simulator.Devteam.pair_pfd r c)));
    Test.make ~name:"run-1000-demands"
      (Staged.stage
         (let r = Numerics.Rng.create ~seed:(seed + 3) in
          fun () -> ignore (Simulator.Runner.run r ~system ~demand_count:1000)));
    Test.make ~name:"bayes-update/10k-demands"
      (Staged.stage (fun () ->
           ignore (Extensions.Bayes.observe_failure_free prior ~demands:10_000)));
    Test.make ~name:"el-difficulty-sweep/48x48"
      (Staged.stage (fun () ->
           ignore (Baselines.Eckhardt_lee.mean_pair space)));
    Test.make ~name:"json-parse/serve-request"
      (Staged.stage (fun () -> ignore (Obs.Json.parse json_serve_request)));
    Test.make ~name:"json-parse/runlog-line"
      (Staged.stage (fun () -> ignore (Obs.Json.parse json_runlog_line)));
    Test.make ~name:"mc-estimate-parallel/1dom"
      (Staged.stage
         (let r = Numerics.Rng.create ~seed:(seed + 4) in
          fun () ->
            ignore
              (Simulator.Montecarlo.estimate ~pool:(Lazy.force pool1) ~shards:8
                 r u_big ~replications:64)));
    Test.make ~name:"mc-estimate-parallel/4dom"
      (Staged.stage
         (let r = Numerics.Rng.create ~seed:(seed + 4) in
          fun () ->
            ignore
              (Simulator.Montecarlo.estimate ~pool:(Lazy.force pool4) ~shards:8
                 r u_big ~replications:64)));
    (* Fleet observation sharded over the pool: the other determinism
       demonstrator pair. The systems are deployed once at setup (on the
       legacy sequential path so no pool is forced early); each run
       observes the whole fleet with 8 shards, exercising the batched
       demand sampling in the runner hot loop. *)
    Test.make ~name:"fleet-observe-parallel/1dom"
      (Staged.stage
         (let r = Numerics.Rng.create ~seed:(seed + 6) in
          fun () ->
            ignore
              (Simulator.Fleet.observe ~pool:(Lazy.force pool1) ~shards:8 r
                 (Lazy.force fleet_systems) ~demands_per_plant:2000)));
    Test.make ~name:"fleet-observe-parallel/4dom"
      (Staged.stage
         (let r = Numerics.Rng.create ~seed:(seed + 6) in
          fun () ->
            ignore
              (Simulator.Fleet.observe ~pool:(Lazy.force pool4) ~shards:8 r
                 (Lazy.force fleet_systems) ~demands_per_plant:2000)));
    (* Proven-in-use evidence pipeline: one full single-pass ingest of
       the synthetic run log (file -> cursor -> assessor -> verdict),
       the same path the `experiments_cli evidence` verb drives. *)
    Test.make ~name:"evidence-ingest/1e6"
      (Staged.stage (fun () ->
           let a =
             Evidence.Assessor.create Evidence.Assessor.default_config
           in
           let src = Evidence.Source.open_file (Lazy.force evidence_log) in
           Evidence.Source.iter_lines src ~f:(Evidence.Assessor.ingest_line a);
           Evidence.Source.close src;
           ignore (Evidence.Verdict.of_assessor a)));
    (* Run last, like the pool pairs above: the 4-worker daemon keeps
       three extra domains alive from first use to process exit. *)
    Test.make ~name:"serve-throughput/1workers"
      (Staged.stage
         (let client = serve_client 1 in
          fun () -> serve_round (Lazy.force client)));
    Test.make ~name:"serve-throughput/4workers"
      (Staged.stage
         (let client = serve_client 4 in
          fun () -> serve_round (Lazy.force client)));
  ]

type kernel_row = {
  name : string;
  ns_per_run : float option;
  r_square : float option;
  samples : int;
  domains : int;
}

(* Domains each kernel computed on, recorded per row in the JSON.
   Sequential kernels (every analytic one) run on the calling domain;
   the parallel pairs pin their pool size in the kernel name. *)
let kernel_domains name =
  match name with
  | "mc-estimate-parallel/1dom" | "fleet-observe-parallel/1dom"
  | "serve-throughput/1workers" ->
      1
  | "mc-estimate-parallel/4dom" | "fleet-observe-parallel/4dom"
  | "serve-throughput/4workers" ->
      4
  | _ -> 1

(* Slow kernels complete few runs inside the standard half-second quota
   and their OLS fit gets noisy (r^2 well below the 0.9 the repo wants
   to publish); give them a larger measurement budget. *)
let generous_quota_kernels =
  [
    "grid-pfd-dist/n=1000,bins=2048";
    "moments/n=1000";
    "sensitivity-gradient-naive/n=1000";
    "exact-pfd-dist-naive/n=16";
    "mc-estimate-parallel/1dom";
    "mc-estimate-parallel/4dom";
    "fleet-observe-parallel/1dom";
    "fleet-observe-parallel/4dom";
    "serve-throughput/1workers";
    "serve-throughput/4workers";
  ]

(* The evidence-ingest kernel makes one multi-second pass over a
   150MB-scale run log per iteration; it needs a far larger budget than
   even the generous tier to collect enough samples for a clean OLS
   fit. *)
let marathon_quota_kernels = [ "evidence-ingest/1e6" ]

let cfg_for ~smoke name =
  if smoke then Benchmark.cfg ~limit:2 ~quota:(Time.second 0.001) ()
  else if List.mem name marathon_quota_kernels then
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 30.0) ~stabilize:true ()
  else if List.mem name generous_quota_kernels then
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 3.0) ~stabilize:true ()
  else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()

(* Minimum OLS fit quality the artefact is allowed to publish. On a
   loaded single-core host one scheduler spike can ruin a whole
   measurement window, so a kernel whose fit comes out below this is
   re-measured (up to [max_attempts] total) and the best-fitting attempt
   kept — re-rolling the fit, never the timing itself. *)
let target_r_square = 0.9
let max_attempts = 5

(* Run every kernel and return one row per kernel, sorted by name. With
   [smoke] the benchmark budget collapses to a couple of iterations per
   kernel — enough for the CI gate to validate the JSON structure without
   paying benchmarking time. *)
let measure_kernels ~smoke () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let fit_of name b =
    match instances with
    | [] -> None
    | instance :: _ -> (
        let h = Hashtbl.create 1 in
        Hashtbl.add h name b;
        let per = Analyze.all ols instance h in
        match Hashtbl.find_opt per name with
        | Some o -> Analyze.OLS.r_square o
        | None -> None)
  in
  let measure_one elt =
    let name = Test.Elt.name elt in
    let cfg = cfg_for ~smoke name in
    let run () =
      let b = Benchmark.run cfg instances elt in
      (b, Option.value ~default:0.0 (fit_of name b))
    in
    let rec retry best best_r2 attempts_left =
      if best_r2 >= target_r_square || attempts_left = 0 then best
      else
        let b, r2 = run () in
        if r2 > best_r2 then retry b r2 (attempts_left - 1)
        else retry best best_r2 (attempts_left - 1)
    in
    let b, r2 = run () in
    if smoke then b else retry b r2 (max_attempts - 1)
  in
  let raw =
    List.fold_left
      (fun acc test ->
        List.fold_left
          (fun acc elt ->
            Hashtbl.add acc (Test.Elt.name elt) (measure_one elt);
            acc)
          acc (Test.elements test))
      (Hashtbl.create 16)
      (tests ~smoke ())
  in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let rows = ref [] in
  Hashtbl.iter
    (fun _measure per_test ->
      Hashtbl.iter
        (fun name ols_result ->
          let ns_per_run =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> Some e
            | _ -> None
          in
          let samples =
            match Hashtbl.find_opt raw name with
            | Some b -> b.Benchmark.stats.Benchmark.samples
            | None -> 0
          in
          rows :=
            {
              name;
              ns_per_run;
              r_square = Analyze.OLS.r_square ols_result;
              samples;
              domains = kernel_domains name;
            }
            :: !rows)
        per_test)
    merged;
  List.sort (fun a b -> compare a.name b.name) !rows

let print_kernel_table rows =
  print_endline "\n================ kernel timings (bechamel, OLS) ================";
  Printf.printf "%-34s %14s %10s\n" "kernel" "ns/run" "r^2";
  Printf.printf "%s\n" (String.make 60 '-');
  List.iter
    (fun row ->
      let estimate =
        match row.ns_per_run with
        | Some e -> Printf.sprintf "%14.1f" e
        | None -> Printf.sprintf "%14s" "n/a"
      in
      let r2 =
        match row.r_square with
        | Some r -> Printf.sprintf "%10.4f" r
        | None -> Printf.sprintf "%10s" "n/a"
      in
      Printf.printf "%-34s %s %s\n" row.name estimate r2)
    rows

(* ------------------------------------------------------------------ *)
(* JSON output (BENCH_kernels.json)                                    *)
(* ------------------------------------------------------------------ *)

let bench_json ~smoke rows =
  let opt_float = function Some f -> Obs.Json.Float f | None -> Obs.Json.Null in
  let kernel row =
    Obs.Json.Obj
      [
        ("name", Obs.Json.String row.name);
        ("ns_per_run", opt_float row.ns_per_run);
        ("r_square", opt_float row.r_square);
        ("samples", Obs.Json.Int row.samples);
        ("domains", Obs.Json.Int row.domains);
      ]
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "divrel-bench/2");
      ("seed", Obs.Json.Int seed);
      ( "git_rev",
        Obs.Json.String
          (match Sys.getenv_opt "GIT_REV" with
          | Some rev when String.trim rev <> "" -> String.trim rev
          | _ -> "unknown") );
      ("mode", Obs.Json.String (if smoke then "smoke" else "full"));
      ("kernels", Obs.Json.List (List.map kernel rows));
    ]

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let run_kernels () = print_kernel_table (measure_kernels ~smoke:false ())

let run_json ~smoke ~out () =
  let rows = measure_kernels ~smoke () in
  write_file out (Obs.Json.render (bench_json ~smoke rows) ^ "\n");
  Printf.printf "bench: wrote %d kernel timings to %s%s\n" (List.length rows)
    out
    (if smoke then " (smoke mode: timings are not meaningful)" else "")

let run_tables () =
  print_endline
    "================ paper artefact reproduction (all tables & figures) \
     ================";
  print_string (Experiments.Registry.render_all ~seed ())

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode =
    match List.find_opt (fun a -> String.length a > 0 && a.[0] <> '-') args with
    | Some m -> m
    | None -> "all"
  in
  let smoke = List.mem "--smoke" args in
  let rec out_of = function
    | "-o" :: path :: _ -> path
    | _ :: tl -> out_of tl
    | [] -> "BENCH_kernels.json"
  in
  let out = out_of args in
  let rec int_flag name = function
    | f :: v :: tl ->
        if f = name then int_of_string_opt v else int_flag name (v :: tl)
    | _ -> None
  in
  (match int_flag "--domains" args with
  | Some d -> Exec.Pool.set_default_domains d
  | None -> ());
  (match int_flag "--shards" args with
  | Some s -> Exec.set_default_shards s
  | None -> ());
  (match mode with
  | "tables" -> run_tables ()
  | "kernels" -> run_kernels ()
  | "json" -> run_json ~smoke ~out ()
  | _ ->
      run_tables ();
      run_kernels ());
  print_endline "\nbench: done"
