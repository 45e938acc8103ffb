(* Kernel benchmark harness: times the computational kernels with
   bechamel, one Test.make per kernel, so performance regressions in the
   library are visible. The paper artefacts themselves are printed by
   `experiments_cli all`.

   Run with:  dune exec bench/main.exe -- json [--smoke] [-o FILE]
   It writes the kernel timings as BENCH_kernels.json (or FILE); --smoke
   runs a minimal-iteration pass for CI structural validation.

   The artefact records the seed and, when the caller passes it, the git
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

(* How long a kernel is measured. Slow kernels complete few runs inside
   the standard half-second quota and their OLS fit gets noisy (r^2 well
   below the 0.9 the repo wants to publish), so they get a generous
   budget; the evidence ingest makes one multi-second pass over a
   150MB-scale run log per iteration and needs a far larger one still. *)
type quota = Standard | Generous | Marathon

(* A kernel as measured: its bechamel test, the number of domains it
   computes on (the size of its pool; 1 for every sequential kernel)
   and its quota tier. *)
type kernel = { test : Test.t; domains : int; quota : quota }

let kernel ?(domains = 1) ?(quota = Standard) name f =
  { test = Test.make ~name (Staged.stage f); domains; quota }

(* The parallel pairs time one computation on 1 domain and on every
   core, never on more domains than the host has cores: an
   oversubscribed pool measures the scheduler, not a speedup. *)
let ncores = Domain.recommended_domain_count ()

let kernels ~smoke () =
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
  (* Pools for the parallel-estimate kernels: same seed, same shard
     count, different domain counts — the pair demonstrates (and
     the determinism test asserts) that timings may move but outputs
     cannot. Created lazily, and the kernels using them run last:
     spawned-but-idle domains make every stop-the-world Gc round (and
     hence bechamel's stabilization between samples) far more expensive,
     which would starve the sequential kernels of samples. *)
  let pool1 = lazy (Exec.Pool.create ~domains:1 ()) in
  let pool_n = lazy (Exec.Pool.create ~domains:ncores ()) in
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
    kernel "moments/n=1000" ~quota:Generous (fun () ->
        ignore (Core.Moments.compute u_big));
    kernel "risk-ratio/n=1000" (fun () ->
        ignore (Core.Fault_count.risk_ratio u_big));
    kernel "poisson-binomial/n=1000" (fun () ->
        ignore (Core.Fault_count.poisson_binomial ps_big));
    kernel "exact-pfd-dist/n=16" (fun () ->
        ignore (Core.Pfd_dist.exact_single u_small));
    (* Fast-vs-naive kernel pairs for the rewritten hot paths: the
       unsuffixed names above/below time whatever the library defaults
       to (now the incremental formulations), the explicit pairs keep
       both sides measurable so benchdiff can track the gap as the
       kernels evolve. The naive sides are the Check.Reference
       kernels. *)
    kernel "exact-pfd-dist-fast/n=16"
      (let probs = Core.Universe.ps u_small
       and values = Core.Universe.qs u_small in
       fun () -> ignore (Core.Pfd_dist.exact_of_vectors ~probs ~values ()));
    kernel "exact-pfd-dist-naive/n=16" ~quota:Generous
      (let probs = Core.Universe.ps u_small
       and values = Core.Universe.qs u_small in
       fun () ->
         ignore (Check.Reference.exact_of_vectors_naive ~probs ~values ()));
    kernel "grid-pfd-dist/n=1000,bins=2048" ~quota:Generous (fun () ->
        ignore (Core.Pfd_dist.grid_single u_big ~bins:2048));
    kernel "sensitivity-gradient/n=1000" (fun () ->
        ignore (Core.Sensitivity.risk_ratio_gradient ps_big));
    kernel "sensitivity-gradient-naive/n=1000" ~quota:Generous (fun () ->
        ignore (Check.Reference.risk_ratio_gradient_naive ps_big));
    kernel "normal-ppf"
      (let p = ref 0.001 in
       fun () ->
         p := if !p > 0.99 then 0.001 else !p +. 0.001;
         ignore (Numerics.Normal_dist.ppf !p));
    kernel "develop-pair/n=1000"
      (let r = Numerics.Rng.create ~seed:(seed + 2) in
       let c = Simulator.Devteam.compile u_big in
       fun () -> ignore (Simulator.Devteam.pair_pfd r c));
    kernel "run-1000-demands"
      (let r = Numerics.Rng.create ~seed:(seed + 3) in
       fun () -> ignore (Simulator.Runner.run r ~system ~demand_count:1000));
    kernel "bayes-update/10k-demands" (fun () ->
        ignore (Extensions.Bayes.observe_failure_free prior ~demands:10_000));
    kernel "el-difficulty-sweep/48x48" (fun () ->
        ignore (Baselines.Eckhardt_lee.mean_pair space));
    kernel "json-parse/serve-request" (fun () ->
        ignore (Obs.Json.parse json_serve_request));
    kernel "json-parse/runlog-line" (fun () ->
        ignore (Obs.Json.parse json_runlog_line));
    kernel "mc-estimate-parallel/1dom" ~domains:1 ~quota:Generous
      (let r = Numerics.Rng.create ~seed:(seed + 4) in
       fun () ->
         ignore
           (Simulator.Montecarlo.estimate ~pool:(Lazy.force pool1) ~shards:8 r
              u_big ~replications:64));
    kernel "mc-estimate-parallel/ncores" ~domains:ncores ~quota:Generous
      (let r = Numerics.Rng.create ~seed:(seed + 4) in
       fun () ->
         ignore
           (Simulator.Montecarlo.estimate ~pool:(Lazy.force pool_n) ~shards:8 r
              u_big ~replications:64));
    (* Fleet observation sharded over the pool: the other determinism
       demonstrator pair. The systems are deployed once at setup (on the
       legacy sequential path so no pool is forced early); each run
       observes the whole fleet with 8 shards, exercising the batched
       demand sampling in the runner hot loop. *)
    kernel "fleet-observe-parallel/1dom" ~domains:1 ~quota:Generous
      (let r = Numerics.Rng.create ~seed:(seed + 6) in
       fun () ->
         ignore
           (Simulator.Fleet.observe ~pool:(Lazy.force pool1) ~shards:8 r
              (Lazy.force fleet_systems) ~demands_per_plant:2000));
    kernel "fleet-observe-parallel/ncores" ~domains:ncores ~quota:Generous
      (let r = Numerics.Rng.create ~seed:(seed + 6) in
       fun () ->
         ignore
           (Simulator.Fleet.observe ~pool:(Lazy.force pool_n) ~shards:8 r
              (Lazy.force fleet_systems) ~demands_per_plant:2000));
    (* Proven-in-use evidence pipeline: one full single-pass ingest of
       the synthetic run log (file -> cursor -> assessor -> verdict),
       the same path the `experiments_cli evidence` verb drives. *)
    kernel "evidence-ingest/1e6" ~quota:Marathon (fun () ->
        let a = Evidence.Assessor.create Evidence.Assessor.default_config in
        let src = Evidence.Source.open_file (Lazy.force evidence_log) in
        Evidence.Source.iter_lines src ~f:(Evidence.Assessor.ingest_line a);
        Evidence.Source.close src;
        ignore (Evidence.Verdict.of_assessor a));
    (* Run last, like the pool pairs above: the many-worker daemon keeps
       its extra domains alive from first use to process exit. *)
    kernel "serve-throughput/1workers" ~domains:1 ~quota:Generous
      (let client = serve_client 1 in
       fun () -> serve_round (Lazy.force client));
    kernel "serve-throughput/ncores" ~domains:ncores ~quota:Generous
      (let client = serve_client ncores in
       fun () -> serve_round (Lazy.force client));
  ]

type kernel_row = {
  name : string;
  ns_per_run : float option;
  r_square : float option;
  samples : int;
  domains : int;
}

let cfg_for ~smoke quota =
  if smoke then Benchmark.cfg ~limit:2 ~quota:(Time.second 0.001) ()
  else
    let seconds =
      match quota with Standard -> 0.5 | Generous -> 3.0 | Marathon -> 30.0
    in
    Benchmark.cfg ~limit:2000 ~quota:(Time.second seconds) ~stabilize:true ()

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
  let clock = Instance.monotonic_clock in
  let fit name b =
    let h = Hashtbl.create 1 in
    Hashtbl.add h name b;
    Hashtbl.find_opt (Analyze.all ols clock h) name
  in
  let r_square o = Option.value ~default:0.0 (Option.bind o Analyze.OLS.r_square) in
  let measure_one k elt =
    let name = Test.Elt.name elt in
    let run () =
      let b = Benchmark.run (cfg_for ~smoke k.quota) [ clock ] elt in
      (b, fit name b)
    in
    let rec retry (best, best_fit) attempts_left =
      if r_square best_fit >= target_r_square || attempts_left = 0 then
        (best, best_fit)
      else
        let b, o = run () in
        if r_square o > r_square best_fit then retry (b, o) (attempts_left - 1)
        else retry (best, best_fit) (attempts_left - 1)
    in
    let b, o = if smoke then run () else retry (run ()) (max_attempts - 1) in
    {
      name;
      ns_per_run =
        (match Option.bind o Analyze.OLS.estimates with
        | Some (e :: _) -> Some e
        | _ -> None);
      r_square = Option.bind o Analyze.OLS.r_square;
      samples = b.Benchmark.stats.Benchmark.samples;
      domains = k.domains;
    }
  in
  kernels ~smoke ()
  |> List.concat_map (fun k -> List.map (measure_one k) (Test.elements k.test))
  |> List.sort (fun a b -> compare a.name b.name)

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

let run_json ~smoke ~out =
  let rows = measure_kernels ~smoke () in
  write_file out (Obs.Json.render (bench_json ~smoke rows) ^ "\n");
  Printf.printf "bench: wrote %d kernel timings to %s%s\n" (List.length rows)
    out
    (if smoke then " (smoke mode: timings are not meaningful)" else "")

let usage () =
  prerr_endline "usage: main.exe json [--smoke] [-o FILE]";
  exit 2

let () =
  let rec parse ~smoke ~out = function
    | [] -> run_json ~smoke ~out
    | "--smoke" :: tl -> parse ~smoke:true ~out tl
    | "-o" :: out :: tl -> parse ~smoke ~out tl
    | _ -> usage ()
  in
  match List.tl (Array.to_list Sys.argv) with
  | "json" :: flags -> parse ~smoke:false ~out:"BENCH_kernels.json" flags
  | _ -> usage ()
