(* benchcheck — structural validator for BENCH_kernels.json.

   The @ci alias runs `bench/main.exe json --smoke` and then this tool,
   so a malformed or structurally wrong benchmark artefact fails the
   gate. Checks: the file parses as JSON, carries the divrel-bench/2
   schema marker, a seed, a git_rev, and a non-empty kernels array whose
   entries each have a name, numeric-or-null ns_per_run / r_square, a
   sample count and a positive domain count; the parallel-estimate,
   fleet-observe and serve-throughput kernel pairs must be present. On a full-mode artefact
   (mode = "full", i.e. real timings, not the --smoke structural pass)
   the required kernels must additionally publish an OLS fit with
   r_square >= 0.9 — the repo's floor for a timing it is willing to
   stand behind — and the artefact's git_rev must match the current
   HEAD (GIT_REV env or `git rev-parse`), so stale timings are never
   re-blessed at a different commit. Exit codes: 0 ok, 1 structurally
   invalid, 2 unreadable or unparseable. *)

let fail code msg =
  prerr_endline ("benchcheck: " ^ msg);
  exit code

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let require what = function
  | Some v -> v
  | None -> fail 1 ("missing or ill-typed " ^ what)

let check_number what v =
  match v with
  | Obs.Json.Null | Obs.Json.Int _ | Obs.Json.Float _ -> ()
  | _ -> fail 1 (what ^ " must be a number or null")

let check_kernel i k =
  let ctx = Printf.sprintf "kernels[%d]" i in
  let name =
    require (ctx ^ ".name")
      (Option.bind (Obs.Json.member "name" k) Obs.Json.to_string)
  in
  if String.trim name = "" then fail 1 (ctx ^ ".name is empty");
  check_number (ctx ^ ".ns_per_run") (require (ctx ^ ".ns_per_run") (Obs.Json.member "ns_per_run" k));
  check_number (ctx ^ ".r_square") (require (ctx ^ ".r_square") (Obs.Json.member "r_square" k));
  let samples =
    require (ctx ^ ".samples")
      (Option.bind (Obs.Json.member "samples" k) Obs.Json.to_int)
  in
  if samples < 0 then fail 1 (ctx ^ ".samples is negative");
  let domains =
    require (ctx ^ ".domains")
      (Option.bind (Obs.Json.member "domains" k) Obs.Json.to_int)
  in
  if domains < 1 then fail 1 (ctx ^ ".domains must be >= 1");
  name

(* Kernels whose presence the gate insists on: the determinism
   demonstrator pairs (same computation on 1 vs 4 domains), the
   proven-in-use evidence ingest path and its JSON parse of both
   untrusted-input shapes, and the rewritten hot-path
   kernels (both the headline names and the explicit fast variants, so
   a regenerated artefact can never silently drop the perf-trajectory
   anchors). *)
let required_kernels =
  [
    "mc-estimate-parallel/1dom";
    "mc-estimate-parallel/4dom";
    "fleet-observe-parallel/1dom";
    "fleet-observe-parallel/4dom";
    "evidence-ingest/1e6";
    "json-parse/serve-request";
    "json-parse/runlog-line";
    "sensitivity-gradient/n=1000";
    "exact-pfd-dist/n=16";
    "exact-pfd-dist-fast/n=16";
    "serve-throughput/1workers";
    "serve-throughput/4workers";
  ]

(* Minimum OLS fit quality a full-mode artefact may publish for the
   required kernels (matches bench/main.ml's target_r_square). *)
let min_r_square = 0.9

(* In full mode the artefact's git_rev must describe the code that was
   actually benchmarked: validating a stale BENCH_kernels.json at a
   different HEAD would bless timings for code that no longer exists.
   HEAD comes from the GIT_REV environment variable when set (the
   bench-json target exports it) or from git itself; with neither
   available (e.g. a tarball checkout) the check is skipped with a
   note. Prefix matching tolerates short-vs-long rev spellings. *)
let head_rev () =
  match Sys.getenv_opt "GIT_REV" with
  | Some r when String.trim r <> "" -> Some (String.trim r)
  | _ -> (
      match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
      | exception _ -> None
      | ic ->
          let line =
            match input_line ic with
            | l -> Some (String.trim l)
            | exception End_of_file -> None
          in
          (match Unix.close_process_in ic with
          | Unix.WEXITED 0 -> (
              match line with Some l when l <> "" -> Some l | _ -> None)
          | _ -> None
          | exception _ -> None))

let revs_match a b =
  let a = String.trim a and b = String.trim b in
  a <> "" && b <> ""
  && (String.starts_with ~prefix:a b || String.starts_with ~prefix:b a)

let () =
  let path =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else fail 2 "usage: benchcheck FILE.json"
  in
  let source =
    match read_file path with
    | s -> s
    | exception Sys_error e -> fail 2 ("cannot read " ^ path ^ ": " ^ e)
  in
  let json =
    match Obs.Json.parse source with
    | Ok j -> j
    | Error e -> fail 2 (path ^ ": malformed JSON: " ^ e)
  in
  let schema =
    require "schema" (Option.bind (Obs.Json.member "schema" json) Obs.Json.to_string)
  in
  if schema <> "divrel-bench/2" then
    fail 1 (Printf.sprintf "unexpected schema %S (want divrel-bench/2)" schema);
  ignore (require "seed" (Option.bind (Obs.Json.member "seed" json) Obs.Json.to_int));
  let artefact_rev =
    require "git_rev"
      (Option.bind (Obs.Json.member "git_rev" json) Obs.Json.to_string)
  in
  let kernels =
    require "kernels" (Option.bind (Obs.Json.member "kernels" json) Obs.Json.to_list)
  in
  if kernels = [] then fail 1 "kernels array is empty";
  let names = List.mapi check_kernel kernels in
  List.iter
    (fun k ->
      if not (List.mem k names) then fail 1 ("required kernel missing: " ^ k))
    required_kernels;
  let mode =
    match Option.bind (Obs.Json.member "mode" json) Obs.Json.to_string with
    | Some m -> m
    | None -> "full"  (* older artefacts carry no mode: treat as real timings *)
  in
  if mode = "full" then begin
    (match head_rev () with
    | None ->
        print_endline
          "benchcheck: note: HEAD revision unavailable, skipping git_rev match"
    | Some head ->
        if not (revs_match artefact_rev head) then
          fail 1
            (Printf.sprintf
               "git_rev %S does not match HEAD %S: regenerate full-mode \
                timings at the current commit (make bench-json)"
               artefact_rev head));
    List.iter
      (fun required ->
        let kernel =
          List.find_opt
            (fun k ->
              Option.bind (Obs.Json.member "name" k) Obs.Json.to_string
              = Some required)
            kernels
        in
        let r2 =
          Option.bind kernel (fun k ->
              Option.bind (Obs.Json.member "r_square" k) Obs.Json.to_float)
        in
        match r2 with
        | None -> fail 1 (required ^ ": full-mode artefact has no r_square")
        | Some r2 when r2 < min_r_square ->
            fail 1
              (Printf.sprintf "%s: r_square %.4f below the %.1f floor" required
                 r2 min_r_square)
        | Some _ -> ())
      required_kernels
  end;
  Printf.printf "benchcheck: %s ok (%d kernels, schema divrel-bench/2)\n" path
    (List.length kernels)
