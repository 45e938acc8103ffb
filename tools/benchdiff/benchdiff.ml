(* benchdiff — the one reader of divrel-bench/2 kernel-timing artefacts.

   Usage: benchdiff check FILE.json
          benchdiff [--max-regression PCT] BASELINE.json CANDIDATE.json

   [check] validates one artefact: a seed, a git_rev, and a non-empty
   kernels array whose entries each have a name, numeric-or-null
   ns_per_run / r_square, a sample count and a positive domain count;
   every kernel in [required_kernels] must be present. On a full-mode
   artefact (mode = "full", i.e. real timings, not the --smoke
   structural pass) the required kernels must additionally publish an
   OLS fit with r_square >= 0.9 — the repo's floor for a timing it is
   willing to stand behind — and the artefact's git_rev must match the
   current HEAD (GIT_REV env or `git rev-parse`), so stale timings are
   never re-blessed at a different commit. Exit codes: 0 ok, 1
   structurally invalid, 2 unreadable or unparseable.

   The diff mode prints a per-kernel table of baseline vs candidate
   ns/run and the speedup factor (baseline / candidate: > 1 means the
   candidate got faster), plus the kernels present on only one side. The
   regression gate fails any kernel whose candidate timing is more than
   [--max-regression] percent slower than the baseline (default 25, i.e.
   speedup < 1/1.25) — but only when BOTH artefacts carry real timings.
   A smoke artefact runs each kernel a couple of times purely for
   structural validation, so its numbers mean nothing; diffing against
   one still prints the table but skips the gate with a note. Exit
   codes: 0 ok (or gate skipped), 1 regression past the threshold, 2
   unreadable/unparseable artefact or bad usage. *)

let fail code msg =
  prerr_endline ("benchdiff: " ^ msg);
  exit code

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let str k j = Option.bind (Obs.Json.member k j) Obs.Json.to_string

type artefact = {
  path : string;
  json : Obs.Json.t;
  mode : string;
  kernels : Obs.Json.t list;  (** non-empty *)
}

(* Read, parse and check the schema marker and kernels array. An
   unreadable or unparseable file exits 2; a file that parses but has
   the wrong shape exits [invalid] (1 for [check], whose job is to judge
   the shape; 2 for the diff, which can only refuse it). *)
let load ~invalid path =
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
  (match str "schema" json with
  | Some "divrel-bench/2" -> ()
  | Some s ->
      fail invalid
        (Printf.sprintf "%s: unexpected schema %S (want divrel-bench/2)" path s)
  | None -> fail invalid (path ^ ": missing schema marker"));
  let mode =
    (* older artefacts carry no mode: real timings *)
    Option.value ~default:"full" (str "mode" json)
  in
  match Option.bind (Obs.Json.member "kernels" json) Obs.Json.to_list with
  | None | Some [] -> fail invalid (path ^ ": no kernels array")
  | Some kernels -> { path; json; mode; kernels }

(* ------------------------------------------------------------------ *)
(* check                                                              *)
(* ------------------------------------------------------------------ *)

let require what = function
  | Some v -> v
  | None -> fail 1 ("missing or ill-typed " ^ what)

let check_number what v =
  match v with
  | Obs.Json.Null | Obs.Json.Int _ | Obs.Json.Float _ -> ()
  | _ -> fail 1 (what ^ " must be a number or null")

let check_kernel i k =
  let ctx = Printf.sprintf "kernels[%d]" i in
  let name = require (ctx ^ ".name") (str "name" k) in
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
   demonstrator pairs (same computation on 1 domain vs every core), the
   proven-in-use evidence ingest path and its JSON parse of both
   untrusted-input shapes, and the rewritten hot-path kernels (both the
   headline names and the explicit fast variants, so a regenerated
   artefact can never silently drop the perf-trajectory anchors). The
   list lives here, not in bench/main.ml, so deleting a kernel there
   fails the gate instead of deleting its requirement. *)
let required_kernels =
  [
    "mc-estimate-parallel/1dom";
    "mc-estimate-parallel/ncores";
    "fleet-observe-parallel/1dom";
    "fleet-observe-parallel/ncores";
    "evidence-ingest/1e6";
    "json-parse/serve-request";
    "json-parse/runlog-line";
    "sensitivity-gradient/n=1000";
    "exact-pfd-dist/n=16";
    "exact-pfd-dist-fast/n=16";
    "serve-throughput/1workers";
    "serve-throughput/ncores";
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

let check path =
  let a = load ~invalid:1 path in
  ignore (require "seed" (Option.bind (Obs.Json.member "seed" a.json) Obs.Json.to_int));
  let artefact_rev = require "git_rev" (str "git_rev" a.json) in
  let names = List.mapi check_kernel a.kernels in
  List.iter
    (fun k ->
      if not (List.mem k names) then fail 1 ("required kernel missing: " ^ k))
    required_kernels;
  if a.mode = "full" then begin
    (match head_rev () with
    | None ->
        print_endline
          "benchdiff: note: HEAD revision unavailable, skipping git_rev match"
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
          List.find_opt (fun k -> str "name" k = Some required) a.kernels
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
  Printf.printf "benchdiff: %s ok (%d kernels, schema divrel-bench/2)\n" path
    (List.length a.kernels)

(* ------------------------------------------------------------------ *)
(* diff                                                               *)
(* ------------------------------------------------------------------ *)

(* kernel name -> ns_per_run; kernels publishing no estimate are
   dropped: nothing to compare. *)
let timings a =
  List.filter_map
    (fun k ->
      match
        (str "name" k, Option.bind (Obs.Json.member "ns_per_run" k) Obs.Json.to_float)
      with
      | Some name, Some ns when ns > 0.0 -> Some (name, ns)
      | _ -> None)
    a.kernels

let pretty_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let diff ~max_regression base_path cand_path =
  let base = load ~invalid:2 base_path and cand = load ~invalid:2 cand_path in
  let rev a = Option.value ~default:"unknown" (str "git_rev" a.json) in
  Printf.printf "benchdiff: baseline %s (mode %s, rev %s)\n" base.path base.mode
    (rev base);
  Printf.printf "benchdiff: candidate %s (mode %s, rev %s)\n" cand.path
    cand.mode (rev cand);
  let base_ns = timings base and cand_ns = timings cand in
  let shared =
    List.filter_map
      (fun (name, b_ns) ->
        Option.map
          (fun c_ns -> (name, b_ns, c_ns))
          (List.assoc_opt name cand_ns))
      base_ns
  in
  if shared = [] then fail 2 "no kernel appears in both artefacts";
  let shared =
    List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) shared
  in
  Printf.printf "\n%-40s %12s %12s %9s\n" "kernel" "baseline" "candidate"
    "speedup";
  Printf.printf "%s\n" (String.make 76 '-');
  List.iter
    (fun (name, b_ns, c_ns) ->
      Printf.printf "%-40s %12s %12s %8.2fx\n" name (pretty_ns b_ns)
        (pretty_ns c_ns) (b_ns /. c_ns))
    shared;
  let only_in which mine theirs =
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name theirs) then
          Printf.printf "benchdiff: note: %s only in %s\n" name which)
      mine
  in
  only_in "baseline" base_ns cand_ns;
  only_in "candidate" cand_ns base_ns;
  if base.mode <> "full" || cand.mode <> "full" then begin
    Printf.printf
      "benchdiff: note: %s artefact is smoke-mode (timings not meaningful), \
       regression gate skipped\n"
      (if base.mode <> "full" then "baseline" else "candidate");
    exit 0
  end;
  let limit = 1.0 +. (max_regression /. 100.0) in
  let regressions =
    List.filter (fun (_, b_ns, c_ns) -> c_ns > b_ns *. limit) shared
  in
  if regressions <> [] then begin
    List.iter
      (fun (name, b_ns, c_ns) ->
        Printf.eprintf
          "benchdiff: REGRESSION %s: %s -> %s (%.1f%% slower, threshold %.1f%%)\n"
          name (pretty_ns b_ns) (pretty_ns c_ns)
          (((c_ns /. b_ns) -. 1.0) *. 100.0)
          max_regression)
      regressions;
    exit 1
  end;
  Printf.printf
    "benchdiff: ok (%d shared kernels, none more than %.1f%% slower)\n"
    (List.length shared) max_regression

let () =
  let usage () =
    fail 2
      "usage: benchdiff check FILE.json | benchdiff [--max-regression PCT] \
       BASELINE.json CANDIDATE.json"
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "check"; path ] -> check path
  | "check" :: _ -> usage ()
  | args -> (
      let max_regression = ref 25.0 in
      let positional = ref [] in
      let rec parse_args = function
        | [] -> ()
        | "--max-regression" :: v :: tl -> (
            match float_of_string_opt v with
            | Some p when p >= 0.0 ->
                max_regression := p;
                parse_args tl
            | _ -> fail 2 ("invalid --max-regression value: " ^ v))
        | "--max-regression" :: [] -> usage ()
        | a :: tl ->
            positional := a :: !positional;
            parse_args tl
      in
      parse_args args;
      match List.rev !positional with
      | [ b; c ] -> diff ~max_regression:!max_regression b c
      | _ -> usage ())
