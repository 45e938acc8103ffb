(* divlint against its fixture corpus: each rule on known-bad and
   known-clean snippets, rule scoping by path, suppression comments, the
   project-wide analysis (R9-R11) over its own corpus, and the CLI's text
   output and exit codes. *)

module E = Divlint_lib.Engine
module A = Divlint_lib.Analysis

let fixtures_dir = "../tools/lint/fixtures"
let fixture name = Filename.concat fixtures_dir name
let project_dir = Filename.concat fixtures_dir "project"
let in_file name (f : E.finding) = Filename.basename f.E.file = name

let lines_of rule findings =
  List.filter_map
    (fun f -> if f.E.rule = rule then Some f.E.line else None)
    findings

let count rule findings = List.length (lines_of rule findings)

let check_lines = Alcotest.(check (list int))
let check_int = Alcotest.(check int)

(* ---- R1 ---- *)

let test_float_eq () =
  let fs = E.lint_file (fixture "bad_float_eq.ml") in
  check_lines "R1 lines" [ 3; 4; 5 ] (lines_of E.Float_eq fs);
  check_int "nothing else" 3 (List.length fs)

(* ---- R2 ---- *)

let test_random () =
  let fs = E.lint_file (fixture "bad_random.ml") in
  check_lines "R2 lines" [ 3; 4; 5 ] (lines_of E.Random_use fs);
  let exempt =
    E.lint_file ~relpath:"lib/numerics/rng.ml" (fixture "bad_random.ml")
  in
  check_int "rng.ml is exempt" 0 (count E.Random_use exempt)

(* ---- R3 ---- *)

let test_float_sum () =
  let fs = E.lint_file (fixture "bad_float_sum.ml") in
  check_lines "R3 lines" [ 3; 4; 5 ] (lines_of E.Float_sum fs);
  check_int "int fold not flagged" 3 (List.length fs)

(* ---- R4 ---- *)

let test_missing_mli () =
  let bad =
    E.lint_file ~relpath:"lib/core/bad_no_mli.ml" (fixture "bad_no_mli.ml")
  in
  check_int "missing mli flagged" 1 (count E.Missing_mli bad);
  let with_mli =
    E.lint_file ~relpath:"lib/core/clean.ml" (fixture "clean.ml")
  in
  check_int "present mli accepted" 0 (count E.Missing_mli with_mli);
  let outside_lib = E.lint_file (fixture "bad_no_mli.ml") in
  check_int "R4 is lib-only" 0 (count E.Missing_mli outside_lib)

(* ---- R5 ---- *)

let test_print () =
  let in_lib =
    E.lint_file ~relpath:"lib/core/bad_print.ml" (fixture "bad_print.ml")
  in
  check_lines "R5 lines" [ 3; 4; 5 ] (lines_of E.Print_effect in_lib);
  let in_report =
    E.lint_file ~relpath:"lib/report/bad_print.ml" (fixture "bad_print.ml")
  in
  check_lines "R5 fires under lib/report too" [ 3; 4; 5 ]
    (lines_of E.Print_effect in_report);
  let outside_lib = E.lint_file (fixture "bad_print.ml") in
  check_int "R5 is lib-only" 0 (count E.Print_effect outside_lib)

(* ---- R6 ---- *)

let test_partial () =
  let in_lib =
    E.lint_file ~relpath:"lib/core/bad_partial.ml" (fixture "bad_partial.ml")
  in
  check_lines "R6 lines" [ 3; 4; 5 ] (lines_of E.Partial_fun in_lib);
  let outside_lib = E.lint_file (fixture "bad_partial.ml") in
  check_int "R6 is lib-only" 0 (count E.Partial_fun outside_lib)

(* ---- R7 ---- *)

let test_wallclock () =
  let fs = E.lint_file (fixture "bad_wallclock.ml") in
  check_lines "R7 lines" [ 3; 4; 5 ] (lines_of E.Wallclock fs);
  check_int "nothing else" 3 (List.length fs);
  (* R7 applies everywhere, including lib/ and the executables... *)
  let in_lib =
    E.lint_file ~relpath:"lib/simulator/bad_wallclock.ml"
      (fixture "bad_wallclock.ml")
  in
  check_int "flagged in lib too" 3 (count E.Wallclock in_lib);
  let in_bench =
    E.lint_file ~relpath:"bench/bad_wallclock.ml" (fixture "bad_wallclock.ml")
  in
  check_int "flagged in bench" 3 (count E.Wallclock in_bench);
  (* ...except lib/obs/, the sanctioned home of the clock. *)
  let exempt =
    E.lint_file ~relpath:"lib/obs/clock.ml" (fixture "bad_wallclock.ml")
  in
  check_int "lib/obs is exempt" 0 (count E.Wallclock exempt)

(* ---- R8 ---- *)

let test_domain () =
  let fs = E.lint_file (fixture "bad_domain.ml") in
  check_lines "R8 lines" [ 3; 4; 5 ] (lines_of E.Domain_containment fs);
  check_int "Domain.self not flagged" 3 (List.length fs);
  (* R8 applies everywhere outside lib/exec/, including lib/ and tests... *)
  let in_lib =
    E.lint_file ~relpath:"lib/simulator/bad_domain.ml" (fixture "bad_domain.ml")
  in
  check_int "flagged in lib too" 3 (count E.Domain_containment in_lib);
  (* ...except lib/exec/, the sanctioned home of parallelism. *)
  let exempt =
    E.lint_file ~relpath:"lib/exec/pool.ml" (fixture "bad_domain.ml")
  in
  check_int "lib/exec is exempt" 0 (count E.Domain_containment exempt)

(* ---- clean corpus ---- *)

let test_clean () =
  let fs = E.lint_file ~relpath:"lib/core/clean.ml" (fixture "clean.ml") in
  check_int "clean file has no findings" 0 (List.length fs)

(* ---- suppressions ---- *)

let test_suppressions () =
  let fs = E.lint_file (fixture "suppressed.ml") in
  check_lines "only the unsuppressed site survives" [ 15 ]
    (List.map (fun f -> f.E.line) fs);
  check_int "and it is R1" 1 (count E.Float_eq fs)

(* ---- W1: unused suppressions ---- *)

let test_unused_suppression () =
  let fs = E.lint_file (fixture "unused_suppression.ml") in
  check_lines "W1 at the stale comment" [ 3 ]
    (lines_of E.Unused_suppression fs);
  let silenced = E.lint_file (fixture "suppressed_unused.ml") in
  check_int "meta-suppression silences the W1" 0 (List.length silenced);
  (* a project-rule suppression must not be judged stale by the per-file
     pass — only the project pass can tell whether R9-R11 fire *)
  let cross = E.lint_file (Filename.concat project_dir "driver.ml") in
  check_int "cross-mode suppressions left alone" 0
    (count E.Unused_suppression cross)

(* ---- rule scoping table ---- *)

let test_exemption_table () =
  let applies = E.rule_applies in
  Alcotest.(check bool) "R2 exempt in rng.ml" false
    (applies E.Random_use "lib/numerics/rng.ml");
  Alcotest.(check bool) "R2 applies elsewhere in lib" true
    (applies E.Random_use "lib/core/model.ml");
  Alcotest.(check bool) "R5 applies under lib/report/" true
    (applies E.Print_effect "lib/report/tables.ml");
  Alcotest.(check bool) "R5 lib-only" false (applies E.Print_effect "bench/main.ml");
  Alcotest.(check bool) "R7 exempt under lib/obs/" false
    (applies E.Wallclock "lib/obs/clock.ml");
  Alcotest.(check bool) "R8 exempt under lib/exec/" false
    (applies E.Domain_containment "lib/exec/pool.ml");
  Alcotest.(check bool) "R9 exempt under lib/exec/ too" false
    (applies E.Shared_mutable_escape "lib/exec/pool.ml");
  Alcotest.(check bool) "R9 applies in lib/obs/" true
    (applies E.Shared_mutable_escape "lib/obs/trace.ml");
  Alcotest.(check bool) "R10 applies everywhere" true
    (applies E.Rng_discipline "test/test_exec.ml");
  (* the table is the single source of truth: the lib/exec row carries
     both the domain-containment and shared-mutable exemptions *)
  let exec_rules = E.exempt_rules "lib/exec/exec.ml" in
  Alcotest.(check bool) "table row for lib/exec" true
    (List.mem E.Domain_containment exec_rules
    && List.mem E.Shared_mutable_escape exec_rules);
  Alcotest.(check bool) "exact-path row matches only that file" true
    (E.exempt_rules "lib/numerics/rng.ml" = [ E.Random_use ]
    && E.exempt_rules "lib/numerics/rng_extra.ml" = [])

(* ---- project analysis: R9 ---- *)

let test_shared_mutable () =
  let r = A.analyze_paths [ project_dir ] in
  let r9 =
    List.filter (fun f -> f.E.rule = E.Shared_mutable_escape) r.A.res_findings
  in
  check_int "three unprotected writes" 3 (List.length r9);
  Alcotest.(check bool) "direct qualified write flagged" true
    (List.exists (fun f -> in_file "driver.ml" f && f.E.line = 8) r9);
  Alcotest.(check bool) "cross-module ref write flagged at its site" true
    (List.exists (fun f -> in_file "store.ml" f && f.E.line = 16) r9);
  Alcotest.(check bool) "cross-module container write flagged" true
    (List.exists (fun f -> in_file "store.ml" f && f.E.line = 19) r9);
  (* the cross-module case is invisible to any single-file pass: the same
     analysis over store.ml alone sees an ordinary function mutating an
     ordinary ref and reports nothing *)
  let alone = A.analyze_paths [ Filename.concat project_dir "store.ml" ] in
  check_int "store.ml alone is clean" 0 (List.length alone.A.res_findings)

(* ---- project analysis: R10 ---- *)

let test_rng_discipline () =
  let r = A.analyze_paths [ project_dir ] in
  let r10 =
    List.filter (fun f -> f.E.rule = E.Rng_discipline) r.A.res_findings
  in
  check_int "three undisciplined draws" 3 (List.length r10);
  Alcotest.(check bool) "module-level stream draw flagged at its site" true
    (List.exists (fun f -> in_file "rng_bad.ml" f && f.E.line = 7) r10);
  Alcotest.(check bool) "captured parent stream flagged" true
    (List.exists (fun f -> in_file "rng_bad.ml" f && f.E.line = 13) r10);
  Alcotest.(check bool) "draw from a captured stream array flagged" true
    (List.exists (fun f -> in_file "rng_bad.ml" f && f.E.line = 26) r10);
  let good = A.analyze_paths [ Filename.concat project_dir "rng_good.ml" ] in
  check_int "split substreams pass" 0 (List.length good.A.res_findings)

(* ---- project analysis: R11 ---- *)

let test_nondet_merge () =
  let r = A.analyze_paths [ project_dir ] in
  let r11 =
    List.filter (fun f -> f.E.rule = E.Nondet_merge) r.A.res_findings
  in
  check_int "two nondeterministic merges" 2 (List.length r11);
  Alcotest.(check bool) "completion-order accumulator flagged" true
    (List.exists (fun f -> in_file "merge_bad.ml" f && f.E.line = 5) r11);
  Alcotest.(check bool) "hash-order merge flagged" true
    (List.exists (fun f -> in_file "merge_bad.ml" f && f.E.line = 13) r11);
  let good = A.analyze_paths [ Filename.concat project_dir "merge_good.ml" ] in
  check_int "index-order merge and slice writes pass" 0
    (List.length good.A.res_findings)

(* ---- project analysis: suppressions and stats ---- *)

let test_project_suppressions () =
  let r = A.analyze_paths [ project_dir ] in
  check_int "eight findings survive over the corpus" 8
    (List.length r.A.res_findings);
  let dropped rule name =
    List.exists
      (fun f -> f.E.rule = rule && in_file name f)
      r.A.res_suppressed
  in
  Alcotest.(check bool) "R9 suppressible" true
    (dropped E.Shared_mutable_escape "driver.ml");
  Alcotest.(check bool) "R10 suppressible" true
    (dropped E.Rng_discipline "rng_bad.ml");
  Alcotest.(check bool) "R11 suppressible" true
    (dropped E.Nondet_merge "merge_bad.ml");
  (* every corpus suppression matched something, so no W1 noise *)
  check_int "no stale suppressions in the corpus" 0
    (count E.Unused_suppression r.A.res_findings)

let test_project_stats () =
  let r = A.analyze_paths [ project_dir ] in
  check_int "six corpus files scanned" 6 r.A.res_stats.A.st_files;
  Alcotest.(check bool) "functions harvested" true
    (r.A.res_stats.A.st_functions > 20);
  Alcotest.(check bool) "shard-reachable functions counted" true
    (r.A.res_stats.A.st_reachable > 0);
  (* the deliberately-bad corpus must never leak into a project scan *)
  check_int "fixtures directories are excluded" 0
    (List.length (A.collect [] fixtures_dir))

(* ---- exhaustiveness: every rule has a firing and a suppressed fixture ---- *)

let test_exhaustiveness () =
  let per_file =
    Sys.readdir fixtures_dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".ml")
    |> List.map (fun n ->
           E.lint_source_full
             ~relpath:("lib/core/" ^ n)
             ~path:(fixture n)
             (E.read_file (fixture n)))
  in
  let proj = A.analyze_paths [ project_dir ] in
  let kept =
    List.concat_map (fun (o : E.outcome) -> o.kept) per_file
    @ proj.A.res_findings
  in
  let dropped =
    List.concat_map (fun (o : E.outcome) -> o.dropped) per_file
    @ proj.A.res_suppressed
  in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (E.rule_id r ^ " has a firing fixture")
        true
        (List.exists (fun f -> f.E.rule = r) kept);
      Alcotest.(check bool)
        (E.rule_id r ^ " has a suppressed fixture")
        true
        (List.exists (fun f -> f.E.rule = r) dropped))
    E.all_rules

(* ---- rendering ---- *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_rendering () =
  let fs = E.lint_file (fixture "bad_float_eq.ml") in
  let text =
    match fs with f :: _ -> E.render_finding f | [] -> Alcotest.fail "no findings"
  in
  Alcotest.(check bool)
    "text leads with file:line:col and rule tag" true
    (contains "bad_float_eq.ml:3:" text && contains "[R1 float-eq]" text)

(* ---- rule token parsing ---- *)

let test_rule_tokens () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        ("id round-trips: " ^ E.rule_id r)
        true
        (E.rule_of_token (E.rule_id r) = Some r
        && E.rule_of_token (E.rule_slug r) = Some r))
    E.all_rules;
  Alcotest.(check bool) "unknown token" true (E.rule_of_token "bogus" = None)

(* ---- the executable: exit codes over the corpus ---- *)

let divlint_exe = "../tools/lint/divlint.exe"

let run_divlint args =
  Sys.command (Filename.quote_command divlint_exe args ~stdout:"/dev/null")

let test_exit_codes () =
  check_int "known-bad corpus exits 1" 1
    (run_divlint [ fixture "bad_float_eq.ml" ]);
  check_int "clean file exits 0" 0 (run_divlint [ fixture "clean.ml" ]);
  check_int "project mode over the bad corpus exits 1" 1
    (run_divlint [ "--project"; project_dir ]);
  check_int "project mode over the good files exits 0" 0
    (run_divlint
       [
         "--project";
         Filename.concat project_dir "rng_good.ml";
         Filename.concat project_dir "merge_good.ml";
       ])

let () =
  Alcotest.run "divlint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 float-eq" `Quick test_float_eq;
          Alcotest.test_case "R2 random" `Quick test_random;
          Alcotest.test_case "R3 float-sum" `Quick test_float_sum;
          Alcotest.test_case "R4 missing-mli" `Quick test_missing_mli;
          Alcotest.test_case "R5 print" `Quick test_print;
          Alcotest.test_case "R6 partial" `Quick test_partial;
          Alcotest.test_case "R7 wallclock" `Quick test_wallclock;
          Alcotest.test_case "R8 domain-containment" `Quick test_domain;
          Alcotest.test_case "clean corpus" `Quick test_clean;
        ] );
      ( "project",
        [
          Alcotest.test_case "R9 shared-mutable-escape" `Quick
            test_shared_mutable;
          Alcotest.test_case "R10 rng-discipline" `Quick test_rng_discipline;
          Alcotest.test_case "R11 nondeterministic-merge" `Quick
            test_nondet_merge;
          Alcotest.test_case "project suppressions" `Quick
            test_project_suppressions;
          Alcotest.test_case "scan-surface stats" `Quick test_project_stats;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "comment handling" `Quick test_suppressions;
          Alcotest.test_case "W1 unused suppressions" `Quick
            test_unused_suppression;
        ] );
      ( "scoping",
        [
          Alcotest.test_case "exemption table" `Quick test_exemption_table;
          Alcotest.test_case "every rule has fixtures" `Quick
            test_exhaustiveness;
        ] );
      ( "output",
        [
          Alcotest.test_case "text" `Quick test_rendering;
          Alcotest.test_case "rule tokens" `Quick test_rule_tokens;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
        ] );
    ]
