(* divlint command line.

   Per-file mode (default): lint the given files/directories (default:
   the repo's source trees) with the syntactic rules R1-R8 (+W1) and
   exit 1 on any finding, 2 on parse errors.

   Project mode (--project): load every .ml under the roots (default:
   lib bin tools test bench) in one pass and run the interprocedural
   determinism rules R9-R11 (+W1); same exit codes, plus a scan-surface
   summary on stderr so a silently-shrinking scan is visible in CI. *)

let default_roots = [ "lib"; "bin"; "bench"; "examples" ]
let project_default_roots = [ "lib"; "bin"; "tools"; "test"; "bench" ]

let usage = "divlint [--project] [path ...]"

let () =
  let project = ref false in
  let paths = ref [] in
  let spec =
    [
      ("--project", Arg.Set project,
       " run the whole-project interprocedural analysis (R9-R11)");
    ]
  in
  Arg.parse (Arg.align spec) (fun p -> paths := p :: !paths) usage;
  let roots =
    match List.rev !paths with
    | [] ->
        List.filter Sys.file_exists
          (if !project then project_default_roots else default_roots)
    | ps -> ps
  in
  let findings, errors, summary =
    if !project then begin
      let r = Divlint_lib.Analysis.analyze_paths roots in
      let s = r.Divlint_lib.Analysis.res_stats in
      ( r.Divlint_lib.Analysis.res_findings,
        r.Divlint_lib.Analysis.res_errors,
        fun n ->
          Printf.sprintf
            "divlint --project: %d file(s), %d function(s), %d \
             shard-reachable, %d finding(s)"
            s.Divlint_lib.Analysis.st_files
            s.Divlint_lib.Analysis.st_functions
            s.Divlint_lib.Analysis.st_reachable n )
    end
    else begin
      let findings, errors, scanned =
        Divlint_lib.Engine.lint_paths roots
      in
      ( findings,
        errors,
        fun n -> Printf.sprintf "divlint: %d finding(s) in %d file(s)" n scanned
      )
    end
  in
  List.iter prerr_endline errors;
  print_string (Divlint_lib.Engine.render_text findings);
  prerr_endline (summary (List.length findings));
  if errors <> [] then exit 2 else if findings <> [] then exit 1
