(* Differential test of Obs.Json.parse against Json_reference.parse,
   the original byte-at-a-time parser kept as an oracle.

   The two must agree on every input: the same [Ok] tree, with floats
   compared by their bits, or byte-identical [Error] text (message and
   offset). The inputs are the repository's pinned artefacts (the golden
   serve transcript and evidence verdict), a real E26 seed-42 run log
   produced in-process, hand-written edge cases of the number grammar
   and escapes, and 100k seeded byte mutations of all of those drawn
   through Prop (shrinking, PROP_SEED replay):

     PROP_SEED=1234 dune exec test/test_json.exe *)

let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Agreement                                                          *)
(* ------------------------------------------------------------------ *)

let rec same_tree (a : Obs.Json.t) (b : Obs.Json.t) =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | String x, String y -> String.equal x y
  | List xs, List ys -> List.equal same_tree xs ys
  | Obj xs, Obj ys ->
      List.equal (fun (k, v) (k', v') -> String.equal k k' && same_tree v v') xs ys
  | _ -> false

let describe = function
  | Ok t ->
      let r = Obs.Json.render t in
      if String.length r > 200 then "Ok " ^ String.sub r 0 200 ^ "..." else "Ok " ^ r
  | Error e -> "Error " ^ e

(* Raises (for Prop) with both answers when the parsers disagree. *)
let agree line =
  let got = Obs.Json.parse line and want = Json_reference.parse line in
  let same =
    match (got, want) with
    | Ok a, Ok b -> same_tree a b
    | Error a, Error b -> String.equal a b
    | _ -> false
  in
  if not same then
    failwith
      (Printf.sprintf "parse disagrees with the reference\n  got:  %s\n  want: %s"
         (describe got) (describe want))

let agree_all name lines =
  List.iteri
    (fun i line ->
      match agree line with
      | () -> ()
      | exception Failure msg -> Alcotest.failf "%s, line %d: %s" name (i + 1) msg)
    lines

(* ------------------------------------------------------------------ *)
(* Corpora                                                            *)
(* ------------------------------------------------------------------ *)

(* Next to the executable under `dune runtest`; from the repository root
   under a bare `dune exec test/test_json.exe`, which copies no deps. *)
let test_file path =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) path in
  if Sys.file_exists beside then beside else Filename.concat "test" path

let file_lines path =
  let ic = open_in_bin (test_file path) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let serve_golden = lazy (file_lines "golden/serve_session_seed42.jsonl")
let evidence_golden = lazy (file_lines "golden/evidence_seed42.json")

(* The events of `run E26 --seed 42 --shards 1 --log`, made in-process
   (the CLI adds only the run.start/run.end envelope): 800 short
   fleet.plant lines, 2 fleet.observe lines and 800 runner.run lines
   carrying a 1600-bin demand histogram (about 15 KB each). *)
let e26_log =
  lazy
    (let exp =
       match Experiments.Registry.find "E26" with
       | Some e -> e
       | None -> Alcotest.fail "E26 is not registered"
     in
     let shards = Exec.default_shards () in
     let path = Filename.temp_file "e26_runlog" ".jsonl" in
     Fun.protect
       ~finally:(fun () -> Sys.remove path)
       (fun () ->
         let oc = open_out path in
         Exec.set_default_shards 1;
         Obs.Runlog.set_sink (Some (Obs.Runlog.create_streaming oc));
         Fun.protect
           ~finally:(fun () ->
             Obs.Runlog.set_sink None;
             close_out oc;
             Exec.set_default_shards shards)
           (fun () -> ignore (exp.Experiments.Experiment.run ~seed:42));
         In_channel.with_open_bin path In_channel.input_all
         |> String.split_on_char '\n'
         |> List.filter (fun l -> l <> "")))

(* Inputs at the edges of the grammar. Each is also fuzzed below. *)
let edge_cases =
  [
    ""; " "; "{"; "}"; "["; "]"; "{}"; "[]"; " { } "; "[ ]"; "{\"a\":}";
    "{\"a\":1,}"; "[1,]"; "[1 2]"; "{\"a\" 1}"; "{1:2}"; "{\"a\":1"; "[1";
    "\"abc"; "\"a\\"; "\"\\q\""; "\"\\u12\""; "\"\\u12G4\""; "\"\\u00e9\"";
    "\"\\ud83d\\ude00\""; "\"\\uFFFF\""; "\"a\\n\\t\\r\\b\\f\\/\\\\\\\"\"";
    "\"raw\ttab\""; "\"nul\000\""; "\"caf\xc3\xa9\""; "true"; "false"; "null";
    "tru"; "nul"; "falsey"; "True"; "0"; "-0"; "01"; "007"; "-"; "--1"; "+1";
    "1."; "-.5"; ".5"; "1e"; "1e5"; "1E+5"; "1e-5"; "1e400"; "-1e400";
    "1.5e308"; "4.9e-324"; "1-2"; "1+2"; "1..2"; "1ee2"; "123456789012345678";
    "-123456789012345678"; "1234567890123456789"; "4611686018427387903";
    "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
    "99999999999999999999"; "0.1"; "0.30000000000000004"; "2.5e-08";
    "[0,-1,2.0,3e0]"; "1 "; " 1"; "1 2"; "{\"a\":1} x"; "\"\""; "[[[[]]]]";
    "{\"a\":{\"b\":[{\"c\":null}]}}"; "{\"a\":1,\"a\":2}"; "\r\n\t[\r\n1\t]\n";
    "x"; "\000"; "[\000]"; "nan"; "Infinity"; "{ not json";
  ]

(* ------------------------------------------------------------------ *)
(* Tests                                                              *)
(* ------------------------------------------------------------------ *)

let test_serve_golden () = agree_all "serve transcript" (Lazy.force serve_golden)

let test_evidence_golden () =
  agree_all "evidence verdict" (Lazy.force evidence_golden)

let test_e26_log () =
  let lines = Lazy.force e26_log in
  Alcotest.(check int) "E26 seed-42 run log has 1602 events" 1602 (List.length lines);
  agree_all "E26 run log" lines

let test_edge_cases () = agree_all "edge case" edge_cases

(* The number grammar and error contract documented in json.mli. *)
let test_documented_behaviour () =
  let show s = describe (Obs.Json.parse s) in
  check_string "leading zero is an int" "Ok 1" (show "01");
  check_string "trailing dot is a float" "Ok 1" (show "1.");
  check_string "bare fraction after -" "Ok -0.5" (show "-.5");
  (match Obs.Json.parse "1e400" with
  | Ok (Obs.Json.Float f) when f > Float.max_float -> ()
  | r -> Alcotest.failf "1e400: %s" (describe r));
  (match Obs.Json.parse "4611686018427387904" with
  | Ok (Obs.Json.Float _) -> ()
  | r -> Alcotest.failf "int overflow: %s" (describe r));
  check_string "golden serve error" "Error expected '\"' at offset 2"
    (show "{ not json");
  check_string "bad number offset is its end" "Error invalid number \"1e\" at offset 2"
    (show "1e");
  check_string "unexpected end" "Error unexpected end of input at offset 1" (show " ");
  check_string "trailing content" "Error trailing content after JSON value at offset 2"
    (show "1 2")

(* [member] finds the first binding of a key, as [List.assoc_opt] does,
   and only on objects. *)
let test_member () =
  let doc = Obs.Json.Obj [ ("a", Obs.Json.Int 1); ("b", Obs.Json.Int 2); ("a", Obs.Json.Int 3) ] in
  let show = function Some v -> describe (Ok v) | None -> "None" in
  check_string "first binding of a duplicate key" "Ok 1" (show (Obs.Json.member "a" doc));
  check_string "later key" "Ok 2" (show (Obs.Json.member "b" doc));
  check_string "absent key" "None" (show (Obs.Json.member "c" doc));
  check_string "not an object" "None"
    (show (Obs.Json.member "a" (Obs.Json.List [ Obs.Json.Int 1 ])))

(* The mutation corpus: every pinned and edge-case line, with the E26
   lines split by shape so the 800 long histogram lines are a sixth of
   the draws, not half (they cost ~100x a short line). The edge cases
   are drawn twice as often as the other groups: they reach the most
   branches per byte. *)
let fuzz_corpus () =
  let long, short =
    List.partition (fun l -> String.length l > 1024) (Lazy.force e26_log)
  in
  Array.map Array.of_list
    [|
      Lazy.force serve_golden;
      Lazy.force evidence_golden;
      short;
      long;
      edge_cases;
      edge_cases;
    |]

let fuzz_cases = 100_000

let test_fuzz () =
  let corpus = fuzz_corpus () in
  Prop.check ~cases:fuzz_cases
    (Printf.sprintf "parse == reference on mutated lines (%d cases)" fuzz_cases)
    (Prop.mutant corpus)
    (fun m -> agree (Prop.mutant_line corpus m))

let () =
  Alcotest.run "json"
    [
      ( "corpus",
        [
          Alcotest.test_case "golden serve transcript" `Quick test_serve_golden;
          Alcotest.test_case "golden evidence verdict" `Quick test_evidence_golden;
          Alcotest.test_case "E26 seed-42 run log" `Quick test_e26_log;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "documented number grammar and errors" `Quick
            test_documented_behaviour;
          Alcotest.test_case "member takes the first binding" `Quick test_member;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "mutations vs reference (100k cases)" `Quick test_fuzz;
        ] );
    ]
