(* Differential test of Obs.Json.parse against Json_reference.parse,
   the original byte-at-a-time parser kept as an oracle.

   The two must agree on every input: the same [Ok] tree, with floats
   compared by their bits, or byte-identical [Error] text (message and
   offset). The inputs are the repository's pinned artefacts (the golden
   serve transcript and evidence verdict), a real E26 seed-42 run log
   produced in-process, hand-written edge cases of the number grammar
   and escapes, and 100k seeded byte mutations of all of those drawn
   through Prop (shrinking, PROP_SEED replay):

     PROP_SEED=1234 dune exec test/test_json.exe

   The float reader behind the parser, Obs.Decimal, has its own group:
   bit identity with [float_of_string] on edge values, a million random
   bit patterns, halfway and near-overflow tokens; its 5^q table
   re-derived row by row with a small bignum; and two mutants (a flipped
   table bit, a skipped round-to-even step) that those checks catch. *)

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

(* ------------------------------------------------------------------ *)
(* The float reader                                                   *)
(* ------------------------------------------------------------------ *)

(* [to_float] gives [float_of_string]'s double, bit for bit, and NaN
   where [float_of_string] fails. *)
let reads_like_float_of_string tok =
  let got = Obs.Decimal.to_float tok 0 (String.length tok) in
  let same =
    match float_of_string_opt tok with
    | Some f -> Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float f)
    | None -> Float.is_nan got
  in
  if not same then
    failwith
      (Printf.sprintf "%S: Decimal.to_float gives %h, float_of_string %s" tok got
         (match float_of_string_opt tok with
         | Some f -> Printf.sprintf "%h" f
         | None -> "fails"))

(* The renderings the repository's artefacts use, wider ones, and hex
   (which only [float_of_string] reads). *)
let renderings x =
  List.map
    (fun fmt -> Printf.sprintf fmt x)
    [ "%.17g"; "%.16g"; "%.15g"; "%g"; "%.6g"; "%.25e"; "%.40g"; "%h" ]

let test_float_edges () =
  List.iter
    (fun (_, a, b, _) ->
      List.iter
        (fun x -> List.iter reads_like_float_of_string (renderings x @ renderings (-.x)))
        [ a; b ])
    Prop.float_edges;
  List.iter reads_like_float_of_string
    [
      "0"; "-0"; "0.0"; "-0.0"; "0e999999999999"; "1e-400"; "-1e-400"; "1e400";
      "4.9406564584124654e-324"; "2.4703282292062327e-324";
      "2.4703282292062328e-324"; "2.2250738585072014e-308";
      "2.2250738585072011e-308"; "1.7976931348623157e308";
      "1.7976931348623158e308"; "1.7976931348623159e308";
      (* just below the midpoint of max_float and 2^1024 *)
      "179769313486231580793728971405303415079934132710037826936173778980444968292764750946649017977587207096330286416692887910946555547851940402630657488671505820681908902000708383676273854845817711531764475730270069855571366959622842914819860834936475292719074168444365510704342711559699508093042880177904174497791.9999999999999999999999999999999999999999999999999999999999999999999999";
      "9007199254740993"; "9007199254740993.0"; "9007199254740995e0";
      "4503599627370496.5"; "2251799813685248.25"; "1e23"; "8.98846567431158e307";
      "123456789012345678"; "1234567890123456789"; "0.000000000000000000001234";
      "1."; ".5"; "-.5"; "01"; "1e"; "1e+"; "-"; "--1"; "1-2"; "1..2"; "1e5e5"; "";
      "nan"; "inf"; "-inf"; "0x1p3"; "1_000.5";
      (* a long fraction offsets a long exponent *)
      "0." ^ String.make 200_000 '0' ^ "1e200005";
      "1" ^ String.make 200_000 '0' ^ "e-200003";
    ]

(* A case is [patterns_per_case] random doubles, so a million draws take
   a thousand Prop cases. *)
let patterns_per_case = 1000

let bit_patterns =
  Prop.make
    ~pp:(fun ppf a -> Format.fprintf ppf "%d patterns from %h" (Array.length a) a.(0))
    (fun rng -> Array.init patterns_per_case (fun _ -> Int64.float_of_bits (Numerics.Rng.next_int64 rng)))

let test_random_bit_patterns () =
  Prop.check ~cases:1000 "to_float == float_of_string on %.17g and %g of 10^6 doubles"
    bit_patterns
    (Array.iter (fun x ->
         reads_like_float_of_string (Printf.sprintf "%.17g" x);
         reads_like_float_of_string (Printf.sprintf "%g" x)))

(* A tie: the odd 54-bit integer m times 2^u, exactly halfway between
   two adjacent doubles, written as the token w * 10^q with at most 18
   significant digits and w > 2^53, so Eisel-Lemire itself must round it.
   The token is [m * 2^u] for u = 0..5, [5m]e-1 and [25m]e-2 for u = -1
   and -2, and [r * 2^k]e[t] for m = r * 5^t, u = k + t. *)
type tie = { m : int; u : int; w : int; q : int }

let halfway =
  Prop.make
    ~pp:(fun ppf t -> Format.fprintf ppf "%de%d" t.w t.q)
    (fun rng ->
      let odd54 () = (1 lsl 53) lor (Numerics.Rng.int rng (1 lsl 52) lsl 1) lor 1 in
      match Numerics.Rng.int rng 4 with
      | 0 ->
          let m = odd54 () and k = Numerics.Rng.int rng 6 in
          { m; u = k; w = m lsl k; q = 0 }
      | 1 -> let m = odd54 () in { m; u = -1; w = m * 5; q = -1 }
      | 2 -> let m = odd54 () in { m; u = -2; w = m * 25; q = -2 }
      | _ ->
          (* r * 5^t must be an odd 54-bit integer *)
          let t = 1 + Numerics.Rng.int rng 23 in
          let p5 = int_of_float (5.0 ** float_of_int t) in
          let lo = ((1 lsl 53) + p5 - 1) / p5 and hi = ((1 lsl 54) - 1) / p5 in
          let r = lo + Numerics.Rng.int rng (hi - lo + 1) in
          let r = if r land 1 = 0 then (if r + 1 <= hi then r + 1 else r - 1) else r in
          let k = Numerics.Rng.int rng 3 in
          { m = r * p5; u = k + t; w = r lsl k; q = t })

(* The double a tie rounds to: of its neighbours (m - 1) / 2 * 2^(u + 1)
   and (m + 1) / 2 * 2^(u + 1), the one with an even mantissa, or the
   upper one for a reader that skips the round-to-even step. *)
let tie_rounded ~even t =
  let down = t.m / 2 in
  Float.ldexp (float_of_int (if even && down land 1 = 0 then down else down + 1)) (t.u + 1)

let rounds_to_even reader t =
  let tok = Printf.sprintf "%de%d" t.w t.q in
  let want = float_of_string tok in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  if not (same want (tie_rounded ~even:true t)) then
    failwith (Printf.sprintf "%s: not the tie m * 2^u = %d * 2^%d" tok t.m t.u);
  let got = reader t in
  if not (same got want) then
    failwith (Printf.sprintf "%s: reader gives %h, float_of_string %h" tok got want);
  reads_like_float_of_string tok

let test_halfway () =
  Prop.check ~cases:20_000 "Eisel-Lemire rounds halfway tokens to even" halfway
    (rounds_to_even (fun t -> Obs.Decimal.eisel_lemire t.w t.q))

(* Within a few ulps of the largest double and of the smallest normal
   one: 17 random significant digits at the exponents where the result
   crosses to infinity or to a subnormal. *)
let near_limits =
  Prop.make ~pp:Format.pp_print_string (fun rng ->
      let digits = Printf.sprintf "%017d" (Numerics.Rng.int rng 100_000_000_000_000_000) in
      let exp =
        match Numerics.Rng.int rng 2 with
        | 0 -> 306 + Numerics.Rng.int rng 4
        | _ -> -309 - Numerics.Rng.int rng 17
      in
      Printf.sprintf "%c.%se%d" (Char.chr (49 + Numerics.Rng.int rng 9)) digits exp)

let test_near_limits () =
  Prop.check ~cases:20_000 "near-overflow and near-underflow tokens" near_limits
    reads_like_float_of_string

(* Little-endian limbs of 24 bits, no high zero limbs; enough bignum to
   re-derive the 5^q table. *)
module Big = struct
  let bits = 24
  let mask = (1 lsl bits) - 1

  let trim a =
    let n = ref (Array.length a) in
    while !n > 0 && a.(!n - 1) = 0 do decr n done;
    Array.sub a 0 !n

  let one = [| 1 |]

  let mul_small a k =
    let r = Array.make (Array.length a + 1) 0 and carry = ref 0 in
    Array.iteri
      (fun i d ->
        let v = (d * k) + !carry in
        r.(i) <- v land mask;
        carry := v lsr bits)
      a;
    r.(Array.length a) <- !carry;
    trim r

  let add_one a =
    let r = Array.append a [| 0 |] in
    let i = ref 0 in
    while r.(!i) = mask do r.(!i) <- 0; incr i done;
    r.(!i) <- r.(!i) + 1;
    trim r

  let compare a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then compare la lb
    else
      let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
      go (la - 1)

  (* a - b for a >= b *)
  let sub a b =
    let r = Array.copy a and borrow = ref 0 in
    Array.iteri
      (fun i d ->
        let v = d - (if i < Array.length b then b.(i) else 0) - !borrow in
        if v < 0 then (r.(i) <- v + (1 lsl bits); borrow := 1)
        else (r.(i) <- v; borrow := 0))
      a;
    trim r

  let bit a i = i / bits < Array.length a && (a.(i / bits) lsr (i mod bits)) land 1 = 1

  let bit_length a =
    match Array.length a with
    | 0 -> 0
    | n ->
        let top = ref a.(n - 1) and k = ref 0 in
        while !top > 0 do top := !top lsr 1; incr k done;
        ((n - 1) * bits) + !k

  (* Bit by bit: a * 2^k for k >= 0, floor(a / 2^-k) for k < 0. *)
  let shift a k =
    let n = bit_length a + k in
    if n <= 0 then [||]
    else begin
      let r = Array.make ((n + bits - 1) / bits) 0 in
      for i = max 0 k to n - 1 do
        if bit a (i - k) then r.(i / bits) <- r.(i / bits) lor (1 lsl (i mod bits))
      done;
      trim r
    end

  let double a = mul_small a 2

  (* floor(2^b / p), by binary long division. *)
  let div_pow2 b p =
    let q = Array.make ((b / bits) + 1) 0 and r = ref [||] in
    for i = b downto 0 do
      r := if i = b then one else double !r;
      if compare !r p >= 0 then begin
        r := sub !r p;
        q.(i / bits) <- q.(i / bits) lor (1 lsl (i mod bits))
      end
    done;
    trim q

  (* Bits [from, from + 64) as an int64. *)
  let word a from =
    let w = ref 0L in
    for i = 63 downto 0 do
      w := Int64.logor (Int64.shift_left !w 1) (if bit a (from + i) then 1L else 0L)
    done;
    !w
end

(* fast_float's generation rule for the row of 5^q, as (high, low). *)
let derive_row q =
  let p = ref Big.one in
  for _ = 1 to abs q do p := Big.mul_small !p 5 done;
  let p = !p in
  let row =
    if q >= 0 then Big.shift p (128 - Big.bit_length p)
    else
      let z = Big.bit_length p in
      let b = if q >= -27 then z + 127 else (2 * z) + 128 in
      let c = Big.add_one (Big.div_pow2 b p) in
      Big.shift c (min 0 (128 - Big.bit_length c))
  in
  (Big.word row 64, Big.word row 0)

let table_rows = 651
let derived_rows = lazy (Array.init table_rows (fun k -> derive_row (k - 342)))

(* The q of every row of [table] that is not the derived one. *)
let table_mismatches table =
  let rows = Lazy.force derived_rows in
  List.filter_map
    (fun k ->
      let hi, lo = rows.(k) in
      if
        Int64.equal hi (String.get_int64_be table (16 * k))
        && Int64.equal lo (String.get_int64_be table ((16 * k) + 8))
      then None
      else Some (k - 342))
    (List.init table_rows Fun.id)

let test_table_derived () =
  Alcotest.(check int) "651 rows of 16 bytes" (16 * table_rows)
    (String.length Obs.Decimal.pow5_128);
  Alcotest.(check (list int)) "rows that differ from the derivation" []
    (table_mismatches Obs.Decimal.pow5_128)

(* The checks above catch a damaged table, and a reader that skips the
   round-to-even step (so rounds every tie up). *)
let test_mutants_caught () =
  Prop.check ~cases:50 "any flipped table bit is caught" (Prop.int_range 0 ((16 * table_rows * 8) - 1))
    (fun i ->
      let t = Bytes.of_string Obs.Decimal.pow5_128 in
      Bytes.set t (i / 8) (Char.chr (Char.code (Bytes.get t (i / 8)) lxor (1 lsl (i mod 8))));
      if table_mismatches (Bytes.to_string t) = [] then failwith "flipped bit not caught");
  match Prop.find_counterexample ~cases:20_000 halfway (rounds_to_even (tie_rounded ~even:false)) with
  | Some _ -> ()
  | None -> Alcotest.fail "a reader without round-to-even passes the halfway check"

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
      ( "decimal",
        [
          Alcotest.test_case "edge values and tokens" `Quick test_float_edges;
          Alcotest.test_case "10^6 random bit patterns" `Quick test_random_bit_patterns;
          Alcotest.test_case "halfway tokens" `Quick test_halfway;
          Alcotest.test_case "near-overflow tokens" `Quick test_near_limits;
          Alcotest.test_case "5^q table re-derived" `Quick test_table_derived;
          Alcotest.test_case "mutants caught" `Quick test_mutants_caught;
        ] );
    ]
