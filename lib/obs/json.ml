(* Minimal JSON tree, renderer and parser.

   The telemetry layer (Metrics, Trace, Runlog) renders everything through
   this one module so that every artefact we emit — metrics snapshots,
   Chrome trace files, JSONL run logs, BENCH_kernels.json — is produced by
   a single audited serializer. The parser reads the serve wire protocol
   and evidence run logs, and lets tests and `benchdiff check` verify
   well-formedness without external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_repr f =
  (* JSON has no NaN/Infinity tokens; map non-finite values to null. *)
  match Float.classify_float f with
  | FP_nan | FP_infinite -> "null"
  | FP_zero | FP_normal | FP_subnormal ->
      let s = Printf.sprintf "%.17g" f in
      (* Prefer a shorter representation when it round-trips. *)
      let short = Printf.sprintf "%g" f in
      if float_of_string short = f then short else s

let rec render_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          render_into buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          render_into buf v)
        fields;
      Buffer.add_char buf '}'

let render v =
  let buf = Buffer.create 256 in
  render_into buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

(* One pass over a cursor, no per-byte allocation on the common path:
   bytes are compared in place (no [option] per peek), a string without
   escapes is a single [String.sub], and an integer of up to 18 digits
   is accumulated where it stands. Anything rarer — escapes, floats,
   long or odd numeric tokens — falls back to the general rule for that
   token, so the tree and every error message (text and offset) are
   those of the original byte-at-a-time parser, which the test suite
   keeps as a differential oracle. *)

exception Parse_failure of string

type cursor = { s : string; len : int; mutable pos : int }

let fail c msg =
  raise (Parse_failure (Printf.sprintf "%s at offset %d" msg c.pos))

let[@inline] at c ch = c.pos < c.len && String.unsafe_get c.s c.pos = ch

let[@inline] is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws c =
  while c.pos < c.len && is_ws (String.unsafe_get c.s c.pos) do
    c.pos <- c.pos + 1
  done

let[@inline] expect c ch =
  if at c ch then c.pos <- c.pos + 1
  else fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= c.len && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let utf8_encode buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex_digit c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c "invalid hex digit in \\u escape"

(* The rest of a string from the first byte the fast scan could not
   take (an escape, a raw control character, or the end of input), with
   the already-scanned prefix in [buf]. *)
let rec string_tail c buf =
  if c.pos >= c.len then fail c "unterminated string";
  let ch = c.s.[c.pos] in
  c.pos <- c.pos + 1;
  match ch with
  | '"' -> Buffer.contents buf
  | '\\' ->
      if c.pos >= c.len then fail c "unterminated escape";
      let e = c.s.[c.pos] in
      c.pos <- c.pos + 1;
      (match e with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
          if c.pos + 4 > c.len then fail c "truncated \\u escape";
          let s = c.s and p = c.pos in
          let cp =
            (hex_digit c s.[p] lsl 12)
            lor (hex_digit c s.[p + 1] lsl 8)
            lor (hex_digit c s.[p + 2] lsl 4)
            lor hex_digit c s.[p + 3]
          in
          c.pos <- p + 4;
          utf8_encode buf cp
      | _ -> fail c "invalid escape");
      string_tail c buf
  | ch when Char.code ch < 0x20 -> fail c "raw control character in string"
  | ch ->
      Buffer.add_char buf ch;
      string_tail c buf

let parse_string c =
  expect c '"';
  let s = c.s and len = c.len and start = c.pos in
  let p = ref start in
  while
    !p < len
    &&
    let ch = String.unsafe_get s !p in
    ch <> '"' && ch <> '\\' && Char.code ch >= 0x20
  do
    incr p
  done;
  if !p < len && String.unsafe_get s !p = '"' then begin
    c.pos <- !p + 1;
    String.sub s start (!p - start)
  end
  else begin
    let buf = Buffer.create (!p - start + 16) in
    Buffer.add_substring buf s start (!p - start);
    c.pos <- !p;
    string_tail c buf
  end

let[@inline] is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* A number token is the maximal run of [is_num_char] bytes. An optional
   '-' and 1..18 digits ending the token is an [Int] computed in place
   (18 digits cannot overflow); any other token is read by the general
   rule: with '.', 'e' or 'E' it must be a float, otherwise an int,
   falling back to a float when it overflows [int]. *)
let parse_number c =
  let s = c.s and len = c.len and start = c.pos in
  let neg = String.unsafe_get s start = '-' in
  let first = if neg then start + 1 else start in
  let p = ref first and acc = ref 0 in
  while
    !p < len
    && match String.unsafe_get s !p with '0' .. '9' -> true | _ -> false
  do
    acc := (!acc * 10) + (Char.code (String.unsafe_get s !p) - 48);
    incr p
  done;
  let digits = !p - first in
  if
    digits >= 1 && digits <= 18
    && not (!p < len && is_num_char (String.unsafe_get s !p))
  then begin
    c.pos <- !p;
    Int (if neg then - !acc else !acc)
  end
  else begin
    (* The digits and sign scanned so far cannot make a float. *)
    let looks_float = ref false in
    while !p < len && is_num_char (String.unsafe_get s !p) do
      (match String.unsafe_get s !p with
      | '.' | 'e' | 'E' -> looks_float := true
      | _ -> ());
      incr p
    done;
    c.pos <- !p;
    let tok = String.sub s start (!p - start) in
    if !looks_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail c (Printf.sprintf "invalid number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail c (Printf.sprintf "invalid number %S" tok))
  end

let rec parse_value c =
  skip_ws c;
  if c.pos >= c.len then fail c "unexpected end of input";
  match String.unsafe_get c.s c.pos with
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else Obj (parse_fields c)
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else List (parse_items c)
  | '"' -> String (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c (Printf.sprintf "unexpected character %C" ch)

(* Members and elements are consed in order ([@tail_mod_cons]): no
   reversal, and constant stack however long the list. *)
and[@tail_mod_cons] parse_fields c =
  skip_ws c;
  let key = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    (key, v) :: parse_fields c
  end
  else begin
    if not (at c '}') then fail c "expected ',' or '}'";
    c.pos <- c.pos + 1;
    [ (key, v) ]
  end

and[@tail_mod_cons] parse_items c =
  let v = parse_value c in
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    v :: parse_items c
  end
  else begin
    if not (at c ']') then fail c "expected ',' or ']'";
    c.pos <- c.pos + 1;
    [ v ]
  end

let parse s =
  let c = { s; len = String.length s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> c.len then fail c "trailing content after JSON value";
    v
  with
  | v -> Ok v
  | exception Parse_failure msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

(* First binding of [key]. [String.equal] rather than [List.assoc_opt]'s
   polymorphic compare: field lookup is on the run-log decode path. *)
let rec assoc key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc key rest

let member key = function Obj fields -> assoc key fields | _ -> None

let to_list = function List items -> Some items | _ -> None
let to_string = function String s -> Some s | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
