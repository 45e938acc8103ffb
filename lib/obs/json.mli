(** Minimal JSON tree with a renderer and a parser.

    Every artefact the telemetry layer emits (metrics snapshots, Chrome
    trace files, JSONL run logs, [BENCH_kernels.json]) goes through
    {!render}. {!parse} reads the two untrusted inputs, serve requests
    and evidence run logs, and lets tests and the [benchdiff check] gate
    verify well-formedness without external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val render : t -> string
(** Compact (single-line) rendering. Non-finite floats become [null]
    since JSON has no NaN/Infinity tokens. *)

val parse : string -> (t, string) result
(** Parse one complete JSON value, with optional whitespace (space, tab,
    CR, LF) around it; anything after it is an error. Single pass, no
    allocation per byte. Not strict JSON in two places, numbers and
    [\u] escapes:

    - {b Numbers.} A number token starts at ['-'] or a digit and runs
      over every following byte in [0-9 + - . e E]. A token with no
      ['.'], ['e'] or ['E'] is an {!Int} if [int_of_string] reads it,
      and a {!Float} if only [float_of_string] does (an int past
      [max_int]). Any other token is a {!Float} if [float_of_string]
      reads it. So [01] is [Int 1], [1.] is [Float 1.], [-.5] is
      [Float (-0.5)], and [1e400] is [Float infinity]. Tokens such as
      [-], [1e], [1-2] and [1..2] are errors. Floats are read in place
      by {!Decimal.to_float}, which gives [float_of_string]'s double bit
      for bit.
    - {b Escapes.} A [\uXXXX] escape is UTF-8 encoded as the single code
      point it names. Surrogate halves are not paired. Bytes >= 0x80 pass
      through unchecked. Raw control characters (< 0x20) in strings are
      rejected.

    On failure, [Error msg] has the form ["<what> at offset <n>"], with
    [n] a byte offset into the input. The offset is the byte the parser
    stopped at: the start of an unexpected token or literal, the end of
    a bad number token, the byte after a bad escape or raw control
    character, or the input length for a truncated document. For
    example, [{ x] gives ["expected '\"' at offset 2"]. Trees and
    messages are pinned byte for byte by a differential test against
    the original byte-at-a-time parser (test/test_json.ml). *)

val member : string -> t -> t option
(** Field lookup on an {!Obj}; [None] on any other constructor. *)

val to_list : t -> t list option
val to_string : t -> string option
val to_int : t -> int option

val to_float : t -> float option
(** Also accepts {!Int}, widening to float. *)
