(** Exact decimal-to-double conversion of number tokens, for {!Json}.

    {!to_float} reads a token with Clinger's fast path and then the
    Eisel–Lemire algorithm (Lemire, "Number Parsing at a Gigabyte per
    Second", 2021), and hands everything neither step decides to
    [float_of_string]. Its answer is [float_of_string]'s, bit for bit. *)

val to_float : string -> int -> int -> float
(** [to_float s start stop] reads the bytes [s.[start]] .. [s.[stop - 1]]
    as [float_of_string] would, or returns [nan] where [float_of_string]
    fails. No token that [float_of_string] reads is NaN unless it spells
    one ([nan], [NaN], ...), so a caller whose tokens are drawn from
    [0-9 + - . e E] can take [nan] for "not a number". Raises
    [Invalid_argument] if the range is not within [s]. *)

(** {1 Internals, exposed for the tests}

    The test suite re-derives every table row, and checks that the
    algorithm itself rounds ties to even rather than leaving them to
    [float_of_string]. *)

val pow5_128 : string
(** 5{^q} for q in \[-342, 308\]: one 16-byte row per q, high then low
    64-bit word, big-endian, built by fast_float's generation rule. *)

val eisel_lemire : int -> int -> float
(** [eisel_lemire w q] is w·10{^q} rounded to the nearest double, ties
    to even, for 0 < w < 10{^18} and q in \[-342, 308\], computed from
    {!pow5_128}; [nan] when 128 bits cannot decide, or the result is
    subnormal, zero or infinite. *)
