(** Per-file harvesting for the project-wide analysis: top-level function
    summaries (references, mutation sites, Rng draws, shard-spawn sites,
    lock usage) and closure-capture classification. Purely syntactic;
    names are resolved later by {!Analysis}. *)

type loc = { l_line : int; l_col : int }

val loc_of : Location.t -> loc

type write_kind =
  | Assign  (** [r := v], [incr]/[decr], mutable-field assignment *)
  | Indexed
      (** [a.(i) <- v], [Bytes.set], fill/blit — the sanctioned
          disjoint-slice shard-output pattern, exempt from R11 *)
  | Container  (** Hashtbl/Buffer/Queue/Stack mutation *)

val kind_word : write_kind -> string

type call = {
  c_path : string;  (** normalized callee path *)
  c_loc : loc;
  c_lambdas : (Asttypes.arg_label * Parsetree.expression) list;
}

type summary = {
  s_refs : (string * loc) list;
  s_writes : (string * write_kind * loc) list;
  s_draws : (string * loc) list;
  s_elt_draws : (string * loc) list;
      (** draws from an element of an identifier-named array, [rngs.(k)] *)
  s_spawns : (loc * Parsetree.expression list) list;
  s_calls : call list;
  s_locks : bool;
  s_hashfolds : (string * loc) list;
}

val summarize : Parsetree.expression -> summary

type capture =
  | Cap_write of string * write_kind * loc
  | Cap_draw of string * loc
  | Cap_elt_draw of string * loc
      (** a draw from an element of a captured array ([rngs.(k)]) *)

val captures : Parsetree.expression -> capture list
(** Mutation/draw sites inside a closure whose target is an unqualified
    name bound outside the closure. *)

type func = {
  f_name : string;
  f_mods : string list;
  f_file : string;
  f_loc : loc;
  f_params : string list;
  f_opt_labels : string list;
  f_summary : summary;
  f_captures : capture list;
  f_is_fun : bool;
      (** the RHS is syntactically a function; non-function bindings run
          once at module init, so references to them are not call edges *)
}

val harvest : modname:string -> file:string -> Parsetree.structure -> func list
val modname_of_file : string -> string

(** {2 Path helpers} *)

val last1 : string -> string
val last2 : string -> (string * string) option
val is_qualified : string -> bool
val is_lambda : Parsetree.expression -> bool
val is_rng_create : string -> bool
