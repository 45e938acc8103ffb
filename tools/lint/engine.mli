(** The divlint rule engine.

    Parses [.ml] sources with compiler-libs and reports violations of the
    repo's numerical-reliability rules. Rule scoping (which rules apply to
    a file) is decided from the reported path, so callers linting files
    outside the repo layout (e.g. the fixture corpus) can override it with
    [?relpath].

    The per-file rules (R1-R8) are implemented here; the project-wide
    interprocedural rules (R9-R11) are implemented in {!Analysis} but
    share this module's rule/finding/suppression machinery. *)

type rule =
  | Float_eq  (** R1: exact float (in)equality against a float literal *)
  | Random_use  (** R2: [Stdlib.Random] outside [lib/numerics/rng.ml] *)
  | Float_sum  (** R3: naive [+.] accumulation via [fold_left] *)
  | Missing_mli  (** R4: [lib/] module without an interface file *)
  | Print_effect  (** R5: printing side effect anywhere in [lib/] *)
  | Partial_fun  (** R6: partial function ([List.hd] / [List.nth] / [Option.get]) *)
  | Wallclock
      (** R7: non-monotonic time source ([Unix.gettimeofday] / [Unix.time] /
          [Sys.time]) outside [lib/obs/] *)
  | Domain_containment
      (** R8: parallelism primitive ([Domain.spawn] / [Domain.join] / any
          [Atomic.*]) outside [lib/exec/] — ad-hoc threading bypasses the
          deterministic sharding contract *)
  | Shared_mutable_escape
      (** R9 (project-wide): module-level mutable state written from code
          reachable from a shard callback without [Atomic] / [Mutex] /
          [Domain.DLS] protection *)
  | Rng_discipline
      (** R10 (project-wide): a parent [Rng.t] captured by a shard closure,
          or draws from a module-level stream inside shard-reachable code,
          instead of a per-shard [Rng.split] substream *)
  | Nondet_merge
      (** R11 (project-wide): shard results accumulated in completion or
          hash order instead of shard-index order *)
  | Unused_suppression
      (** W1: a [(* divlint: allow ... *)] comment whose rules never fire
          on its target line *)

val syntactic_rules : rule list
(** R1-R8: the per-file rules checked by {!lint_source}. *)

val project_rules : rule list
(** R9-R11: the interprocedural rules checked by {!Analysis}. *)

val all_rules : rule list
(** Every rule, in id order (R1-R11 then W1). *)

val rule_id : rule -> string
(** ["R1"] .. ["R11"], ["W1"]. *)

val rule_slug : rule -> string
(** Stable lowercase name used in suppression comments, e.g. ["float-eq"]. *)

val rule_of_token : string -> rule option
(** Accepts a slug or a rule id, case-insensitively. *)

type finding = {
  rule : rule;
  file : string;  (** path as reported (the [?relpath] when given) *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  message : string;
}

(** {2 Rule scoping} *)

val rule_applies : rule -> string -> bool
(** [rule_applies rule relpath]: is [rule] in force for the file at
    [relpath]? Combines the rule's scope (some rules only apply under
    [lib/]) with the path-exemption table. *)

val exempt_rules : string -> rule list
(** The rules the exemption table switches off for a path. Patterns ending
    in ['/'] exempt the subtree; any other pattern matches exactly. *)

val exemption_table : (string * rule list) list
(** The table itself, exposed for tests. *)

(** {2 Suppressions} *)

type suppression_spec = Allow_all | Allow of rule list

type suppression_entry = {
  sup_line : int;  (** line the comment sits on *)
  sup_target : int;  (** line whose findings it suppresses *)
  sup_spec : suppression_spec;
  mutable sup_used : bool;
}

val scan_suppressions : string -> suppression_entry list
(** All [(* divlint: allow ... *)] comments in the source, in line order.
    A comment alone on its line targets the following line; otherwise it
    targets its own line. *)

val apply_suppressions :
  file:string ->
  checkable:rule list ->
  suppression_entry list ->
  finding list ->
  finding list * finding list
(** [(kept, suppressed)]. Marks entries used as they match. When
    [Unused_suppression] is in [checkable], entries whose listed rules are
    all in [checkable] but never matched produce W1 findings in [kept]
    (themselves suppressible). [Allow_all] entries are never W1-judged. *)

(** {2 Linting} *)

val parse_implementation : path:string -> string -> Parsetree.structure
(** Parse source text, raising on syntax errors. [path] seeds positions. *)

val read_file : string -> string

type outcome = { kept : finding list; dropped : finding list }

val lint_source_full :
  ?rules:rule list -> ?relpath:string -> path:string -> string -> outcome
(** Lint source text, returning surviving and suppressed findings.
    [rules] (default {!syntactic_rules}) selects the per-file rules to
    run; it also scopes which suppressions are W1-judged. [path] locates
    the file on disk (for the R4 interface check and parse-error
    positions); [relpath] (default [path]) scopes the rules. Raises on
    syntax errors. *)

val lint_source :
  ?rules:rule list -> ?relpath:string -> path:string -> string -> finding list
(** [lint_source_full].kept. *)

val lint_file : ?rules:rule list -> ?relpath:string -> string -> finding list
(** [lint_source] over the file's contents. *)

val lint_paths :
  ?rules:rule list -> string list -> finding list * string list * int
(** Recursively lint every [.ml] under the given files/directories
    (skipping [_build] and dot-directories). Returns findings, parse-error
    descriptions, and the number of files scanned. *)

val collect_ml_files : string list -> string -> string list
(** [collect_ml_files acc path]: accumulate every [.ml] under [path],
    skipping [_build] and dot-directories. *)

(** {2 AST helpers shared with the project analysis} *)

val path_of_lid : Longident.t -> string
val normalize : string -> string
(** Strip a leading ["Stdlib."]. *)

val last_component : string -> string
val has_prefix : prefix:string -> string -> bool

(** {2 Rendering} *)

val render_finding : finding -> string
(** [file:line:col: [R1 float-eq] message]. *)

val render_text : finding list -> string
