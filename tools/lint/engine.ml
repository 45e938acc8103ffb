(* divlint — numerical-reliability static analysis for this repo.

   Parses every .ml with compiler-libs and walks the Parsetree with
   Ast_iterator, enforcing the project rules documented in README.md
   ("Static analysis"). The per-file checks (R1-R8) are deliberately
   syntactic: they run before type-checking, need no build context, and
   therefore work on any parseable source file, including the known-bad
   fixture corpus. The project-wide rules (R9-R11) live in Analysis,
   which builds on the same finding/suppression machinery here. *)

type rule =
  | Float_eq (* R1: exact float (in)equality against a float literal *)
  | Random_use (* R2: Stdlib.Random outside lib/numerics/rng.ml *)
  | Float_sum (* R3: naive +. accumulation via fold_left *)
  | Missing_mli (* R4: lib module without an interface file *)
  | Print_effect (* R5: printing side effect in lib/ outside lib/report/ *)
  | Partial_fun (* R6: partial function (List.hd / List.nth / Option.get) *)
  | Wallclock (* R7: non-monotonic time source outside lib/obs/ *)
  | Domain_containment (* R8: Domain/Atomic primitive outside lib/exec/ *)
  | Shared_mutable_escape
    (* R9: module-level mutable state written from shard-reachable code *)
  | Rng_discipline
    (* R10: parent/global Rng stream drawn from inside shard code *)
  | Nondet_merge
    (* R11: shard results accumulated outside shard-index order *)
  | Unused_suppression
    (* W1: a divlint-allow comment whose rule never fires on its line *)

let syntactic_rules =
  [
    Float_eq;
    Random_use;
    Float_sum;
    Missing_mli;
    Print_effect;
    Partial_fun;
    Wallclock;
    Domain_containment;
  ]

let project_rules = [ Shared_mutable_escape; Rng_discipline; Nondet_merge ]
let all_rules = syntactic_rules @ project_rules @ [ Unused_suppression ]

let rule_id = function
  | Float_eq -> "R1"
  | Random_use -> "R2"
  | Float_sum -> "R3"
  | Missing_mli -> "R4"
  | Print_effect -> "R5"
  | Partial_fun -> "R6"
  | Wallclock -> "R7"
  | Domain_containment -> "R8"
  | Shared_mutable_escape -> "R9"
  | Rng_discipline -> "R10"
  | Nondet_merge -> "R11"
  | Unused_suppression -> "W1"

let rule_slug = function
  | Float_eq -> "float-eq"
  | Random_use -> "random"
  | Float_sum -> "float-sum"
  | Missing_mli -> "missing-mli"
  | Print_effect -> "print"
  | Partial_fun -> "partial"
  | Wallclock -> "wallclock"
  | Domain_containment -> "domain-containment"
  | Shared_mutable_escape -> "shared-mutable-escape"
  | Rng_discipline -> "rng-discipline"
  | Nondet_merge -> "nondeterministic-merge"
  | Unused_suppression -> "unused-suppression"

let rule_of_token tok =
  let tok = String.lowercase_ascii (String.trim tok) in
  List.find_opt
    (fun r ->
      String.lowercase_ascii (rule_id r) = tok || rule_slug r = tok)
    all_rules

type finding = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  message : string;
}

(* ------------------------------------------------------------------ *)
(* Rule scoping                                                       *)
(* ------------------------------------------------------------------ *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

type scope = Everywhere | Lib_only

let rule_scope = function
  | Missing_mli | Print_effect | Partial_fun -> Lib_only
  | _ -> Everywhere

(* The single source of truth for path-based rule exemptions: which rules
   are switched off under which trees. A pattern ending in '/' exempts
   the whole subtree; any other pattern must match the path exactly.
   R1-R11 all consult this table (W1 applies everywhere). *)
let exemption_table =
  [
    ("lib/numerics/rng.ml", [ Random_use ]);
    ("lib/report/", [ Print_effect ]);
    ("lib/obs/", [ Wallclock ]);
    ("lib/exec/", [ Domain_containment; Shared_mutable_escape ]);
  ]

let exempt_rules relpath =
  List.concat_map
    (fun (pat, rules) ->
      let matches =
        if pat <> "" && pat.[String.length pat - 1] = '/' then
          has_prefix ~prefix:pat relpath
        else relpath = pat
      in
      if matches then rules else [])
    exemption_table

let rule_applies rule relpath =
  (match rule_scope rule with
  | Everywhere -> true
  | Lib_only -> has_prefix ~prefix:"lib/" relpath)
  && not (List.mem rule (exempt_rules relpath))

(* ------------------------------------------------------------------ *)
(* Suppression comments                                               *)
(* ------------------------------------------------------------------ *)

(* A comment of the form "divlint: allow float-eq" suppresses matching
   findings on its line; when the comment is the only thing on its line it
   suppresses the following line instead. Several slugs (or rule ids, or
   "all") may be listed, separated by spaces or commas. Each comment is
   tracked individually so that a suppression which never fires can
   itself be reported (W1). *)

type suppression_spec = Allow_all | Allow of rule list

type suppression_entry = {
  sup_line : int; (* line the comment sits on *)
  sup_target : int; (* line whose findings it suppresses *)
  sup_spec : suppression_spec;
  mutable sup_used : bool;
}

let suppression_re =
  Str.regexp
    "(\\*[ \t]*divlint[ \t]*:[ \t]*allow[ \t]+\\([A-Za-z0-9, \t-]+\\)\\*)"

let is_blank s = String.trim s = ""

let parse_suppression_tokens text =
  let tokens =
    Str.split (Str.regexp "[ \t,]+") text
    |> List.filter (fun t -> t <> "")
  in
  if List.exists (fun t -> String.lowercase_ascii t = "all") tokens then
    Some Allow_all
  else
    match List.filter_map rule_of_token tokens with
    | [] -> None
    | rules -> Some (Allow rules)

let scan_suppressions source =
  let entries = ref [] in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun i line ->
      match Str.search_forward suppression_re line 0 with
      | exception Not_found -> ()
      | start ->
          let matched = Str.matched_string line in
          let tokens = Str.matched_group 1 line in
          (match parse_suppression_tokens tokens with
          | None -> ()
          | Some spec ->
              let stop = start + String.length matched in
              let before = String.sub line 0 start in
              let after =
                String.sub line stop (String.length line - stop)
              in
              let standalone = is_blank before && is_blank after in
              let target = (i + 1) + if standalone then 1 else 0 in
              entries :=
                {
                  sup_line = i + 1;
                  sup_target = target;
                  sup_spec = spec;
                  sup_used = false;
                }
                :: !entries))
    lines;
  List.rev !entries

let spec_allows spec rule =
  match spec with Allow_all -> true | Allow rules -> List.mem rule rules

(* Partition [findings] into (kept, suppressed) under [entries], marking
   each entry that suppresses something as used; then report entries that
   are judged unused as W1 findings. An entry is only judged when every
   rule it lists was actually checkable in this run — a per-file pass
   cannot tell whether a project-rule suppression is stale and vice
   versa. [Allow_all] entries are never judged (no single pass checks
   every rule). W1 findings are themselves suppressible: meta-suppressions
   are consumed first so that silencing a W1 does not beget another. *)
let apply_suppressions ~file ~checkable entries findings =
  let suppress f =
    let hit = ref false in
    List.iter
      (fun e ->
        if e.sup_target = f.line && spec_allows e.sup_spec f.rule then begin
          e.sup_used <- true;
          hit := true
        end)
      entries;
    !hit
  in
  let kept, dropped = List.partition (fun f -> not (suppress f)) findings in
  if not (List.mem Unused_suppression checkable) then (kept, dropped)
  else begin
    let warning e =
      let listed =
        match e.sup_spec with
        | Allow_all -> "all"
        | Allow rules -> String.concat ", " (List.map rule_slug rules)
      in
      {
        rule = Unused_suppression;
        file;
        line = e.sup_line;
        col = 0;
        message =
          Printf.sprintf
            "suppression (allow %s) never matched a finding on its target \
             line in this run; remove it or fix the rule list"
            listed;
      }
    in
    let judged e =
      (not e.sup_used)
      &&
      match e.sup_spec with
      | Allow_all -> false
      | Allow rules -> List.for_all (fun r -> List.mem r checkable) rules
    in
    let mentions_w1 e =
      match e.sup_spec with
      | Allow_all -> false
      | Allow rules -> List.mem Unused_suppression rules
    in
    (* Stage 1: ordinary stale suppressions; filtering these marks any
       meta-suppression that silences them as used. *)
    let stage1 =
      entries
      |> List.filter (fun e -> judged e && not (mentions_w1 e))
      |> List.map warning
    in
    let kept1, dropped1 =
      List.partition (fun f -> not (suppress f)) stage1
    in
    (* Stage 2: meta-suppressions that are still unused after stage 1. *)
    let stage2 =
      entries
      |> List.filter (fun e -> judged e && mentions_w1 e)
      |> List.map warning
    in
    let kept2, dropped2 =
      List.partition (fun f -> not (suppress f)) stage2
    in
    (kept @ kept1 @ kept2, dropped @ dropped1 @ dropped2)
  end

(* ------------------------------------------------------------------ *)
(* AST helpers                                                        *)
(* ------------------------------------------------------------------ *)

let path_of_lid lid = String.concat "." (Longident.flatten lid)

let normalize path =
  if has_prefix ~prefix:"Stdlib." path then
    String.sub path 7 (String.length path - 7)
  else path

let last_component path =
  match String.rindex_opt path '.' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

let rec is_float_literal (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident ("~-." | "~+."); _ }; _ },
        [ (_, arg) ] ) ->
      is_float_literal arg
  | _ -> false

let fold_left_paths =
  [
    "List.fold_left";
    "Array.fold_left";
    "ListLabels.fold_left";
    "ArrayLabels.fold_left";
    "Seq.fold_left";
  ]

(* [( +. )] itself, or an eta-expanded accumulator [fun acc x -> acc +. x]
   (possibly with the operands swapped or through more parameters). Note
   operator names contain a dot, so compare whole normalized paths rather
   than path components. *)
let is_float_add_ident txt = normalize (path_of_lid txt) = "+."

let rec is_float_add_fn (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> is_float_add_ident txt
  | Pexp_fun (_, _, _, body) -> is_float_add_fn body
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      is_float_add_ident txt
  | _ -> false

let printer_paths =
  [
    "Printf.printf";
    "Printf.eprintf";
    "print_string";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "prerr_string";
    "prerr_endline";
    "prerr_newline";
    "Format.printf";
    "Format.eprintf";
    "Format.print_string";
    "Format.print_newline";
  ]

let partial_paths = [ "List.hd"; "List.tl"; "List.nth"; "Option.get" ]

let wallclock_paths = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

(* R8: the spawn/join primitives, plus anything in Atomic. Atomic is
   matched by module prefix so new operations (exchange, compare_and_set,
   ...) are caught without listing them. *)
let domain_paths = [ "Domain.spawn"; "Domain.join" ]

let is_domain_primitive path =
  List.mem path domain_paths || has_prefix ~prefix:"Atomic." path

(* ------------------------------------------------------------------ *)
(* The walk                                                           *)
(* ------------------------------------------------------------------ *)

let message rule detail =
  match rule with
  | Float_eq ->
      Printf.sprintf
        "exact float comparison (%s) against a float literal; use \
         Numerics.Stats.approx_eq / Numerics.Stats.is_zero (or classify \
         the float) or suppress with a divlint allow comment (float-eq)"
        detail
  | Random_use ->
      Printf.sprintf
        "%s: Stdlib.Random is only allowed in lib/numerics/rng.ml; route \
         all randomness through the seeded Numerics.Rng"
        detail
  | Float_sum ->
      "naive float accumulation via fold_left ( +. ); use \
       Numerics.Kahan.sum_array / Kahan.sum_over (or Numerics.Welford for \
       running moments)"
  | Missing_mli ->
      Printf.sprintf
        "lib module without an interface: expected %si next to %s" detail
        detail
  | Print_effect ->
      Printf.sprintf
        "%s: printing side effect in lib/ (only lib/report may print); \
         return a string and let the caller print"
        detail
  | Partial_fun ->
      Printf.sprintf
        "partial function %s in lib/; match explicitly or use the _opt \
         variant"
        detail
  | Wallclock ->
      Printf.sprintf
        "%s: non-monotonic time source outside lib/obs/; route all timing \
         through the monotonic Obs.Clock"
        detail
  | Domain_containment ->
      Printf.sprintf
        "%s: domain primitive outside lib/exec/; run parallel work through \
         Exec.Pool / Exec.map_shards_rng so results stay deterministic, or \
         suppress with a divlint allow comment (domain-containment)"
        detail
  | Shared_mutable_escape | Rng_discipline | Nondet_merge ->
      (* project rules compose their own messages in Analysis *)
      detail
  | Unused_suppression -> detail

let findings_of_structure relpath structure =
  let acc = ref [] in
  let add (loc : Location.t) rule detail =
    if rule_applies rule relpath then begin
      let pos = loc.loc_start in
      !acc
      |> List.exists (fun f ->
             f.rule = rule && f.line = pos.pos_lnum
             && f.col = pos.pos_cnum - pos.pos_bol)
      |> fun dup ->
      if not dup then
        acc :=
          {
            rule;
            file = relpath;
            line = pos.pos_lnum;
            col = pos.pos_cnum - pos.pos_bol;
            message = message rule detail;
          }
          :: !acc
    end
  in
  let check_ident loc path =
    let path = normalize path in
    (match String.index_opt path '.' with
    | Some i when String.sub path 0 i = "Random" -> add loc Random_use path
    | _ -> ());
    if List.mem path printer_paths then add loc Print_effect path;
    if List.mem path partial_paths then add loc Partial_fun path;
    if List.mem path wallclock_paths then add loc Wallclock path;
    if is_domain_primitive path then add loc Domain_containment path
  in
  let check_apply (e : Parsetree.expression) fn args =
    match fn.Parsetree.pexp_desc with
    | Pexp_ident { txt; _ } ->
        let path = normalize (path_of_lid txt) in
        let op = last_component path in
        if
          (op = "=" || op = "<>")
          && List.exists (fun (_, a) -> is_float_literal a) args
        then add e.pexp_loc Float_eq op;
        if List.mem path fold_left_paths || path = "fold_left" then (
          (* the folded function: the ~f argument if labelled, the first
             positional argument otherwise *)
          let folded =
            match
              List.find_opt
                (fun (lbl, _) -> lbl = Asttypes.Labelled "f")
                args
            with
            | Some (_, f0) -> Some f0
            | None -> (
                match args with
                | (Asttypes.Nolabel, f0) :: _ -> Some f0
                | _ -> None)
          in
          match folded with
          | Some f0 when is_float_add_fn f0 -> add e.pexp_loc Float_sum ""
          | _ -> ())
    | _ -> ()
  in
  let iterator =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (fn, args) -> check_apply e fn args
          | Pexp_ident { txt; _ } -> check_ident e.pexp_loc (path_of_lid txt)
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iterator.structure iterator structure;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Driving                                                            *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_implementation ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  Parse.implementation lexbuf

type outcome = { kept : finding list; dropped : finding list }

let lint_source_full ?(rules = syntactic_rules) ?relpath ~path source =
  let relpath = Option.value relpath ~default:path in
  let structure = parse_implementation ~path source in
  let entries = scan_suppressions source in
  let ast_findings = findings_of_structure relpath structure in
  let mli_findings =
    if
      Filename.check_suffix relpath ".ml"
      && rule_applies Missing_mli relpath
      && not (Sys.file_exists (path ^ "i"))
    then
      [
        {
          rule = Missing_mli;
          file = relpath;
          line = 1;
          col = 0;
          message = message Missing_mli relpath;
        };
      ]
    else []
  in
  let raw =
    List.filter (fun f -> List.mem f.rule rules) (mli_findings @ ast_findings)
  in
  let checkable = Unused_suppression :: rules in
  let kept, dropped =
    apply_suppressions ~file:relpath ~checkable entries raw
  in
  { kept; dropped }

let lint_source ?rules ?relpath ~path source =
  (lint_source_full ?rules ?relpath ~path source).kept

let lint_file ?rules ?relpath path =
  lint_source ?rules ?relpath ~path (read_file path)

let rec collect_ml_files acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left
         (fun acc name ->
           if name = "" || name.[0] = '.' || name = "_build" then acc
           else collect_ml_files acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let lint_paths ?rules paths =
  let files =
    List.fold_left collect_ml_files [] paths |> List.sort_uniq compare
  in
  let findings, errors =
    List.fold_left
      (fun (fs, es) file ->
        match lint_file ?rules file with
        | findings -> (fs @ findings, es)
        | exception exn ->
            let err =
              Printf.sprintf "%s: parse error: %s" file
                (Printexc.to_string exn)
            in
            (fs, es @ [ err ]))
      ([], []) files
  in
  (findings, errors, List.length files)

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let render_finding f =
  Printf.sprintf "%s:%d:%d: [%s %s] %s" f.file f.line f.col (rule_id f.rule)
    (rule_slug f.rule) f.message

let render_text findings =
  String.concat "" (List.map (fun f -> render_finding f ^ "\n") findings)
