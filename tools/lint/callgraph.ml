(* Per-file harvesting for the project-wide analysis.

   For every top-level binding we record a conservative summary of what
   its body does: identifiers referenced (the call-graph edges), mutation
   sites, Rng draws, shard-spawn sites, calls that carry function-literal
   arguments (for ?pool/?shards entry-point rooting), whether the body
   takes a Mutex, and Hashtbl folds. Everything is purely syntactic —
   no typing environment — so names are resolved later against the
   harvested inventory by module-component matching (see Analysis). *)

type loc = { l_line : int; l_col : int }

let loc_of (l : Location.t) =
  {
    l_line = l.loc_start.pos_lnum;
    l_col = l.loc_start.pos_cnum - l.loc_start.pos_bol;
  }

let components path = String.split_on_char '.' path

(* The last two path components, e.g. "Stdlib.Hashtbl.fold" -> ("Hashtbl",
   "fold"). Operator names ("+.") contain dots and split weirdly, but they
   never collide with the (module, function) pairs matched below. *)
let last2 path =
  match List.rev (components path) with
  | f :: m :: _ -> Some (m, f)
  | _ -> None

let last1 path =
  match List.rev (components path) with f :: _ -> f | [] -> path

let is_qualified path = String.contains path '.'
let path_of_lid = Engine.path_of_lid
let normalize = Engine.normalize

(* ------------------------------------------------------------------ *)
(* Syntactic classifiers                                              *)
(* ------------------------------------------------------------------ *)

type write_kind =
  | Assign  (** [r := v], [incr]/[decr], mutable-field assignment *)
  | Indexed  (** [a.(i) <- v], [Bytes.set], fill/blit — disjoint-slice
                 writes into preallocated buffers are the sanctioned
                 shard-output pattern, so these are exempt from R11 *)
  | Container  (** Hashtbl/Buffer/Queue/Stack mutation *)

let kind_word = function
  | Assign -> "assignment"
  | Indexed -> "indexed write"
  | Container -> "container mutation"

(* Which positional argument of a mutating stdlib call is the mutated
   value, e.g. [Array.set a i v] mutates argument 0. Returns the argument
   index and the write kind. *)
let write_op path : (int * write_kind) option =
  match path with
  | ":=" | "incr" | "decr" -> Some (0, Assign)
  | _ -> (
      match last2 path with
      | Some (("Array" | "Bytes"), ("set" | "unsafe_set" | "fill")) ->
          Some (0, Indexed)
      | Some (("Array" | "Bytes"), "blit") -> Some (2, Indexed)
      | Some
          ( "Hashtbl",
            ( "add" | "replace" | "remove" | "reset" | "clear"
            | "filter_map_inplace" ) ) ->
          Some (0, Container)
      | Some ("Buffer", op)
        when String.length op > 4 && String.sub op 0 4 = "add_" ->
          Some (0, Container)
      | Some ("Buffer", ("clear" | "reset" | "truncate")) ->
          Some (0, Container)
      | Some (("Queue" | "Stack"), "push") -> Some (1, Container)
      | Some ("Queue", "add") -> Some (1, Container)
      | Some (("Queue" | "Stack"), ("pop" | "take" | "clear")) ->
          Some (0, Container)
      | Some ("Queue", "transfer") -> Some (0, Container)
      | _ -> None)

(* The draw operations of Numerics.Rng: anything that advances a stream's
   state. [split] is excluded — deriving a substream is exactly the
   sanctioned pattern. *)
let rng_draw_fns =
  [ "float"; "int"; "bool"; "uniform"; "shuffle_in_place"; "next_int64" ]

let is_rng_draw path =
  match last2 path with
  | Some ("Rng", f) -> List.mem f rng_draw_fns
  | _ -> false

(* [rngs.(k)] parses as [Array.get rngs k]: the array a draw's stream
   argument is an element of, when the array is a plain identifier. *)
let array_element (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt; _ }; _ },
        [ (Asttypes.Nolabel, { pexp_desc = Pexp_ident arr; _ }); _ ] ) -> (
      match last2 (normalize (path_of_lid txt)) with
      | Some ("Array", ("get" | "unsafe_get")) ->
          Some (normalize (path_of_lid arr.txt))
      | _ -> None)
  | _ -> None

let is_rng_create path =
  match last2 path with
  | Some ("Rng", ("create" | "split")) -> true
  | _ -> false

type spawn_api =
  | Map_shards  (** Exec.map_shards / Exec.map_shards_rng: callback is [~f] *)
  | Pool_run  (** Pool.run: callback is the last positional argument *)

let spawn_api path =
  match last2 path with
  | Some ("Exec", ("map_shards" | "map_shards_rng")) -> Some Map_shards
  | Some ("Pool", "run") -> Some Pool_run
  | _ -> (
      (* unqualified calls inside lib/exec itself *)
      match path with
      | "map_shards" | "map_shards_rng" -> Some Map_shards
      | _ -> None)

let is_lock path =
  match last2 path with
  | Some ("Mutex", ("lock" | "protect")) -> true
  | _ -> false

let is_hashfold path =
  match last2 path with
  | Some ("Hashtbl", (("fold" | "iter") as op)) -> Some op
  | _ -> None

let rec is_lambda (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, body) -> is_lambda body
  | Pexp_constraint (body, _) -> is_lambda body
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Summaries                                                          *)
(* ------------------------------------------------------------------ *)

type call = {
  c_path : string;  (** normalized callee path *)
  c_loc : loc;
  c_lambdas : (Asttypes.arg_label * Parsetree.expression) list;
      (** the function-literal arguments of the call *)
}

type summary = {
  s_refs : (string * loc) list;  (** every identifier referenced *)
  s_writes : (string * write_kind * loc) list;
      (** mutation sites whose target is a plain identifier (possibly
          module-qualified) *)
  s_draws : (string * loc) list;
      (** Rng draw sites; the string is the stream argument when it is a
          plain identifier, [""] otherwise *)
  s_elt_draws : (string * loc) list;
      (** Rng draw sites whose stream argument is an element of an array
          named by a plain identifier ([rngs.(k)]); the string is the
          array *)
  s_spawns : (loc * Parsetree.expression list) list;
      (** shard-spawn sites and their callback expressions *)
  s_calls : call list;  (** calls that carry function-literal arguments *)
  s_locks : bool;  (** body takes a Mutex (lock or protect) *)
  s_hashfolds : (string * loc) list;  (** Hashtbl.fold / Hashtbl.iter sites *)
}

let ident_path (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (normalize (path_of_lid txt))
  | _ -> None

let positional args =
  List.filter_map
    (fun (lbl, a) -> if lbl = Asttypes.Nolabel then Some a else None)
    args

let summarize (expr : Parsetree.expression) : summary =
  let refs = ref [] in
  let writes = ref [] in
  let draws = ref [] in
  let elt_draws = ref [] in
  let spawns = ref [] in
  let calls = ref [] in
  let locks = ref false in
  let hashfolds = ref [] in
  let handle_apply (e : Parsetree.expression) fn args =
    match ident_path fn with
    | None -> ()
    | Some path ->
        let loc = loc_of e.Parsetree.pexp_loc in
        (match write_op path with
        | Some (idx, kind) -> (
            match List.nth_opt (positional args) idx with
            | Some target -> (
                match ident_path target with
                | Some tpath -> writes := (tpath, kind, loc) :: !writes
                | None -> ())
            | None -> ())
        | None -> ());
        if is_rng_draw path then begin
          let stream =
            match positional args with
            | a :: _ -> Option.value (ident_path a) ~default:""
            | [] -> ""
          in
          draws := (stream, loc) :: !draws;
          match positional args with
          | a :: _ -> (
              match array_element a with
              | Some arr -> elt_draws := (arr, loc) :: !elt_draws
              | None -> ())
          | [] -> ()
        end;
        (match spawn_api path with
        | Some Map_shards ->
            let cbs =
              List.filter_map
                (fun (lbl, a) ->
                  if lbl = Asttypes.Labelled "f" then Some a else None)
                args
            in
            if cbs <> [] then spawns := (loc, cbs) :: !spawns
        | Some Pool_run ->
            let labelled_f =
              List.filter_map
                (fun (lbl, a) ->
                  if lbl = Asttypes.Labelled "f" then Some a else None)
                args
            in
            let last_pos =
              match List.rev (positional args) with
              | cb :: _ :: _ -> [ cb ] (* at least (pool, callback) *)
              | _ -> []
            in
            let cbs = labelled_f @ last_pos in
            if cbs <> [] then spawns := (loc, cbs) :: !spawns
        | None -> ());
        if is_lock path then locks := true;
        (match is_hashfold path with
        | Some op -> hashfolds := (op, loc) :: !hashfolds
        | None -> ());
        let lambdas =
          List.filter (fun (_, a) -> is_lambda a) args
        in
        if lambdas <> [] then
          calls := { c_path = path; c_loc = loc; c_lambdas = lambdas } :: !calls
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } ->
              refs :=
                (normalize (path_of_lid txt), loc_of e.pexp_loc) :: !refs
          | Pexp_apply (fn, args) -> handle_apply e fn args
          | Pexp_setfield (target, _, _) -> (
              match ident_path target with
              | Some tpath ->
                  writes := (tpath, Assign, loc_of e.pexp_loc) :: !writes
              | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.expr iter expr;
  {
    s_refs = List.rev !refs;
    s_writes = List.rev !writes;
    s_draws = List.rev !draws;
    s_elt_draws = List.rev !elt_draws;
    s_spawns = List.rev !spawns;
    s_calls = List.rev !calls;
    s_locks = !locks;
    s_hashfolds = List.rev !hashfolds;
  }

(* ------------------------------------------------------------------ *)
(* Captures                                                           *)
(* ------------------------------------------------------------------ *)

type capture =
  | Cap_write of string * write_kind * loc
      (** the closure mutates a free (captured) variable *)
  | Cap_draw of string * loc
      (** the closure draws from a free (captured) Rng stream *)
  | Cap_elt_draw of string * loc
      (** the closure draws from an element of a free (captured) array —
          the caller-split [rngs.(k)] pattern *)

(* Names bound by any pattern anywhere inside [expr] (parameters, lets,
   match cases, ...). Used as an over-approximation of "locally bound":
   a name in this set is never reported as captured. This can only cause
   false negatives (a shadowing inner binding hides an outer capture),
   never false positives. *)
let bound_names expr =
  let bound = Hashtbl.create 16 in
  let iter =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.Parsetree.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
              Hashtbl.replace bound txt ()
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  iter.expr iter expr;
  bound

(* The mutation/draw sites of [lambda] whose target is an *unqualified*
   name not bound anywhere inside the lambda — i.e. captured from the
   enclosing scope. Qualified (module-level) targets are resolved
   separately against the mutable-state inventory. *)
let captures (lambda : Parsetree.expression) : capture list =
  let s = summarize lambda in
  let bound = bound_names lambda in
  let free name =
    name <> "" && (not (is_qualified name)) && not (Hashtbl.mem bound name)
  in
  List.filter_map
    (fun (name, kind, loc) ->
      if free name then Some (Cap_write (name, kind, loc)) else None)
    s.s_writes
  @ List.filter_map
      (fun (name, loc) ->
        if free name then Some (Cap_draw (name, loc)) else None)
      s.s_draws
  @ List.filter_map
      (fun (name, loc) ->
        if free name then Some (Cap_elt_draw (name, loc)) else None)
      s.s_elt_draws

(* ------------------------------------------------------------------ *)
(* Top-level harvesting                                               *)
(* ------------------------------------------------------------------ *)

type func = {
  f_name : string;  (** binding name, ["Sub.f"] inside a submodule *)
  f_mods : string list;
      (** enclosing module components, outermost first: [["Exec"]] for a
          top-level binding of exec.ml, [["Exec"; "Sub"]] inside
          [module Sub = struct ... end] *)
  f_file : string;
  f_loc : loc;
  f_params : string list;
      (** value-parameter names of the outer [fun]/[function] chain *)
  f_opt_labels : string list;
      (** optional-argument labels ([?pool], [?shards], ...) *)
  f_summary : summary;
  f_captures : capture list;
      (** mutation/draw sites on unqualified names not bound anywhere in
          the body — for a top-level binding these can only be
          module-level state (or open-imported names, which resolution
          ignores) *)
  f_is_fun : bool;
      (** the RHS is syntactically a function. A non-function binding's
          RHS runs exactly once at module initialisation — before any
          shard exists — so referencing it from shard code is not an
          execution edge. *)
}

let rec pattern_vars (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (p, { txt; _ }) -> txt :: pattern_vars p
  | Ppat_constraint (p, _) -> pattern_vars p
  | Ppat_tuple ps -> List.concat_map pattern_vars ps
  | _ -> []

(* Walk the outer fun chain collecting parameter names and optional-arg
   labels. *)
let rec fun_signature (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (lbl, _, pat, body) ->
      let params, opts = fun_signature body in
      let opts =
        match lbl with
        | Asttypes.Optional name -> name :: opts
        | _ -> opts
      in
      (pattern_vars pat @ params, opts)
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> fun_signature body
  | _ -> ([], [])

let binding_name (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

let harvest ~modname ~file (structure : Parsetree.structure) : func list =
  let out = ref [] in
  let rec walk_structure mods prefix items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                let name =
                  match binding_name vb.pvb_pat with
                  | Some n -> prefix ^ n
                  | None ->
                      Printf.sprintf "%s(init:%d)" prefix
                        vb.pvb_loc.loc_start.pos_lnum
                in
                let params, opts = fun_signature vb.pvb_expr in
                out :=
                  {
                    f_name = name;
                    f_mods = mods;
                    f_file = file;
                    f_loc = loc_of vb.pvb_loc;
                    f_params = params;
                    f_opt_labels = opts;
                    f_summary = summarize vb.pvb_expr;
                    f_captures = captures vb.pvb_expr;
                    f_is_fun = is_lambda vb.pvb_expr;
                  }
                  :: !out)
              vbs
        | Pstr_eval (e, _) ->
            out :=
              {
                f_name =
                  Printf.sprintf "%s(init:%d)" prefix
                    item.pstr_loc.loc_start.pos_lnum;
                f_mods = mods;
                f_file = file;
                f_loc = loc_of item.pstr_loc;
                f_params = [];
                f_opt_labels = [];
                f_summary = summarize e;
                f_captures = captures e;
                f_is_fun = false;
              }
              :: !out
        | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ } -> (
            match pmb_expr.pmod_desc with
            | Pmod_structure sub_items ->
                walk_structure (mods @ [ sub ]) (prefix ^ sub ^ ".")
                  sub_items
            | _ -> ())
        | _ -> ())
      items
  in
  walk_structure [ modname ] "" structure;
  List.rev !out

let modname_of_file file =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename file))
