(* The project-wide interprocedural analysis behind rules R9-R11.

   One pass loads every .ml under the given roots, harvests per-file
   function summaries (Callgraph) and the module-level mutable-state
   inventory (Mutstate), then walks the conservative call graph from
   every shard-callback root:

   - roots are the callback arguments of Exec.map_shards /
     Exec.map_shards_rng / Pool.run spawn sites, plus any function literal passed to an entry
     point declaring ?pool or ?shards (except ~merge arguments, which run
     sequentially at join);
   - reachability follows every referenced identifier, resolved against
     the harvested inventory: a qualified path A.B.f matches any harvested
     f whose enclosing module components include B; an unqualified name
     matches only within the same file. Opens are not tracked (a
     documented false-negative source, kept deliberately: guessing opens
     without a typing environment would produce false edges instead).

   Along the walk:
   - R9  fires on a write to unprotected module-level mutable state,
     unless the write happens in a body that takes a Mutex or below one
     that does (the lock sanction propagates to callees — Obs.Trace
     mutates its store in helpers called under the lock of [enter]);
   - R10 fires on a draw from a stream the shard closure captured from
     its enclosing scope (the parent's Rng.t), from an element of a
     captured array of streams ([Rng.float rngs.(k)], generators split in
     the caller), or from a module-level stream, instead of the substream
     Exec.map_shards_rng passes the shard;
   - R11 fires on accumulation into a captured scalar/container from
     inside the shard callback (completion-order merge), and on
     Hashtbl.fold/iter inside any function that also spawns shards
     (hash-order merge). Indexed writes into captured arrays are exempt:
     disjoint-slice output buffers are the sanctioned pattern.

   Soundness caveats are spelled out in DESIGN.md. *)

module E = Engine
module C = Callgraph
module M = Mutstate

type stats = { st_files : int; st_functions : int; st_reachable : int }

type result = {
  res_findings : E.finding list;
  res_suppressed : E.finding list;
  res_errors : string list;
  res_stats : stats;
}

(* ------------------------------------------------------------------ *)
(* File collection                                                    *)
(* ------------------------------------------------------------------ *)

(* Like Engine.collect_ml_files but also skips directories named
   [fixtures]: the lint fixture corpus deliberately violates every rule
   and must not pollute a project scan (tests analyse it by passing the
   directory explicitly as a root). *)
let rec collect acc path =
  if Sys.is_directory path then
    if Filename.basename path = "fixtures" then acc
    else
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.fold_left
           (fun acc name ->
             if name = "" || name.[0] = '.' || name = "_build" then acc
             else collect acc (Filename.concat path name))
           acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

(* ------------------------------------------------------------------ *)
(* Name resolution                                                    *)
(* ------------------------------------------------------------------ *)

(* "A.B.f" -> (Some "B", "f"); "f" -> (None, "f"). Operator names can
   contain dots ("+."); they yield an empty last component and resolve to
   nothing. *)
let split_last path =
  match String.rindex_opt path '.' with
  | None -> (None, path)
  | Some i ->
      let name = String.sub path (i + 1) (String.length path - i - 1) in
      let rest = String.sub path 0 i in
      let m =
        match String.rindex_opt rest '.' with
        | None -> rest
        | Some j -> String.sub rest (j + 1) (String.length rest - j - 1)
      in
      (Some m, name)

type index = {
  fn_by_name : (string, C.func) Hashtbl.t;  (** key: last name component *)
  item_by_name : (string, M.item) Hashtbl.t;
}

let build_index funcs items =
  let fn_by_name = Hashtbl.create 256 in
  List.iter
    (fun (f : C.func) -> Hashtbl.add fn_by_name (C.last1 f.f_name) f)
    funcs;
  let item_by_name = Hashtbl.create 64 in
  List.iter
    (fun (it : M.item) -> Hashtbl.add item_by_name it.it_name it)
    items;
  { fn_by_name; item_by_name }

let resolve_fn idx ~file path =
  match split_last path with
  | _, "" -> []
  | None, name ->
      Hashtbl.find_all idx.fn_by_name name
      |> List.filter (fun (f : C.func) -> f.f_file = file)
  | Some m, name ->
      Hashtbl.find_all idx.fn_by_name name
      |> List.filter (fun (f : C.func) -> List.mem m f.f_mods)

let resolve_item idx ~file path =
  match split_last path with
  | _, "" -> []
  | None, name ->
      Hashtbl.find_all idx.item_by_name name
      |> List.filter (fun (it : M.item) -> it.it_file = file)
  | Some m, name ->
      Hashtbl.find_all idx.item_by_name name
      |> List.filter (fun (it : M.item) -> List.mem m it.it_mods)

let is_entry (f : C.func) =
  List.mem "pool" f.f_opt_labels || List.mem "shards" f.f_opt_labels

(* ------------------------------------------------------------------ *)
(* Messages                                                           *)
(* ------------------------------------------------------------------ *)

let item_path (it : M.item) =
  String.concat "." (it.it_mods @ [ it.it_name ])

let r9_msg (it : M.item) kind root =
  Printf.sprintf
    "write to module-level mutable state %s (%s, defined at %s:%d) in code \
     reachable from the shard callback at %s; concurrent shards race on \
     it — protect it with Atomic/Mutex/Domain.DLS or accumulate per shard \
     and merge at join (suppress: divlint allow shared-mutable-escape)"
    (item_path it)
    (M.kind_word kind)
    it.it_file it.it_loc.C.l_line root

let r10_captured_msg name =
  Printf.sprintf
    "shard closure captures Rng stream '%s' from the enclosing scope and \
     draws from it; draw order then depends on shard scheduling — give \
     each shard its own substream via Exec.map_shards_rng \
     (suppress: divlint allow rng-discipline)"
    name

let r10_element_msg name =
  Printf.sprintf
    "shard closure draws from an element of Rng array '%s' captured from \
     the enclosing scope, i.e. generators split in the caller and indexed \
     by shard — let Exec.map_shards_rng split the parent and pass each \
     shard its substream (suppress: divlint allow rng-discipline)"
    name

let r10_global_msg (it : M.item) root =
  Printf.sprintf
    "draw from module-level Rng stream %s (defined at %s:%d) in code \
     reachable from the shard callback at %s; shard code must draw from \
     the substream Exec.map_shards_rng passes it (suppress: divlint allow \
     rng-discipline)"
    (item_path it) it.it_file it.it_loc.C.l_line root

let r11_captured_msg name kind =
  Printf.sprintf
    "shard callback accumulates into captured '%s' (%s); shards complete \
     in nondeterministic order, so the merged result is not in \
     shard-index order — return per-shard values and fold the array \
     Exec.map_shards_rng returns in shard order, or write an indexed \
     output slot (suppress: divlint allow nondeterministic-merge)"
    name (C.kind_word kind)

let r11_hash_msg op =
  Printf.sprintf
    "Hashtbl.%s in a function that also spawns shard work; hash iteration \
     order is not shard-index order, so folding shard results this way is \
     nondeterministic — iterate sorted keys or merge per-shard values in \
     shard order (suppress: divlint allow nondeterministic-merge)"
    op

(* ------------------------------------------------------------------ *)
(* The walk                                                           *)
(* ------------------------------------------------------------------ *)

let analyze_paths roots =
  let files =
    List.fold_left collect [] roots |> List.sort_uniq compare
  in
  let parsed, errors =
    List.fold_left
      (fun (ps, es) file ->
        match
          let source = E.read_file file in
          (file, source, E.parse_implementation ~path:file source)
        with
        | p -> (p :: ps, es)
        | exception exn ->
            ( ps,
              Printf.sprintf "%s: parse error: %s" file
                (Printexc.to_string exn)
              :: es ))
      ([], []) files
  in
  let parsed = List.rev parsed and errors = List.rev errors in
  let funcs =
    List.concat_map
      (fun (file, _, str) ->
        C.harvest ~modname:(C.modname_of_file file) ~file str)
      parsed
  in
  let items =
    List.concat_map
      (fun (file, _, str) ->
        M.harvest ~modname:(C.modname_of_file file) ~file str)
      parsed
  in
  let idx = build_index funcs items in
  let findings = ref [] in
  let add rule file (loc : C.loc) message =
    if E.rule_applies rule file then
      findings :=
        {
          E.rule;
          file;
          line = loc.C.l_line;
          col = loc.C.l_col;
          message;
        }
        :: !findings
  in
  (* shared write/draw checks over a body's summary + captures ------- *)
  let check_item_write ~file ~locked ~root (it : M.item) loc =
    match it.M.it_nature with
    | M.Protected _ -> ()
    | M.Mutable M.Rng_stream -> () (* stream state advances are R10 *)
    | M.Mutable kind ->
        if not locked then
          add E.Shared_mutable_escape file loc (r9_msg it kind root)
  in
  let check_item_draw ~file ~root (it : M.item) loc =
    match it.M.it_nature with
    | M.Mutable M.Rng_stream ->
        add E.Rng_discipline file loc (r10_global_msg it root)
    | _ -> ()
  in
  (* [is_root_lambda]: capture diagnostics (R10 captured stream, R11
     completion-order accumulator) only make sense on the shard callback
     itself — a top-level function has no enclosing scope to capture
     from, so its unresolved free names can only come from opens, which
     we deliberately do not guess at. *)
  let check_body ~file ~locked ~root ~is_root_lambda (s : C.summary)
      (caps : C.capture list) =
    List.iter
      (fun (target, _kind, loc) ->
        if C.is_qualified target then
          List.iter
            (fun it -> check_item_write ~file ~locked ~root it loc)
            (resolve_item idx ~file target))
      s.C.s_writes;
    List.iter
      (fun (stream, loc) ->
        if stream <> "" && C.is_qualified stream then
          List.iter
            (fun it -> check_item_draw ~file ~root it loc)
            (resolve_item idx ~file stream))
      s.C.s_draws;
    List.iter
      (function
        | C.Cap_write (name, kind, loc) -> (
            match resolve_item idx ~file name with
            | [] ->
                if is_root_lambda then (
                  match kind with
                  | C.Assign | C.Container ->
                      add E.Nondet_merge file loc (r11_captured_msg name kind)
                  | C.Indexed -> ())
            | its ->
                List.iter
                  (fun it -> check_item_write ~file ~locked ~root it loc)
                  its)
        | C.Cap_draw (name, loc) -> (
            match resolve_item idx ~file name with
            | [] ->
                if is_root_lambda then
                  add E.Rng_discipline file loc (r10_captured_msg name)
            | its ->
                List.iter
                  (fun it -> check_item_draw ~file ~root it loc)
                  its)
        | C.Cap_elt_draw (name, loc) ->
            if is_root_lambda && resolve_item idx ~file name = [] then
              add E.Rng_discipline file loc (r10_element_msg name))
      caps
  in
  (* reachability -------------------------------------------------- *)
  let visited = Hashtbl.create 256 in
  let reachable = Hashtbl.create 256 in
  let pending = Queue.create () in
  let enqueue (f : C.func) root locked =
    let key = (f.f_file, f.f_name, locked) in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.replace visited key ();
      Queue.add (f, root, locked) pending
    end
  in
  (* Only function bindings are execution edges: a module-level value
     binding's RHS ran once at init, before any shard existed. (The cost:
     a module-level partial application [let f = g x] hides g — see the
     DESIGN.md caveats.) *)
  let expand_refs ~file ~root ~locked (s : C.summary) =
    List.iter
      (fun (path, _) ->
        List.iter
          (fun (g : C.func) -> if g.f_is_fun then enqueue g root locked)
          (resolve_fn idx ~file path))
      s.C.s_refs
  in
  let rooted = Hashtbl.create 64 in
  (* A callback expression at a spawn site: a literal lambda is analysed
     in place; an identifier (or partial application head) is resolved
     and enqueued as a named root. *)
  let rec process_callback ~file ~root (cb : Parsetree.expression) =
    if C.is_lambda cb then begin
      let loc = C.loc_of cb.Parsetree.pexp_loc in
      let key = (file, loc.C.l_line, loc.C.l_col) in
      if not (Hashtbl.mem rooted key) then begin
        Hashtbl.replace rooted key ();
        let s = C.summarize cb in
        let caps = C.captures cb in
        let locked = s.C.s_locks in
        check_body ~file ~locked ~root ~is_root_lambda:true s caps;
        if s.C.s_spawns <> [] then
          List.iter
            (fun (op, loc) -> add E.Nondet_merge file loc (r11_hash_msg op))
            s.C.s_hashfolds;
        List.iter
          (fun ((sloc : C.loc), cbs) ->
            let nested_root = Printf.sprintf "%s:%d" file sloc.C.l_line in
            List.iter (process_callback ~file ~root:nested_root) cbs)
          s.C.s_spawns;
        expand_refs ~file ~root ~locked s
      end
    end
    else
      let head =
        match cb.Parsetree.pexp_desc with
        | Pexp_ident { txt; _ } -> Some (E.normalize (E.path_of_lid txt))
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
            Some (E.normalize (E.path_of_lid txt))
        | _ -> None
      in
      match head with
      | Some path ->
          List.iter
            (fun g -> enqueue g root false)
            (resolve_fn idx ~file path)
      | None -> ()
  in
  (* global pass: R11 hash-merge + root collection ------------------- *)
  List.iter
    (fun (f : C.func) ->
      let s = f.C.f_summary in
      if s.C.s_spawns <> [] then
        List.iter
          (fun (op, loc) ->
            add E.Nondet_merge f.C.f_file loc (r11_hash_msg op))
          s.C.s_hashfolds;
      List.iter
        (fun ((sloc : C.loc), cbs) ->
          let root = Printf.sprintf "%s:%d" f.C.f_file sloc.C.l_line in
          List.iter (process_callback ~file:f.C.f_file ~root) cbs)
        s.C.s_spawns;
      List.iter
        (fun (c : C.call) ->
          if List.exists is_entry (resolve_fn idx ~file:f.C.f_file c.c_path)
          then
            List.iter
              (fun (lbl, lam) ->
                if lbl <> Asttypes.Labelled "merge" then
                  process_callback ~file:f.C.f_file
                    ~root:
                      (Printf.sprintf "%s:%d" f.C.f_file c.c_loc.C.l_line)
                    lam)
              c.c_lambdas)
        s.C.s_calls)
    funcs;
  (* drain the worklist --------------------------------------------- *)
  let rec drain () =
    match Queue.take_opt pending with
    | None -> ()
    | Some (f, root, locked) ->
        Hashtbl.replace reachable (f.C.f_file, f.C.f_name) ();
        let s = f.C.f_summary in
        let locked = locked || s.C.s_locks in
        check_body ~file:f.C.f_file ~locked ~root ~is_root_lambda:false s
          f.C.f_captures;
        (* nested spawn sites inside a reachable function *)
        List.iter
          (fun ((sloc : C.loc), cbs) ->
            let nested = Printf.sprintf "%s:%d" f.C.f_file sloc.C.l_line in
            List.iter (process_callback ~file:f.C.f_file ~root:nested) cbs)
          s.C.s_spawns;
        expand_refs ~file:f.C.f_file ~root ~locked s;
        drain ()
  in
  drain ();
  (* suppressions + assembly ---------------------------------------- *)
  let deduped =
    List.sort_uniq compare !findings
    |> List.sort (fun (a : E.finding) b ->
           compare (a.file, a.line, a.col, a.rule) (b.file, b.line, b.col, b.rule))
  in
  let checkable = E.project_rules @ [ E.Unused_suppression ] in
  let kept, suppressed =
    List.fold_left
      (fun (ks, ss) (file, source, _) ->
        let here =
          List.filter (fun (f : E.finding) -> f.file = file) deduped
        in
        let entries = E.scan_suppressions source in
        let k, s = E.apply_suppressions ~file ~checkable entries here in
        (ks @ k, ss @ s))
      ([], []) parsed
  in
  {
    res_findings = kept;
    res_suppressed = suppressed;
    res_errors = errors;
    res_stats =
      {
        st_files = List.length files;
        st_functions = List.length funcs;
        st_reachable = Hashtbl.length reachable;
      };
  }
