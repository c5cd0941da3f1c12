(* The intra-procedural atplint rules, run over one typed
   implementation via Tast_iterator.  The whole-program rules are
   registered here but implemented elsewhere: domain-safety and
   hot-path-alloc-transitive in Callgraph, unused-export in Exports;
   both link every scanned .cmt before judging.

   Suppression layers, innermost first:
     - [@atplint.allow "rule"] on an expression or let-binding,
     - [@@@atplint.allow "rule"] floating at the top of the file,
     - a per-path allowlist in atplint.toml,
     - a committed --baseline file (for staged adoption of new rules). *)

open Typedtree

type rule = {
  name : string;
  summary : string;
  (* Source-path prefixes (relative to the repo root) the rule applies
     to by default; [--no-scope] widens every rule to every file. *)
  scopes : string list;
  (* Whole-program rules judge the linked call graph after every cmt
     has been scanned; scope still filters by the diagnostic's file. *)
  whole_program : bool;
}

let all_rules =
  [
    {
      name = "determinism";
      summary =
        "no Stdlib.Random / Sys.time / Unix.gettimeofday / Hashtbl.hash \
         in lib/, bin/ or bench/; all randomness flows through Util.Prng";
      scopes = [ "lib/"; "bin/"; "bench/" ];
      whole_program = false;
    };
    {
      name = "hot-path-hashing";
      summary =
        "no polymorphic Hashtbl with int keys on simulator hot paths; \
         use Util.Int_table";
      scopes = [ "lib/tlb/"; "lib/paging/"; "lib/memsim/" ];
      whole_program = false;
    };
    {
      name = "hot-path-alloc";
      summary =
        "no per-call tuple/option/list construction or closure allocation \
         in hot-tagged code ([@@@atplint.hot] files or [@atplint.hot] \
         bindings)";
      scopes = [ "lib/" ];
      whole_program = false;
    };
    {
      name = "hot-path-alloc-transitive";
      summary =
        "hot-tagged code must not call a non-hot function that allocates \
         per call, however deep the call chain";
      scopes = [ "lib/" ];
      whole_program = true;
    };
    {
      name = "domain-safety";
      summary =
        "closures shipped to Util.Parallel / Domain.spawn (directly or \
         transitively) must not capture or reach shared mutable state; \
         audit with [@atplint.domain_safe]";
      scopes = [ "lib/"; "bin/"; "bench/" ];
      whole_program = true;
    };
    {
      name = "no-poly-compare";
      summary =
        "no polymorphic =, <>, compare, min, max at non-immediate types";
      scopes = [ "lib/" ];
      whole_program = false;
    };
    {
      name = "exception-contract";
      summary =
        "failwith/invalid_arg inside an .mli-exported value requires an \
         @raise in the .mli doc comment";
      scopes = [ "lib/" ];
      whole_program = false;
    };
    {
      name = "mli-coverage";
      summary = "every library module ships an interface";
      scopes = [ "lib/" ];
      whole_program = false;
    };
    {
      name = "unused-export";
      summary =
        "every val a lib/ interface exports is referenced from some other \
         scanned unit, tests and tools included; exempt with \
         [@@atplint.allow] on the val";
      scopes = [ "lib/" ];
      whole_program = true;
    };
    {
      name = "obs-naming";
      summary =
        "string literals registered with Obs follow the dotted.lowercase \
         metric naming scheme";
      scopes = [ "lib/" ];
      whole_program = false;
    };
  ]

type ctx = {
  cfg : Lint_config.t;
  file : string;
  active : string -> bool;  (* is the rule enabled for this file? *)
  mutable stack : string list list;  (* [@atplint.allow] scopes *)
  mutable file_allows : string list; (* [@@@atplint.allow] *)
  mutable current_top : string option; (* enclosing top-level binding *)
  hot_file : bool;  (* file carries [@@@atplint.hot] *)
  mutable hot_binding : bool;  (* inside a [@atplint.hot] binding *)
  mutable fun_depth : int;  (* nesting depth of function bodies *)
  mutable fun_chain : bool;  (* directly under a fun (curried params) *)
  (* exported value name -> interface file lacking an @raise for it *)
  exported_undoc : (string, string) Hashtbl.t;
  mutable diags : Diagnostic.t list;
}

let emit ctx ~rule ~loc message =
  if
    ctx.active rule
    && (not (List.mem rule ctx.file_allows))
    && (not (List.exists (List.mem rule) ctx.stack))
    && not (Lint_config.allows ctx.cfg ~rule ~file:ctx.file)
  then
    let severity =
      Lint_config.severity ctx.cfg ~rule ~default:Diagnostic.Error
    in
    ctx.diags <- Diagnostic.of_location ~rule ~severity ~message loc :: ctx.diags

(* --- attribute handling ------------------------------------------- *)

let allow_payload (attr : Parsetree.attribute) =
  if attr.attr_name.txt <> "atplint.allow" then None
  else
    match attr.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval
                ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] ->
      Some s
    | _ -> None

let allows_of_attributes attrs = List.filter_map allow_payload attrs

let has_hot_attr (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = "atplint.hot")
    attrs

let with_allows ctx attrs f =
  match allows_of_attributes attrs with
  | [] -> f ()
  | allows ->
    ctx.stack <- allows :: ctx.stack;
    Fun.protect ~finally:(fun () -> ctx.stack <- List.tl ctx.stack) f

(* --- path helpers ------------------------------------------------- *)

let strip_stdlib name =
  let p = "Stdlib." in
  if String.length name > String.length p && String.sub name 0 (String.length p) = p
  then String.sub name (String.length p) (String.length name - String.length p)
  else name

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  ls <= l && String.sub s (l - ls) ls = suffix

(* --- rule: determinism -------------------------------------------- *)

let forbidden_nondeterminism name =
  let n = strip_stdlib name in
  if starts_with ~prefix:"Random." n then
    Some (n, "seed-ambient randomness")
  else
    match n with
    | "Sys.time" -> Some (n, "wall-clock dependence")
    | "Unix.gettimeofday" | "Unix.time" -> Some (n, "wall-clock dependence")
    | "Hashtbl.hash" | "Hashtbl.seeded_hash" ->
      Some (n, "unspecified polymorphic hashing")
    | _ -> None

let check_determinism ctx (e : expression) =
  match e.exp_desc with
  | Texp_ident (path, _, _) -> (
    match forbidden_nondeterminism (Path.name path) with
    | None -> ()
    | Some (n, why) ->
      emit ctx ~rule:"determinism" ~loc:e.exp_loc
        (Printf.sprintf
           "%s (%s) breaks run reproducibility; draw from Util.Prng" n why))
  | _ -> ()

(* --- rule: hot-path-hashing --------------------------------------- *)

(* Walk through the arrows of an (instantiated) function type to its
   result. *)
let rec result_type env ty =
  let ty = try Ctype.expand_head env ty with _ -> ty in
  match Types.get_desc ty with
  | Types.Tarrow (_, _, rest, _) -> result_type env rest
  | _ -> ty

let is_int_type env ty =
  let ty = try Ctype.expand_head env ty with _ -> ty in
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.same p Predef.path_int
  | _ -> false

let check_hot_path ctx env (e : expression) =
  match e.exp_desc with
  | Texp_ident (path, _, _)
    when strip_stdlib (Path.name path) = "Hashtbl.create" -> (
    let res = result_type env e.exp_type in
    match Types.get_desc res with
    | Types.Tconstr (p, key :: _, _)
      when ends_with ~suffix:"Hashtbl.t" (Path.name p) && is_int_type env key
      ->
      emit ctx ~rule:"hot-path-hashing" ~loc:e.exp_loc
        "polymorphic Hashtbl with int keys on a hot path; use Util.Int_table \
         (or Util.Int_table.Poly for non-int payloads)"
    | _ -> ())
  | _ -> ()

(* --- rule: no-poly-compare ---------------------------------------- *)

let poly_compare_ops = [ "="; "<>"; "compare"; "min"; "max" ]

let check_poly_compare ctx env (e : expression) =
  match e.exp_desc with
  | Texp_ident (path, _, _) ->
    let n = strip_stdlib (Path.name path) in
    if List.mem n poly_compare_ops && not (String.contains n '.') then begin
      (* The ident's instantiated type is ('a -> 'a -> _) with 'a
         resolved by unification; judge that first parameter. *)
      let ty = try Ctype.expand_head env e.exp_type with _ -> e.exp_type in
      match Types.get_desc ty with
      | Types.Tarrow (_, arg, _, _) ->
        if not (Type_safety.is_safe env arg) then
          emit ctx ~rule:"no-poly-compare" ~loc:e.exp_loc
            (Printf.sprintf
               "polymorphic %s at type %s (not a tree of immutable \
                immediates); use a type-specific comparison" n
               (Type_safety.type_to_string arg))
      | _ -> ()
    end
  | _ -> ()

(* --- rule: exception-contract ------------------------------------- *)

let check_exception_contract ctx (e : expression) =
  match e.exp_desc with
  | Texp_ident (path, _, _) -> (
    let n = strip_stdlib (Path.name path) in
    if (n = "failwith" || n = "invalid_arg") && not (String.contains n '.')
    then
      match ctx.current_top with
      | Some top -> (
        match Hashtbl.find_opt ctx.exported_undoc top with
        | Some mli ->
          emit ctx ~rule:"exception-contract" ~loc:e.exp_loc
            (Printf.sprintf
               "%s is reachable from exported value %S, but %s documents no \
                @raise for it" n top mli)
        | None -> ())
      | None -> ())
  | _ -> ()

(* --- rule: obs-naming --------------------------------------------- *)

let obs_registration path_name =
  match List.rev (String.split_on_char '.' path_name) with
  | fn :: m :: _ ->
    (ends_with ~suffix:"Registry" m
     && List.mem fn [ "counter"; "gauge"; "histogram"; "find_counter" ])
    || (ends_with ~suffix:"Scope" m
        && List.mem fn [ "counter"; "gauge"; "histogram"; "sub"; "v" ])
  | _ -> false

let valid_metric_name s =
  let seg_ok seg =
    String.length seg > 0
    && (match seg.[0] with 'a' .. 'z' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
         seg
  in
  s <> "" && List.for_all seg_ok (String.split_on_char '.' s)

let check_obs_naming ctx (e : expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (path, _, _); _ }, args)
    when obs_registration (Path.name path) ->
    List.iter
      (fun (_, arg) ->
        match arg with
        | Some
            {
              exp_desc = Texp_constant (Const_string (s, _, _));
              exp_loc = loc;
              _;
            }
          when not (valid_metric_name s) ->
          emit ctx ~rule:"obs-naming" ~loc
            (Printf.sprintf
               "metric name %S does not match the dotted.lowercase scheme \
                ([a-z][a-z0-9_]*, dot-separated); exported metrics must stay \
                stable" s)
        | _ -> ())
      args
  | _ -> ()

(* --- rule: hot-path-alloc ------------------------------------------ *)

(* Fires only inside function bodies ([fun_depth >= 1]) of hot-tagged
   code: module-initialization allocations (constant tables, dispatch
   lists) are once-per-program and exempt.  Closure allocation is
   detected in the iterator itself, where curried-parameter chains can
   be told apart from closures built per call. *)
let hot_scope ctx = ctx.hot_file || ctx.hot_binding

(* Format-string literals elaborate to CamlinternalFormatBasics
   constructors; they are compiler-generated, not per-access data. *)
let is_format_constructor (cd : Types.constructor_description) =
  match Types.get_desc cd.Types.cstr_res with
  | Tconstr (p, _, _) ->
    let name = Path.name p in
    let prefix = "CamlinternalFormat" in
    String.length name >= String.length prefix
    && String.sub name 0 (String.length prefix) = prefix
  | _ -> false

let check_hot_alloc ctx (e : expression) =
  if hot_scope ctx && ctx.fun_depth >= 1 then
    match e.exp_desc with
    | Texp_tuple _ ->
      emit ctx ~rule:"hot-path-alloc" ~loc:e.exp_loc
        "tuple allocated per call on a hot path; return a packed int or \
         write into reused scratch state"
    | Texp_construct (_, cd, _ :: _) when not (is_format_constructor cd) ->
      let what =
        match cd.Types.cstr_name with
        | "Some" -> "an option (Some)"
        | "::" -> "a list cell"
        | name -> Printf.sprintf "boxed constructor %s" name
      in
      emit ctx ~rule:"hot-path-alloc" ~loc:e.exp_loc
        (Printf.sprintf
           "%s allocated per call on a hot path; use a sentinel or \
            packed-int encoding" what)
    | Texp_variant (_, Some _) ->
      emit ctx ~rule:"hot-path-alloc" ~loc:e.exp_loc
        "polymorphic variant allocated per call on a hot path; use a \
         sentinel or packed-int encoding"
    | _ -> ()

(* --- the iterator ------------------------------------------------- *)

let env_of (e : expression) =
  try Envaux.env_of_only_summary e.exp_env with _ -> e.exp_env

let make_iterator ctx =
  let default = Tast_iterator.default_iterator in
  let expr sub (e : expression) =
    with_allows ctx e.exp_attributes @@ fun () ->
    let env = env_of e in
    check_determinism ctx e;
    check_hot_path ctx env e;
    check_poly_compare ctx env e;
    check_exception_contract ctx e;
    check_obs_naming ctx e;
    check_hot_alloc ctx e;
    match e.exp_desc with
    | Texp_function _ ->
      (* A fun nested in a function body allocates a closure per call —
         unless it is just the next curried parameter of the enclosing
         fun ([fun_chain]). *)
      if hot_scope ctx && ctx.fun_depth >= 1 && not ctx.fun_chain then
        emit ctx ~rule:"hot-path-alloc" ~loc:e.exp_loc
          "closure allocated per call on a hot path; hoist it to the top \
           level or specialize via a functor";
      let saved_chain = ctx.fun_chain and saved_depth = ctx.fun_depth in
      ctx.fun_chain <- true;
      ctx.fun_depth <- ctx.fun_depth + 1;
      default.expr sub e;
      ctx.fun_chain <- saved_chain;
      ctx.fun_depth <- saved_depth
    | _ ->
      let saved_chain = ctx.fun_chain in
      ctx.fun_chain <- false;
      default.expr sub e;
      ctx.fun_chain <- saved_chain
  in
  let value_binding sub (vb : value_binding) =
    with_allows ctx vb.vb_attributes @@ fun () ->
    let saved = ctx.hot_binding in
    if has_hot_attr vb.vb_attributes then ctx.hot_binding <- true;
    default.value_binding sub vb;
    ctx.hot_binding <- saved
  in
  let structure_item sub (item : structure_item) =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          let saved = ctx.current_top in
          (match vb.vb_pat.pat_desc with
           | Tpat_var (id, _) -> ctx.current_top <- Some (Ident.name id)
           | _ -> ctx.current_top <- None);
          sub.Tast_iterator.value_binding sub vb;
          ctx.current_top <- saved)
        vbs
    | _ -> default.structure_item sub item
  in
  { default with expr; value_binding; structure_item }

(* Floating [@@@atplint.allow "..."] anywhere in the file suppresses
   the rule file-wide; collect them before walking so placement does
   not matter. *)
let collect_file_allows (str : structure) =
  List.concat_map
    (fun item ->
      match item.str_desc with
      | Tstr_attribute attr -> Option.to_list (allow_payload attr)
      | _ -> [])
    str.str_items

let file_is_hot (str : structure) =
  List.exists
    (fun item ->
      match item.str_desc with
      | Tstr_attribute a -> a.attr_name.txt = "atplint.hot"
      | _ -> false)
    str.str_items

let run ~cfg ~file ~active ~exported_undoc ~mli_missing (str : structure) =
  let ctx =
    {
      cfg;
      file;
      active;
      stack = [];
      file_allows = collect_file_allows str;
      current_top = None;
      hot_file = file_is_hot str;
      hot_binding = false;
      fun_depth = 0;
      fun_chain = false;
      exported_undoc;
      diags = [];
    }
  in
  (match mli_missing with
   | None -> ()
   | Some loc ->
     emit ctx ~rule:"mli-coverage" ~loc
       (Printf.sprintf "module %s has no interface file; add %s"
          (Filename.remove_extension (Filename.basename file))
          (Filename.remove_extension file ^ ".mli")));
  let it = make_iterator ctx in
  it.structure it str;
  ctx.diags
