(* Whole-program analysis core: links every scanned .cmt into one call
   graph, runs an escape/capture analysis over closures, and implements
   the two cross-module rules on top:

     - domain-safety: a closure shipped to Util.Parallel.map /
       map_results / Domain.spawn (directly, or transitively through a
       function that forwards its functional argument there) must not
       capture — or call into code that touches — mutable state shared
       with the enclosing scope or with other shards' closures.
     - hot-path-alloc-transitive: a hot-tagged function calling a
       non-hot function that allocates per call is flagged at the call
       site, however deep the allocation sits in the call chain.

   Conservatism posture, in both directions, documented in
   docs/LINTING.md:
     - Name resolution is syntactic over dotted paths.  Calls through
       functor applications ("Make(X).f") and higher-order parameters
       resolve to no node and are treated as *unknown* callees: they
       contribute no edges, so neither rule follows them.  Judgments
       err toward silence on unknowns (a false negative beats a
       diagnostic the code cannot fix), matching Type_safety.
     - Mutability is judged from types: ref cells, Bytes, mutable
       record fields, the known shared-container families (Hashtbl,
       Int_table, Buffer, Queue, Stack) and the obs registry surface
       (Registry/Scope/Counter/Gauge/Histogram).  Plain arrays are
       deliberately exempt — sharding ships read-only int arrays to
       every shard by design — and Atomic/Mutex/Condition are the
       sanctioned cross-domain primitives.  Abstract types hide their
       representation and are not flagged. *)

open Typedtree

(* --- canonical names ----------------------------------------------- *)

(* A node is keyed by "<Cmt_modname>.<nested.module.path.>binding".
   Dune's wrapped libraries mangle unit names ("Atp_util__Parallel"),
   while references arrive through the wrapper alias as dotted paths
   ("Atp_util.Parallel.map"); [candidates] produces every plausible
   key, most specific first. *)
module Name = struct
  let split = String.split_on_char '.'

  (* Rewrite the head segment through the file's [module X = Path]
     aliases, transitively (alias of an alias). *)
  let rec resolve_aliases ~aliases name =
    match split name with
    | head :: (_ :: _ as rest) -> (
      match List.assoc_opt head aliases with
      | Some target ->
        resolve_aliases
          ~aliases:(List.remove_assoc head aliases)
          (String.concat "." (target :: rest))
      | None -> name)
    | _ -> name

  (* All node-table keys a dotted reference could denote, most
     specific first: the first [k] segments fused with "__" (the
     wrapper-alias view of a mangled unit name, largest [k] first),
     the raw name itself, and the name qualified by the referencing
     unit (a nested-module reference like "History.push"). *)
  let candidates ~modname raw =
    let segs = split raw in
    let n = List.length segs in
    if n <= 1 then [ modname ^ "." ^ raw ]
    else
      let joined k =
        let rec take i = function
          | [] -> ([], [])
          | x :: tl ->
            if i = 0 then ([], x :: tl)
            else
              let a, b = take (i - 1) tl in
              (x :: a, b)
        in
        let fused, rest = take k segs in
        String.concat "." ((String.concat "__" fused) :: rest)
      in
      let ks = List.init (n - 1) (fun i -> n - 1 - i) in
      List.map joined ks @ [ modname ^ "." ^ raw ]

  let ends_with ~suffix s =
    let ls = String.length suffix and l = String.length s in
    ls <= l && String.sub s (l - ls) ls = suffix

  (* Undo dune's unit-name mangling for *matching* purposes:
     "Stdlib__Hashtbl.t" and "Atp_util__Parallel.map" become
     "Stdlib.Hashtbl.t" / "Atp_util.Parallel.map", so one dotted
     suffix covers both the wrapper-alias and the mangled view. *)
  let canon name =
    let buf = Buffer.create (String.length name) in
    let n = String.length name in
    let i = ref 0 in
    while !i < n do
      if
        !i + 1 < n
        && name.[!i] = '_'
        && name.[!i + 1] = '_'
        && !i > 0
        && name.[!i - 1] <> '_'
        && !i + 2 < n
        && name.[!i + 2] <> '_'
      then begin
        Buffer.add_char buf '.';
        i := !i + 2
      end
      else begin
        Buffer.add_char buf name.[!i];
        incr i
      end
    done;
    Buffer.contents buf

  let parallel_entry_points =
    [
      "Parallel.map";
      "Parallel.map_results";
      "Domain.spawn";
    ]

  (* Does this dotted name denote one of the primitives that ship a
     closure to another domain? *)
  let is_parallel_primitive name =
    let name = canon name in
    List.exists
      (fun suffix -> name = suffix || ends_with ~suffix:("." ^ suffix) name)
      parallel_entry_points
end

(* --- the graph ----------------------------------------------------- *)

type alloc = {
  a_loc : Location.t;
  a_what : string; (* "a tuple", "an option (Some)", ... *)
  a_allows : string list; (* allow rules active at the allocation *)
}

type call = {
  callee : string; (* alias-resolved dotted name, as referenced *)
  c_loc : Location.t;
  applied : bool; (* head of an application, not a bare reference *)
  (* [Ident.unique_name] (modname-prefixed) when the callee is a local
     identifier, resolvable against the per-file lambda table *)
  callee_local : string option;
  call_allows : string list;
}

type capture = {
  cap_name : string;
  cap_loc : Location.t;
  cap_what : string; (* "a ref cell", "a mutable record config", ... *)
  cap_allows : string list;
}

(* Escape-analysis summary of one closure: what it captures from the
   enclosing scope and what it calls. *)
type lambda = {
  l_loc : Location.t;
  l_captures : capture list;
  l_calls : call list;
  l_allows : string list;
}

type node = {
  id : string;
  n_file : string;
  n_modname : string;
  n_loc : Location.t;
  n_hot : bool;
  n_in_functor : bool;
  n_allows : string list; (* binding attrs + file-wide allows *)
  mutable n_calls : call list;
  mutable n_allocs : alloc list;
  (* module-level mutable values this node touches directly *)
  mutable n_mut_globals : capture list;
}

(* One application site whose arguments include closures or named
   functions: judged by domain-safety once the graph can decide
   whether the head reaches a parallel primitive. *)
type candidate = {
  c_file : string;
  c_modname : string; (* unit the site lives in, for resolution *)
  c_site : Location.t;
  c_head : string; (* alias-resolved dotted name of the applied fn *)
  c_head_local : string option;
  c_lambdas : lambda list;
  c_named : call list; (* function-valued arguments *)
  c_allows : string list;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  locals : (string, lambda) Hashtbl.t; (* "Modname:ident_stamp" *)
  mutable cands : candidate list;
}

let create () =
  { nodes = Hashtbl.create 256; locals = Hashtbl.create 64; cands = [] }

let add_node t node = Hashtbl.replace t.nodes node.id node

(* Resolve a call to a node id, or None for unknown callees (external
   libraries, functor applications, higher-order parameters). *)
let resolve t ~modname raw =
  if String.contains raw '(' then None (* functor application path *)
  else
    List.find_opt (Hashtbl.mem t.nodes) (Name.candidates ~modname raw)

let find_node t id = Hashtbl.find_opt t.nodes id

(* --- reachability -------------------------------------------------- *)

(* Does [id] (transitively) hand work to a parallel primitive?  Such a
   node's own call sites must be judged like direct Parallel.map
   applications: closures passed to it cross domains. *)
let reaches_parallel t id =
  let memo = Hashtbl.create 16 in
  let rec go id =
    match Hashtbl.find_opt memo id with
    | Some r -> r
    | None ->
      Hashtbl.replace memo id false (* cycle: tentatively no *)
      ;
      let r =
        match find_node t id with
        | None -> false
        | Some n ->
          List.exists
            (fun c ->
              Name.is_parallel_primitive c.callee
              ||
              match resolve t ~modname:n.n_modname c.callee with
              | Some id' -> go id'
              | None -> false)
            n.n_calls
      in
      Hashtbl.replace memo id r;
      r
  in
  go id

(* First module-level mutable value reachable from [id] through known
   call edges, with the node it lives in — the witness a domain-safety
   diagnostic prints. *)
let mutable_global_witness t id =
  let memo = Hashtbl.create 16 in
  let rec go id =
    match Hashtbl.find_opt memo id with
    | Some r -> r
    | None ->
      Hashtbl.replace memo id None;
      let r =
        match find_node t id with
        | None -> None
        | Some n -> (
          match n.n_mut_globals with
          | g :: _ -> Some (n, g)
          | [] ->
            List.find_map
              (fun c ->
                match resolve t ~modname:n.n_modname c.callee with
                | Some id' -> go id'
                | None -> None)
              n.n_calls)
      in
      Hashtbl.replace memo id r;
      r
  in
  go id

(* First per-call allocation reachable from [id] through *applied*
   edges into known non-hot nodes, with the chain of nodes crossed.
   Hot callees enforce their own discipline (the intra rule plus their
   own transitive check) and are not descended into; allocations
   explicitly waived for this rule are skipped. *)
let alloc_witness t id =
  let memo = Hashtbl.create 16 in
  let rec go id =
    match Hashtbl.find_opt memo id with
    | Some r -> r
    | None ->
      Hashtbl.replace memo id None;
      let r =
        match find_node t id with
        | None -> None
        | Some n -> (
          if n.n_hot then None
          else
            match
              List.find_opt
                (fun a ->
                  not (List.mem "hot-path-alloc-transitive" a.a_allows))
                (List.rev n.n_allocs)
            with
            | Some a -> Some ([ n ], a)
            | None ->
              List.find_map
                (fun c ->
                  if not c.applied then None
                  else
                    match resolve t ~modname:n.n_modname c.callee with
                    | Some id' -> (
                      match go id' with
                      | Some (chain, a) -> Some (n :: chain, a)
                      | None -> None)
                    | None -> None)
                (List.rev n.n_calls))
      in
      Hashtbl.replace memo id r;
      r
  in
  go id

(* --- mutability classifier ----------------------------------------- *)

(* Shared-container families recognised by (dotted) type-path suffix;
   abstract types otherwise stay silent. *)
let mutable_suffixes =
  [
    ("Hashtbl.t", "a hash table");
    ("Int_table.t", "an Int_table");
    ("Int_table.Poly.t", "an Int_table.Poly");
    ("Buffer.t", "a Buffer");
    ("Queue.t", "a Queue");
    ("Stack.t", "a Stack");
    ("Registry.t", "an obs registry");
    ("Scope.t", "an obs scope");
    ("Counter.t", "an obs counter");
    ("Gauge.t", "an obs gauge");
    ("Histogram.t", "an obs histogram");
  ]

(* The sanctioned cross-domain primitives: sharing them is the point. *)
let safe_suffixes = [ "Atomic.t"; "Mutex.t"; "Condition.t"; "Semaphore.t" ]

let path_matches name suffix =
  let name = Name.canon name in
  name = suffix || Name.ends_with ~suffix:("." ^ suffix) name

(* [mutability env ty] is [Some description] when a value of type [ty]
   is (or directly contains) shared mutable state. *)
let rec mutability env ~depth ty =
  if depth > 8 then None
  else
    let ty = try Ctype.expand_head env ty with _ -> ty in
    match Types.get_desc ty with
    | Types.Ttuple tys ->
      List.find_map (mutability env ~depth:(depth + 1)) tys
    | Types.Tconstr (p, args, _) -> (
      let name = Path.name p in
      if Path.same p Predef.path_bytes then Some "a bytes buffer"
      else if path_matches name "ref" then Some "a ref cell"
      else if List.exists (path_matches name) safe_suffixes then None
      else if Path.same p Predef.path_array then
        (* int array payloads are the designed read-only share; only
           mutable *elements* make the array itself a hazard *)
        List.find_map (mutability env ~depth:(depth + 1)) args
      else
        match List.find_opt (fun (s, _) -> path_matches name s) mutable_suffixes with
        | Some (_, what) -> Some what
        | None ->
          if
            Path.same p Predef.path_option
            || Path.same p Predef.path_list
            || path_matches name "result"
          then List.find_map (mutability env ~depth:(depth + 1)) args
          else (
            match Env.find_type p env with
            | exception _ -> None
            | decl -> decl_mutability env ~depth ~name decl))
    | _ -> None

and decl_mutability env ~depth ~name (decl : Types.type_declaration) =
  match decl.type_kind with
  | Types.Type_record (lbls, _) -> (
    match
      List.find_opt (fun l -> l.Types.ld_mutable = Asttypes.Mutable) lbls
    with
    | Some l ->
      Some
        (Printf.sprintf "a record with mutable field %s.%s" name
           (Ident.name l.Types.ld_id))
    | None ->
      List.find_map
        (fun l -> mutability env ~depth:(depth + 1) l.Types.ld_type)
        lbls)
  | Types.Type_variant (cstrs, _) ->
    List.find_map
      (fun c ->
        match c.Types.cd_args with
        | Types.Cstr_tuple tys ->
          List.find_map (mutability env ~depth:(depth + 1)) tys
        | Types.Cstr_record lbls ->
          List.find_map
            (fun l -> mutability env ~depth:(depth + 1) l.Types.ld_type)
            lbls)
      cstrs
  | Types.Type_abstract | Types.Type_open -> None

let mutability env ty = mutability env ~depth:0 ty

let is_function_type env ty =
  let ty = try Ctype.expand_head env ty with _ -> ty in
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* --- collection ---------------------------------------------------- *)

let env_of (e : expression) =
  try Envaux.env_of_only_summary e.exp_env with _ -> e.exp_env

(* [@atplint.domain_safe] is the audited-site hatch the rule text
   advertises; internally it is the allow for "domain-safety". *)
let allows_of_attrs (attrs : Parsetree.attributes) =
  Rules.allows_of_attributes attrs
  @
  if
    List.exists
      (fun (a : Parsetree.attribute) -> a.attr_name.txt = "atplint.domain_safe")
      attrs
  then [ "domain-safety" ]
  else []

(* Every value identifier bound by a pattern (or a for-loop index)
   inside [e]; used to split an expression's identifiers into locals
   and captures.  Ident stamps are unique within a unit, so shadowing
   needs no scope tracking. *)
let bound_idents_in (e : expression) =
  let bound = Hashtbl.create 32 in
  let pat (type k) sub (p : k general_pattern) =
    (match p.pat_desc with
     | Tpat_var (id, _) -> Hashtbl.replace bound (Ident.unique_name id) ()
     | Tpat_alias (_, id, _) -> Hashtbl.replace bound (Ident.unique_name id) ()
     | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let expr sub (e : expression) =
    (match e.exp_desc with
     | Texp_for (id, _, _, _, _, _) ->
       Hashtbl.replace bound (Ident.unique_name id) ()
     | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with pat; expr } in
  it.expr it e;
  bound

type cctx = {
  graph : t;
  file : string;
  modname : string;
  mutable aliases : (string * string) list;
  file_allows : string list;
  hot_file : bool;
  mutable allow_stack : string list list;
  mutable fun_depth : int;
  mutable fun_chain : bool;
  mutable mod_path : string list; (* innermost first *)
  mutable in_functor : bool;
}

let current_allows ctx = ctx.file_allows @ List.concat ctx.allow_stack

let with_allows ctx attrs f =
  match allows_of_attrs attrs with
  | [] -> f ()
  | allows ->
    ctx.allow_stack <- allows :: ctx.allow_stack;
    Fun.protect ~finally:(fun () -> ctx.allow_stack <- List.tl ctx.allow_stack) f

let local_key ctx id = ctx.modname ^ ":" ^ Ident.unique_name id

let alias_resolved ctx path =
  Name.resolve_aliases ~aliases:ctx.aliases (Path.name path)

(* Per-call allocation classification, mirroring the intra
   hot-path-alloc rule's categories (docs/LINTING.md). *)
let classify_alloc (e : expression) =
  match e.exp_desc with
  | Texp_tuple _ -> Some "a tuple"
  | Texp_construct (_, cd, _ :: _) when not (Rules.is_format_constructor cd)
    ->
    Some
      (match cd.Types.cstr_name with
       | "Some" -> "an option (Some)"
       | "::" -> "a list cell"
       | name -> Printf.sprintf "boxed constructor %s" name)
  | Texp_variant (_, Some _) -> Some "a polymorphic variant"
  | _ -> None

(* Escape analysis of one closure (or function-bodied local binding):
   free identifiers of mutable type become captures, applications and
   function references become calls. *)
let lambda_summary ctx (lam : expression) ~extra_allows =
  let bound = bound_idents_in lam in
  let captures = ref [] and calls = ref [] in
  let record_call ?local ~applied ~loc callee =
    calls :=
      {
        callee;
        c_loc = loc;
        applied;
        callee_local = local;
        call_allows = current_allows ctx;
      }
      :: !calls
  in
  let already_captured name =
    List.exists (fun c -> c.cap_name = name) !captures
  in
  let check_ident (e : expression) path =
    match path with
    | Path.Pident id ->
      if not (Hashtbl.mem bound (Ident.unique_name id)) then begin
        let env = env_of e in
        (match mutability env e.exp_type with
         | Some what when not (already_captured (Ident.name id)) ->
           captures :=
             {
               cap_name = Ident.name id;
               cap_loc = e.exp_loc;
               cap_what = what;
               cap_allows = current_allows ctx;
             }
             :: !captures
         | Some _ | None -> ());
        if is_function_type (env_of e) e.exp_type then
          record_call ~local:(local_key ctx id) ~applied:false ~loc:e.exp_loc
            (Ident.name id)
      end
    | _ ->
      let env = env_of e in
      let name = alias_resolved ctx path in
      (match mutability env e.exp_type with
       | Some what when not (already_captured name) ->
         captures :=
           {
             cap_name = name;
             cap_loc = e.exp_loc;
             cap_what = what;
             cap_allows = current_allows ctx;
           }
           :: !captures
       | Some _ | None -> ());
      if is_function_type env e.exp_type then
        record_call ~applied:false ~loc:e.exp_loc name
  in
  let expr sub (e : expression) =
    with_allows ctx e.exp_attributes @@ fun () ->
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); exp_loc; _ }, args) ->
      let local, callee =
        match p with
        | Path.Pident id -> (Some (local_key ctx id), Ident.name id)
        | _ -> (None, alias_resolved ctx p)
      in
      record_call ?local ~applied:true ~loc:exp_loc callee;
      List.iter (fun (_, a) -> Option.iter (sub.Tast_iterator.expr sub) a) args
    | Texp_ident (p, _, _) -> check_ident e p
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it lam;
  {
    l_loc = lam.exp_loc;
    l_captures = List.rev !captures;
    l_calls = List.rev !calls;
    l_allows = extra_allows @ current_allows ctx;
  }

(* The node-body walk: records call edges, per-call allocation sites,
   module-level mutable touches, local function bindings (for the
   lambda table) and parallel-candidate application sites. *)
let walk_node ctx (node : node) (body : expression) =
  let bound = bound_idents_in body in
  let is_bound id = Hashtbl.mem bound (Ident.unique_name id) in
  let record_call ?local ~applied ~loc callee =
    node.n_calls <-
      {
        callee;
        c_loc = loc;
        applied;
        callee_local = local;
        call_allows = current_allows ctx;
      }
      :: node.n_calls
  in
  let record_alloc ~loc what =
    node.n_allocs <-
      { a_loc = loc; a_what = what; a_allows = current_allows ctx }
      :: node.n_allocs
  in
  let fn_arg_info (arg : expression) =
    match arg.exp_desc with
    | Texp_function _ ->
      `Lambda (lambda_summary ctx arg ~extra_allows:[])
    | Texp_ident (p, _, _) when is_function_type (env_of arg) arg.exp_type ->
      let local, name =
        match p with
        | Path.Pident id -> (Some (local_key ctx id), Ident.name id)
        | _ -> (None, alias_resolved ctx p)
      in
      `Named
        {
          callee = name;
          c_loc = arg.exp_loc;
          applied = false;
          callee_local = local;
          call_allows = current_allows ctx;
        }
    | _ -> `Plain
  in
  let rec expr sub (e : expression) =
    with_allows ctx e.exp_attributes @@ fun () ->
    (if ctx.fun_depth >= 1 then
       match classify_alloc e with
       | Some what -> record_alloc ~loc:e.exp_loc what
       | None -> ());
    match e.exp_desc with
    | Texp_function _ ->
      if ctx.fun_depth >= 1 && not ctx.fun_chain then
        record_alloc ~loc:e.exp_loc "a closure";
      let saved_chain = ctx.fun_chain and saved_depth = ctx.fun_depth in
      ctx.fun_chain <- true;
      ctx.fun_depth <- ctx.fun_depth + 1;
      Tast_iterator.default_iterator.expr sub e;
      ctx.fun_chain <- saved_chain;
      ctx.fun_depth <- saved_depth
    | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as head), args) ->
      ctx.fun_chain <- false;
      let local, callee =
        match p with
        | Path.Pident id -> (Some (local_key ctx id), Ident.name id)
        | _ -> (None, alias_resolved ctx p)
      in
      record_call ?local ~applied:true ~loc:head.exp_loc callee;
      (* Candidate site when any argument is a closure or a named
         function: domain-safety decides later whether [callee]
         reaches a parallel primitive. *)
      let lambdas = ref [] and named = ref [] in
      List.iter
        (fun (_, arg) ->
          match arg with
          | None -> ()
          | Some a -> (
            match fn_arg_info a with
            | `Lambda l -> lambdas := l :: !lambdas
            | `Named c -> named := c :: !named
            | `Plain -> ()))
        args;
      if !lambdas <> [] || !named <> [] then
        ctx.graph.cands <-
          {
            c_file = ctx.file;
            c_modname = ctx.modname;
            c_site = e.exp_loc;
            c_head = callee;
            c_head_local = local;
            c_lambdas = List.rev !lambdas;
            c_named = List.rev !named;
            c_allows = node.n_allows @ current_allows ctx;
          }
          :: ctx.graph.cands;
      List.iter (fun (_, a) -> Option.iter (expr sub) a) args
    | Texp_ident (p, _, _) -> (
      ctx.fun_chain <- false;
      match p with
      | Path.Pident id when is_bound id -> ()
      | Path.Pident id ->
        (* Free in the node body: a module-level value of this unit. *)
        let env = env_of e in
        (match mutability env e.exp_type with
         | Some what ->
           node.n_mut_globals <-
             {
               cap_name = Ident.name id;
               cap_loc = e.exp_loc;
               cap_what = what;
               cap_allows = current_allows ctx;
             }
             :: node.n_mut_globals
         | None -> ());
        if is_function_type env e.exp_type then
          record_call ~local:(local_key ctx id) ~applied:false ~loc:e.exp_loc
            (Ident.name id)
      | _ ->
        let env = env_of e in
        let name = alias_resolved ctx p in
        (match mutability env e.exp_type with
         | Some what ->
           node.n_mut_globals <-
             {
               cap_name = name;
               cap_loc = e.exp_loc;
               cap_what = what;
               cap_allows = current_allows ctx;
             }
             :: node.n_mut_globals
         | None -> ());
        if is_function_type env e.exp_type then
          record_call ~applied:false ~loc:e.exp_loc name)
    | _ ->
      let saved_chain = ctx.fun_chain in
      ctx.fun_chain <- false;
      Tast_iterator.default_iterator.expr sub e;
      ctx.fun_chain <- saved_chain
  in
  let value_binding sub (vb : value_binding) =
    with_allows ctx vb.vb_attributes @@ fun () ->
    (* Local function bindings feed the lambda table so a named
       argument to Parallel.map resolves to its escape summary. *)
    (match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
     | Tpat_var (id, _), Texp_function _ ->
       Hashtbl.replace ctx.graph.locals (local_key ctx id)
         (lambda_summary ctx vb.vb_expr
            ~extra_allows:(allows_of_attrs vb.vb_attributes))
     | _ -> ());
    Tast_iterator.default_iterator.value_binding sub vb
  in
  let it = { Tast_iterator.default_iterator with expr; value_binding } in
  it.expr it body

let node_id ctx name =
  String.concat "."
    ((ctx.modname :: List.rev ctx.mod_path) @ [ name ])

let collect_structure ctx (str : structure) =
  let rec structure_item (item : structure_item) =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : value_binding) ->
          let name =
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) -> Some (Ident.name id)
            | _ -> None
          in
          match name with
          | None -> ()
          | Some name ->
            let binding_allows = allows_of_attrs vb.vb_attributes in
            let node =
              {
                id = node_id ctx name;
                n_file = ctx.file;
                n_modname = ctx.modname;
                n_loc = vb.vb_loc;
                n_hot = ctx.hot_file || Rules.has_hot_attr vb.vb_attributes;
                n_in_functor = ctx.in_functor;
                n_allows = binding_allows @ ctx.file_allows;
                n_calls = [];
                n_allocs = [];
                n_mut_globals = [];
              }
            in
            add_node ctx.graph node;
            ctx.allow_stack <- binding_allows :: ctx.allow_stack;
            Fun.protect
              ~finally:(fun () -> ctx.allow_stack <- List.tl ctx.allow_stack)
              (fun () -> walk_node ctx node vb.vb_expr))
        vbs
    | Tstr_module mb -> module_binding mb
    | Tstr_recmodule mbs -> List.iter module_binding mbs
    | _ -> ()
  and module_binding (mb : module_binding) =
    let name = Option.value mb.mb_name.txt ~default:"_" in
    (* [module X = Path]: record the alias for reference rewriting. *)
    (match mb.mb_expr.mod_desc with
     | Tmod_ident (p, _) ->
       ctx.aliases <- (name, Path.name p) :: ctx.aliases
     | _ -> ());
    ctx.mod_path <- name :: ctx.mod_path;
    Fun.protect
      ~finally:(fun () -> ctx.mod_path <- List.tl ctx.mod_path)
      (fun () -> module_expr mb.mb_expr)
  and module_expr (me : module_expr) =
    match me.mod_desc with
    | Tmod_structure str -> List.iter structure_item str.str_items
    | Tmod_functor (_, body) ->
      (* Bodies of functors are analysed as nodes (their instantiated
         names never resolve, so edges into them stay unknown). *)
      let saved = ctx.in_functor in
      ctx.in_functor <- true;
      Fun.protect
        ~finally:(fun () -> ctx.in_functor <- saved)
        (fun () -> module_expr body)
    | Tmod_constraint (me, _, _, _) -> module_expr me
    | Tmod_ident _ | Tmod_apply _ | Tmod_apply_unit _ | Tmod_unpack _ -> ()
  in
  List.iter structure_item str.str_items

let collect graph ~file ~modname (str : structure) =
  let ctx =
    {
      graph;
      file;
      modname;
      aliases = [];
      file_allows =
        List.concat_map
          (fun (item : structure_item) ->
            match item.str_desc with
            | Tstr_attribute attr -> allows_of_attrs [ attr ]
            | _ -> [])
          str.str_items
        |> List.sort_uniq String.compare;
      hot_file = Rules.file_is_hot str;
      allow_stack = [];
      fun_depth = 0;
      fun_chain = false;
      mod_path = [];
      in_functor = false;
    }
  in
  collect_structure ctx str

(* --- the whole-program rules --------------------------------------- *)

let pos_string (loc : Location.t) =
  let p = loc.loc_start in
  Printf.sprintf "%s:%d:%d"
    (let f = p.pos_fname in
     if String.length f > 2 && String.sub f 0 2 = "./" then
       String.sub f 2 (String.length f - 2)
     else f)
    (max 1 p.pos_lnum)
    (max 0 (p.pos_cnum - p.pos_bol))

(* Resolve a call record to what it denotes: a local lambda summary, a
   graph node, or nothing we know about. *)
let resolve_call t ~modname (c : call) =
  match c.callee_local with
  | Some key when Hashtbl.mem t.locals key -> `Lambda (Hashtbl.find t.locals key)
  | _ -> (
    match resolve t ~modname c.callee with
    | Some id -> `Node (Hashtbl.find t.nodes id)
    | None -> `Unknown)

(* Does the candidate's head ship its functional arguments across
   domains?  Either a parallel primitive itself, a local closure that
   reaches one, or a known node that reaches one. *)
let head_is_spawning t ~modname (cand : candidate) =
  Name.is_parallel_primitive cand.c_head
  ||
  match
    resolve_call t ~modname
      {
        callee = cand.c_head;
        c_loc = cand.c_site;
        applied = true;
        callee_local = cand.c_head_local;
        call_allows = [];
      }
  with
  | `Node n -> reaches_parallel t n.id
  | `Lambda l ->
    List.exists (fun c -> Name.is_parallel_primitive c.callee) l.l_calls
  | `Unknown -> false

let check_domain_safety t ~emit =
  List.iter
    (fun (cand : candidate) ->
      let modname = cand.c_modname in
      if head_is_spawning t ~modname cand then begin
        let head = cand.c_head in
        (* A closure's effective captures: its own, plus module-level
           mutable state reached through local lambdas it calls and
           known nodes it calls. *)
        let rec judge_lambda ~seen ~inherited_allows (l : lambda) =
          let allows = cand.c_allows @ inherited_allows @ l.l_allows in
          List.iter
            (fun cap ->
              emit ~rule:"domain-safety" ~file:cand.c_file ~loc:cap.cap_loc
                ~allows:(allows @ cap.cap_allows)
                (Printf.sprintf
                   "closure shipped to %s captures %s (%s) shared with the \
                    enclosing scope; shards must own their mutable state — \
                    audit and mark [@atplint.domain_safe], or restructure"
                   head cap.cap_name cap.cap_what))
            l.l_captures;
          List.iter
            (fun (c : call) ->
              match resolve_call t ~modname c with
              | `Lambda l' ->
                if not (List.memq l' seen) then
                  judge_lambda ~seen:(l' :: seen)
                    ~inherited_allows:(allows @ c.call_allows) l'
              | `Node n -> (
                match mutable_global_witness t n.id with
                | Some (owner, g) ->
                  emit ~rule:"domain-safety" ~file:cand.c_file ~loc:c.c_loc
                    ~allows:(allows @ c.call_allows)
                    (Printf.sprintf
                       "closure shipped to %s calls %s, which touches \
                        module-level mutable state (%s %s at %s)"
                       head n.id g.cap_what g.cap_name
                       (pos_string owner.n_loc))
                | None -> ())
              | `Unknown -> ())
            l.l_calls
        in
        List.iter (judge_lambda ~seen:[] ~inherited_allows:[]) cand.c_lambdas;
        List.iter
          (fun (c : call) ->
            match resolve_call t ~modname c with
            | `Lambda l ->
              judge_lambda ~seen:[ l ] ~inherited_allows:c.call_allows l
            | `Node n -> (
              match mutable_global_witness t n.id with
              | Some (owner, g) ->
                emit ~rule:"domain-safety" ~file:cand.c_file ~loc:c.c_loc
                  ~allows:(cand.c_allows @ c.call_allows @ n.n_allows)
                  (Printf.sprintf
                     "%s shipped to %s touches module-level mutable state \
                      (%s %s at %s)"
                     n.id head g.cap_what g.cap_name (pos_string owner.n_loc))
              | None -> ())
            | `Unknown -> ())
          cand.c_named
      end)
    (List.rev t.cands)

let check_hot_alloc_transitive t ~emit =
  Hashtbl.iter
    (fun _ (n : node) ->
      if n.n_hot then
        List.iter
          (fun (c : call) ->
            if c.applied then
              match resolve t ~modname:n.n_modname c.callee with
              | None -> () (* unknown callee: stay silent, documented *)
              | Some id -> (
                match find_node t id with
                | Some g when not g.n_hot -> (
                  match alloc_witness t id with
                  | Some (chain, a) ->
                    let msg =
                      match chain with
                      | [ direct ] ->
                        Printf.sprintf
                          "hot-tagged code calls %s, which allocates %s per \
                           call (%s); tag the callee [@atplint.hot] and fix \
                           it, hoist the allocation, or justify with \
                           [@atplint.allow]"
                          direct.id a.a_what (pos_string a.a_loc)
                      | direct :: _ ->
                        let last = List.nth chain (List.length chain - 1) in
                        Printf.sprintf
                          "hot-tagged code calls %s, which reaches %s \
                           allocating %s per call (%s); tag the chain \
                           [@atplint.hot] and fix it, hoist the allocation, \
                           or justify with [@atplint.allow]"
                          direct.id last.id a.a_what (pos_string a.a_loc)
                      | [] -> assert false
                    in
                    emit ~rule:"hot-path-alloc-transitive" ~file:n.n_file
                      ~loc:c.c_loc
                      ~allows:(n.n_allows @ c.call_allows)
                      msg
                  | None -> ())
                | Some _ | None -> ()))
          (List.rev n.n_calls))
    t.nodes

(* The emitter every whole-program rule reports through.  [enabled]
   folds in --only and scope filtering for the diagnostic's file;
   suppression layers checked here are the site-collected attribute
   allows and the config allowlist (the baseline is applied by the
   driver). *)
let emitter ~enabled ~cfg diags ~rule ~file ~loc ~allows message =
  if
    enabled ~rule ~file
    && (not (List.mem rule allows))
    && not (Lint_config.allows cfg ~rule ~file)
  then
    let severity = Lint_config.severity cfg ~rule ~default:Diagnostic.Error in
    diags := Diagnostic.of_location ~rule ~severity ~message loc :: !diags

(* Run both call-graph rules. *)
let finalize t ~enabled ~cfg =
  let diags = ref [] in
  let emit = emitter ~enabled ~cfg diags in
  check_domain_safety t ~emit;
  check_hot_alloc_transitive t ~emit;
  !diags
