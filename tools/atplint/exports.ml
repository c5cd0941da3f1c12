(* The whole-program unused-export rule: every value an interface in
   scope exports must be referenced from some other scanned unit.

   Exports are the [val]s of a unit's .mli source, nested
   [module M : sig ... end] signatures included.  Module types,
   functor results and [include]d signatures export nothing of their
   own: a policy's [include Policy.S] values must exist whoever calls
   them.

   References are collected from every scanned unit, in scope or not,
   so the test, tool and example trees count:
     - a qualified [Texp_ident] names an export of another unit once
       its head is resolved through the unit's own module aliases;
       Name.canon folds dune's "__" mangling so the wrapper-alias and
       mangled views of a path agree;
     - a first-class-module pack references every value of its package
       type in the packed module;
     - a path the rule cannot resolve (a functor application, a
       functor parameter) references every export with the same value
       name, so the rule stays silent when unsure.
   Modules unpacked from a first-class value are not followed: the
   pack that made the value already counted. *)

open Typedtree

(* --- exports ------------------------------------------------------- *)

(* Parse an interface source, naming it [fname] in locations; None
   (after a warning) when it does not parse. *)
let parse_interface ~fname path =
  let ic = open_in_bin path in
  let source =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf fname;
  match Parse.interface lexbuf with
  | signature -> Some signature
  | exception _ ->
    prerr_endline ("atplint: warning: could not parse " ^ path);
    None

type export = {
  key : string; (* canonical "Unit.Nested.value" *)
  e_module : string; (* canonical "Unit.Nested" *)
  e_name : string;
  e_loc : Location.t;
  e_allows : string list;
}

(* The [val]s of [signature], nested module signatures included, keyed
   under the canonical unit name [unit_key]. *)
let exports_of_signature ~unit_key (signature : Parsetree.signature) =
  let rec items prefix sg =
    List.concat_map
      (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value vd ->
          [
            {
              key = prefix ^ "." ^ vd.pval_name.txt;
              e_module = prefix;
              e_name = vd.pval_name.txt;
              e_loc = vd.pval_loc;
              e_allows = Rules.allows_of_attributes vd.pval_attributes;
            };
          ]
        | Psig_module
            {
              pmd_name = { txt = Some m; _ };
              pmd_type = { pmty_desc = Pmty_signature sg; _ };
              _;
            } ->
          items (prefix ^ "." ^ m) sg
        | _ -> [])
      sg
  in
  items unit_key signature

(* --- references ---------------------------------------------------- *)

type t = {
  mutable exports : export list;
  refs : (string, unit) Hashtbl.t; (* canonical value paths *)
  by_name : (string, unit) Hashtbl.t; (* names behind unresolved paths *)
  (* (canonical module path, values reached; None for all when the
     package type cannot be expanded) *)
  mutable packs : (string * string list option) list;
}

let create () =
  {
    exports = [];
    refs = Hashtbl.create 1024;
    by_name = Hashtbl.create 64;
    packs = [];
  }

(* What a path denotes: a canonical name in another unit (or a
   library), something this unit owns or an unpack already counted,
   or nothing the rule can resolve. *)
type target =
  | Global of string
  | Internal
  | Unknown

type cctx = {
  t : t;
  unit_key : string;
  locals : (string, target) Hashtbl.t; (* local module ident -> target *)
}

let resolve ctx path =
  let raw = Path.name path in
  if String.contains raw '(' then Unknown
  else
    let head = Path.head path in
    if Ident.global head then Global (Callgraph.Name.canon raw)
    else
      match Hashtbl.find_opt ctx.locals (Ident.unique_name head) with
      | Some (Global target) ->
        let h = String.length (Ident.name head) in
        Global (target ^ String.sub raw h (String.length raw - h))
      | Some target -> target
      | None -> Unknown

let is_own ctx name =
  let prefix = ctx.unit_key ^ "." in
  String.length name > String.length prefix
  && String.sub name 0 (String.length prefix) = prefix

let add_ref ctx path =
  match resolve ctx path with
  | Global name ->
    if not (is_own ctx name) then Hashtbl.replace ctx.t.refs name ()
  | Internal -> ()
  | Unknown -> Hashtbl.replace ctx.t.by_name (Path.last path) ()

let rec module_target ctx (me : module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> resolve ctx p
  | Tmod_constraint (me, _, _, _) -> module_target ctx me
  | Tmod_structure _ | Tmod_unpack _ -> Internal
  | Tmod_functor _ | Tmod_apply _ | Tmod_apply_unit _ -> Unknown

let add_pack ctx (me : module_expr) values =
  match module_target ctx me with
  | Global m ->
    if not (is_own ctx m) then ctx.t.packs <- (m, values) :: ctx.t.packs
  | Internal -> ()
  | Unknown ->
    Option.iter
      (List.iter (fun v -> Hashtbl.replace ctx.t.by_name v ()))
      values

(* The value names of a pack expression's package type. *)
let package_values (e : expression) =
  try
    let env = Callgraph.env_of e in
    match Types.get_desc (Ctype.expand_head env e.exp_type) with
    | Types.Tpackage (p, _) -> (
      match Mtype.scrape env (Env.find_modtype_expansion p env) with
      | Types.Mty_signature sg ->
        Some
          (List.filter_map
             (function
               | Types.Sig_value (id, _, _) -> Some (Ident.name id)
               | _ -> None)
             sg)
      | _ -> None)
    | _ -> None
  with _ -> None

let bind ctx id me =
  Option.iter
    (fun id ->
      Hashtbl.replace ctx.locals (Ident.unique_name id) (module_target ctx me))
    id

(* Record this unit's references, and its exports when [mli] (the
   interface source and its repo-relative name) is given. *)
let collect t ~modname ~mli (str : structure) =
  let unit_key = Callgraph.Name.canon modname in
  (match mli with
   | Some (path, fname) ->
     Option.iter
       (fun sg -> t.exports <- exports_of_signature ~unit_key sg @ t.exports)
       (parse_interface ~fname path)
   | None -> ());
  let ctx = { t; unit_key; locals = Hashtbl.create 16 } in
  let expr sub (e : expression) =
    (match e.exp_desc with
     | Texp_ident ((Path.Pdot _ as p), _, _) -> add_ref ctx p
     | Texp_pack me -> add_pack ctx me (package_values e)
     | Texp_letmodule (id, _, _, me, _) -> bind ctx id me
     | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let module_binding sub (mb : module_binding) =
    bind ctx mb.mb_id mb.mb_expr;
    Tast_iterator.default_iterator.module_binding sub mb
  in
  (* [fun (module P) -> ...] binds P by an unpack pattern, aliased
     when constrained: [fun (module P : S) -> ...]. *)
  let unpacks (type k) (p : k general_pattern) =
    List.exists (function Tpat_unpack, _, _ -> true | _ -> false) p.pat_extra
  in
  let pat (type k) sub (p : k general_pattern) =
    (match p.pat_desc with
     | Tpat_var (id, _) when unpacks p ->
       Hashtbl.replace ctx.locals (Ident.unique_name id) Internal
     | Tpat_alias (inner, id, _) when unpacks inner ->
       Hashtbl.replace ctx.locals (Ident.unique_name id) Internal
     | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let it =
    { Tast_iterator.default_iterator with expr; module_binding; pat }
  in
  it.structure it str

(* --- the rule ------------------------------------------------------ *)

let referenced t (e : export) =
  Hashtbl.mem t.refs e.key
  || Hashtbl.mem t.by_name e.e_name
  || List.exists
       (fun (m, values) ->
         m = e.e_module
         && match values with None -> true | Some vs -> List.mem e.e_name vs)
       t.packs

let check t ~emit =
  List.iter
    (fun (e : export) ->
      if not (referenced t e) then
        emit ~rule:"unused-export" ~file:e.e_loc.loc_start.pos_fname
          ~loc:e.e_loc ~allows:e.e_allows
          (Printf.sprintf
             "%s is exported but no other scanned unit references it; \
              delete it, or drop it from the interface if its own module \
              still uses it"
             e.key))
    t.exports
