(* atplint — static analysis over the compiler's typed ASTs (.cmt)
   enforcing the project invariants described in docs/LINTING.md.

   Usage:
     atplint [--root DIR] [--config FILE] [--only R1,R2] [--no-scope]
             [--format human|json] [--baseline FILE]
             [--write-baseline FILE] PATH...

   PATHs are .cmt files or directories searched recursively.  Run it
   from the dune build context root (dune build @lint does) so the
   load paths recorded in the .cmt files resolve.

   Two analysis phases: the intra-procedural rules run per file, then
   the whole-program rules judge the linked program: domain-safety and
   hot-path-alloc-transitive over one call graph (Callgraph) of the
   units some whole-program rule covers, and unused-export (Exports)
   over the references of every scanned unit, so PATHs outside every
   rule's scope (tests, tools) still count as callers.

   Exit codes: 0 clean (or warnings only), 1 at least one error-level
   diagnostic, 2 operational failure (unreadable file, bad config or
   baseline). *)

open Atplint_lib

let root = ref "."
let config_file = ref ""
let only = ref []
let no_scope = ref false
let format = ref "human"
let baseline_file = ref ""
let write_baseline_file = ref ""
let paths = ref []

let usage = "atplint [options] <.cmt file or directory>..."

let list_rules () =
  List.iter
    (fun (r : Rules.rule) ->
      Printf.printf "%-20s %s%s\n" r.name r.summary
        (if r.whole_program then " (whole-program)" else "");
      Printf.printf "%-20s scope: %s\n" "" (String.concat " " r.scopes))
    Rules.all_rules;
  exit 0

let args =
  [
    ("--root", Arg.Set_string root,
     "DIR repository root used to resolve interface files (default .)");
    ("--config", Arg.Set_string config_file,
     "FILE atplint.toml with per-path allowlists and severities");
    ("--only",
     Arg.String
       (fun s -> only := String.split_on_char ',' s |> List.map String.trim),
     "R1,R2 run only the named rules");
    ("--no-scope", Arg.Set no_scope,
     " apply every rule to every file (fixture testing)");
    ("--format", Arg.Set_string format,
     "FMT output format: human (default) or json (one object per line)");
    ("--baseline", Arg.Set_string baseline_file,
     "FILE suppress findings recorded in this committed baseline");
    ("--write-baseline", Arg.Set_string write_baseline_file,
     "FILE write the current findings as a baseline and exit 0");
    ("--list-rules", Arg.Unit list_rules, " print the rules and exit");
  ]

let fatal fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("atplint: " ^ s);
      exit 2)
    fmt

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let normalize_path f =
  if starts_with ~prefix:"./" f then String.sub f 2 (String.length f - 2)
  else f

(* --- cmt discovery ------------------------------------------------ *)

let rec find_cmts acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> find_cmts acc (Filename.concat path entry))
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

(* --- interface-side information ----------------------------------- *)

let attr_doc_strings (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> "ocaml.doc" && a.attr_name.txt <> "doc" then None
      else
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                      _ );
                _;
              };
            ] ->
          Some s
        | _ -> None)
    attrs

let contains_raise doc =
  (* Look for the odoc tag, not the bare word: "@raise". *)
  let n = String.length doc in
  let rec go i =
    if i + 6 > n then false
    else if String.sub doc i 6 = "@raise" then true
    else go (i + 1)
  in
  go 0

(* Parse the interface source and return the exported values that have
   no @raise in their attached doc comment. *)
let undocumented_exports mli_path =
  match Exports.parse_interface ~fname:mli_path mli_path with
  | None -> []
  | Some signature ->
    List.filter_map
      (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value vd ->
          let docs = attr_doc_strings vd.pval_attributes in
          if List.exists contains_raise docs then None
          else Some vd.pval_name.txt
        | _ -> None)
      signature

(* --- per-file processing ------------------------------------------ *)

(* Is rule [r] enabled for [file] under --only and scope filtering?
   Whole-program rules use the same predicate at finalization time,
   keyed by each diagnostic's own file. *)
let want_rule name = !only = [] || List.mem name !only

let rule_enabled (r : Rules.rule) ~file =
  want_rule r.name
  && (!no_scope || List.exists (fun p -> starts_with ~prefix:p file) r.scopes)

let want_whole_program () =
  List.exists
    (fun (r : Rules.rule) -> r.whole_program && want_rule r.name)
    Rules.all_rules

let process ~cfg ~diags ~graph ~exports cmt_path =
  let cmt =
    try Cmt_format.read_cmt cmt_path
    with exn ->
      fatal "cannot read %s: %s" cmt_path (Printexc.to_string exn)
  in
  match (cmt.cmt_annots, cmt.cmt_sourcefile) with
  | Cmt_format.Implementation str, Some source
    when Filename.check_suffix source ".ml" ->
    let file = normalize_path source in
    let enabled (r : Rules.rule) =
      (not r.whole_program) && rule_enabled r ~file
    in
    let active name =
      match
        List.find_opt (fun (r : Rules.rule) -> r.name = name) Rules.all_rules
      with
      | Some r -> enabled r
      | None -> false
    in
    let run_intra = List.exists enabled Rules.all_rules in
    (* Only units a whole-program rule covers join the call graph:
       calls flow from the rest into them, never back. *)
    let run_graph =
      List.exists
        (fun (r : Rules.rule) -> r.whole_program && rule_enabled r ~file)
        Rules.all_rules
    in
    let run_exports = want_rule "unused-export" in
    if run_intra || run_graph || run_exports then begin
      (* Rebuild enough typing environment for type-driven rules: the
         load path recorded at compile time plus the cmt's own
         directory. *)
      Load_path.init ~auto_include:Load_path.no_auto_include
        (cmt.cmt_loadpath @ [ Filename.dirname cmt_path ]);
      Envaux.reset_cache ();
      let mli_rel = Filename.remove_extension file ^ ".mli" in
      let mli_fs = Filename.concat !root mli_rel in
      let mli_exists = Sys.file_exists mli_fs in
      if run_intra then begin
        let exported_undoc = Hashtbl.create 16 in
        if mli_exists && active "exception-contract" then
          List.iter
            (fun v -> Hashtbl.replace exported_undoc v mli_rel)
            (undocumented_exports mli_fs);
        let mli_missing =
          if mli_exists then None else Some (Location.in_file file)
        in
        let file_diags =
          Rules.run ~cfg ~file ~active ~exported_undoc ~mli_missing str
        in
        diags := file_diags @ !diags
      end;
      if run_graph then
        Callgraph.collect graph ~file ~modname:cmt.cmt_modname str;
      if run_exports then
        Exports.collect exports ~modname:cmt.cmt_modname
          ~mli:(if mli_exists then Some (mli_fs, mli_rel) else None)
          str
    end
  | _ -> ()

(* --- main --------------------------------------------------------- *)

let () =
  Arg.parse args (fun p -> paths := p :: !paths) usage;
  if !paths = [] then begin
    prerr_endline usage;
    exit 2
  end;
  if !format <> "human" && !format <> "json" then
    fatal "unknown --format %S (want human|json)" !format;
  List.iter
    (fun r ->
      if not (List.exists (fun (x : Rules.rule) -> x.name = r) Rules.all_rules)
      then fatal "unknown rule %S (see --list-rules)" r)
    !only;
  let cfg =
    if !config_file = "" then Lint_config.empty
    else
      try Lint_config.load !config_file with
      | Lint_config.Config_error msg -> fatal "%s: %s" !config_file msg
      | Sys_error msg -> fatal "%s" msg
  in
  let baseline =
    if !baseline_file = "" then []
    else
      try Baseline.load !baseline_file with
      | Baseline.Baseline_error msg -> fatal "%s: %s" !baseline_file msg
      | Sys_error msg -> fatal "%s" msg
  in
  let cmts =
    List.fold_left
      (fun acc p ->
        if not (Sys.file_exists p) then fatal "no such path: %s" p
        else find_cmts acc p)
      [] !paths
    |> List.sort String.compare
  in
  let diags = ref [] in
  let graph = Callgraph.create () and exports = Exports.create () in
  List.iter (process ~cfg ~diags ~graph ~exports) cmts;
  (if want_whole_program () then
     let enabled ~rule ~file =
       match
         List.find_opt (fun (r : Rules.rule) -> r.name = rule) Rules.all_rules
       with
       | Some r -> rule_enabled r ~file
       | None -> false
     in
     diags := Callgraph.finalize graph ~enabled ~cfg @ !diags;
     Exports.check exports ~emit:(Callgraph.emitter ~enabled ~cfg diags));
  let compare_full a b =
    let c = Diagnostic.compare a b in
    if c <> 0 then c else String.compare a.Diagnostic.message b.Diagnostic.message
  in
  let sorted = List.sort_uniq compare_full !diags in
  if !write_baseline_file <> "" then begin
    let n = Baseline.write !write_baseline_file sorted in
    Printf.eprintf "atplint: wrote %d baseline entr%s to %s\n" n
      (if n = 1 then "y" else "ies")
      !write_baseline_file;
    exit 0
  end;
  let suppressed, kept =
    List.partition (fun d -> Baseline.mem baseline d) sorted
  in
  List.iter
    (fun (e : Baseline.entry) ->
      Printf.eprintf
        "atplint: stale baseline entry (no longer fires): %s [%s] %s\n"
        e.Baseline.b_file e.Baseline.b_rule e.Baseline.b_message)
    (Baseline.stale baseline sorted);
  (match !format with
   | "json" -> List.iter (fun d -> print_endline (Diagnostic.to_json d)) kept
   | _ ->
     List.iter (fun d -> Format.printf "%a@." Diagnostic.pp d) kept;
     let errors, warnings =
       List.partition (fun d -> d.Diagnostic.severity = Diagnostic.Error) kept
     in
     if kept <> [] || suppressed <> [] then
       Format.printf "atplint: %d error(s), %d warning(s)%s@."
         (List.length errors) (List.length warnings)
         (match List.length suppressed with
          | 0 -> ""
          | n -> Printf.sprintf ", %d baseline-suppressed" n));
  let errors =
    List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) kept
  in
  exit (if errors <> [] then 1 else 0)
