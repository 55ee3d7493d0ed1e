(* lrp_allocheck — the repo's static analyzer: determinism, layering,
   zero-allocation and domain-escape rules in one pass over the build.

     lrp_allocheck [--json] [--out FILE] [--conf FILE] [--root DIR]

   Reads the .cmt files dune left under _build (`dune build @check`
   writes them for executables too), runs the determinism rules over
   every loaded implementation and the layer rule over the dune file
   beside it, walks the hot-path entry points named in allocheck.conf
   (plus transitive callees inside the followed directories) for
   allocation points, and checks the cell-resident directories for
   stores that publish values across domains.  Exits 0 on a clean tree,
   1 when there are findings, 2 on usage/configuration errors (including
   a build with no .cmt files).  --json switches stdout to the
   machine-readable report; --out additionally writes the report to FILE
   (CI uploads it as an artifact on failure).  The rules are documented
   in DESIGN.md §11 and §16. *)

open Lrp_allocheck

let usage () =
  prerr_endline
    "usage: lrp_allocheck [--json] [--out FILE] [--conf FILE] [--root DIR]";
  prerr_endline "  --conf defaults to allocheck.conf under the root";
  prerr_endline "  --root defaults to the current directory";
  exit 2

let () =
  let json = ref false in
  let out = ref None in
  let conf = ref None in
  let root = ref "." in
  let rec parse_args = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse_args rest
    | "--out" :: file :: rest ->
        out := Some file;
        parse_args rest
    | "--conf" :: file :: rest ->
        conf := Some file;
        parse_args rest
    | "--root" :: dir :: rest ->
        root := dir;
        parse_args rest
    | _ -> usage ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let root = !root in
  let conf_path =
    match !conf with Some f -> f | None -> Filename.concat root "allocheck.conf"
  in
  let cfg =
    match Aconfig.load conf_path with
    | Ok cfg -> cfg
    | Error e ->
        Printf.eprintf "lrp_allocheck: %s: %s\n" conf_path e;
        exit 2
  in
  let findings, stats =
    Adriver.run ~root ~conf_name:(Filename.basename conf_path) cfg
  in
  if stats.Adriver.cmt_files = 0 then begin
    Printf.eprintf
      "lrp_allocheck: no .cmt files under %s — run 'dune build @check' \
       first\n"
      (String.concat ", "
         (List.map (Filename.concat root) cfg.Aconfig.cmt_dirs));
    exit 2
  end;
  let report =
    if !json then Finding.to_json findings
    else
      String.concat "" (List.map (fun f -> Finding.to_text f ^ "\n") findings)
  in
  print_string report;
  if not !json then
    Printf.printf
      "lrp_allocheck: %d finding%s (%d units linted, %d dune files, %d \
       hot-path functions, %d escape-checked, %d cmt files)\n"
      (List.length findings)
      (if List.length findings = 1 then "" else "s")
      (List.length stats.Adriver.units)
      stats.Adriver.dune_files stats.Adriver.funcs_analyzed
      stats.Adriver.escape_funcs stats.Adriver.cmt_files;
  (match !out with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (if !json then report else Finding.to_json findings);
      close_out oc);
  exit (if findings = [] then 0 else 1)
