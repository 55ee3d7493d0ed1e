(* The lrp_allocheck driver: load .cmt files, run the determinism rules
   over every loaded implementation and L1 over the dune file beside
   each, walk the configured hot paths for allocations, walk the
   cell-resident directories for escapes, then sweep for stale
   suppressions.

   The allocation pass is a breadth-first closure over the call graph:
   configured entry points seed a work queue, and every resolved
   reference to a function inside [follow_dirs] is enqueued (once).
   Calls that leave the followed directories, and functions listed under
   [assume], are boundaries — their cost is their own contract.

   The escape pass is not reachability-based (see escape.ml): every
   top-level function in [escape_dirs] is checked.

   An entry that fails to resolve is itself a finding (rule CFG) — a
   renamed hot path must not silently drop out of the gate — and so is
   a cmt directory with no compiled unit (executables only get .cmt
   files from `dune build @check`). *)

let marker = "(* alloc:"
let known_tags = [ "cold"; "escape-ok" ]

type stats = {
  cmt_files : int;
  funcs_analyzed : int;  (* allocation pass, entries + transitive *)
  escape_funcs : int;  (* escape pass *)
  units : string list;  (* implementation sources the lint rules ran over *)
  dune_files : int;  (* dune files L1 checked *)
}

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> Some text
  | exception Sys_error _ -> None

(* A source file's text, found under [root] or as given ("" if absent). *)
let source ~root file =
  match read_file (Filename.concat root file) with
  | Some t -> t
  | None -> ( match read_file file with Some t -> t | None -> "")

(* The two spellings a conf file may use for one function. *)
let canon_names (m : Cmtload.modl) (fn : Cmtload.func) =
  let short = Cmtload.short_of m.md_key in
  let full = m.md_key ^ "." ^ fn.fn_name in
  if short = m.md_key then [ full ] else [ short ^ "." ^ fn.fn_name; full ]

let listed names set = List.exists (fun n -> List.mem n set) names

let run ~root ?(conf_name = "allocheck.conf") (cfg : Aconfig.t) :
    Finding.t list * stats =
  let load = Cmtload.load ~root cfg.cmt_dirs in
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let cfg_finding msg =
    emit (Finding.v ~rule:"CFG" ~file:conf_name ~line:0 ~col:0 msg)
  in
  List.iter
    (fun d ->
      cfg_finding
        (Printf.sprintf
           "cmt-dir '%s' holds no .cmt files (run 'dune build @check' \
            first)"
           d))
    load.empty_dirs;

  (* --- determinism rules over every implementation, L1 beside it --- *)
  let units =
    Lrp_det.Det.bindings load.mods
    |> List.filter_map (fun (_, (m : Cmtload.modl)) ->
           if Filename.check_suffix m.md_source ".ml" then Some m else None)
  in
  List.iter
    (fun (m : Cmtload.modl) ->
      let file = m.md_source in
      let supp =
        Suppress.scan ~marker:Lintrules.marker ~known:Lintrules.known_tags
          (source ~root file)
      in
      Lintrules.check_impl ~config:cfg ~file ~supp ~emit m.md_str;
      List.iter emit (Suppress.unused supp ~what:"lint" ~file))
    units;
  let dune_files =
    if cfg.layer_rank = [] then []
    else
      List.map
        (fun (m : Cmtload.modl) ->
          Filename.concat (Filename.dirname m.md_source) "dune")
        units
      |> List.sort_uniq String.compare
      |> List.filter (fun f -> Sys.file_exists (Filename.concat root f))
  in
  List.iter
    (fun file ->
      match Dunefile.stanzas_of (source ~root file) with
      | stanzas -> List.iter emit (Layers.check ~config:cfg ~file stanzas)
      | exception Dunefile.Parse_error (msg, line) ->
          emit
            (Finding.v ~rule:"PARSE" ~file ~line ~col:0
               (Printf.sprintf "cannot parse dune file: %s" msg)))
    dune_files;

  (* Per-file suppression tables, filled lazily as the walks reach
     files; every file touched is swept for unused entries at the end. *)
  let supps : (string, Suppress.t) Hashtbl.t = Hashtbl.create 32 in
  let supp_for file =
    match Hashtbl.find_opt supps file with
    | Some s -> s
    | None ->
        let s = Suppress.scan ~marker ~known:known_tags (source ~root file) in
        Hashtbl.replace supps file s;
        s
  in

  (* --- allocation pass ------------------------------------------- *)
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let queue : (Cmtload.modl * Cmtload.func) Queue.t = Queue.create () in
  let enqueue (m : Cmtload.modl) (fn : Cmtload.func) =
    let key = m.md_key ^ "." ^ fn.fn_name in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      Queue.add (m, fn) queue
    end
  in
  List.iter
    (fun entry ->
      match Cmtload.resolve_name load entry with
      | Some (m, fn) -> enqueue m fn
      | None ->
          cfg_finding
            (Printf.sprintf
               "entry '%s' does not resolve to a loaded binding (not built, \
                renamed, or misspelled?)"
               entry))
    cfg.entries;
  let funcs_analyzed = ref 0 in
  while not (Queue.is_empty queue) do
    let m, fn = Queue.pop queue in
    if not (listed (canon_names m fn) cfg.assume) then begin
      incr funcs_analyzed;
      let ctx =
        {
          Allocwalk.load;
          current = m;
          file = m.md_source;
          supp = supp_for m.md_source;
          allocating_extra = cfg.allocating_extra;
          emit;
          edge =
            (fun m' fn' ->
              if Pathspec.in_dirs m'.Cmtload.md_source cfg.follow_dirs
              then enqueue m' fn');
          unboxed = [];
        }
      in
      Allocwalk.analyze ctx fn
    end
  done;

  (* --- escape pass ------------------------------------------------ *)
  let escape_funcs = ref 0 in
  let escape_mods =
    Lrp_det.Det.bindings load.mods
    |> List.filter_map (fun (_, (m : Cmtload.modl)) ->
           if Pathspec.in_dirs m.md_source cfg.escape_dirs then
             Some m
           else None)
  in
  List.iter
    (fun (m : Cmtload.modl) ->
      List.iter
        (fun (fn : Cmtload.func) ->
          incr escape_funcs;
          let ctx =
            {
              Escape.top_ids = m.md_top_ids;
              cross_fields = cfg.cross_cell_fields;
              sanctioned = listed (canon_names m fn) cfg.escape_sanctions;
              file = m.md_source;
              supp = supp_for m.md_source;
              emit;
            }
          in
          Escape.check_fn ctx fn)
        m.md_funcs)
    escape_mods;

  (* --- stale suppressions ----------------------------------------- *)
  Lrp_det.Det.iter_sorted
    (fun file s -> List.iter emit (Suppress.unused s ~what:"alloc" ~file))
    supps;

  ( Finding.sort !findings,
    {
      cmt_files = load.cmt_files;
      funcs_analyzed = !funcs_analyzed;
      escape_funcs = !escape_funcs;
      units = List.map (fun (m : Cmtload.modl) -> m.md_source) units;
      dune_files = List.length dune_files;
    } )
