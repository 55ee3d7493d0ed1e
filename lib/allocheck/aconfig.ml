(* Configuration for lrp_allocheck.

   The analyzer is scoped by an explicit, checked-in configuration
   (allocheck.conf at the repo root for the live tree; tests build their
   own records) rather than by heuristics.  The zero-allocation contract
   covers exactly the entry points named here plus their transitive
   callees inside the followed directories; the escape rules cover
   exactly the cell-resident directories; the determinism rules
   (D1-D4, P1, C1, C2) run over every implementation loaded from the
   cmt directories, each scoped by the path lists below; and L1 checks
   the dune file beside each loaded unit against the layer ranks.
   Everything else in the tree is free to allocate — experiments,
   reporting and setup code are supposed to.

   Function names are written [Module.func] using the short module name
   ("Engine.run") or the full compilation-unit name
   ("Lrp_engine__Engine.run"); submodule bindings use
   [Module.Sub.func]. *)

type t = {
  cmt_dirs : string list;
      (* Build-relative directories scanned for .cmt files, e.g.
         "_build/default/lib".  Only modules found here are loadable. *)
  entries : string list;
      (* Hot-path entry points: roots of the allocation walk. *)
  follow_dirs : string list;
      (* Source directories whose functions are analyzed transitively
         when reached from an entry.  Calls leaving these directories are
         treated as boundaries (the callee's own cost is its own
         contract). *)
  assume : string list;
      (* Functions treated as boundaries even when reached inside
         [follow_dirs] — used for modelled-cost machinery that is
         documented to allocate (with the reason recorded here, in the
         conf file comments). *)
  escape_dirs : string list;
      (* Cell-resident source directories: every top-level function here
         is checked for stores that publish values to module-level or
         cross-cell state (the interprocedural form of lint rule C2). *)
  cross_cell_fields : string list;
      (* Record/array fields that other cells read: the uplink outbox
         columns.  Stores into them are findings unless the writer is
         sanctioned. *)
  escape_sanctions : string list;
      (* Functions allowed to write cross-cell or domain-local state:
         the uplink outbox writers and the per-domain Idspace install. *)
  allocating_extra : string list;
      (* Additional fully-applied stdlib calls to treat as allocating,
         beyond the built-in table in Allocwalk. *)
  rng_files : string list;
      (* D1: the one module allowed to own ambient nondeterminism. *)
  wallclock_files : string list;
      (* D1: files allowed wall-clock reads (benchmark harnesses measure
         real elapsed time by design); Random.* stays banned there. *)
  det_files : string list;
      (* D2: the sorted-iteration helper implementation itself. *)
  d3_files : (string * string list) list;
      (* D3: files whose float-carrying or mutable record types make
         polymorphic compare/(=) hazardous, with the type names for the
         message. *)
  d4_dirs : string list;
      (* D4: hot-path directories where a polymorphic Hashtbl probe with
         a structural (tuple/record) key is banned. *)
  d4_exempt_files : string list;
      (* D4: files inside [d4_dirs] allowed to keep structural keys. *)
  stateful_scope : string list;
      (* C1/P1 (and C2) apply only under these path components. *)
  c2_dirs : string list;
      (* C2: directories whose code runs cell-parallel under Shardsim. *)
  layer_rank : (string * int) list;
      (* L1: library name -> layer rank; a library may only depend on
         strictly lower ranks.  Empty: L1 does not run. *)
}

let empty =
  {
    cmt_dirs = [];
    entries = [];
    follow_dirs = [];
    assume = [];
    escape_dirs = [];
    cross_cell_fields = [];
    escape_sanctions = [];
    allocating_extra = [];
    rng_files = [];
    wallclock_files = [];
    det_files = [];
    d3_files = [];
    d4_dirs = [];
    d4_exempt_files = [];
    stateful_scope = [];
    c2_dirs = [];
    layer_rank = [];
  }

(* ------------------------------------------------------------------ *)
(* Conf-file parser: one directive per line, '#' comments.             *)
(*                                                                     *)
(*   cmt-dir _build/default/lib                                        *)
(*   entry Engine.run                                                  *)
(*   follow lib/engine                                                 *)
(*   assume Trace.dump                                                 *)
(*   escape-dir lib/net                                                *)
(*   cross-cell-field ob_pkt                                           *)
(*   escape-sanction Fabric.uplink_forward                             *)
(*   allocating List.map                                               *)
(*   rng-file lib/engine/rng.ml                                        *)
(*   wallclock-file bench/main.ml                                      *)
(*   det-file lib/core/det.ml                                          *)
(*   d3-file lib/engine/eheap.ml t                (file, type names)   *)
(*   d4-dir lib/net                                                    *)
(*   d4-exempt lib/proto/pcb.ml                                        *)
(*   stateful-scope lib                                                *)
(*   c2-dir lib/engine                                                 *)
(*   layer-rank lrp_engine 1                                           *)
(* ------------------------------------------------------------------ *)

let directive c key v =
  match (key, List.filter (( <> ) "") (String.split_on_char ' ' v)) with
  | "cmt-dir", _ -> Ok { c with cmt_dirs = c.cmt_dirs @ [ v ] }
  | "entry", _ -> Ok { c with entries = c.entries @ [ v ] }
  | "follow", _ -> Ok { c with follow_dirs = c.follow_dirs @ [ v ] }
  | "assume", _ -> Ok { c with assume = c.assume @ [ v ] }
  | "escape-dir", _ -> Ok { c with escape_dirs = c.escape_dirs @ [ v ] }
  | "cross-cell-field", _ ->
      Ok { c with cross_cell_fields = c.cross_cell_fields @ [ v ] }
  | "escape-sanction", _ ->
      Ok { c with escape_sanctions = c.escape_sanctions @ [ v ] }
  | "allocating", _ ->
      Ok { c with allocating_extra = c.allocating_extra @ [ v ] }
  | "rng-file", _ -> Ok { c with rng_files = c.rng_files @ [ v ] }
  | "wallclock-file", _ ->
      Ok { c with wallclock_files = c.wallclock_files @ [ v ] }
  | "det-file", _ -> Ok { c with det_files = c.det_files @ [ v ] }
  | "d3-file", file :: (_ :: _ as types) ->
      Ok { c with d3_files = c.d3_files @ [ (file, types) ] }
  | "d3-file", _ -> Error "d3-file needs a file and at least one type name"
  | "d4-dir", _ -> Ok { c with d4_dirs = c.d4_dirs @ [ v ] }
  | "d4-exempt", _ ->
      Ok { c with d4_exempt_files = c.d4_exempt_files @ [ v ] }
  | "stateful-scope", _ ->
      Ok { c with stateful_scope = c.stateful_scope @ [ v ] }
  | "c2-dir", _ -> Ok { c with c2_dirs = c.c2_dirs @ [ v ] }
  | "layer-rank", [ lib; rank ] when int_of_string_opt rank <> None ->
      Ok { c with layer_rank = c.layer_rank @ [ (lib, int_of_string rank) ] }
  | "layer-rank", _ -> Error "layer-rank needs a library name and an integer"
  | _ -> Error (Printf.sprintf "unknown directive %S" key)

let parse text : (t, string) result =
  let rec go i c = function
    | [] -> Ok c
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some j -> String.sub line 0 j
          | None -> line
        in
        let line = String.trim line in
        if line = "" then go (i + 1) c rest
        else
          let fail e = Error (Printf.sprintf "line %d: %s" i e) in
          match String.index_opt line ' ' with
          | None -> fail "missing argument"
          | Some j -> (
              let key = String.sub line 0 j in
              let v =
                String.trim (String.sub line j (String.length line - j))
              in
              match directive c key v with
              | Ok c -> go (i + 1) c rest
              | Error e -> fail e))
  in
  go 1 empty (String.split_on_char '\n' text)

let load path : (t, string) result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> parse text
  | exception Sys_error e -> Error e
