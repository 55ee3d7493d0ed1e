(* L1: the layer DAG.

   The repo's layering is engine → net → proto → kernel → sim →
   experiments (with stats/trace/parallel/det as leaves and trace/check
   free to observe everything below the drivers).  It is encoded as a
   rank per library (the conf's layer-rank lines): a *library* may only
   depend on libraries of strictly lower rank.  Executables and tests sit
   outside the DAG and may link anything — they are the drivers.

   Two findings:
     - a library depends on an equal-or-higher-ranked library
       (e.g. lib/net depending on lrp_experiments);
     - an lrp_* name that is missing from the rank table (either side):
       new libraries must take an explicit place in the DAG. *)

let check ~config ~file (stanzas : Dunefile.stanza list) : Finding.t list =
  let rank name = List.assoc_opt name config.Aconfig.layer_rank in
  let is_lrp name =
    String.length name >= 4 && String.sub name 0 4 = "lrp_"
  in
  List.concat_map
    (fun (s : Dunefile.stanza) ->
      match s.kind with
      | Executable | Test -> []
      | Library -> (
          match rank s.name with
          | None ->
              if is_lrp s.name then
                [
                  Finding.v ~rule:"L1" ~file ~line:s.line ~col:0
                    (Printf.sprintf
                       "library %s has no rank in the layer DAG; add a \
                        layer-rank line to allocheck.conf"
                       s.name);
                ]
              else []
          | Some r ->
              List.filter_map
                (fun dep ->
                  if not (is_lrp dep) then None
                  else
                    match rank dep with
                    | None ->
                        Some
                          (Finding.v ~rule:"L1" ~file ~line:s.line ~col:0
                             (Printf.sprintf
                                "%s depends on %s, which has no rank in the \
                                 layer DAG"
                                s.name dep))
                    | Some rd when rd >= r ->
                        Some
                          (Finding.v ~rule:"L1" ~file ~line:s.line ~col:0
                             (Printf.sprintf
                                "layer violation: %s (rank %d) depends on %s \
                                 (rank %d); dependencies must point strictly \
                                 down the DAG"
                                s.name r dep rd))
                    | Some _ -> None)
                s.libraries))
    stanzas
