(* Path matching for analyzer configuration.

   Paths are matched by suffix after '/'-normalisation ("lib/core/det.ml"
   matches "../lib/core/det.ml" and "/abs/repo/lib/core/det.ml"), and
   scopes by path *component* ("lib" matches any file with a "lib"
   directory component), so an analyzer gives identical answers whether
   it is run from the repo root, from _build, or on absolute paths. *)

(* '/'-normalise a path (Windows-proof and cheap). *)
let normalize p = String.map (fun c -> if c = '\\' then '/' else c) p

let has_suffix_path file entry =
  let file = normalize file and entry = normalize entry in
  file = entry
  || String.length file > String.length entry
     && String.sub file (String.length file - String.length entry - 1)
          (String.length entry + 1)
        = "/" ^ entry

let in_files file entries = List.exists (has_suffix_path file) entries

let in_scope file scopes =
  let parts = String.split_on_char '/' (normalize file) in
  List.exists (fun s -> List.mem s parts) scopes

(* Directory matching for scoped rules: "lib/net" matches
   "lib/net/nic.ml" and "/abs/repo/lib/net/nic.ml", but not
   "otherlib/network/x.ml" — the entry must appear as a consecutive
   run of path components. *)
let in_dirs file entries =
  let file = normalize file in
  let lf = String.length file in
  let matches entry =
    let d = normalize entry ^ "/" in
    let ld = String.length d in
    let rec at i =
      if i + ld > lf then false
      else if (i = 0 || file.[i - 1] = '/') && String.sub file i ld = d then
        true
      else at (i + 1)
    in
    at 0
  in
  List.exists matches entries
