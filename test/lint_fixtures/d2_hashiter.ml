(* Fixture: rule D2 — unordered hash-table iteration. *)

let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []

let dump tbl f = Hashtbl.iter f tbl

let stream tbl = Hashtbl.to_seq tbl

module H = Hashtbl

let via_alias tbl f = H.iter f tbl

let via_let_open tbl f = let open Hashtbl in iter f tbl

let via_local_open tbl = Hashtbl.(fold (fun k _ acc -> k :: acc) tbl [])

let via_let_module tbl f = let module K = Hashtbl in K.iter f tbl
