(* An analyzer finding: rule id, position, human message.  Every rule
   family (determinism and layering, allocation, escape) emits this one
   format.  Findings are value types so drivers can sort and diff them;
   ordering is (file, line, col, rule, msg) so output is reproducible
   whatever order files were scanned in — the analyzer holds itself to
   the determinism rules it enforces. *)

type t = { rule : string; file : string; line : int; col : int; msg : string }

let v ~rule ~file ~line ~col msg = { rule; file; line; col; msg }

let order a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.msg b.msg

let sort fs = List.sort order fs

let to_text f = Printf.sprintf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.msg

(* Hand-rolled JSON, matching the repo's no-yojson ethos (lib/trace/json.ml
   is above this library in the layer DAG, so the few lines are inlined). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json_buf buf fs =
  Buffer.add_string buf "{\n  \"findings\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    {\"rule\": \"%s\", \"file\": \"%s\", \"line\": %d, \
            \"col\": %d, \"msg\": \"%s\"}"
           (json_escape f.rule) (json_escape f.file) f.line f.col
           (json_escape f.msg)))
    fs;
  Buffer.add_string buf
    (Printf.sprintf "\n  ],\n  \"count\": %d\n}\n" (List.length fs))

let to_json fs =
  let buf = Buffer.create 1024 in
  to_json_buf buf fs;
  Buffer.contents buf
