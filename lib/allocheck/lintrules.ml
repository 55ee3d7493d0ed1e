(* Determinism and concurrency rules over the Typedtree: one iterator
   pass per implementation unit.

   Names are resolved, not matched as written.  The .cmt records each
   identifier's path after opens ([let open Hashtbl in iter] and
   [Hashtbl.(fold ...)] both read [Stdlib.Hashtbl.*]), and a small map
   from module aliases ([module H = Hashtbl], [let module K = Hashtbl
   in ...]) to their targets resolves the rest.  Only paths rooted at a
   global (compilation-unit) module have a name: a local [compare] or a
   local module called [Random] is the project's own and passes.

   Rules implemented here:
     D1  ambient time/randomness outside the rng file
     D2  unordered Hashtbl iteration outside the det file
     D3  Marshal anywhere; polymorphic compare in configured files
     D4  structural (tuple/record) Hashtbl keys on hot-path layers
     P1  stdout printing in the stateful scope (library code)
     C1  non-atomic module-level mutable state in the stateful scope
     C2  module-level mutable state (however nested, Atomic included) on
         cell-parallel layers; shard-local state must live in per-cell
         context records

   Every finding is claimable by a "(* lint: TAG — reason *)" comment on
   the same or the preceding line, one tag per rule family. *)

open Typedtree

let marker = "(* lint:"

let known_tags =
  [ "domain-local"; "unordered-ok"; "stdout-ok"; "wallclock-ok"; "shared-ok" ]

(* The suppression tag that can silence a rule id. *)
let tag_for_rule = function
  | "C1" -> Some "domain-local"
  | "C2" -> Some "shared-ok"
  | "D2" -> Some "unordered-ok"
  | "P1" -> Some "stdout-ok"
  | "D1" -> Some "wallclock-ok"
  | _ -> None

(* [claim supp ~rule ~line] returns true (and burns the suppression)
   when a tag that silences [rule] covers [line]. *)
let claim supp ~rule ~line =
  match tag_for_rule rule with
  | None -> false
  | Some tag -> Suppress.claim supp ~tag ~line

type ctx = {
  config : Aconfig.t;
  file : string;
  supp : Suppress.t;
  emit : Finding.t -> unit;
  stateful : bool;  (* [file] is in the C1/P1/C2 scope *)
}

let report ctx ~rule ~loc msg =
  let line = loc.Location.loc_start.Lexing.pos_lnum in
  let col =
    loc.Location.loc_start.Lexing.pos_cnum
    - loc.Location.loc_start.Lexing.pos_bol
  in
  if not (claim ctx.supp ~rule ~line) then
    ctx.emit (Finding.v ~rule ~file:ctx.file ~line ~col msg)

(* --- name resolution ---------------------------------------------------- *)

(* The dotted name of [p] with module aliases expanded and the stdlib
   prefix dropped ("Stdlib.Hashtbl.iter" reads "Hashtbl.iter"), or
   [None] when [p] is rooted at a local. *)
let name_of aliases p =
  let rec comps = function
    | Path.Pident id -> (
        match List.find_opt (fun (a, _) -> Ident.same a id) aliases with
        | Some (_, target) -> comps target
        | None -> if Ident.global id then Some [ Ident.name id ] else None)
    | Path.Pdot (p, s) -> Option.map (fun c -> c @ [ s ]) (comps p)
    | _ -> None
  in
  match comps p with
  | Some ("Stdlib" :: rest) | Some rest -> Some (String.concat "." rest)
  | None -> None

(* --- ident-based rules (D1, D2, D3, P1) ------------------------------- *)

let d1_banned = [ "Sys.time"; "Unix.gettimeofday"; "Unix.time" ]

let d2_banned =
  [
    "Hashtbl.iter";
    "Hashtbl.fold";
    "Hashtbl.to_seq";
    "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let p1_banned =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "print_bytes";
    "Printf.printf";
    "Format.printf";
    "Format.print_string";
    "Format.print_newline";
    "Format.open_box";
  ]

let check_ident ctx ~loc name =
  let cfg = ctx.config in
  let head =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  (* D1: wall clock and ambient randomness. *)
  if not (Pathspec.in_files ctx.file cfg.Aconfig.rng_files) then begin
    if head = "Random" then
      report ctx ~rule:"D1" ~loc
        (Printf.sprintf
           "ambient randomness: %s is banned outside lib/engine/rng.ml; \
            thread an Rng.t (seeded, splittable) instead"
           name)
    else if List.mem name d1_banned then
      if not (Pathspec.in_files ctx.file cfg.Aconfig.wallclock_files) then
        report ctx ~rule:"D1" ~loc
          (Printf.sprintf
             "wall-clock read: %s is banned outside lib/engine/rng.ml; \
              simulated time comes from Engine.now"
             name)
  end;
  (* D2: unordered hash-table iteration. *)
  if
    List.mem name d2_banned
    && not (Pathspec.in_files ctx.file cfg.Aconfig.det_files)
  then
    report ctx ~rule:"D2" ~loc
      (Printf.sprintf
         "unordered iteration: %s can leak hash-table layout into output; \
          use Lrp_det.Det.{iter_sorted,fold_sorted,bindings,sorted_keys}"
         name);
  (* D3a: Marshal is never representation-stable. *)
  if head = "Marshal" then
    report ctx ~rule:"D3" ~loc
      (Printf.sprintf
         "%s: Marshal output depends on sharing and word size; write an \
          explicit codec"
         name);
  (* D3b: polymorphic comparison in files with float-carrying or mutable
     record types.  Bare [compare] (applied or not), [Hashtbl.hash];
     unapplied [=]/[<>] are caught here too because the applied (infix
     scalar) form skips the operator ident (see [check_impl]). *)
  (match
     List.find_map
       (fun (f, tys) ->
         if Pathspec.has_suffix_path ctx.file f then Some tys else None)
       cfg.Aconfig.d3_files
   with
  | None -> ()
  | Some types ->
      let poly =
        match name with
        | "compare" | "Hashtbl.hash" | "=" | "<>" -> true
        | _ -> false
      in
      if poly then
        report ctx ~rule:"D3" ~loc
          (Printf.sprintf
             "polymorphic %s in a module defining %s (float-carrying or \
              mutable): use a monomorphic comparator"
             (if name = "=" || name = "<>" then "(" ^ name ^ ")" else name)
             (String.concat ", " types)));
  (* P1: stdout printing in library code. *)
  if List.mem name p1_banned && ctx.stateful then
    report ctx ~rule:"P1" ~loc
      (Printf.sprintf
         "stdout write: %s in library code; route output through a trace \
          sink or return data to the caller"
         name)

(* --- D4: structural Hashtbl keys on hot-path layers -------------------- *)

(* A polymorphic [Hashtbl] probed with a tuple or record key pays
   structural hashing — a recursive walk over the key and its boxed
   fields — plus a key allocation at every call site, per packet on the
   layers the demultiplexer lives in.  A [Hashtbl] operation whose
   argument is a literal tuple or record is exactly the pattern that
   builds a fresh structural key per probe.  (A key built elsewhere and
   passed by name escapes this rule; in practice the literal form is how
   every such table is used.)  The fix is a packed-key table:
   Lrp_core.Flowtab. *)
let d4_keyed_ops =
  [ "add"; "replace"; "find"; "find_opt"; "find_all"; "mem"; "remove" ]

let check_apply ctx ~loc name args =
  let cfg = ctx.config in
  match String.split_on_char '.' name with
  | [ "Hashtbl"; op ]
    when List.mem op d4_keyed_ops
         && Pathspec.in_dirs ctx.file cfg.Aconfig.d4_dirs
         && (not (Pathspec.in_files ctx.file cfg.Aconfig.d4_exempt_files))
         && List.exists
              (fun (_, a) ->
                match a with
                | Some { exp_desc = Texp_tuple _ | Texp_record _; _ } -> true
                | _ -> false)
              args ->
      report ctx ~rule:"D4" ~loc
        (Printf.sprintf
           "structural key in Hashtbl.%s on a hot-path layer: polymorphic \
            hashing walks the tuple/record (and allocates it) on every \
            probe; pack the key into ints and use Lrp_core.Flowtab"
           op)
  | _ -> ()

(* --- C1/C2: module-level mutable state --------------------------------- *)

(* Expression heads that allocate mutable state when bound at module
   level.  [Atomic.make] is the sanctioned C1 form and is absent from the
   list.  Functor bodies are skipped: their state is per-application. *)
let mutable_makers =
  [
    "ref";
    "Hashtbl.create";
    "Buffer.create";
    "Queue.create";
    "Stack.create";
    "Bytes.create";
    "Bytes.make";
    "Array.make";
    "Array.create_float";
    "Array.init";
  ]

(* C2: code in [c2_dirs] runs cell-parallel under Shardsim — one domain
   per shard, every domain executing the same modules against different
   cells.  Any module-level binding holding mutable state, however deeply
   nested in a record, tuple or array literal, and *including*
   [Atomic.make] (a per-process counter couples cells and breaks
   shard-count invariance), is shared across shards.  C1 already flags a
   head-level maker; C2 looks inside the bound expression.  Function
   bodies are skipped: state allocated at call time is per-call. *)
let c2_makers = "Atomic.make" :: mutable_makers

let c1_msg maker =
  Printf.sprintf
    "module-level mutable state (%s): shared by every domain in a pool; \
     use Atomic.t or justify with (* lint: \
     domain-local — reason *)"
    maker

let c2_msg what =
  Printf.sprintf
    "shard-shared mutable state (%s) at module level on a cell-parallel \
     layer: one copy is visible to every shard domain and breaks \
     shard-count invariance; hang it off a per-cell context record \
     (Engine.t / Fabric.t / Idspace.t) or justify with (* lint: \
     shared-ok — reason *)"
    what

(* Infix scalar comparisons [a = b] are fine even in D3 files (they
   compare whatever the site compares, usually ints); only the
   *unapplied* operator — passed to List.mem, sort, etc., where it closes
   over whole structures — is flagged. *)
let scalar_infix = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

(* --- entry point ------------------------------------------------------- *)

(* Run every rule over one implementation.  [top] is true while the walk
   is on module-level structure items of a stateful-scope file (not
   inside an expression, a functor or a functor argument); [c2] holds
   the module-level binding whose expression C2 is looking inside, and
   whether its head is already C1's finding. *)
let check_impl ~config ~file ~supp ~emit (str : structure) =
  let stateful = Pathspec.in_scope file config.Aconfig.stateful_scope in
  let ctx = { config; file; supp; emit; stateful } in
  let c2_on = stateful && Pathspec.in_dirs file config.Aconfig.c2_dirs in
  let aliases = ref [] in
  let alias id (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> aliases := (id, p) :: !aliases
    | _ -> ()
  in
  let name p = name_of !aliases p in
  let head_maker makers (e : expression) =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
        match name p with Some n when List.mem n makers -> Some n | _ -> None)
    | _ -> None
  in
  let top = ref stateful in
  let c2 = ref None in
  let nested f x =
    let t = !top and c = !c2 in
    top := false;
    f x;
    top := t;
    c2 := c
  in
  let default = Tast_iterator.default_iterator in
  let is_infix p =
    match name p with Some n -> List.mem n scalar_infix | None -> false
  in
  let expr sub (e : expression) =
    let loc = e.exp_loc in
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> Option.iter (check_ident ctx ~loc) (name p)
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        Option.iter (fun n -> check_apply ctx ~loc n args) (name p);
        match (!c2, head_maker c2_makers e) with
        | Some (head, head_is_c1), Some n when not (head_is_c1 && e == head)
          ->
            report ctx ~rule:"C2" ~loc (c2_msg n)
        | _ -> ())
    | Texp_array (_ :: _) when Option.is_some !c2 ->
        report ctx ~rule:"C2" ~loc (c2_msg "array literal")
    | Texp_letmodule (Some id, _, _, me, _) -> alias id me
    | _ -> ());
    nested
      (fun () ->
        match e.exp_desc with
        | Texp_function _ ->
            c2 := None;
            default.expr sub e
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
          when is_infix p ->
            List.iter (fun (_, a) -> Option.iter (sub.expr sub) a) args
        | _ -> default.expr sub e)
      ()
  in
  let value_binding sub (vb : value_binding) =
    if !top then begin
      let maker = head_maker mutable_makers vb.vb_expr in
      Option.iter
        (fun m -> report ctx ~rule:"C1" ~loc:vb.vb_loc (c1_msg m))
        maker;
      if c2_on then c2 := Some (vb.vb_expr, Option.is_some maker);
      default.value_binding sub vb;
      c2 := None
    end
    else default.value_binding sub vb
  in
  let structure_item sub (it : structure_item) =
    match it.str_desc with
    | Tstr_value _ | Tstr_module _ | Tstr_recmodule _ | Tstr_include _ ->
        default.structure_item sub it
    | _ -> nested (default.structure_item sub) it
  in
  let module_expr sub (me : module_expr) =
    match me.mod_desc with
    | Tmod_structure _ | Tmod_constraint _ -> default.module_expr sub me
    | _ -> nested (default.module_expr sub) me
  in
  let module_binding sub (mb : module_binding) =
    Option.iter (fun id -> alias id mb.mb_expr) mb.mb_id;
    default.module_binding sub mb
  in
  let it =
    { default with expr; value_binding; structure_item; module_expr;
      module_binding }
  in
  it.structure it str
