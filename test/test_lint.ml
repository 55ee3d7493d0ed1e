(* Tests for the determinism and layering rules of lrp_allocheck: every
   rule family fires on its fixture, the suppression mechanism works (and
   reports stale exemptions), the JSON report matches the committed
   golden file, and — the gate itself — the live tree is finding-free.

   The fixtures are compiled (test/lint_fixtures is a library, c2/ a
   second one): the rules read their .cmt Typedtrees, the same loading
   path as the live gate. *)

open Lrp_allocheck

(* Locate the repo root from wherever the test binary runs (dune runtest
   uses _build/default/test; `dune exec test/main.exe` uses the caller's
   cwd).  ROADMAP.md is not copied into _build, so requiring it pins the
   real source root rather than the build mirror. *)
let repo_root () =
  let rec up dir n =
    if n = 0 then Alcotest.fail "cannot locate repo root from cwd"
    else if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "ROADMAP.md")
    then dir
    else up (Filename.concat dir Filename.parent_dir_name) (n - 1)
  in
  up (Sys.getcwd ()) 8

let fixture_dir () = Filename.concat (repo_root ()) "test/lint_fixtures"
let fixture name = Filename.concat (fixture_dir ()) name

(* The live conf: its rule scopes are the defaults the out-of-scope
   checks run under, and its layer ranks the table L1 checks against. *)
let live_conf () =
  match Aconfig.load (Filename.concat (repo_root ()) "allocheck.conf") with
  | Ok c -> c
  | Error e -> Alcotest.failf "allocheck.conf does not load: %s" e

(* Fixture runs load the fixture libraries instead of the build, with no
   hot path, no escape pass and no layer table (L1 has its own fixture,
   below). *)
let default_config () =
  {
    (live_conf ()) with
    Aconfig.cmt_dirs = [ "_build/default/test/lint_fixtures" ];
    Aconfig.entries = [];
    Aconfig.escape_dirs = [];
    Aconfig.layer_rank = [];
  }

(* Fixture runs widen the C1/P1 scope to the fixture directory (in the
   real config those rules only apply under lib/) and register the
   polymorphic-compare fixture's type in the D3 per-rule config. *)
let fixture_config () =
  let d = default_config () in
  {
    d with
    Aconfig.stateful_scope = [ "lib"; "lint_fixtures" ];
    Aconfig.d3_files =
      ("lint_fixtures/d3_polycompare.ml", [ "pt" ]) :: d.Aconfig.d3_files;
    Aconfig.d4_dirs = "test/lint_fixtures" :: d.Aconfig.d4_dirs;
    (* The C2 fixture sits in its own subdirectory: widening c2_dirs to the
       whole fixture tree would re-flag the C1 fixture's sanctioned
       [Atomic.make]. *)
    Aconfig.c2_dirs = "lint_fixtures/c2" :: d.Aconfig.c2_dirs;
  }

let analyze config = fst (Adriver.run ~root:(repo_root ()) config)
let fixture_run = lazy (analyze (fixture_config ()))
let default_run = lazy (analyze (default_config ()))

let run_fixture ?(run = fixture_run) name =
  List.filter
    (fun f -> Pathspec.has_suffix_path f.Finding.file ("lint_fixtures/" ^ name))
    (Lazy.force run)

let rules fs = List.map (fun f -> f.Finding.rule) fs

let check_rules name expected fs =
  Alcotest.(check (list string)) name expected (rules fs)

(* --- one fixture per rule family -------------------------------------- *)

let test_d1 () =
  let fs = run_fixture "d1_time.ml" in
  check_rules "three D1 findings" [ "D1"; "D1"; "D1" ] fs;
  let lines = List.map (fun f -> f.Finding.line) fs in
  Alcotest.(check (list int)) "at the offending lines" [ 3; 5; 7 ] lines

let test_d2 () =
  let fs = run_fixture "d2_hashiter.ml" in
  check_rules
    "fold, iter and to_seq fire, also through an alias, both local opens \
     and a local module"
    [ "D2"; "D2"; "D2"; "D2"; "D2"; "D2"; "D2" ] fs

let test_d3_marshal () =
  let fs = run_fixture "d3_marshal.ml" in
  check_rules "Marshal banned everywhere" [ "D3" ] fs

let test_d3_polycompare () =
  let fs = run_fixture "d3_polycompare.ml" in
  check_rules "bare compare and unapplied (=) fire; infix scalar does not"
    [ "D3"; "D3" ] fs;
  (* The rule is config-driven: without the per-file entry it is silent. *)
  let fs' = run_fixture ~run:default_run "d3_polycompare.ml" in
  check_rules "not in config: no findings" [] fs'

let test_d4 () =
  let fs = run_fixture "d4_hashkey.ml" in
  check_rules "tuple and record keys fire; named and int keys do not"
    [ "D4"; "D4" ] fs;
  Alcotest.(check (list int))
    "at the two literal-key probes" [ 5; 7 ]
    (List.map (fun f -> f.Finding.line) fs);
  (* Scope-driven: outside the hot-path directories the rule is silent. *)
  let fs' = run_fixture ~run:default_run "d4_hashkey.ml" in
  check_rules "out of scope: no findings" [] fs'

let test_c1 () =
  let fs = run_fixture "c1_ref.ml" in
  check_rules "ref and Hashtbl.create fire; Atomic, suppressed and local do not"
    [ "C1"; "C1" ] fs;
  Alcotest.(check (list int))
    "at the two unsuppressed bindings" [ 3; 5 ]
    (List.map (fun f -> f.Finding.line) fs)

let test_c2 () =
  let fs = run_fixture "c2/shared.ml" in
  check_rules
    "nested maker, array literal and Atomic fire; head-level maker stays C1"
    [ "C2"; "C2"; "C2"; "C1" ] fs;
  Alcotest.(check (list int))
    "at the offending bindings" [ 5; 7; 9; 12 ]
    (List.map (fun f -> f.Finding.line) fs);
  (* Scope-driven: outside the cell-parallel directories neither C2 nor
     C1 applies, so the shared-ok exemption is reported as stale. *)
  let fs' = run_fixture ~run:default_run "c2/shared.ml" in
  check_rules "out of scope: only the now-stale suppression" [ "SUP" ] fs'

let test_p1 () =
  let fs = run_fixture "p1_print.ml" in
  check_rules "printf and print_endline fire" [ "P1"; "P1" ] fs;
  (* Out of the stateful scope (the real config only covers lib/), the
     same file is clean: executables may print. *)
  let fs' = run_fixture ~run:default_run "p1_print.ml" in
  check_rules "out of scope: no findings" [] fs'

let test_sup_unused () =
  let fs = run_fixture "sup_unused.ml" in
  check_rules "stale suppression is a finding" [ "SUP" ] fs

let test_clean () = check_rules "clean file" [] (run_fixture "clean.ml")

(* --- L1 over the dune fixture ------------------------------------------ *)

let test_l1 () =
  let text = In_channel.with_open_bin (fixture "dune.l1fixture") In_channel.input_all in
  let stanzas = Dunefile.stanzas_of text in
  let fs =
    Finding.sort
      (Layers.check ~config:(live_conf ()) ~file:"dune.l1fixture" stanzas)
  in
  check_rules "upward dep, unranked lib, unranked dep; executables exempt"
    [ "L1"; "L1"; "L1" ] fs;
  let msgs = String.concat "\n" (List.map (fun f -> f.Finding.msg) fs) in
  let contains needle =
    let n = String.length needle and m = String.length msgs in
    let rec at i = i + n <= m && (String.sub msgs i n = needle || at (i + 1)) in
    at 0
  in
  let has needle = Alcotest.(check bool) needle true (contains needle) in
  has "lrp_net (rank 3) depends on lrp_experiments (rank 8)";
  has "lrp_mystery has no rank";
  has "lrp_kernel depends on lrp_unranked"

let test_dunefile_parser () =
  let text =
    "; comment\n\
     (library (name a) (libraries b c))\n\
     (executables (names x y) (libraries z))\n\
     (rule (action (run foo)))\n"
  in
  let st = Dunefile.stanzas_of text in
  Alcotest.(check int) "three stanzas" 3 (List.length st);
  let names = List.map (fun s -> s.Dunefile.name) st in
  Alcotest.(check (list string)) "names" [ "a"; "x"; "y" ] names;
  let lib = List.hd st in
  Alcotest.(check (list string)) "libraries" [ "b"; "c" ] lib.Dunefile.libraries

(* --- suppression mechanics --------------------------------------------- *)

let test_suppress_claim () =
  let text =
    "let a = 1\n\
     (* lint: unordered-ok — same line *) let b = 2\n\
     (* lint: domain-local — next line *)\n\
     let c = 3\n"
  in
  let t =
    Suppress.scan ~marker:Lintrules.marker ~known:Lintrules.known_tags text
  in
  Alcotest.(check bool) "same-line claim" true
    (Lintrules.claim t ~rule:"D2" ~line:2);
  Alcotest.(check bool) "next-line claim" true
    (Lintrules.claim t ~rule:"C1" ~line:4);
  Alcotest.(check bool) "wrong tag does not claim" false
    (Lintrules.claim t ~rule:"P1" ~line:2);
  Alcotest.(check bool) "far line does not claim" false
    (Lintrules.claim t ~rule:"D2" ~line:9);
  Alcotest.(check int) "both claimed, none unused" 0
    (List.length (Suppress.unused t ~what:"lint" ~file:"x.ml"))

(* --- report format ------------------------------------------------------ *)

(* Golden paths are relative to test/, as the fixture sources are. *)
let relativize f =
  let prefix = "test/" in
  let file = f.Finding.file in
  let file =
    if String.length file > String.length prefix
       && String.sub file 0 (String.length prefix) = prefix
    then String.sub file (String.length prefix) (String.length file - String.length prefix)
    else file
  in
  { f with Finding.file }

let test_golden_json () =
  let findings =
    Finding.sort (List.map relativize (Lazy.force fixture_run))
  in
  let got = Finding.to_json findings in
  let golden_path = fixture "golden.json" in
  (* LINT_GOLDEN_REGEN=1 dune test rewrites the golden file in place;
     review the diff before committing it. *)
  if Sys.getenv_opt "LINT_GOLDEN_REGEN" <> None then
    Out_channel.with_open_bin golden_path (fun oc ->
        Out_channel.output_string oc got);
  let want = In_channel.with_open_bin golden_path In_channel.input_all in
  (* The report must also be well-formed JSON by the repo's own parser. *)
  (match Lrp_trace.Json.parse got with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "lint JSON does not parse: %s" e);
  Alcotest.(check string) "golden JSON report" want got

let test_json_escaping () =
  let f =
    Finding.v ~rule:"D1" ~file:"a\"b.ml" ~line:1 ~col:0 "msg with \"quotes\"\nand newline"
  in
  let json = Finding.to_json [ f ] in
  (match Lrp_trace.Json.parse json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "escaped JSON does not parse: %s" e);
  let contains needle =
    let n = String.length needle and m = String.length json in
    let rec at i = i + n <= m && (String.sub json i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "quotes escaped" true (contains "\\\"quotes\\\"");
  Alcotest.(check bool) "newline escaped" true (contains "\\n")

let test_config_matching () =
  Alcotest.(check bool) "suffix match with ../ prefix" true
    (Pathspec.has_suffix_path "../lib/core/det.ml" "lib/core/det.ml");
  Alcotest.(check bool) "exact path matches itself" true
    (Pathspec.has_suffix_path "lib/core/det.ml" "lib/core/det.ml");
  Alcotest.(check bool) "no partial-component match" false
    (Pathspec.has_suffix_path "lib/core/notdet.ml" "det.ml");
  Alcotest.(check bool) "scope by component" true
    (Pathspec.in_scope "/abs/repo/lib/net/fabric.ml" [ "lib" ]);
  Alcotest.(check bool) "bin not in lib scope" false
    (Pathspec.in_scope "bin/lrp_allocheck.ml" [ "lib" ])

(* --- the gate: zero findings on the live tree -------------------------- *)

let test_self_check () =
  let root = repo_root () in
  let findings, stats = Adriver.run ~root (live_conf ()) in
  (* Guard against a silently-degenerate scan: the tree has dozens of
     modules and one dune file per library/executable directory, and the
     executables' units only exist after `dune build @check`. *)
  let units = stats.Adriver.units in
  Alcotest.(check bool) "checked a real tree (unit count)" true
    (List.length units >= 55);
  Alcotest.(check bool) "checked the dune files" true
    (stats.Adriver.dune_files >= 14);
  List.iter
    (fun dir ->
      Alcotest.(check bool) ("checked units under " ^ dir) true
        (List.exists (fun u -> Pathspec.in_dirs u [ dir ]) units))
    [ "lib"; "bin"; "bench" ];
  match findings with
  | [] -> ()
  | fs ->
      Alcotest.failf "live tree has %d findings:\n%s" (List.length fs)
        (String.concat "\n" (List.map Finding.to_text fs))

let suite =
  [
    Alcotest.test_case "D1 fires on ambient time/randomness" `Quick test_d1;
    Alcotest.test_case "D2 fires on unordered Hashtbl iteration" `Quick test_d2;
    Alcotest.test_case "D3 fires on Marshal" `Quick test_d3_marshal;
    Alcotest.test_case "D3 poly compare is config-driven" `Quick
      test_d3_polycompare;
    Alcotest.test_case "D4 fires on structural Hashtbl keys" `Quick test_d4;
    Alcotest.test_case "C1 fires on module-level state" `Quick test_c1;
    Alcotest.test_case "C2 fires on nested shard-shared state" `Quick test_c2;
    Alcotest.test_case "P1 fires on stdout writes in scope" `Quick test_p1;
    Alcotest.test_case "unused suppression is a finding" `Quick test_sup_unused;
    Alcotest.test_case "clean file has zero findings" `Quick test_clean;
    Alcotest.test_case "L1 fires on layer violations" `Quick test_l1;
    Alcotest.test_case "dune stanza parser" `Quick test_dunefile_parser;
    Alcotest.test_case "suppression claim mechanics" `Quick test_suppress_claim;
    Alcotest.test_case "golden JSON report" `Quick test_golden_json;
    Alcotest.test_case "JSON escaping round-trips" `Quick test_json_escaping;
    Alcotest.test_case "config path matching" `Quick test_config_matching;
    Alcotest.test_case "self-check: live tree is finding-free" `Quick
      test_self_check;
  ]
