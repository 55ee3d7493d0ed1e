(* Tests for lrp_allocheck: every finding kind fires on its compiled
   fixture, the eliminate_ref and static-closure negatives hold,
   suppressions claim (and stale ones report), the escape pass flags
   publication and honours sanctions, the JSON report matches the
   committed golden file, and — the gate itself — the live tree is
   finding-free.

   Like the lint fixtures, these are *compiled*: the analyzer reads the
   .cmt output of the test/allocheck_fixtures libraries, so the fixture
   runs exercise the same cmt-loading path as the live gate. *)

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

let fixture_cmts = "_build/default/test/allocheck_fixtures"

let alloc_entries =
  [
    "Aclo.capture"; "Aclo.static_fn"; "Aclo.partial";
    "Abox.ret_box"; "Abox.fresh_arg"; "Abox.passthrough";
    "Ablocks.pair"; "Ablocks.mk"; "Ablocks.update"; "Ablocks.some";
    "Ablocks.cons"; "Ablocks.lit"; "Ablocks.empty_arr"; "Ablocks.none";
    "Aref.escaping"; "Aref.eliminated"; "Aref.buffer";
    "Acall.trusted"; "Acall.fmt_path"; "Acall.boxed"; "Acall.unboxed";
    "Asup.cold_path"; "Asup.trailing"; "Asup.stale";
    "Abox.let_arith"; "Abox.let_read";
  ]

let fixture_cfg =
  {
    Aconfig.empty with
    Aconfig.cmt_dirs = [ fixture_cmts ];
    Aconfig.entries = alloc_entries;
    Aconfig.follow_dirs = [ "test/allocheck_fixtures" ];
    Aconfig.escape_dirs = [ "test/allocheck_fixtures/esc" ];
    Aconfig.cross_cell_fields = [ "ob_ready" ];
    Aconfig.escape_sanctions = [ "Aesc.outbox" ];
  }

(* One driver run shared by the per-kind tests. *)
let master = lazy (Adriver.run ~root:(repo_root ()) fixture_cfg)

let in_file name =
  let findings, _ = Lazy.force master in
  List.filter (fun f -> Filename.basename f.Finding.file = name) findings

let rules_lines fs = List.map (fun f -> (f.Finding.rule, f.Finding.line)) fs

let check_rl name expected fs =
  Alcotest.(check (list (pair string int))) name expected (rules_lines fs)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec at i = i + n <= m && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* --- one fixture per finding kind -------------------------------------- *)

let test_clo () =
  check_rl "capturing closure and partial application fire; static lambda does not"
    [ ("CLO", 6); ("CLO", 15) ]
    (in_file "aclo.ml")

let test_box () =
  let fs = in_file "abox.ml" in
  check_rl
    "bare-float return, freshly computed float argument and let-bound \
     arithmetic result or array read fire; parameter passthrough does not"
    [ ("BOX", 9); ("BOX", 11); ("BOX", 11); ("BOX", 15); ("BOX", 17) ]
    fs;
  Alcotest.(check bool) "return finding names the callee" true
    (List.exists (fun f -> contains f.Finding.msg "Abox.calc") fs)

let test_blocks () =
  check_rl
    "tuple, record, functional update, Some, cons and array literal fire; \
     empty array and None do not"
    [ ("TUP", 5); ("REC", 7); ("REC", 9); ("VAR", 11); ("VAR", 13); ("ARR", 15) ]
    (in_file "ablocks.ml")

let test_ref () =
  check_rl "escaping ref and Bytes.create fire; eliminate_ref loop does not"
    [ ("REF", 4); ("REF", 16) ]
    (in_file "aref.ml")

let test_call () =
  check_rl
    "transitively reached Array.make, format machinery and boxed Int64 \
     arithmetic fire; exempt Int64.compare does not"
    [ ("CALL", 3); ("FMT", 7); ("CALL", 9) ]
    (in_file "acall.ml")

let test_sup () =
  check_rl "claimed suppressions silence; the stale one is a finding"
    [ ("SUP", 10) ]
    (in_file "asup.ml")

(* --- driver scoping ----------------------------------------------------- *)

let test_assume () =
  let cfg =
    {
      fixture_cfg with
      Aconfig.entries = [ "Acall.trusted" ];
      Aconfig.assume = [ "Acall.helper" ];
      Aconfig.escape_dirs = [];
    }
  in
  let findings, stats = Adriver.run ~root:(repo_root ()) cfg in
  check_rl "assumed boundary is not descended into" [] findings;
  Alcotest.(check int) "only the entry is analyzed" 1
    stats.Adriver.funcs_analyzed

let test_allocating_extra () =
  let cfg =
    {
      fixture_cfg with
      Aconfig.entries = [ "Acall.unboxed" ];
      Aconfig.escape_dirs = [];
      Aconfig.allocating_extra = [ "Int64.compare" ];
    }
  in
  let findings, _ = Adriver.run ~root:(repo_root ()) cfg in
  check_rl "conf-extended call table fires" [ ("CALL", 11) ] findings

let test_cfg_unresolved () =
  let cfg =
    { Aconfig.empty with Aconfig.cmt_dirs = [ fixture_cmts ];
      Aconfig.entries = [ "Nowhere.nothing" ] }
  in
  let findings, _ = Adriver.run ~root:(repo_root ()) cfg in
  (match findings with
  | [ f ] ->
      Alcotest.(check string) "rule" "CFG" f.Finding.rule;
      Alcotest.(check string) "reported against the conf" "allocheck.conf"
        f.Finding.file
  | fs -> Alcotest.failf "expected one CFG finding, got %d" (List.length fs))

(* --- escape pass -------------------------------------------------------- *)

let test_escape () =
  let fs = in_file "aesc.ml" in
  check_rl
    "global table, global array, field-chain root, cross-cell field and \
     DLS fire; locals, sanctioned and suppressed writers do not"
    [ ("ESC", 15); ("ESC", 17); ("ESC", 19); ("ESC", 21); ("ESC", 36) ]
    fs;
  let msg n =
    match List.nth_opt fs n with
    | Some f -> f.Finding.msg
    | None -> ""
  in
  Alcotest.(check bool) "names the published global" true
    (contains (msg 0) "'shared'");
  Alcotest.(check bool) "root traced through the field chain" true
    (contains (msg 2) "'gbox'");
  Alcotest.(check bool) "cross-cell field named" true
    (contains (msg 3) "'ob_ready'");
  Alcotest.(check bool) "DLS store flagged" true
    (contains (msg 4) "Domain.DLS.set")

(* --- conf parser -------------------------------------------------------- *)

let test_conf_parse () =
  let text =
    "# comment\n\
     cmt-dir _build/default/lib\n\
     entry Engine.run_batch   # trailing comment\n\
     follow lib/engine\n\
     assume Trace.dump\n\
     escape-dir lib/net\n\
     cross-cell-field ob_pkt\n\
     escape-sanction Fabric.uplink_forward\n\
     allocating List.map\n\
     rng-file lib/engine/rng.ml\n\
     d3-file lib/engine/eheap.ml t cursor\n\
     c2-dir lib/net\n\
     layer-rank lrp_engine 1\n"
  in
  (match Aconfig.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok c ->
      Alcotest.(check (list string)) "cmt dirs" [ "_build/default/lib" ]
        c.Aconfig.cmt_dirs;
      Alcotest.(check (list string)) "entries" [ "Engine.run_batch" ]
        c.Aconfig.entries;
      Alcotest.(check (list string)) "follow" [ "lib/engine" ]
        c.Aconfig.follow_dirs;
      Alcotest.(check (list string)) "assume" [ "Trace.dump" ] c.Aconfig.assume;
      Alcotest.(check (list string)) "escape dirs" [ "lib/net" ]
        c.Aconfig.escape_dirs;
      Alcotest.(check (list string)) "cross fields" [ "ob_pkt" ]
        c.Aconfig.cross_cell_fields;
      Alcotest.(check (list string)) "sanctions" [ "Fabric.uplink_forward" ]
        c.Aconfig.escape_sanctions;
      Alcotest.(check (list string)) "allocating" [ "List.map" ]
        c.Aconfig.allocating_extra;
      Alcotest.(check (list string)) "rng files" [ "lib/engine/rng.ml" ]
        c.Aconfig.rng_files;
      Alcotest.(check (list (pair string (list string))))
        "d3 file with its type names"
        [ ("lib/engine/eheap.ml", [ "t"; "cursor" ]) ]
        c.Aconfig.d3_files;
      Alcotest.(check (list string)) "c2 dirs" [ "lib/net" ] c.Aconfig.c2_dirs;
      Alcotest.(check (list (pair string int))) "layer ranks"
        [ ("lrp_engine", 1) ] c.Aconfig.layer_rank);
  (match Aconfig.parse "layer-rank lrp_engine one\n" with
  | Error e ->
      Alcotest.(check bool) "a non-integer rank is an error" true
        (contains e "line 1")
  | Ok _ -> Alcotest.fail "layer-rank needs an integer");
  match Aconfig.parse "entry A.b\nbogus-directive x\n" with
  | Error e ->
      Alcotest.(check bool) "error names the line" true (contains e "line 2")
  | Ok _ -> Alcotest.fail "unknown directive must not parse"

(* --- report format ------------------------------------------------------ *)

let test_golden_json () =
  let findings, _ = Lazy.force master in
  let got = Finding.to_json (Finding.sort findings) in
  let golden_path =
    Filename.concat (repo_root ()) "test/allocheck_fixtures/golden.json"
  in
  (* ALLOCHECK_GOLDEN_REGEN=1 dune test rewrites the golden file in
     place; review the diff before committing it. *)
  if Sys.getenv_opt "ALLOCHECK_GOLDEN_REGEN" <> None then
    Out_channel.with_open_bin golden_path (fun oc ->
        Out_channel.output_string oc got);
  let want = In_channel.with_open_bin golden_path In_channel.input_all in
  (match Lrp_trace.Json.parse got with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "allocheck JSON does not parse: %s" e);
  Alcotest.(check string) "golden JSON report" want got

(* --- the gate: zero findings on the live tree --------------------------- *)

let test_self_check () =
  let root = repo_root () in
  let cfg =
    match Aconfig.load (Filename.concat root "allocheck.conf") with
    | Ok c -> c
    | Error e -> Alcotest.failf "allocheck.conf does not load: %s" e
  in
  let findings, stats = Adriver.run ~root cfg in
  (* Guard against a silently-degenerate run: the live gate covers many
     entry points, their transitive callees (through lib/sim and
     lib/sched: the CPU's post, dispatch, segment-end and wakeup paths;
     through lib/kernel and lib/proto: the UDP receive path of every
     architecture, wire to recvfrom, and the TCP demux path up to the
     state machine), and every cell-resident function. *)
  Alcotest.(check bool) "loaded a real build (.cmt count)" true
    (stats.Adriver.cmt_files >= 80);
  Alcotest.(check bool) "walked the hot paths" true
    (stats.Adriver.funcs_analyzed >= 300);
  Alcotest.(check bool) "escape-checked the cell dirs" true
    (stats.Adriver.escape_funcs >= 760);
  Alcotest.(check bool) "follows the receive path" true
    (List.for_all
       (fun d -> List.mem d cfg.Aconfig.follow_dirs)
       [ "lib/kernel"; "lib/proto" ]
     && List.for_all
          (fun e -> List.mem e cfg.Aconfig.entries)
          [ "Fabric.forward"; "Nic.receive"; "Kernel.rx_dispatch";
            "Kernel.bsd_driver_rx"; "Kernel.softnet";
            "Kernel.lrp_classify_rx"; "Kernel.edemux_rx";
            "Kernel.ip_input_eager"; "Kernel.napi_irq";
            "Kernel.napi_softirq_round"; "Kernel.napi_deliver_batch";
            "Kernel.deliver_udp_ready"; "Kernel.lrp_process_udp_raw";
            "Socket.deposit_udp"; "Api.recv"; "Api.recvfrom" ]);
  Alcotest.(check bool) "walks TCP demux and IP output" true
    (List.for_all
       (fun e -> List.mem e cfg.Aconfig.entries)
       [ "Kernel.deliver_tcp"; "Kernel.ip_output" ]
     && List.mem "Kernel.tcp_deliver" cfg.Aconfig.assume
     && not (List.mem "Kernel.deliver_tcp" cfg.Aconfig.assume));
  Alcotest.(check bool) "follows the CPU layer" true
    (List.mem "lib/sim" cfg.Aconfig.follow_dirs
     && List.mem "lib/sched" cfg.Aconfig.follow_dirs
     && List.for_all
          (fun e -> List.mem e cfg.Aconfig.entries)
          [ "Cpu.post_hard_to"; "Cpu.post_soft_to"; "Cpu.segment_done";
            "Cpu.settle"; "Cpu.wakeup_one"; "Sched.pick_tid";
            "Sched.should_preempt" ]);
  match findings with
  | [] -> ()
  | fs ->
      Alcotest.failf "live tree has %d allocheck findings:\n%s"
        (List.length fs)
        (String.concat "\n" (List.map Finding.to_text fs))

let suite =
  [
    Alcotest.test_case "CLO fires on captures and partial application" `Quick
      test_clo;
    Alcotest.test_case "BOX fires on float boundaries" `Quick test_box;
    Alcotest.test_case "TUP/REC/VAR/ARR fire on block construction" `Quick
      test_blocks;
    Alcotest.test_case "REF fires unless eliminate_ref applies" `Quick
      test_ref;
    Alcotest.test_case "CALL/FMT fire through the call graph" `Quick test_call;
    Alcotest.test_case "unused alloc suppression is a finding" `Quick test_sup;
    Alcotest.test_case "assume cuts the walk at the boundary" `Quick
      test_assume;
    Alcotest.test_case "allocating directive extends the call table" `Quick
      test_allocating_extra;
    Alcotest.test_case "unresolved entry is a CFG finding" `Quick
      test_cfg_unresolved;
    Alcotest.test_case "ESC fires on escapes, honours sanctions" `Quick
      test_escape;
    Alcotest.test_case "conf parser round-trips directives" `Quick
      test_conf_parse;
    Alcotest.test_case "golden JSON report" `Quick test_golden_json;
    Alcotest.test_case "self-check: live tree is allocation-clean" `Quick
      test_self_check;
  ]
