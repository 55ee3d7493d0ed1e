(* CI regression gate: compare a fresh perf-baseline snapshot against the
   committed BENCH_10.json.

     dune exec bench/check_baseline.exe -- BENCH_10.json BENCH_run.json

   Per-entry tolerances are deliberately generous — CI machines are noisy
   and shared — so only order-of-magnitude regressions fail the build:

   - per-event time may grow up to [time_ratio]x the committed value;
   - per-event minor allocation may grow by at most [words_slack] words
     (this is the tight one: the typed fast path's whole point is 0.0
     words/event, and an accidental closure would add 3+; the
     capturing_thunk entry gates the one path that is *allowed* to
     allocate, so a second accidental closure there also fails);
   - fig3 wall-clock may grow up to [time_ratio]x.

   Aggregate engine throughput gets a tighter leash ([eps_ratio]).  It is
   the median over several trials of [1e9 / schedule_fire_ns], the
   engine's schedule-and-fire microbench loop (bench/main.ml); the fresh
   snapshot records the trials' min and max beside it.  A committed
   snapshot from before the median (BENCH_10.json) holds a single trial
   under the same key, and the median is gated against it.

   Two flight-recorder invariants are additionally checked *within* the
   fresh snapshot (immune to machine-to-machine drift): the traced arena
   RX cycle must allocate nothing (the packed recorder is plain word
   stores) and may cost at most [recorder_ratio]x the bare cycle plus a
   small absolute slack for timer granularity.

   Exit status: 0 all checks pass, 1 regression, 2 usage/parse error. *)

let time_ratio = 4.0
let eps_ratio = 1.5
let words_slack = 0.5
let recorder_ratio = 1.5
let recorder_slack_ns = 5.0

(* Cluster gates: the deterministic critical-path speedup the 8-shard
   partition must expose (machine-independent), and the wall-clock
   speedup required when the runner actually has >= 8 cores. *)
let min_speedup_available = 4.0
let min_speedup_measured = 2.0

open Lrp_trace

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.parse s with
  | Ok v -> v
  | Error e -> die "%s: %s" path e

let num path doc key =
  match Json.member key doc with
  | Some (Json.Num f) -> f
  | _ -> die "%s: missing numeric field %S" path key

let entry_map path doc =
  match Json.member "entries" doc with
  | Some (Json.Arr es) ->
      List.map
        (fun e ->
          match Json.member "name" e with
          | Some (Json.Str name) ->
              (name, (num path e "ns_per_event", num path e "minor_words_per_event"))
          | _ -> die "%s: entry without a name" path)
        es
  | _ -> die "%s: missing entries array" path

let failures = ref 0

let check ~label ~ok fmt =
  Printf.ksprintf
    (fun detail ->
      if ok then Printf.printf "  ok    %-38s %s\n" label detail
      else begin
        incr failures;
        Printf.printf "  FAIL  %-38s %s\n" label detail
      end)
    fmt

let () =
  let committed_path, fresh_path =
    match Sys.argv with
    | [| _; a; b |] -> (a, b)
    | _ -> die "usage: check_baseline.exe COMMITTED.json FRESH.json"
  in
  let committed = load committed_path and fresh = load fresh_path in
  Printf.printf "Baseline check: %s (fresh) vs %s (committed)\n" fresh_path
    committed_path;
  let base_entries = entry_map committed_path committed in
  let fresh_entries = entry_map fresh_path fresh in
  List.iter
    (fun (name, (base_ns, base_words)) ->
      match List.assoc_opt name fresh_entries with
      | None -> check ~label:name ~ok:false "missing from fresh snapshot"
      | Some (ns, words) ->
          check ~label:(name ^ " time") ~ok:(ns <= base_ns *. time_ratio)
            "%.1f ns vs %.1f ns (limit %.0fx)" ns base_ns time_ratio;
          check
            ~label:(name ^ " alloc")
            ~ok:(words <= base_words +. words_slack)
            "%.2f words vs %.2f words (slack %.1f)" words base_words
            words_slack)
    base_entries;
  (* Flight-recorder hot-path invariants, judged within the fresh run so
     they hold on any machine, not just one resembling the committed
     baseline's. *)
  (match
     ( List.assoc_opt "arena_rx" fresh_entries,
       List.assoc_opt "tracing_on_arena_rx" fresh_entries )
   with
  | Some (bare_ns, _), Some (ns, words) ->
      check ~label:"recorder alloc" ~ok:(words <= 0.05)
        "%.2f words/event (must stay ~0)" words;
      check ~label:"recorder overhead"
        ~ok:(ns <= (bare_ns *. recorder_ratio) +. recorder_slack_ns)
        "%.1f ns vs %.1f ns bare (limit %.1fx + %.0f ns)" ns bare_ns
        recorder_ratio recorder_slack_ns
  | _ ->
      check ~label:"recorder entries" ~ok:false
        "arena_rx / tracing_on_arena_rx missing from fresh snapshot");
  let base_eps = num committed_path committed "events_per_sec" in
  let eps = num fresh_path fresh "events_per_sec" in
  let spread =
    match
      (Json.member "events_per_sec_min" fresh, Json.member "events_per_sec_max" fresh)
    with
    | Some (Json.Num lo), Some (Json.Num hi) ->
        Printf.sprintf ", trials %.0f..%.0f" lo hi
    | _ -> ""
  in
  check ~label:"events_per_sec (median)" ~ok:(eps >= base_eps /. eps_ratio)
    "%.0f vs %.0f (floor 1/%.1f%s)" eps base_eps eps_ratio spread;
  let base_wall = num committed_path committed "fig3_quick_wall_s" in
  let wall = num fresh_path fresh "fig3_quick_wall_s" in
  check ~label:"fig3_quick_wall_s" ~ok:(wall <= base_wall *. time_ratio)
    "%.2f s vs %.2f s (limit %.0fx)" wall base_wall time_ratio;
  (* Sharded-cluster gates.  Digest parity and the critical-path speedup
     are deterministic and machine-independent, so they are judged hard
     on any runner; the measured wall speedup depends on the core count,
     so it is gated only when the fresh snapshot was taken on a machine
     with enough cores to show it. *)
  let cluster_of path doc =
    match Json.member "cluster" doc with
    | Some c -> c
    | None -> die "%s: missing cluster object" path
  in
  let str path doc key =
    match Json.member key doc with
    | Some (Json.Str s) -> s
    | _ -> die "%s: missing string field %S" path key
  in
  let base_cluster = cluster_of committed_path committed in
  let fresh_cluster = cluster_of fresh_path fresh in
  let d1 = str fresh_path fresh_cluster "digest_shards1" in
  let d8 = str fresh_path fresh_cluster "digest_shards8" in
  check ~label:"cluster digest parity" ~ok:(String.equal d1 d8)
    "shards1=%s shards8=%s (must be byte-identical)" d1 d8;
  let base_avail = num committed_path base_cluster "speedup_available" in
  let avail = num fresh_path fresh_cluster "speedup_available" in
  check ~label:"cluster speedup available (committed)"
    ~ok:(base_avail >= min_speedup_available)
    "%.2fx (floor %.1fx)" base_avail min_speedup_available;
  check ~label:"cluster speedup available (fresh)"
    ~ok:(avail >= min_speedup_available)
    "%.2fx (floor %.1fx)" avail min_speedup_available;
  let base_ceps = num committed_path base_cluster "events_per_sec_shards1" in
  let ceps = num fresh_path fresh_cluster "events_per_sec_shards1" in
  check ~label:"cluster events_per_sec" ~ok:(ceps >= base_ceps /. time_ratio)
    "%.0f vs %.0f (floor 1/%.0f)" ceps base_ceps time_ratio;
  let cores = num fresh_path fresh_cluster "cores" in
  let measured = num fresh_path fresh_cluster "speedup_measured" in
  if cores >= 8. then
    check ~label:"cluster speedup measured"
      ~ok:(measured >= min_speedup_measured)
      "%.2fx on %.0f cores (floor %.1fx)" measured cores min_speedup_measured
  else
    Printf.printf "  skip  %-38s %.2fx on %.0f cores (gated at >= 8)\n"
      "cluster speedup measured" measured cores;
  if !failures > 0 then begin
    Printf.printf "%d regression check(s) failed.\n" !failures;
    exit 1
  end;
  print_endline "All baseline checks passed."
