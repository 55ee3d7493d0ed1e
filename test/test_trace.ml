(* Tests for the structured tracing + metrics subsystem: ring-buffer
   semantics, sink well-formedness, the stage-latency report, and — most
   importantly — that tracing never perturbs simulation results. *)

open Lrp_trace
open Lrp_experiments

let clock = [| 0. |]

let make_tracer ?capacity () =
  clock.(0) <- 0.;
  let t = Trace.create ?capacity ~name:"test" ~clock () in
  Trace.set_enabled t true;
  t

(* --- ring buffer ------------------------------------------------------- *)

let test_ring_overwrite () =
  let t = make_tracer ~capacity:4 () in
  for i = 1 to 6 do
    clock.(0) <- float_of_int i;
    Trace.nic_rx t ~pkt:i ~bytes:100
  done;
  Alcotest.(check int) "length capped" 4 (Trace.length t);
  Alcotest.(check int) "overwritten" 2 (Trace.dropped t);
  let pkts =
    List.map
      (function
        | _, _, Trace.Nic_rx { pkt; _ } -> pkt
        | _ -> Alcotest.fail "unexpected event")
      (Trace.events t)
  in
  Alcotest.(check (list int)) "oldest overwritten first" [ 3; 4; 5; 6 ] pkts

let test_disabled_records_nothing () =
  clock.(0) <- 0.;
  let t = Trace.create ~name:"off" ~clock () in
  Trace.nic_rx t ~pkt:1 ~bytes:100;
  Trace.softint_begin t ~pkt:1;
  Trace.notef t "costly %d" (1 + 1);
  Alcotest.(check int) "disabled tracer stays empty" 0 (Trace.length t);
  let n = Trace.null () in
  Trace.nic_rx n ~pkt:1 ~bytes:100;
  Alcotest.(check int) "null tracer stays empty" 0 (Trace.length n)

let test_class_filter () =
  let t = make_tracer () in
  Trace.set_filter t [ Trace.Sched_events ];
  Trace.nic_rx t ~pkt:1 ~bytes:100;
  Trace.ctx_switch t ~from_pid:1 ~to_pid:2;
  Trace.note t "hello";
  Alcotest.(check int) "only sched recorded" 1 (Trace.length t);
  match Trace.events t with
  | [ (_, _, Trace.Ctx_switch _) ] -> ()
  | _ -> Alcotest.fail "expected the ctx-switch event only"

let test_event_ordering () =
  let t = make_tracer () in
  List.iter
    (fun ts ->
      clock.(0) <- ts;
      Trace.nic_rx t ~pkt:(int_of_float ts) ~bytes:14)
    [ 1.; 2.; 5.; 9. ];
  let stamps = List.map (fun (ts, _, _) -> ts) (Trace.events t) in
  Alcotest.(check (list (float 0.)))
    "events come back oldest-first" [ 1.; 2.; 5.; 9. ] stamps;
  let seqs = List.map (fun (_, seq, _) -> seq) (Trace.events t) in
  Alcotest.(check (list int)) "sequence numbers increase" [ 0; 1; 2; 3 ] seqs

(* --- merged timeline ----------------------------------------------------- *)

(* The reference merge, kept only here: every stream's decoded events
   concatenated, then a stable [List.sort] by (timestamp, stream, seq). *)
let reference_merge streams =
  List.sort
    (fun (s1, ts1, q1, _) (s2, ts2, q2, _) ->
      let c = Float.compare ts1 ts2 in
      if c <> 0 then c
      else
        let c = Int.compare s1 s2 in
        if c <> 0 then c else Int.compare q1 q2)
    (List.concat_map
       (fun (stream, t) ->
         List.map (fun (ts, seq, ev) -> (stream, ts, seq, ev)) (Trace.events t))
       streams)

let collect_merged streams =
  let acc = ref [] in
  Trace.iter_merged streams (fun ~stream ~ts ~seq ev ->
      acc := (stream, ts, seq, ev) :: !acc);
  List.rev !acc

(* One stream per [(label, capacity, steps)]: each step advances that
   stream's own clock by 0-2 us and records one event, so timestamps tie
   within a stream and across streams, labels may repeat, and a ring
   shorter than its step list wraps.  Events carry the stream's position
   [k] in [spec], so two streams under one label stay distinguishable. *)
let build_streams spec =
  List.mapi
    (fun k (label, capacity, steps) ->
      let clock = [| 0. |] in
      let t = Trace.create ~capacity ~name:"merge" ~clock () in
      Trace.set_enabled t true;
      List.iteri
        (fun j step ->
          clock.(0) <- clock.(0) +. float_of_int step;
          match j mod 3 with
          | 0 -> Trace.nic_rx t ~pkt:j ~bytes:k
          | 1 -> Trace.ctx_switch t ~from_pid:k ~to_pid:j
          | _ -> Trace.note t (Printf.sprintf "s%d-%d" k j))
        steps;
      (label, t))
    spec

let prop_merge_matches_sort =
  QCheck.Test.make ~count:500
    ~name:"merged_events and iter_merged equal a stable sort"
    QCheck.(
      list_of_size (Gen.int_range 0 5)
        (triple (int_range 0 3) (int_range 1 12)
           (list_of_size (Gen.int_range 0 20) (int_range 0 2))))
    (fun spec ->
      let streams = build_streams spec in
      let expected = reference_merge streams in
      Trace.merged_events streams = expected
      && collect_merged streams = expected)

let test_merge_edge_cases () =
  let same what streams =
    Alcotest.(check bool) (what ^ ": merged_events") true
      (Trace.merged_events streams = reference_merge streams);
    Alcotest.(check bool) (what ^ ": iter_merged") true
      (collect_merged streams = reference_merge streams)
  in
  same "no streams" [];
  same "one empty stream" (build_streams [ (0, 4, []) ]);
  same "a single stream" (build_streams [ (2, 8, [ 0; 1; 0; 2; 1 ]) ]);
  let wrapped =
    build_streams [ (0, 3, [ 1; 0; 1; 1; 0; 2; 1 ]); (1, 2, [ 0; 1; 1; 0; 1 ]) ]
  in
  Alcotest.(check bool) "rings wrapped" true
    (List.for_all (fun (_, t) -> Trace.dropped t > 0) wrapped);
  same "wrapped rings" wrapped;
  same "a repeated label"
    (build_streams [ (1, 8, [ 0; 0; 1 ]); (1, 8, [ 0; 1; 0 ]); (0, 8, [ 1 ]) ])

let test_merge_rejects_unordered_stream () =
  let ordered = List.hd (build_streams [ (0, 8, [ 0; 1; 2 ]) ]) in
  let clock = [| 5. |] in
  let t = Trace.create ~name:"unordered" ~clock () in
  Trace.set_enabled t true;
  Trace.nic_rx t ~pkt:1 ~bytes:14;
  clock.(0) <- 4.;
  Trace.nic_rx t ~pkt:2 ~bytes:14;
  let streams = [ ordered; (1, t) ] in
  (match Trace.merged_events streams with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "merged_events accepted a stream that goes back in time");
  let visited = ref 0 in
  (match
     Trace.iter_merged streams (fun ~stream:_ ~ts:_ ~seq:_ _ -> incr visited)
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "iter_merged accepted a stream that goes back in time");
  Alcotest.(check int) "iter_merged visits nothing before raising" 0 !visited;
  Alcotest.(check int) "the stream itself still decodes" 2
    (List.length (Trace.events t))

(* --- sinks ------------------------------------------------------------- *)

let test_chrome_roundtrip () =
  let t = make_tracer () in
  clock.(0) <- 1.;
  Trace.nic_rx t ~pkt:7 ~bytes:42;
  Trace.intr_enter t ~level:Trace.Hard ~label:"rx-intr";
  clock.(0) <- 3.;
  Trace.intr_exit t ~level:Trace.Hard ~label:"rx-intr";
  Trace.demux t ~pkt:7 ~chan:2 ~flow:9000;
  clock.(0) <- 5.;
  Trace.sock_enqueue t ~pkt:7 ~sock:3;
  Trace.note t "with \"quotes\" and\nnewline";
  let buf = Buffer.create 256 in
  Trace.to_chrome buf t;
  match Json.parse (Buffer.contents buf) with
  | Error e -> Alcotest.fail ("chrome JSON does not parse: " ^ e)
  | Ok doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.Arr evs) ->
          Alcotest.(check bool) "has events" true (List.length evs > 0);
          List.iter
            (fun ev ->
              match (Json.member "ph" ev, Json.member "pid" ev) with
              | Some (Json.Str _), Some (Json.Num _) -> ()
              | _ -> Alcotest.fail "event missing ph/pid")
            evs
      | _ -> Alcotest.fail "no traceEvents array")

let test_chrome_spans_balanced_under_overwrite () =
  (* A ring that wrapped mid-span must not emit an unmatched "E". *)
  let t = make_tracer ~capacity:3 () in
  clock.(0) <- 1.;
  Trace.intr_enter t ~level:Trace.Soft ~label:"softnet";
  clock.(0) <- 2.;
  Trace.intr_exit t ~level:Trace.Soft ~label:"softnet";
  clock.(0) <- 3.;
  Trace.intr_enter t ~level:Trace.Soft ~label:"softnet";
  clock.(0) <- 4.;
  Trace.intr_exit t ~level:Trace.Soft ~label:"softnet";
  (* capacity 3: the first enter fell off; first event is now an exit *)
  Alcotest.(check int) "ring wrapped" 1 (Trace.dropped t);
  let buf = Buffer.create 256 in
  Trace.to_chrome buf t;
  match Json.parse (Buffer.contents buf) with
  | Error e -> Alcotest.fail ("chrome JSON does not parse: " ^ e)
  | Ok doc ->
      let evs =
        match Json.member "traceEvents" doc with
        | Some a -> Json.to_list a
        | None -> []
      in
      let count ph =
        List.length
          (List.filter
             (fun ev -> Json.member "ph" ev = Some (Json.Str ph))
             evs)
      in
      Alcotest.(check int) "balanced begin/end" (count "B") (count "E")

let test_csv_and_text () =
  let t = make_tracer () in
  Trace.nic_rx t ~pkt:1 ~bytes:14;
  Trace.note t "a,b\"c";
  let csv = Buffer.create 128 in
  Trace.to_csv csv t;
  let lines = String.split_on_char '\n' (String.trim (Buffer.contents csv)) in
  Alcotest.(check int) "header + one row per event" 3 (List.length lines);
  Alcotest.(check string)
    "header" "seq,ts_us,class,event,pkt,a,b,detail" (List.hd lines);
  let txt = Buffer.create 128 in
  Trace.to_text txt t;
  Alcotest.(check bool) "text mentions nic-rx" true
    (String.length (Buffer.contents txt) > 0)

(* --- JSON parser ------------------------------------------------------- *)

let test_json_parser () =
  (match Json.parse {| {"a": [1, 2.5, true, null, "x\ny"], "b": {}} |} with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("valid JSON rejected: " ^ e));
  (match Json.parse "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated JSON accepted");
  match Json.parse "{} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

(* --- metrics ----------------------------------------------------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "rx.frames" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter value" 5 (Metrics.counter_value c);
  let c' = Metrics.counter m "rx.frames" in
  Metrics.incr c';
  Alcotest.(check int) "same name, same counter" 6 (Metrics.counter_value c);
  Metrics.gauge m "a.gauge" (fun () -> 7.5);
  let h = Metrics.histogram m "lat" in
  Metrics.observe h 10.;
  Metrics.observe h 20.;
  let snap = Metrics.snapshot m in
  let names = List.map fst snap in
  Alcotest.(check (list string))
    "snapshot sorted by name"
    (List.sort compare names) names;
  Alcotest.(check (float 1e-9)) "gauge sampled" 7.5 (List.assoc "a.gauge" snap);
  Alcotest.(check (float 1e-9)) "counter" 6. (List.assoc "rx.frames" snap);
  Alcotest.(check (float 1e-9)) "hist count" 2. (List.assoc "lat.count" snap);
  Alcotest.(check (float 1e-9)) "hist mean" 15. (List.assoc "lat.mean" snap)

(* --- simulation integration ------------------------------------------- *)

let seed = Common.default_seed
let dur = Lrp_engine.Time.ms 150.

let check_point msg (a : Fig3.point) (b : Fig3.point) =
  Alcotest.(check (float 0.)) (msg ^ ": offered") a.Fig3.offered b.Fig3.offered;
  Alcotest.(check (float 0.))
    (msg ^ ": delivered") a.Fig3.delivered b.Fig3.delivered;
  Alcotest.(check int) (msg ^ ": discards") a.Fig3.discards b.Fig3.discards;
  Alcotest.(check int) (msg ^ ": ipq_drops") a.Fig3.ipq_drops b.Fig3.ipq_drops

let test_tracing_is_free_of_side_effects () =
  (* The same seeded run must produce bit-identical datapoints whether the
     tracer is recording or not: tracing observes, never perturbs. *)
  List.iter
    (fun sys ->
      let plain = Fig3.measure ~seed sys ~rate:9_000. ~duration:dur in
      let traced, tracer, _ =
        Fig3.measure_traced ~seed sys ~rate:9_000. ~duration:dur
      in
      check_point (Common.system_name sys) plain traced;
      Alcotest.(check bool)
        (Common.system_name sys ^ ": recorded events")
        true
        (Trace.length tracer > 0))
    [ Common.Bsd; Common.Ni_lrp ]

let test_jobs_determinism_with_tracing () =
  (* fig3-style sweep: fan the same traced tasks over 1 and 4 domains and
     require identical points (per-kernel tracers cannot race). *)
  let tasks =
    [ (Common.Bsd, 6_000.); (Common.Bsd, 12_000.); (Common.Ni_lrp, 6_000.);
      (Common.Ni_lrp, 12_000.) ]
  in
  let sweep jobs =
    Common.sweep ~jobs
      (fun i (sys, rate) ->
        let p, _, _ =
          Fig3.measure_traced
            ~seed:(Common.job_seed ~seed ~index:i)
            sys ~rate ~duration:dur
        in
        p)
      tasks
  in
  List.iter2 (check_point "jobs 1 vs 4") (sweep 1) (sweep 4)

let test_stage_latency_report () =
  (* The paper's architectural claim, visible in the stage breakdown:
     BSD does protocol work in software interrupts; LRP does it in the
     receiver's context. *)
  let module S = Lrp_stats.Stats.Samples in
  let stages sys =
    let _, tracer, _ = Fig3.measure_traced ~seed sys ~rate:8_000. ~duration:dur in
    let r = Trace.Report.stage_latency (Trace.events tracer) in
    Alcotest.(check bool)
      (Common.system_name sys ^ ": packets traced")
      true (r.Trace.Report.packets > 0);
    r.Trace.Report.stages
  in
  let bsd = stages Common.Bsd in
  let softint = List.assoc "softint-proto" bsd in
  Alcotest.(check bool) "BSD: softint-proto present" true (S.count softint > 0);
  Alcotest.(check bool) "BSD: softint-proto > 0us" true (S.mean softint > 0.);
  Alcotest.(check int)
    "BSD: no proc-proto" 0
    (S.count (List.assoc "proc-proto" bsd));
  let lrp = stages Common.Ni_lrp in
  Alcotest.(check int)
    "NI-LRP: no softint-proto" 0
    (S.count (List.assoc "softint-proto" lrp));
  let proc = List.assoc "proc-proto" lrp in
  Alcotest.(check bool) "NI-LRP: proc-proto present" true (S.count proc > 0);
  Alcotest.(check bool) "NI-LRP: proc-proto > 0us" true (S.mean proc > 0.)

let test_kernel_metrics_snapshot () =
  let _, _, snap = Fig3.measure_traced ~seed Common.Bsd ~rate:8_000. ~duration:dur in
  let get k =
    match List.assoc_opt k snap with
    | Some v -> v
    | None -> Alcotest.fail ("metric missing: " ^ k)
  in
  Alcotest.(check bool) "rx_frames counted" true (get "kernel.rx_frames" > 0.);
  Alcotest.(check bool)
    "deliveries counted" true
    (get "kernel.udp_delivered" > 0.);
  Alcotest.(check bool) "nic saw packets" true (get "nic.rx_packets" > 0.);
  Alcotest.(check bool)
    "cpu softint time accrued" true
    (get "cpu.time_soft_us" > 0.);
  let names = List.map fst snap in
  Alcotest.(check (list string))
    "snapshot sorted" (List.sort compare names) names

let suite =
  [ Alcotest.test_case "ring overwrite" `Quick test_ring_overwrite;
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "class filter" `Quick test_class_filter;
    Alcotest.test_case "event ordering" `Quick test_event_ordering;
    Alcotest.test_case "chrome JSON round-trips" `Quick test_chrome_roundtrip;
    Alcotest.test_case "chrome spans balanced after overwrite" `Quick
      test_chrome_spans_balanced_under_overwrite;
    Alcotest.test_case "csv and text sinks" `Quick test_csv_and_text;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "tracing does not perturb results" `Quick
      test_tracing_is_free_of_side_effects;
    Alcotest.test_case "traced sweep: jobs 1 = jobs 4" `Quick
      test_jobs_determinism_with_tracing;
    Alcotest.test_case "stage-latency report (BSD vs NI-LRP)" `Quick
      test_stage_latency_report;
    Alcotest.test_case "kernel metrics snapshot" `Quick
      test_kernel_metrics_snapshot;
    QCheck_alcotest.to_alcotest prop_merge_matches_sort;
    Alcotest.test_case "merge: empty, single, wrapped, repeated label" `Quick
      test_merge_edge_cases;
    Alcotest.test_case "merge rejects a stream out of time order" `Quick
      test_merge_rejects_unordered_stream ]
