(* Hot-path gates.  Fifteen fixed loops over the simulator's per-event
   and per-packet paths, each judged on what it decides for itself rather
   than on a wall clock compared with another machine's:

   - minor allocation, counted exactly with [Gc.minor_words] deltas over
     300,000 calls after a 20,000-call warm-up, at most 0.5 words per
     event above the loop's reference figure (0; 5 for the one path
     that is allowed to capture a closure; 2 or 3 per re-arm for the RTO
     churn, whose computed delay is boxed);
   - the engine's work, read from its own counters: every engine loop
     pins the [Engine.timer_stats] deltas over its calls and the
     pending-event count afterwards exactly, so an extra event, a
     different wheel/heap routing or a lost cancellation fails by name.
     Loops with no engine pin the channel or recorder counts they move;
     the demux probe and the ledger charge keep no counter and carry
     only their allocation bound.

   One gate is timed: the flight recorder may cost at most 1.5x the bare
   arena RX cycle plus 5 ns.  Both cycles run in this process, so the
   bound holds on any machine; it is judged on the median of interleaved
   trial pairs, because a single pair swings with the host. *)

open Lrp_engine

let warmup = 20_000
let reps = 300_000

(* Minor words per event of [per]-event calls to [f]: [n] calls after
   the warm-up, counted exactly. *)
let words_per_event ?(per = 1) ~n f =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (f ())
  done;
  (Gc.minor_words () -. w0) /. float_of_int (n * per)

let check_words name ~reference words =
  let limit = reference +. 0.5 in
  if words > limit then
    Alcotest.failf "%s: %.3f minor words/event, limit %.1f" name words limit

(* --- engine work ------------------------------------------------------ *)

type work = {
  scheduled : int;
  fired : int;
  cancelled : int;
  wheel : int;
  heap : int;
  pour_skipped : int;
  pending : int;  (* live events queued after the window *)
}

let work_t =
  Alcotest.testable
    (fun ppf w ->
      Format.fprintf ppf
        "{ scheduled = %d; fired = %d; cancelled = %d; wheel = %d; heap = \
         %d; pour_skipped = %d; pending = %d }"
        w.scheduled w.fired w.cancelled w.wheel w.heap w.pour_skipped
        w.pending)
    ( = )

(* The counters' movement while [window] runs. *)
let engine_work eng window =
  let s0 = Engine.timer_stats eng in
  window ();
  let s1 = Engine.timer_stats eng in
  {
    scheduled = s1.Engine.scheduled - s0.Engine.scheduled;
    fired = s1.Engine.fired - s0.Engine.fired;
    cancelled = s1.Engine.cancelled - s0.Engine.cancelled;
    wheel = s1.Engine.routed_wheel - s0.Engine.routed_wheel;
    heap = s1.Engine.routed_heap - s0.Engine.routed_heap;
    pour_skipped = s1.Engine.pour_skipped - s0.Engine.pour_skipped;
    pending = Engine.pending_events eng;
  }

(* One engine loop: allocation within its bound, and exactly the work
   [expect] over the warm-up and measured calls together. *)
let engine_loop ?(per = 1) ?(reference = 0.) name eng f expect =
  let n = reps / per in
  let words = ref nan in
  let got =
    engine_work eng (fun () -> words := words_per_event ~per ~n f)
  in
  check_words name ~reference !words;
  Alcotest.check work_t (name ^ ": engine work") expect got

let calls = warmup + reps

(* Every call schedules one event and fires one.  A 1 us delay lies
   inside the wheel's current 16 us tick, so the heap takes nearly every
   schedule; [wheel] is what the wheel takes on today's routing. *)
let every_call_fires ?(events = calls) ?(pending = 0) ~wheel () =
  {
    scheduled = events;
    fired = events;
    cancelled = 0;
    wheel;
    heap = events - wheel;
    pour_skipped = 0;
    pending;
  }

(* Closure fast path: the thunk is a static function, so the slot-table
   recycling makes the whole schedule/fire cycle allocation-free. *)
let test_schedule_fire () =
  let eng = Engine.create () in
  engine_loop "schedule+fire (static thunk)" eng
    (fun () ->
      ignore (Engine.schedule_after eng ~delay:1.0 ignore);
      Engine.step eng)
    (every_call_fires ~wheel:1 ())

(* Typed fast path: (target id, argument) in the slot table, no closure
   even though the event carries an argument. *)
let test_typed_fastpath () =
  let eng = Engine.create () in
  let sink = ref 0 in
  let tgt = Engine.target eng (fun v -> sink := v) in
  engine_loop "schedule_to+fire (typed target)" eng
    (fun () ->
      ignore (Engine.schedule_to_after eng ~delay:1.0 tgt 7);
      Engine.step eng)
    (every_call_fires ~wheel:1 ());
  Alcotest.(check int) "the argument arrived" 7 !sink

(* The same argument-carrying event as a capturing closure: the one path
   allowed to allocate (5 words).  A second accidental closure fails. *)
let test_capturing_thunk () =
  let eng = Engine.create () in
  let sink = ref 0 in
  engine_loop ~reference:5. "schedule+fire (capturing thunk)" eng
    (fun () ->
      let v = !sink + 1 in
      ignore (Engine.schedule_after eng ~delay:1.0 (fun () -> sink := v));
      Engine.step eng)
    (every_call_fires ~wheel:1 ());
  Alcotest.(check int) "every thunk ran" calls !sink

(* Batched dispatch: 64 same-deadline typed events drained by one
   [Engine.drain]; counted per event. *)
let test_batch_dispatch () =
  let eng = Engine.create () in
  let sink = ref 0 in
  let tgt = Engine.target eng (fun v -> sink := v) in
  let batch = 64 in
  engine_loop ~per:batch "batched dispatch (64-run)" eng
    (fun () ->
      for i = 1 to batch do
        ignore (Engine.schedule_to_after eng ~delay:1.0 tgt i)
      done;
      Engine.drain eng)
    (every_call_fires ~events:((warmup + (reps / batch)) * batch) ~wheel:64
       ())

(* Periodic re-arm: one slot and one thunk for the clock's lifetime. *)
let test_periodic_rearm () =
  let eng = Engine.create () in
  let h = ref Engine.none in
  h :=
    Engine.schedule_after eng ~delay:1.0 (fun () ->
        Engine.reschedule_after eng !h ~delay:1.0);
  engine_loop "periodic re-arm (reschedule_after)" eng
    (fun () -> Engine.step eng)
    (every_call_fires ~pending:1 ~wheel:1 ())

(* Staged re-arm: the deadline through the engine's float cell, the
   (target, argument) pair through the slot table. *)
let test_staged_rearm () =
  let eng = Engine.create () in
  let sink = ref 0 in
  let tgt = Engine.target eng (fun v -> sink := v) in
  engine_loop "staged re-arm (schedule_to_staged)" eng
    (fun () ->
      (Engine.deadline_cell eng).(0) <- (Engine.clock_cell eng).(0) +. 1.0;
      ignore (Engine.schedule_to_staged eng tgt 7);
      Engine.step eng)
    (every_call_fires ~wheel:1 ())

let udp_pkt () =
  Lrp_net.Packet.udp
    ~src:(Lrp_net.Packet.ip_of_quad 10 0 0 1)
    ~dst:(Lrp_net.Packet.ip_of_quad 10 0 0 2)
    ~src_port:1234 ~dst_port:7
    (Lrp_net.Payload.synthetic 64)

(* Arena TX: if_output through the NIC's descriptor arena, the
   handle-ring push, the cached-footprint drain and the tx-done event
   into a no-op fabric. *)
let test_tx_arena () =
  let eng = Engine.create () in
  let nic =
    Lrp_net.Nic.create eng ~name:"hot-tx"
      ~ip:(Lrp_net.Packet.ip_of_quad 10 0 0 9) ()
  in
  let pkt = udp_pkt () in
  engine_loop "nic/arena transmit+tx-done" eng
    (fun () ->
      ignore (Lrp_net.Nic.transmit nic pkt);
      Engine.step eng)
    (every_call_fires ~wheel:3 ())

(* RX coalescing: a sub-threshold train arms the NIC's hold-off timer,
   the timer fires into the kick, and the poll drains the ring. *)
let test_rxq_coalesce () =
  let eng = Engine.create () in
  let nic =
    Lrp_net.Nic.create eng ~name:"hot-rxq"
      ~ip:(Lrp_net.Packet.ip_of_quad 10 0 0 8) ()
  in
  Lrp_net.Nic.configure_rx_queues nic ~queues:1 ~ring:64 ~coalesce_pkts:64
    ~coalesce_us:5.
    ~steer:(fun _ -> 0)
    ~kick:(fun q -> Lrp_net.Nic.rxq_disable_intr nic q);
  let pkt = udp_pkt () in
  engine_loop "nic/coalesce arm+fire+poll" eng
    (fun () ->
      Lrp_net.Nic.receive nic pkt;
      ignore (Engine.step eng);
      ignore (Lrp_net.Nic.rxq_pop nic 0);
      Lrp_net.Nic.rxq_enable_intr nic 0)
    (every_call_fires ~wheel:2 ())

(* Timer churn at depth: 50,000 standing retransmit timers, re-armed on
   every "ACK" (cancel the old RTO, schedule a fresh one ~200 ms out)
   while a short event every 64 re-arms nudges the clock; then the run
   drains.  The wheel drops each corpse in O(1) when its bucket pours;
   the pure heap sifts it out at pop.  Both are pinned. *)
let standing = 50_000
let rearms = 200_000
let acks = rearms / 64

(* Minor words per re-arm: each boxes its computed [~delay] (2 words).
   On a fresh wheel, first-fill growth of the bucket columns adds about
   one more (0.05 in the re-arm loop, 0.98 over the drain); a wheel whose
   buckets a previous pass has grown adds only the 0.05. *)
let churn_pass eng =
  let handles = Array.make standing Engine.none in
  for i = 0 to standing - 1 do
    handles.(i) <-
      Engine.schedule_after eng
        ~delay:(200_000. +. float_of_int (i land 4095))
        ignore
  done;
  let words = ref nan in
  let work =
    engine_work eng (fun () ->
        let w0 = Gc.minor_words () in
        for i = 0 to rearms - 1 do
          let c = i mod standing in
          Engine.cancel eng handles.(c);
          handles.(c) <-
            Engine.schedule_after eng
              ~delay:(200_000. +. float_of_int (i land 4095))
              ignore;
          if i land 63 = 0 then begin
            ignore (Engine.schedule_after eng ~delay:10. ignore);
            ignore (Engine.step eng)
          end
        done;
        Engine.run eng ~until:(Engine.now eng +. 1e9);
        words := (Gc.minor_words () -. w0) /. float_of_int rearms)
  in
  (work, !words)

let churn ~pure_heap = churn_pass (Engine.create ~pure_heap ())

let test_churn_wheel () =
  let work, words = churn ~pure_heap:false in
  check_words "RTO churn (wheel)" ~reference:3. words;
  Alcotest.check work_t "wheel: engine work"
    {
      scheduled = rearms + acks;
      fired = standing + acks;
      cancelled = rearms;
      wheel = 249_804;
      heap = 3_321;
      pour_skipped = rearms;
      pending = 0;
    }
    work

let test_churn_pure_heap () =
  let work, words = churn ~pure_heap:true in
  check_words "RTO churn (pure heap)" ~reference:2. words;
  Alcotest.check work_t "pure heap: engine work"
    {
      scheduled = rearms + acks;
      fired = standing + acks;
      cancelled = rearms;
      wheel = 0;
      heap = rearms + acks;
      pour_skipped = 0;
      pending = 0;
    }
    work

(* The same churn on a wheel that has run it once: bucket columns are
   grown, so what is left is the boxed [~delay]. *)
let test_churn_wheel_warm () =
  let eng = Engine.create () in
  ignore (churn_pass eng);
  let work, words = churn_pass eng in
  check_words "RTO churn (wheel, warm)" ~reference:2. words;
  Alcotest.check work_t "warm wheel: engine work"
    {
      scheduled = rearms + acks;
      fired = standing + acks;
      cancelled = rearms;
      wheel = 249_813;
      heap = 3_312;
      pour_skipped = rearms;
      pending = 0;
    }
    work

(* --- loops without an engine ------------------------------------------ *)

(* Demux probe: the per-packet classification and packed-key flow-table
   lookup against a 64-port server; the probe hits.  No counter covers
   it, so only its allocation is gated. *)
let test_demux_probe () =
  let tab = Lrp_core.Chantab.create () in
  for p = 1 to 64 do
    Lrp_core.Chantab.add_udp tab ~port:p
      (Lrp_core.Channel.create ~name:(Printf.sprintf "hot-p%d" p) ())
  done;
  let pkt = udp_pkt () in
  check_words "demux/classify+flow-table probe" ~reference:0.
    (words_per_event ~n:reps (fun () ->
         ignore (Lrp_core.Chantab.resolve_slot tab pkt)))

(* The NI channel's admission and consumption through the handle ring,
   with and without the flight recorder's per-packet emit. *)
type rx = {
  chan : Lrp_core.Channel.t;
  pkt : Lrp_net.Packet.t;
  tracer : Lrp_trace.Trace.t;
}

let rx_fixture () =
  let arena = Lrp_net.Parena.create () in
  let tracer =
    Lrp_trace.Trace.create ~name:"hot-recorder" ~clock:[| 0. |] ()
  in
  Lrp_trace.Trace.set_enabled tracer true;
  {
    chan = Lrp_core.Channel.create ~arena ~limit:64 ~name:"hot-rx" ();
    pkt = udp_pkt ();
    tracer;
  }

let arena_rx rx () =
  ignore (Lrp_core.Channel.enqueue_code rx.chan rx.pkt);
  ignore (Lrp_core.Channel.pop rx.chan)

let traced_rx rx () =
  ignore (Lrp_core.Channel.enqueue_code rx.chan rx.pkt);
  Lrp_trace.Trace.nic_rx rx.tracer ~pkt:42 ~bytes:64;
  ignore (Lrp_core.Channel.pop rx.chan)

let test_arena_rx () =
  let rx = rx_fixture () in
  check_words "channel/arena enqueue_code+pop" ~reference:0.
    (words_per_event ~n:reps (arena_rx rx));
  Alcotest.(check int) "every packet admitted" calls
    (Lrp_core.Channel.enqueued rx.chan);
  Alcotest.(check int) "none discarded" 0 (Lrp_core.Channel.discarded rx.chan);
  Alcotest.(check int) "ring empty" 0 (Lrp_core.Channel.length rx.chan)

(* The recorder is four word stores into SoA ring columns: the traced
   cycle allocates nothing (limit 0.05 words, tighter than the others),
   and every emit is counted. *)
let test_recorder_alloc () =
  let rx = rx_fixture () in
  let words = words_per_event ~n:reps (traced_rx rx) in
  if words > 0.05 then
    Alcotest.failf "recorder: %.3f minor words/event, limit 0.05" words;
  Alcotest.(check int) "every emit recorded" calls
    (Lrp_trace.Trace.length rx.tracer + Lrp_trace.Trace.dropped rx.tracer);
  Alcotest.(check int) "every packet admitted" calls
    (Lrp_core.Channel.enqueued rx.chan)

(* Ledger charge: float-array arithmetic plus one int-keyed probe per
   charge, rows warmed first.  No counter covers it. *)
let test_ledger_charge () =
  let l = Lrp_sim.Ledger.create () in
  Lrp_sim.Ledger.charge l Lrp_sim.Ledger.Proto ~pid:1 ~flow:3 0.;
  Lrp_sim.Ledger.charge l Lrp_sim.Ledger.Intr ~pid:(-1) ~flow:(-1) 0.;
  check_words "cpu/ledger charge (warm rows, x2)" ~reference:0.
    (words_per_event ~n:reps (fun () ->
         Lrp_sim.Ledger.charge l Lrp_sim.Ledger.Proto ~pid:1 ~flow:3 0.1;
         Lrp_sim.Ledger.charge l Lrp_sim.Ledger.Intr ~pid:(-1) ~flow:(-1)
           0.1))

(* --- the one timed gate ----------------------------------------------- *)

let recorder_ratio = 1.5
let recorder_slack_ns = 5.0
let pairs = 9

let ns_per_call f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps

(* [pairs] interleaved (bare, traced) trials after a warm-up of both;
   the pair judged is the median by excess over the limit, so one
   descheduled trial on a shared host cannot decide the outcome. *)
let test_recorder_overhead () =
  let rx = rx_fixture () in
  for _ = 1 to warmup do
    arena_rx rx ();
    traced_rx rx ()
  done;
  let trials =
    Array.init pairs (fun _ ->
        let bare = ns_per_call (arena_rx rx) in
        let traced = ns_per_call (traced_rx rx) in
        (traced -. ((bare *. recorder_ratio) +. recorder_slack_ns), bare,
         traced))
  in
  Array.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) trials;
  let excess, bare, traced = trials.(pairs / 2) in
  Printf.printf "recorder: median pair of %d: %.1f ns traced vs %.1f ns bare \
                 (ratio %.2f)\n"
    pairs traced bare (traced /. bare);
  if excess > 0. then
    Alcotest.failf
      "recorder: %.1f ns traced vs %.1f ns bare (limit %.1fx + %.0f ns)"
      traced bare recorder_ratio recorder_slack_ns

let suite =
  [ Alcotest.test_case "engine: schedule+fire (static thunk)" `Quick
      test_schedule_fire;
    Alcotest.test_case "engine: schedule_to+fire (typed target)" `Quick
      test_typed_fastpath;
    Alcotest.test_case "engine: schedule+fire (capturing thunk)" `Quick
      test_capturing_thunk;
    Alcotest.test_case "engine: batched dispatch (64-run)" `Quick
      test_batch_dispatch;
    Alcotest.test_case "engine: periodic re-arm" `Quick test_periodic_rearm;
    Alcotest.test_case "engine: staged re-arm" `Quick test_staged_rearm;
    Alcotest.test_case "nic: arena transmit+tx-done" `Quick test_tx_arena;
    Alcotest.test_case "nic: coalesce arm+fire+poll" `Quick test_rxq_coalesce;
    Alcotest.test_case "engine: RTO churn on the wheel" `Quick
      test_churn_wheel;
    Alcotest.test_case "engine: RTO churn on the pure heap" `Quick
      test_churn_pure_heap;
    Alcotest.test_case "demux: classify+flow-table probe" `Quick
      test_demux_probe;
    Alcotest.test_case "channel: arena enqueue_code+pop" `Quick
      test_arena_rx;
    Alcotest.test_case "recorder: traced arena RX allocates nothing" `Quick
      test_recorder_alloc;
    Alcotest.test_case "ledger: warm charge" `Quick test_ledger_charge;
    Alcotest.test_case "recorder: within 1.5x + 5 ns of bare arena RX" `Quick
      test_recorder_overhead;
    Alcotest.test_case "engine: RTO churn on a warm wheel" `Quick
      test_churn_wheel_warm ]
