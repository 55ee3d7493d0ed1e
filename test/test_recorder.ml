(* Tests for the packed flight recorder, the CPU accounting ledger and
   the livelock/overload detector: ring semantics of the SoA recorder,
   lossless packed -> typed decoding, binary dump round-trips, the
   non-perturbation contract (recorder on/off and --jobs 1 vs 4 produce
   byte-identical figure data), ledger conservation against the CPU
   model's own clocks, the paper's misaccounting contrast, and the
   detector's BSD-fires / LRP-silent discrimination. *)

open Lrp_engine
open Lrp_net
open Lrp_sim
open Lrp_kernel
open Lrp_workload
open Lrp_experiments
module Trace = Lrp_trace.Trace
module Precorder = Lrp_trace.Precorder
module Overload = Lrp_check.Overload

(* --- packed ring semantics --------------------------------------------- *)

let test_precorder_wrap () =
  let clock = [| 0. |] in
  let p = Precorder.create ~capacity:8 ~clock () in
  for i = 0 to 19 do
    clock.(0) <- float_of_int i;
    Precorder.record p ~kind:0 ~ident:i ~a:(i * 2) ~b:(i * 3)
  done;
  Alcotest.(check int) "length capped at capacity" 8 (Precorder.length p);
  Alcotest.(check int) "dropped counts overwrites" 12 (Precorder.dropped p);
  Alcotest.(check int) "recorded is monotone" 20 (Precorder.recorded p);
  let seen = ref [] in
  Precorder.iter p (fun ~ts ~seq ~kind:_ ~ident ~a ~b ->
      seen := (ts, seq, ident, a, b) :: !seen);
  let seen = List.rev !seen in
  Alcotest.(check int) "iter visits the survivors" 8 (List.length seen);
  List.iteri
    (fun off (ts, seq, ident, a, b) ->
      let i = 12 + off in
      Alcotest.(check (float 0.)) "timestamp survives" (float_of_int i) ts;
      Alcotest.(check int) "sequence reconstructed" i seq;
      Alcotest.(check int) "ident survives" i ident;
      Alcotest.(check (pair int int)) "packed args survive" (i * 2, i * 3)
        (a, b))
    seen

let test_precorder_arg_sentinel () =
  let clock = [| 0. |] in
  let p = Precorder.create ~capacity:4 ~clock () in
  Precorder.record p ~kind:1 ~ident:(-1) ~a:(-1) ~b:Precorder.arg_max;
  Precorder.iter p (fun ~ts:_ ~seq:_ ~kind:_ ~ident ~a ~b ->
      Alcotest.(check int) "-1 ident round-trips" (-1) ident;
      Alcotest.(check int) "-1 arg round-trips" (-1) a;
      Alcotest.(check int) "arg_max round-trips" Precorder.arg_max b)

(* --- packed -> typed decode -------------------------------------------- *)

(* Emit one event of every constructor through [t], advancing the given
   clock cell so timestamps are distinct. *)
let emit_all t clock =
  let tick ts = clock.(0) <- ts in
  tick 1.;
  Trace.nic_rx t ~pkt:7 ~bytes:1500;
  Trace.demux t ~pkt:7 ~chan:3 ~flow:9000;
  tick 2.;
  Trace.ipq_enqueue t ~pkt:7 ~qlen:4;
  Trace.ipq_drop t ~pkt:8 ~qlen:64;
  Trace.early_discard t ~pkt:9 ~chan:3;
  tick 3.5;
  Trace.softint_begin t ~pkt:7;
  Trace.proto_deliver t ~pkt:7 ~conn:11 ~in_proc:false;
  Trace.proto_deliver t ~pkt:7 ~conn:(-1) ~in_proc:true;
  Trace.softint_end t ~pkt:7;
  tick 4.;
  Trace.sock_enqueue t ~pkt:7 ~sock:2;
  Trace.sock_drop t ~pkt:10 ~sock:2;
  Trace.syscall_copyout t ~pkt:7 ~sock:2 ~bytes:1472;
  Trace.csum_drop t ~pkt:11;
  Trace.mbuf_drop t ~pkt:12;
  tick 5.;
  Trace.intr_enter t ~level:Trace.Hard ~label:"rx-intr";
  Trace.intr_exit t ~level:Trace.Hard ~label:"rx-intr";
  Trace.intr_enter t ~level:Trace.Soft ~label:"softnet";
  Trace.intr_exit t ~level:Trace.Soft ~label:"softnet";
  tick 6.;
  Trace.ctx_switch t ~from_pid:1 ~to_pid:2;
  Trace.thread_state t ~pid:2 ~state:Trace.Spawned;
  Trace.thread_state t ~pid:2 ~state:Trace.Runnable;
  Trace.thread_state t ~pid:2 ~state:Trace.Sleeping;
  Trace.thread_state t ~pid:2 ~state:Trace.Exited;
  tick 7.;
  Trace.note t "checkpoint";
  Trace.notef t "formatted %d" 42;
  Trace.alarm t ~alarm:Trace.Overload ~a:200 ~b:30;
  Trace.alarm t ~alarm:Trace.Livelock ~a:200 ~b:95;
  Trace.alarm t ~alarm:Trace.Starvation ~a:2 ~b:95;
  Trace.alarm t ~alarm:Trace.Queue_watermark ~a:1 ~b:64;
  tick 8.;
  Trace.poll_begin t ~q:1 ~pending:5;
  Trace.poll_end t ~q:1 ~served:5;
  Trace.coalesce_fire t ~q:2 ~pending:16;
  Trace.gro_merge t ~pkt:20 ~into:19;
  Trace.gro_flush t ~pkt:19 ~segs:2

let make_tracer () =
  let clock = [| 0. |] in
  let t = Trace.create ~name:"recorder" ~clock () in
  Trace.set_enabled t true;
  (t, clock)

(* What [emit_all] must decode to, written out by hand: every one of the
   24 kind codes, both interrupt levels, interned labels and notes, and
   all four alarm kinds, with the clock value at each emit and gap-free
   sequence numbers. *)
let expected_events =
  let open Trace in
  [ (1., 0, Nic_rx { pkt = 7; bytes = 1500 });
    (1., 1, Demux { pkt = 7; chan = 3; flow = 9000 });
    (2., 2, Ipq_enqueue { pkt = 7; qlen = 4 });
    (2., 3, Ipq_drop { pkt = 8; qlen = 64 });
    (2., 4, Early_discard { pkt = 9; chan = 3 });
    (3.5, 5, Softint_begin { pkt = 7 });
    (3.5, 6, Proto_deliver { pkt = 7; conn = 11; in_proc = false });
    (3.5, 7, Proto_deliver { pkt = 7; conn = -1; in_proc = true });
    (3.5, 8, Softint_end { pkt = 7 });
    (4., 9, Sock_enqueue { pkt = 7; sock = 2 });
    (4., 10, Sock_drop { pkt = 10; sock = 2 });
    (4., 11, Syscall_copyout { pkt = 7; sock = 2; bytes = 1472 });
    (4., 12, Csum_drop { pkt = 11 });
    (4., 13, Mbuf_drop { pkt = 12 });
    (5., 14, Intr_enter { level = Hard; label = "rx-intr" });
    (5., 15, Intr_exit { level = Hard; label = "rx-intr" });
    (5., 16, Intr_enter { level = Soft; label = "softnet" });
    (5., 17, Intr_exit { level = Soft; label = "softnet" });
    (6., 18, Ctx_switch { from_pid = 1; to_pid = 2 });
    (6., 19, Thread_state { pid = 2; state = Spawned });
    (6., 20, Thread_state { pid = 2; state = Runnable });
    (6., 21, Thread_state { pid = 2; state = Sleeping });
    (6., 22, Thread_state { pid = 2; state = Exited });
    (7., 23, Note "checkpoint");
    (7., 24, Note "formatted 42");
    (7., 25, Alarm { alarm = Overload; a = 200; b = 30 });
    (7., 26, Alarm { alarm = Livelock; a = 200; b = 95 });
    (7., 27, Alarm { alarm = Starvation; a = 2; b = 95 });
    (7., 28, Alarm { alarm = Queue_watermark; a = 1; b = 64 });
    (8., 29, Poll_begin { q = 1; pending = 5 });
    (8., 30, Poll_end { q = 1; served = 5 });
    (8., 31, Coalesce_fire { q = 2; pending = 16 });
    (8., 32, Gro_merge { pkt = 20; into = 19 });
    (8., 33, Gro_flush { pkt = 19; segs = 2 }) ]

let test_packed_typed_equal () =
  let t, clock = make_tracer () in
  emit_all t clock;
  Alcotest.(check int) "every emit recorded" (List.length expected_events)
    (Trace.length t);
  Alcotest.(check int) "nothing overwritten" 0 (Trace.dropped t);
  List.iter2
    (fun (ets, eseq, eev) (ts, seq, ev) ->
      let what = Format.asprintf "%a" Trace.pp_event eev in
      Alcotest.(check (float 0.)) (what ^ ": timestamp") ets ts;
      Alcotest.(check int) (what ^ ": sequence") eseq seq;
      Alcotest.(check string) (what ^ ": decoded event") what
        (Format.asprintf "%a" Trace.pp_event ev);
      Alcotest.(check bool) (what ^ ": structurally equal") true (eev = ev))
    expected_events (Trace.events t)

(* A tracer built directly, not through [Kernel.create], must record
   every emitter without allocating once its labels and notes are
   interned.  [notef] is left out: it formats a fresh string by design. *)
let test_standalone_tracer_allocates_nothing () =
  let t, clock = make_tracer () in
  let round i =
    clock.(0) <- float_of_int i;
    Trace.nic_rx t ~pkt:i ~bytes:1500;
    Trace.demux t ~pkt:i ~chan:3 ~flow:9000;
    Trace.ipq_enqueue t ~pkt:i ~qlen:4;
    Trace.ipq_drop t ~pkt:i ~qlen:64;
    Trace.early_discard t ~pkt:i ~chan:3;
    Trace.softint_begin t ~pkt:i;
    Trace.proto_deliver t ~pkt:i ~conn:11 ~in_proc:false;
    Trace.softint_end t ~pkt:i;
    Trace.sock_enqueue t ~pkt:i ~sock:2;
    Trace.sock_drop t ~pkt:i ~sock:2;
    Trace.syscall_copyout t ~pkt:i ~sock:2 ~bytes:1472;
    Trace.csum_drop t ~pkt:i;
    Trace.mbuf_drop t ~pkt:i;
    Trace.intr_enter t ~level:Trace.Hard ~label:"rx-intr";
    Trace.intr_exit t ~level:Trace.Hard ~label:"rx-intr";
    Trace.ctx_switch t ~from_pid:1 ~to_pid:2;
    Trace.thread_state t ~pid:2 ~state:Trace.Runnable;
    Trace.note t "checkpoint";
    Trace.alarm t ~alarm:Trace.Livelock ~a:200 ~b:95;
    Trace.poll_begin t ~q:1 ~pending:5;
    Trace.poll_end t ~q:1 ~served:5;
    Trace.coalesce_fire t ~q:2 ~pending:16;
    Trace.gro_merge t ~pkt:i ~into:19;
    Trace.gro_flush t ~pkt:i ~segs:2
  in
  let per_round = 24 in
  for i = 1 to 1_000 do
    round i
  done;
  let n = 20_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    round i
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every emit recorded"
    ((1_000 + n) * per_round)
    (Trace.length t + Trace.dropped t);
  Alcotest.(check (float 0.)) "minor words per event" 0.
    (dw /. float_of_int (n * per_round))

(* --- binary dump round-trip -------------------------------------------- *)

let test_dump_roundtrip () =
  let packed, clock = make_tracer () in
  emit_all packed clock;
  let p =
    match Trace.packed packed with Some p -> p | None -> assert false
  in
  let file = Filename.temp_file "lrprec" ".bin" in
  Precorder.write_dump p file;
  let q =
    match Precorder.read_dump file with
    | Ok q -> q
    | Error e -> Alcotest.fail ("read_dump: " ^ e)
  in
  Sys.remove file;
  Alcotest.(check int) "length survives the dump" (Precorder.length p)
    (Precorder.length q);
  Alcotest.(check bool) "decoded events identical" true
    (Trace.events_of_precorder p = Trace.events_of_precorder q);
  Alcotest.(check bool) "dump events match the typed view" true
    (Trace.events_of_precorder q = Trace.events packed)

let test_dump_rejects_garbage () =
  (match Precorder.of_string "not a dump" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  match Precorder.of_string "LRPREC01\x01\x02" with
  | Ok _ -> Alcotest.fail "truncated dump accepted"
  | Error _ -> ()

(* --- column growth ------------------------------------------------------ *)

(* The reference model: record [i] has kind [i mod 24], timestamp [i],
   ident [i] and args [(i mod 1000, i / 3)]; a recorder that took [n]
   records keeps the newest [kept] of them, with sequence numbers
   [n - kept .. n - 1]. *)
let model_record p clock i =
  clock.(0) <- float_of_int i;
  Precorder.record p ~kind:(i mod 24) ~ident:i ~a:(i mod 1000) ~b:(i / 3)

let check_model what p ~n ~kept =
  Alcotest.(check int) (what ^ ": length") kept (Precorder.length p);
  Alcotest.(check int) (what ^ ": dropped") (n - kept) (Precorder.dropped p);
  Alcotest.(check int) (what ^ ": recorded") n (Precorder.recorded p);
  let off = ref 0 in
  Precorder.iter p (fun ~ts ~seq ~kind ~ident ~a ~b ->
      let i = n - kept + !off in
      if (ts, seq, kind, ident, a, b)
         <> (float_of_int i, i, i mod 24, i, i mod 1000, i / 3)
      then Alcotest.failf "%s: survivor %d differs from the model" what !off;
      incr off);
  Alcotest.(check int) (what ^ ": iter visits every survivor") kept !off;
  if kept > 0 then begin
    let i = n - 1 in
    Alcotest.(check (float 0.)) (what ^ ": ts_at newest") (float_of_int i)
      (Precorder.ts_at p (kept - 1));
    Alcotest.(check int) (what ^ ": seq_at oldest") (n - kept)
      (Precorder.seq_at p 0);
    Alcotest.(check int) (what ^ ": decode_at newest") i
      (Precorder.decode_at p (kept - 1) (fun ~kind:_ ~ident ~a:_ ~b:_ -> ident))
  end

(* Slots per column after [n] records: none before the first, then 1,024
   (or [cap]) doubling up to [cap]. *)
let expected_slots ~cap n =
  if n = 0 then 0
  else
    let rec up s = if s >= min n cap then s else up (2 * s) in
    min cap (up (min cap 1024))

let dump p =
  let buf = Buffer.create 4096 in
  Precorder.dump_to_buffer buf p;
  Buffer.contents buf

let test_growth_boundaries () =
  List.iter
    (fun cap ->
      let clock = [| 0. |] in
      let p = Precorder.create ~capacity:cap ~clock () in
      let empty_words = Obj.reachable_words (Obj.repr p) in
      (* Every doubling point, up to one past [2 * cap]. *)
      let rec doublings s = if s > 2 * cap then [] else s :: doublings (2 * s) in
      let checkpoints =
        List.sort_uniq compare
          (List.filter (fun n -> n >= 0)
             (List.concat_map (fun s -> [ s - 1; s; s + 1 ])
                (cap :: doublings 1024)
             @ [ 0; 1; (2 * cap) + 3 ]))
      in
      let n = ref 0 in
      List.iter
        (fun target ->
          while !n < target do
            model_record p clock !n;
            incr n
          done;
          let what = Printf.sprintf "cap %d after %d records" cap target in
          let kept = min target cap in
          check_model what p ~n:target ~kept;
          let slots = expected_slots ~cap target in
          let words = Obj.reachable_words (Obj.repr p) - empty_words in
          if words < 4 * slots || words > 4 * (slots + 1) then
            Alcotest.failf "%s: %d column words, expected 4 x %d slots" what
              words slots;
          match Precorder.of_string (dump p) with
          | Error e -> Alcotest.failf "%s: dump does not read back: %s" what e
          | Ok q ->
              check_model (what ^ ", read back") q ~n:target ~kept;
              Alcotest.(check bool) (what ^ ": dump bytes identical") true
                (dump p = dump q))
        checkpoints)
    [ 1; 1000; 1024; 1500; 65536 ]

(* The default-capacity tracer's footprint follows what it holds: 5,000
   records fit in 8,192 slots per column, not the 65,536 it could hold. *)
let test_footprint_tracks_records () =
  let t, clock = make_tracer () in
  let p = match Trace.packed t with Some p -> p | None -> assert false in
  let empty_words = Obj.reachable_words (Obj.repr p) in
  for i = 1 to 5_000 do
    clock.(0) <- float_of_int i;
    Trace.nic_rx t ~pkt:i ~bytes:14
  done;
  Alcotest.(check int) "every record kept" 5_000 (Trace.length t);
  let words = Obj.reachable_words (Obj.repr p) - empty_words in
  if words > 4 * (8_192 + 1) then
    Alcotest.failf "%d column words for 5,000 records (> 4 x 8,192 slots)"
      words

(* --- non-perturbation: recorder on/off, any --jobs --------------------- *)

let point = Alcotest.testable (fun fmt (p : Fig3.point) ->
    Format.fprintf fmt "{offered=%.1f delivered=%.1f}" p.Fig3.offered
      p.Fig3.delivered)
    ( = )

let test_recorder_does_not_perturb () =
  List.iter
    (fun sys ->
      let off = Fig3.measure sys ~rate:12_000. ~duration:(Time.ms 300.) in
      let on_, tracer, _metrics =
        Fig3.measure_traced sys ~rate:12_000. ~duration:(Time.ms 300.)
      in
      Alcotest.check point
        (Common.system_name sys ^ ": datapoint identical with recorder on")
        off on_;
      Alcotest.(check bool)
        (Common.system_name sys ^ ": the recorder actually recorded")
        true
        (Trace.length tracer > 0))
    [ Common.Bsd; Common.Soft_lrp ]

let test_accounting_jobs_invariant () =
  let a = Accounting.run ~quick:true ~jobs:1 () in
  let b = Accounting.run ~quick:true ~jobs:4 () in
  Alcotest.(check bool) "ledger rows identical at --jobs 1 and 4" true
    (a.Accounting.arch_rows = b.Accounting.arch_rows);
  Alcotest.(check bool) "detector rows identical at --jobs 1 and 4" true
    (a.Accounting.det_rows = b.Accounting.det_rows)

(* --- ledger conservation ----------------------------------------------- *)

let run_blast sys ~rate ~duration =
  let cfg = Common.config_of_system sys in
  let w, client, server = World.pair ~cfg () in
  let sink = Blast.start_sink server ~port:9000 () in
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 9000)
       ~rate ~size:14 ~until:duration ());
  World.run w ~until:duration;
  (server, sink)

let check_close what expected actual =
  let tol = 1e-6 *. Float.max 1. (Float.abs expected) in
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: ledger %.9g vs cpu %.9g" what actual expected

let test_ledger_conservation () =
  List.iter
    (fun sys ->
      let server, _ = run_blast sys ~rate:10_000. ~duration:(Time.ms 300.) in
      let cpu = Kernel.cpu server in
      let led = Cpu.ledger cpu in
      let name = Common.system_name sys in
      check_close (name ^ " Intr = time_hard") (Cpu.time_hard cpu)
        (Ledger.total led Ledger.Intr);
      check_close (name ^ " Soft = time_soft") (Cpu.time_soft cpu)
        (Ledger.total led Ledger.Soft);
      check_close
        (name ^ " Proto+App = time_user")
        (Cpu.time_user cpu)
        (Ledger.total led Ledger.Proto +. Ledger.total led Ledger.App);
      check_close
        (name ^ " grand total = busy cycles")
        (Cpu.time_hard cpu +. Cpu.time_soft cpu +. Cpu.time_user cpu)
        (Ledger.grand_total led);
      (* Per-row columns sum back to the class totals. *)
      let by_rows =
        List.fold_left
          (fun acc (r : Ledger.row) ->
            acc +. r.Ledger.intr_victim +. r.Ledger.soft_victim
            +. r.Ledger.proto +. r.Ledger.app)
          0. (Ledger.rows led)
      in
      check_close (name ^ " rows sum to grand total")
        (Ledger.grand_total led) by_rows)
    [ Common.Bsd; Common.Ni_lrp; Common.Soft_lrp ]

(* --- the paper's accounting contrast ----------------------------------- *)

let test_misaccounting_contrast () =
  let bsd =
    Accounting.measure_arch Common.Bsd ~rate:8_000. ~duration:(Time.ms 300.)
  in
  let ni =
    Accounting.measure_arch Common.Ni_lrp ~rate:8_000. ~duration:(Time.ms 300.)
  in
  Alcotest.(check bool) "BSD mischarges most interrupt work" true
    (bsd.Accounting.mischarged > 5. *. ni.Accounting.mischarged);
  Alcotest.(check bool) "BSD does no receiver-context protocol work" true
    (bsd.Accounting.receiver_proto = 0.);
  Alcotest.(check bool) "NI-LRP charges protocol work to the receiver" true
    (ni.Accounting.receiver_proto > 0.)

(* --- detector discrimination ------------------------------------------- *)

let test_detector_discriminates () =
  let rate = 14_000. and duration = Time.ms 500. in
  let bsd = Accounting.measure_detector Common.Bsd ~rate ~duration in
  let lrp = Accounting.measure_detector Common.Soft_lrp ~rate ~duration in
  let brep = bsd.Accounting.d_report and lrep = lrp.Accounting.d_report in
  Alcotest.(check bool) "BSD livelocks under a 14k pkts/s blast" true
    (brep.Overload.livelock_windows > 0);
  Alcotest.(check bool) "BSD collapse is also an overload" true
    (brep.Overload.overload_windows >= brep.Overload.livelock_windows);
  Alcotest.(check bool) "SOFT-LRP never livelocks at the same load" true
    (lrep.Overload.livelock_windows = 0);
  Alcotest.(check bool) "SOFT-LRP keeps interrupt share low" true
    (lrep.Overload.peak_intr_share < 0.8);
  Alcotest.(check bool) "SOFT-LRP out-delivers BSD" true
    (lrp.Accounting.d_delivered > bsd.Accounting.d_delivered)

let test_detector_silent_when_healthy () =
  let cfg = Common.config_of_system Common.Soft_lrp in
  let w, client, server = World.pair ~cfg () in
  let det = Overload.attach server in
  let _sink = Blast.start_sink server ~port:9000 () in
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 9000)
       ~rate:4_000. ~size:14 ~until:(Time.ms 500.) ());
  World.run w ~until:(Time.ms 500.);
  Overload.detach det;
  let rep = Overload.report det in
  Alcotest.(check int) "no overload at a healthy rate" 0
    rep.Overload.overload_windows;
  Alcotest.(check int) "no starvation at a healthy rate" 0
    rep.Overload.starved_windows;
  Alcotest.(check bool) "windows were actually judged" true
    (rep.Overload.judged > 0)

(* --- detector alarms land in the flight recorder ----------------------- *)

let test_alarms_recorded () =
  let cfg = Common.config_of_system Common.Bsd in
  let w, client, server = World.pair ~cfg () in
  Kernel.set_tracing server true;
  Trace.set_filter (Kernel.tracer server) [ Trace.Note_events ];
  let det = Overload.attach server in
  let _sink = Blast.start_sink server ~port:9000 () in
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 9000)
       ~rate:20_000. ~size:14 ~until:(Time.ms 500.) ());
  World.run w ~until:(Time.ms 500.);
  Overload.detach det;
  let events = Trace.events (Kernel.tracer server) in
  let count k =
    List.length
      (List.filter
         (function
           | _, _, Trace.Alarm { alarm; _ } -> alarm = k | _ -> false)
         events)
  in
  let rep = Overload.report det in
  Alcotest.(check int) "every overload window left an alarm event"
    rep.Overload.overload_windows (count Trace.Overload);
  Alcotest.(check int) "every livelock window left an alarm event"
    rep.Overload.livelock_windows (count Trace.Livelock);
  Alcotest.(check bool) "queue watermarks were recorded" true
    (count Trace.Queue_watermark > 0)

(* --- slot-based demux agrees with the boxing resolver ------------------ *)

let test_resolve_slot_agrees () =
  let tab = Lrp_core.Chantab.create () in
  let ch p = Lrp_core.Channel.create ~name:(Printf.sprintf "ch%d" p) () in
  Lrp_core.Chantab.add_udp tab ~port:53 (ch 53);
  Lrp_core.Chantab.add_udp tab ~port:9000 (ch 9000);
  let peer = Packet.ip_of_quad 10 0 0 1 in
  let self = Packet.ip_of_quad 10 0 0 2 in
  Lrp_core.Chantab.add_tcp tab ~src:peer ~src_port:1234 ~dst_port:80 (ch 80);
  Lrp_core.Chantab.add_tcp_listen tab ~port:80 (ch 8080);
  let udp_hit =
    Packet.udp ~src:peer ~dst:self ~src_port:4000 ~dst_port:9000
      (Payload.synthetic 14)
  in
  let udp_miss =
    Packet.udp ~src:peer ~dst:self ~src_port:4000 ~dst_port:12345
      (Payload.synthetic 14)
  in
  let tcp_hit =
    Packet.tcp ~src:peer ~dst:self ~src_port:1234 ~dst_port:80 ~seq:1
      ~ack_no:0 ~flags:(Packet.flags ~ack:true ()) ~window:1000
      (Payload.synthetic 14)
  in
  let tcp_syn =
    Packet.tcp ~src:peer ~dst:self ~src_port:5678 ~dst_port:80 ~seq:1
      ~ack_no:0 ~flags:(Packet.flags ~syn:true ()) ~window:1000
      (Payload.synthetic 0)
  in
  let icmp_pkt =
    Packet.icmp ~src:peer ~dst:self Packet.Echo_request (Payload.synthetic 8)
  in
  let tail_frag =
    { Packet.ip = udp_hit.Packet.ip;
      body = Packet.Fragment { whole = udp_hit; foff = 8; flen = 6;
                               last = true } }
  in
  List.iter
    (fun (label, pkt) ->
      let slot = Lrp_core.Chantab.resolve_slot tab pkt in
      match Lrp_core.Chantab.resolve_packet tab pkt with
      | None ->
          Alcotest.(check int)
            (label ^ ": slot_none iff resolve_packet misses")
            Lrp_core.Chantab.slot_none slot
      | Some c ->
          Alcotest.(check bool) (label ^ ": slot decodes to the same channel")
            true
            (Lrp_core.Chantab.channel_of_slot tab slot == c))
    [ ("udp hit", udp_hit); ("udp miss", udp_miss); ("tcp hit", tcp_hit);
      ("tcp syn -> listener", tcp_syn); ("icmp", icmp_pkt);
      ("tail fragment", tail_frag) ]

let suite =
  [ Alcotest.test_case "packed ring wraps and reconstructs sequences" `Quick
      test_precorder_wrap;
    Alcotest.test_case "packed args keep -1 sentinel and arg_max" `Quick
      test_precorder_arg_sentinel;
    Alcotest.test_case "packed ring decodes to the typed event stream" `Quick
      test_packed_typed_equal;
    Alcotest.test_case "standalone tracer records without allocating" `Quick
      test_standalone_tracer_allocates_nothing;
    Alcotest.test_case "binary dump round-trips losslessly" `Quick
      test_dump_roundtrip;
    Alcotest.test_case "dump reader rejects malformed input" `Quick
      test_dump_rejects_garbage;
    Alcotest.test_case "columns double from 1,024 slots and wrap at capacity"
      `Quick test_growth_boundaries;
    Alcotest.test_case "5,000 records fit in 8,192 slots per column" `Quick
      test_footprint_tracks_records;
    Alcotest.test_case "recorder on/off gives identical datapoints" `Quick
      test_recorder_does_not_perturb;
    Alcotest.test_case "accounting tables identical at --jobs 1 and 4" `Quick
      test_accounting_jobs_invariant;
    Alcotest.test_case "ledger conserves every simulated cycle" `Quick
      test_ledger_conservation;
    Alcotest.test_case "BSD mischarges, LRP bills the receiver" `Quick
      test_misaccounting_contrast;
    Alcotest.test_case "detector: BSD livelocks, SOFT-LRP does not" `Quick
      test_detector_discriminates;
    Alcotest.test_case "detector stays silent at healthy load" `Quick
      test_detector_silent_when_healthy;
    Alcotest.test_case "alarms and watermarks land in the recorder" `Quick
      test_alarms_recorded;
    Alcotest.test_case "resolve_slot agrees with resolve_packet" `Quick
      test_resolve_slot_agrees ]
