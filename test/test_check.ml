(* Tests for the trace-driven invariant oracle: clean streams pass,
   specific violations are caught, duplication-by-the-network is tolerated,
   and — crucially — a deliberately-buggy mock kernel that double-delivers
   a packet is flagged, guarding against a vacuously-green checker. *)

open Lrp_check
module Trace = Lrp_trace.Trace

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A tracer with a dummy clock; events carry the times we fake. *)
let tracer ?capacity () =
  let tr = Trace.create ?capacity ~name:"mock" ~clock:[| 0. |] () in
  Trace.set_enabled tr true;
  tr

(* --- a tiny mock kernel ------------------------------------------------- *)

(* Receives packets and emits the lifecycle a correct LRP-style kernel
   would: nic-rx, demux, proto-deliver, sock-enqueue, copyout.  [bug]
   selects a deliberate misbehaviour. *)
type bug = Correct | Double_deliver of int | Ghost_enqueue of int

let mock_kernel ?(bug = Correct) tr pkts =
  List.iter
    (fun pkt ->
      Trace.nic_rx tr ~pkt ~bytes:100;
      Trace.demux tr ~pkt ~chan:1 ~flow:7;
      Trace.proto_deliver tr ~pkt ~conn:(-1) ~in_proc:true;
      Trace.sock_enqueue tr ~pkt ~sock:3;
      (match bug with
       | Double_deliver p when p = pkt ->
           (* The bug under test: one packet deposited twice. *)
           Trace.sock_enqueue tr ~pkt ~sock:3
       | Correct | Double_deliver _ | Ghost_enqueue _ -> ());
      Trace.syscall_copyout tr ~pkt ~sock:3 ~bytes:100)
    pkts;
  match bug with
  | Ghost_enqueue p ->
      (* Deliver a packet that never arrived. *)
      Trace.proto_deliver tr ~pkt:p ~conn:(-1) ~in_proc:true;
      Trace.sock_enqueue tr ~pkt:p ~sock:3
  | Correct | Double_deliver _ -> ()

let test_clean_stream_passes () =
  let tr = tracer () in
  mock_kernel tr [ 1; 2; 3; 4; 5 ];
  let v = Oracle.check_tracer ~require_demux:true tr in
  Alcotest.(check bool) "clean stream is ok" true v.Oracle.ok;
  Alcotest.(check int) "5 packets" 5 v.Oracle.packets;
  Alcotest.(check int) "5 arrivals" 5 v.Oracle.arrivals;
  Alcotest.(check int) "5 enqueued" 5 v.Oracle.enqueued

let test_mock_buggy_kernel_flagged () =
  (* The oracle's own self-check: a kernel that double-delivers packet 2
     must be caught. *)
  let tr = tracer () in
  mock_kernel ~bug:(Double_deliver 2) tr [ 1; 2; 3 ];
  let v = Oracle.check_tracer tr in
  Alcotest.(check bool) "double delivery flagged" false v.Oracle.ok;
  Alcotest.(check bool) "violation names double delivery of packet 2" true
    (List.exists
       (fun s -> contains_sub s "double delivery" && contains_sub s "packet 2")
       v.Oracle.violations)

let test_ghost_enqueue_flagged () =
  let tr = tracer () in
  mock_kernel ~bug:(Ghost_enqueue 99) tr [ 1; 2 ];
  let v = Oracle.check_tracer tr in
  Alcotest.(check bool) "ghost packet flagged" false v.Oracle.ok

let test_network_duplication_tolerated () =
  (* The network presented packet 1 twice; delivering it twice is correct
     behaviour, not a violation. *)
  let tr = tracer () in
  let deliver () =
    Trace.nic_rx tr ~pkt:1 ~bytes:100;
    Trace.demux tr ~pkt:1 ~chan:1 ~flow:7;
    Trace.proto_deliver tr ~pkt:1 ~conn:(-1) ~in_proc:true;
    Trace.sock_enqueue tr ~pkt:1 ~sock:3
  in
  deliver ();
  deliver ();
  let v = Oracle.check_tracer ~require_demux:true tr in
  Alcotest.(check bool) "dup-arrival dup-delivery is ok" true v.Oracle.ok;
  (* A third delivery of a twice-arrived packet is a bug again. *)
  Trace.sock_enqueue tr ~pkt:1 ~sock:3;
  let v = Oracle.check_tracer ~require_demux:true tr in
  Alcotest.(check bool) "over-delivery beyond arrivals flagged" false
    v.Oracle.ok

let test_enqueue_without_proto_flagged () =
  let tr = tracer () in
  Trace.nic_rx tr ~pkt:1 ~bytes:100;
  Trace.sock_enqueue tr ~pkt:1 ~sock:3;
  let v = Oracle.check_tracer tr in
  Alcotest.(check bool) "enqueue without proto-deliver flagged" false
    v.Oracle.ok

let test_require_demux () =
  let tr = tracer () in
  Trace.nic_rx tr ~pkt:1 ~bytes:100;
  Trace.proto_deliver tr ~pkt:1 ~conn:(-1) ~in_proc:false;
  Trace.sock_enqueue tr ~pkt:1 ~sock:3;
  (* BSD has no demux step: fine without, flagged with. *)
  Alcotest.(check bool) "ok without require_demux" true
    (Oracle.check_tracer ~require_demux:false tr).Oracle.ok;
  Alcotest.(check bool) "flagged with require_demux" false
    (Oracle.check_tracer ~require_demux:true tr).Oracle.ok

let test_copyout_exceeding_enqueues_flagged () =
  let tr = tracer () in
  mock_kernel tr [ 1 ];
  Trace.syscall_copyout tr ~pkt:1 ~sock:3 ~bytes:100;
  let v = Oracle.check_tracer tr in
  Alcotest.(check bool) "double copyout flagged" false v.Oracle.ok

let test_ring_wrap_inconclusive () =
  let tr = tracer ~capacity:4 () in
  mock_kernel tr [ 1; 2; 3; 4; 5 ];
  let v = Oracle.check_tracer tr in
  Alcotest.(check bool) "wrapped ring reported" true v.Oracle.ring_wrapped;
  Alcotest.(check bool) "wrapped ring does not fail" true v.Oracle.ok

(* --- oracle against the real kernels (fault-free smoke) ----------------- *)

let test_real_kernels_pass_oracle () =
  let open Lrp_sim in
  let open Lrp_kernel in
  List.iter
    (fun arch ->
      let cfg = Kernel.default_config arch in
      let w, client, server = Lrp_workload.World.pair ~cfg () in
      let tr = Kernel.tracer server in
      Trace.set_enabled tr true;
      Trace.set_filter tr [ Trace.Packet_events ];
      ignore
        (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
             let sock = Api.socket_dgram server in
             Api.bind server sock ~owner:(Some self) ~port:5000;
             for _ = 1 to 20 do
               ignore (Api.recvfrom server ~self sock)
             done));
      ignore
        (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
             let sock = Api.socket_dgram client in
             ignore (Api.bind_ephemeral client sock ~owner:(Some self));
             for _ = 1 to 20 do
               Api.sendto client ~self sock
                 ~dst:(Kernel.ip_address server, 5000)
                 (Lrp_net.Payload.synthetic 64);
               Proc.sleep_for (Lrp_engine.Time.ms 1.)
             done));
      Lrp_workload.World.run w ~until:(Lrp_engine.Time.sec 1.);
      let require_demux = arch <> Kernel.Bsd in
      let v = Oracle.check_tracer ~require_demux tr in
      Alcotest.(check bool)
        (Printf.sprintf "%s: oracle green on fault-free UDP (%s)"
           (Kernel.arch_name arch)
           (String.concat "; " v.Oracle.violations))
        true v.Oracle.ok;
      Alcotest.(check bool)
        (Printf.sprintf "%s: oracle saw traffic" (Kernel.arch_name arch))
        true
        (v.Oracle.arrivals >= 20 && v.Oracle.enqueued >= 20))
    [ Kernel.Bsd; Kernel.Soft_lrp; Kernel.Ni_lrp; Kernel.Early_demux ]

let suite =
  [ Alcotest.test_case "clean stream passes" `Quick test_clean_stream_passes;
    Alcotest.test_case "mock buggy kernel (double delivery) flagged" `Quick
      test_mock_buggy_kernel_flagged;
    Alcotest.test_case "ghost enqueue flagged" `Quick test_ghost_enqueue_flagged;
    Alcotest.test_case "network duplication tolerated" `Quick
      test_network_duplication_tolerated;
    Alcotest.test_case "enqueue without proto-deliver flagged" `Quick
      test_enqueue_without_proto_flagged;
    Alcotest.test_case "require_demux distinguishes BSD from LRP" `Quick
      test_require_demux;
    Alcotest.test_case "copyout beyond enqueues flagged" `Quick
      test_copyout_exceeding_enqueues_flagged;
    Alcotest.test_case "wrapped ring is inconclusive, not red" `Quick
      test_ring_wrap_inconclusive;
    Alcotest.test_case "real kernels pass the oracle (fault-free)" `Quick
      test_real_kernels_pass_oracle ]
