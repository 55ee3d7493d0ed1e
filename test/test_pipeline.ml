(* Receive-pipeline golden: one short fixed-seed mixed run per
   architecture, reduced to an FNV-1a digest of everything the receive
   path decides — kernel drop/delivery counters, the metrics snapshot,
   the CPU ledger's class totals and the flight recorder's events.  The
   constants pin the pipeline's observable behaviour, so a refactor of
   the receive path that changes any drop point, cost or context fails
   here with the architecture named. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel
open Lrp_workload

let group = Packet.ip_of_quad 224 0 0 9

(* Client, server and gateway share network A; a far host sits behind
   the gateway on network B.  The server does not forward.

   Traffic, all from the client unless noted:
   - a 14-byte UDP blast at the server, whose receiver sleeps first, so
     its socket queue overflows (and BSD's IP queue with it);
   - one 20 kB datagram, fragmented to the 9180-byte MTU;
   - three datagrams to a 2-member multicast group on the server;
   - a 40 kB TCP transfer;
   - SYNs to a closed port and to a listener that never accepts;
   - an ICMP echo request;
   - transit frames for the far host at the gateway (forwarding on)
     and for an unknown host at the server (forwarding off). *)
let run_arch arch =
  let cfg = Kernel.default_config arch in
  let w = World.make ~seed:7 () in
  let engine = World.engine w in
  let client = World.add_host w ~name:"client" cfg in
  (* A small mbuf pool, so the mbuf kernels also reach their pool
     exhaustion drop. *)
  let server =
    World.add_host w ~name:"server" { cfg with Kernel.mbuf_capacity = 200 }
  in
  let gw =
    World.add_host w ~name:"gw" { cfg with Kernel.forwarding = true }
  in
  let net_b = Fabric.create engine () in
  ignore (Kernel.add_interface gw net_b ~ip:(Packet.ip_of_quad 10 0 1 1) ());
  let far =
    Kernel.create engine net_b ~name:"far" ~ip:(Packet.ip_of_quad 10 0 1 20)
      cfg
  in
  let kernels = [ client; server; gw; far ] in
  List.iter (fun k -> Kernel.set_tracing k true) kernels;
  let sip = Kernel.ip_address server in
  (* UDP past the socket limit. *)
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"slow-rx" (fun self ->
         let sock = Api.socket_dgram server in
         Api.bind server sock ~owner:(Some self) ~port:5000;
         Proc.sleep_for (Time.ms 30.);
         while true do
           Api.recv server ~self sock
         done));
  ignore
    (Blast.start_source engine (Kernel.nic client)
       ~src:(Kernel.ip_address client) ~dst:(sip, 5000) ~rate:15_000.
       ~size:14 ~until:(Time.ms 40.) ());
  (* A fragmented datagram. *)
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"frag-rx" (fun self ->
         let sock = Api.socket_dgram server in
         Api.bind server sock ~owner:(Some self) ~port:5001;
         ignore (Api.recvfrom server ~self sock)));
  (* Multicast group members. *)
  for i = 1 to 2 do
    ignore
      (Cpu.spawn (Kernel.cpu server) ~name:(Printf.sprintf "member-%d" i)
         (fun self ->
           let sock = Api.socket_dgram server in
           Api.join_group server sock ~owner:(Some self) ~group ~port:6666;
           while true do
             ignore (Api.recvfrom server ~self sock)
           done))
  done;
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"udp-tx" (fun self ->
         let sock = Api.socket_dgram client in
         ignore (Api.bind_ephemeral client sock ~owner:(Some self));
         Proc.sleep_for (Time.ms 5.);
         Api.sendto client ~self sock ~dst:(sip, 5001) (Payload.synthetic 20_000);
         for _ = 1 to 3 do
           Api.sendto client ~self sock ~dst:(group, 6666)
             (Payload.synthetic 100);
           Proc.sleep_for (Time.ms 2.)
         done));
  (* A listener whose backlog fills, and SYNs to it and to a closed port. *)
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"deaf-listener" (fun self ->
         let lsock = Api.socket_stream server in
         Api.tcp_listen server ~self lsock ~port:81 ~backlog:2;
         Proc.block (Proc.waitq "never")));
  ignore
    (Synflood.start engine (Kernel.nic client) ~dst:(sip, 81) ~rate:2_000.
       ~until:(Time.ms 10.) ());
  ignore
    (Synflood.start engine (Kernel.nic client) ~dst:(sip, 82) ~rate:1_000.
       ~until:(Time.ms 5.) ~spoof_base:(Packet.ip_of_quad 12 0 0 1) ());
  (* ICMP echo. *)
  ignore
    (Engine.schedule engine ~at:(Time.ms 3.) (fun () ->
         ignore
           (Nic.transmit (Kernel.nic client)
              (Packet.icmp ~src:(Kernel.ip_address client) ~dst:sip
                 Packet.Echo_request (Payload.synthetic 32)))));
  (* Transit frames, handed straight to a NIC as if routed there:
     forwarded by the gateway to the far host, dropped by the server.
     (No default gateway is set, so the SYN-ACKs to spoofed sources leave
     the fabric instead of looping through the gateway.) *)
  ignore (Blast.start_sink far ~port:9000 ());
  let transit k ~dst ~every ~count =
    for i = 1 to count do
      ignore
        (Engine.schedule engine ~at:(float_of_int i *. every) (fun () ->
             Nic.receive (Kernel.nic k)
               (Packet.udp ~src:(Kernel.ip_address client) ~dst ~src_port:1
                  ~dst_port:9000 (Payload.synthetic 14))))
    done
  in
  transit gw ~dst:(Kernel.ip_address far) ~every:300. ~count:60;
  transit server ~dst:(Packet.ip_of_quad 10 9 9 9) ~every:1000. ~count:4;
  (* A TCP transfer, connected once the blast is over. *)
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"tcp-rx" (fun self ->
         let lsock = Api.socket_stream server in
         Api.tcp_listen server ~self lsock ~port:80 ~backlog:4;
         let conn = Api.tcp_accept server ~self lsock in
         let rec drain () =
           match Api.tcp_recv server ~self conn ~max:65_536 with
           | `Data _ -> drain ()
           | `Eof -> ()
         in
         drain ();
         Api.close server ~self conn));
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"tcp-tx" (fun self ->
         Proc.sleep_for (Time.ms 50.);
         let sock = Api.socket_stream client in
         match Api.tcp_connect client ~self sock ~remote:(sip, 80) with
         | `Refused -> ()
         | `Ok ->
             for _ = 1 to 5 do
               ignore (Api.tcp_send client ~self sock (Payload.synthetic 8_000))
             done;
             Api.close client ~self sock));
  World.run w ~until:(Time.ms 400.);
  kernels

let kernel_text b k =
  let s = Kernel.stats k in
  Printf.bprintf b "%s %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n"
    (Kernel.name k) s.Kernel.rx_frames s.Kernel.ipq_drops s.Kernel.mbuf_drops
    s.Kernel.no_port_drops s.Kernel.demux_drops s.Kernel.edemux_early_drops
    s.Kernel.udp_delivered s.Kernel.tcp_delivered s.Kernel.rx_wrong_peer
    s.Kernel.forwarded s.Kernel.fwd_drops s.Kernel.rsts_sent
    s.Kernel.csum_drops s.Kernel.ipq_hwm;
  List.iter
    (fun (name, v) -> Printf.bprintf b "%s=%h\n" name v)
    (Lrp_trace.Metrics.snapshot (Kernel.metrics k));
  let ledger = Cpu.ledger (Kernel.cpu k) in
  List.iter
    (fun cls -> Printf.bprintf b "%h " (Ledger.total ledger cls))
    [ Ledger.Intr; Ledger.Soft; Ledger.Proto; Ledger.Poll; Ledger.App ];
  let tr = Kernel.tracer k in
  Printf.bprintf b "\nrecorder %d %d\n" (Lrp_trace.Trace.length tr)
    (Lrp_trace.Trace.dropped tr);
  Lrp_trace.Trace.to_text b tr

let digest arch =
  let b = Buffer.create 65_536 in
  List.iter (kernel_text b) (run_arch arch);
  Printf.sprintf "%016Lx"
    (Lrp_experiments.Cluster.fnv1a64 (Buffer.contents b))

(* Recorded before the receive path was restructured around one policy
   table; every architecture must reproduce its digest exactly. *)
let golden =
  [ (Kernel.Bsd, "460867ba92a32767");
    (Kernel.Soft_lrp, "e10e0277034a205d");
    (Kernel.Ni_lrp, "5bbdf04c581832ab");
    (Kernel.Early_demux, "a35d863276d4e211");
    (Kernel.Napi, "6152ed03a10baa22");
    (Kernel.Napi_gro, "543d062b956133ab");
    (Kernel.Rss, "9e337e3da84672d9") ]

let test_golden () =
  Alcotest.(check int) "one golden per arch" (List.length Kernel.archs)
    (List.length golden);
  List.iter
    (fun arch ->
      Alcotest.(check string)
        (Printf.sprintf "%s: receive pipeline digest" (Kernel.arch_name arch))
        (List.assoc arch golden) (digest arch))
    Kernel.archs

let suite =
  [ Alcotest.test_case "receive pipeline golden (7 archs)" `Quick test_golden ]
