(* Kernel-level tests: syscall semantics, ICMP, fragmentation end-to-end,
   the UDP helper thread, mbuf accounting, and per-architecture drop
   bookkeeping. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel
open Lrp_workload

let archs = [ Kernel.Bsd; Kernel.Soft_lrp; Kernel.Ni_lrp; Kernel.Early_demux ]

let for_all_archs f () =
  List.iter (fun arch -> f arch (Kernel.default_config arch)) archs

(* --- ICMP ---------------------------------------------------------------- *)

let test_icmp_echo arch cfg =
  (* Ping the server: BSD answers in softint context; LRP's protocol-proxy
     daemon answers from the ICMP channel (section 3.5). *)
  let w, client, server = World.pair ~cfg () in
  let got_reply = ref false in
  Nic.set_rx_handler (Kernel.nic client) (fun pkt ->
      match pkt.Packet.body with
      | Packet.Icmp (Packet.Echo_reply, _) -> got_reply := true
      | _ -> ());
  ignore
    (Engine.schedule (World.engine w) ~at:100. (fun () ->
         ignore
           (Nic.transmit (Kernel.nic client)
              (Packet.icmp ~src:(Kernel.ip_address client)
                 ~dst:(Kernel.ip_address server) Packet.Echo_request
                 (Payload.synthetic 32)))));
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check bool)
    (Printf.sprintf "%s: echo reply received" (Kernel.arch_name arch))
    true !got_reply

(* --- UDP fragmentation end-to-end ----------------------------------------- *)

let test_udp_fragmentation_e2e arch cfg =
  (* A 20 kB datagram over a 9180-byte MTU: 3 fragments, reassembled by
     the receiver (lazily, for LRP — exercising the special fragment
     channel). *)
  let w, client, server = World.pair ~cfg () in
  let got = ref None in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
         let sock = Api.socket_dgram server in
         Api.bind server sock ~owner:(Some self) ~port:5000;
         let dg = Api.recvfrom server ~self sock in
         got := Some (Payload.length dg.Api.dg_payload)));
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
         let sock = Api.socket_dgram client in
         ignore (Api.bind_ephemeral client sock ~owner:(Some self));
         Api.sendto client ~self sock
           ~dst:(Kernel.ip_address server, 5000)
           (Payload.synthetic 20_000)));
  World.run w ~until:(Time.sec 2.);
  Alcotest.(check (option int))
    (Printf.sprintf "%s: 20kB datagram reassembled" (Kernel.arch_name arch))
    (Some 20_000) !got

let test_fragments_in_both_channels () =
  (* Under LRP, the first fragment demuxes to the socket channel and later
     fragments to the special fragment channel; reassembly pulls them
     together. *)
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let w, client, server = World.pair ~cfg () in
  let got = ref 0 in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
         let sock = Api.socket_dgram server in
         Api.bind server sock ~owner:(Some self) ~port:5000;
         for _ = 1 to 3 do
           let dg = Api.recvfrom server ~self sock in
           got := !got + Payload.length dg.Api.dg_payload
         done));
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
         let sock = Api.socket_dgram client in
         ignore (Api.bind_ephemeral client sock ~owner:(Some self));
         for _ = 1 to 3 do
           Api.sendto client ~self sock
             ~dst:(Kernel.ip_address server, 5000)
             (Payload.synthetic 30_000);
           Proc.sleep_for (Time.ms 20.)
         done));
  World.run w ~until:(Time.sec 2.);
  Alcotest.(check int) "all three large datagrams arrived" 90_000 !got

(* --- helper thread --------------------------------------------------------- *)

let test_helper_preprocesses_when_idle () =
  (* Section 3.3: an otherwise idle CPU performs protocol processing via the
     minimal-priority thread, so a process that is waiting on something
     else (here: a disk-like sleep) still finds a ready datagram.  We
     inject while the receiver sleeps and the CPU idles, then check the
     datagram was deposited on the socket queue by the helper before the
     receiver asked. *)
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let w, client, server = World.pair ~cfg () in
  let sock = Api.socket_dgram server in
  let ready_before_recv = ref false in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"busy-rx" (fun self ->
         Api.bind server sock ~owner:(Some self) ~port:5000;
         (* Blocked on "I/O" for 50 ms while a packet arrives; the CPU is
            otherwise idle. *)
         Proc.sleep_for (Time.ms 50.);
         ready_before_recv := Socket.ready_count sock > 0;
         let _dg = Api.recvfrom server ~self sock in
         ()));
  ignore
    (Engine.schedule (World.engine w) ~at:(Time.ms 10.) (fun () ->
         ignore
           (Nic.transmit (Kernel.nic client)
              (Packet.udp ~src:(Kernel.ip_address client)
                 ~dst:(Kernel.ip_address server) ~src_port:9 ~dst_port:5000
                 (Payload.synthetic 14)))));
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check bool) "helper had pre-processed the datagram" true
    !ready_before_recv

let test_helper_disabled () =
  (* With the helper off, the packet waits raw in the channel until the
     receive call processes it lazily. *)
  let cfg = { (Kernel.default_config Kernel.Ni_lrp) with Kernel.udp_helper = false } in
  let w, client, server = World.pair ~cfg () in
  let sock = Api.socket_dgram server in
  let chan_depth = ref (-1) in
  let got = ref false in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"busy-rx" (fun self ->
         Api.bind server sock ~owner:(Some self) ~port:5000;
         Proc.sleep_for (Time.ms 50.);
         (match sock.Socket.chan with
          | Some ch -> chan_depth := Lrp_core.Channel.length ch
          | None -> ());
         let _dg = Api.recvfrom server ~self sock in
         got := true));
  ignore
    (Engine.schedule (World.engine w) ~at:(Time.ms 10.) (fun () ->
         ignore
           (Nic.transmit (Kernel.nic client)
              (Packet.udp ~src:(Kernel.ip_address client)
                 ~dst:(Kernel.ip_address server) ~src_port:9 ~dst_port:5000
                 (Payload.synthetic 14)))));
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check int) "raw packet waited in the channel" 1 !chan_depth;
  Alcotest.(check bool) "lazy processing delivered it" true !got

(* --- misc syscall semantics ------------------------------------------------ *)

let test_recvfrom_timeout () =
  let cfg = Kernel.default_config Kernel.Soft_lrp in
  let w, _client, server = World.pair ~cfg () in
  let result = ref (Some 0) in
  let woke_at = ref 0. in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
         let sock = Api.socket_dgram server in
         Api.bind server sock ~owner:(Some self) ~port:5000;
         (match Api.recvfrom_timeout server ~self sock ~timeout:(Time.ms 5.) with
          | Some dg -> result := Some (Payload.length dg.Api.dg_payload)
          | None -> result := None);
         woke_at := Engine.now (World.engine w)));
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check (option int)) "timed out with None" None !result;
  Alcotest.(check bool)
    (Printf.sprintf "woke near the deadline (%.0f us)" !woke_at)
    true
    (!woke_at >= Time.ms 5. && !woke_at < Time.ms 7.)

let test_sendto_autobinds () =
  let cfg = Kernel.default_config Kernel.Bsd in
  let w, client, server = World.pair ~cfg () in
  let reply_port = ref 0 in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
         let sock = Api.socket_dgram server in
         Api.bind server sock ~owner:(Some self) ~port:5000;
         let dg = Api.recvfrom server ~self sock in
         reply_port := snd dg.Api.dg_from));
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"tx" (fun self ->
         let sock = Api.socket_dgram client in
         (* No bind: sendto must allocate an ephemeral port. *)
         Api.sendto client ~self sock
           ~dst:(Kernel.ip_address server, 5000)
           (Payload.synthetic 5)));
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check bool)
    (Printf.sprintf "ephemeral source port assigned (%d)" !reply_port)
    true
    (!reply_port >= 20_000)

let test_double_bind_rejected () =
  let cfg = Kernel.default_config Kernel.Bsd in
  let w, _client, server = World.pair ~cfg () in
  let raised = ref false in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"p" (fun self ->
         let a = Api.socket_dgram server in
         let b = Api.socket_dgram server in
         Api.bind server a ~owner:(Some self) ~port:5000;
         (try Api.bind server b ~owner:(Some self) ~port:5000
          with Invalid_argument _ -> raised := true)));
  World.run w ~until:(Time.ms 10.);
  Alcotest.(check bool) "second bind rejected" true !raised

let test_close_wakes_blocked_receiver () =
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let w, _client, server = World.pair ~cfg () in
  let got_exn = ref false in
  let sock = Api.socket_dgram server in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"rx" (fun self ->
         Api.bind server sock ~owner:(Some self) ~port:5000;
         try ignore (Api.recvfrom server ~self sock)
         with Api.Socket_closed -> got_exn := true));
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"closer" (fun self ->
         Proc.sleep_for (Time.ms 5.);
         Api.close server ~self sock));
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check bool) "blocked receiver saw Socket_closed" true !got_exn

let test_port_reusable_after_close () =
  let cfg = Kernel.default_config Kernel.Soft_lrp in
  let w, _client, server = World.pair ~cfg () in
  let ok = ref false in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"p" (fun self ->
         let a = Api.socket_dgram server in
         Api.bind server a ~owner:(Some self) ~port:5000;
         Api.close server ~self a;
         let b = Api.socket_dgram server in
         Api.bind server b ~owner:(Some self) ~port:5000;
         ok := true));
  World.run w ~until:(Time.ms 10.);
  Alcotest.(check bool) "port rebindable after close" true !ok

(* --- drop bookkeeping ------------------------------------------------------- *)

let test_edemux_early_drop_counted () =
  let cfg = Kernel.default_config Kernel.Early_demux in
  let w, client, server = World.pair ~cfg () in
  (* No socket bound at all: every packet is an interrupt-time discard. *)
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 5000)
       ~rate:1_000. ~size:14 ~until:(Time.ms 100.) ());
  World.run w ~until:(Time.ms 200.);
  Alcotest.(check bool) "early drops counted" true
    ((Kernel.stats server).Kernel.edemux_early_drops > 50)

let test_lrp_unmatched_udp_drops () =
  let cfg = Kernel.default_config Kernel.Ni_lrp in
  let w, client, server = World.pair ~cfg () in
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 5000)
       ~rate:1_000. ~size:14 ~until:(Time.ms 100.) ());
  World.run w ~until:(Time.ms 200.);
  Alcotest.(check bool) "unmatched packets dropped at demux" true
    ((Kernel.stats server).Kernel.demux_drops > 50);
  (* And at zero host-CPU cost under NI demux. *)
  Alcotest.(check (float 1.)) "no host CPU burned" 0.
    (Cpu.time_hard (Kernel.cpu server))

let test_mbuf_balance () =
  (* After a BSD run with consumed traffic, the mbuf pool must drain back
     to (near) empty: every alloc has a matching free. *)
  let cfg = Kernel.default_config Kernel.Bsd in
  let w, client, server = World.pair ~cfg () in
  ignore (Blast.start_sink server ~port:9000 ());
  ignore
    (Blast.start_source (World.engine w) (Kernel.nic client)
       ~src:(Kernel.ip_address client)
       ~dst:(Kernel.ip_address server, 9000)
       ~rate:2_000. ~size:14 ~until:(Time.ms 500.) ());
  World.run w ~until:(Time.sec 1.);
  Alcotest.(check int) "mbuf pool drained" 0 (Mbuf.in_use (Kernel.mbufs server));
  Alcotest.(check bool) "pool was actually used" true
    (Mbuf.peak (Kernel.mbufs server) > 0);
  Alcotest.(check int) "no allocation failures (as in the paper)" 0
    (Mbuf.failures (Kernel.mbufs server))

(* --- determinism -------------------------------------------------------------- *)

let test_determinism () =
  let run () =
    let cfg = Kernel.default_config Kernel.Soft_lrp in
    let w, client, server = World.pair ~cfg () in
    let sink = Blast.start_sink server ~port:9000 () in
    ignore
      (Blast.start_source (World.engine w) (Kernel.nic client)
         ~src:(Kernel.ip_address client)
         ~dst:(Kernel.ip_address server, 9000)
         ~rate:12_000. ~size:14 ~until:(Time.ms 500.) ());
    World.run w ~until:(Time.ms 600.);
    (sink.Blast.received, Kernel.early_discards server,
     Engine.events_executed (World.engine w))
  in
  let a = run () and b = run () in
  Alcotest.(check (triple int int int)) "identical runs" a b

(* --- architecture names ---------------------------------------------------- *)

(* Every constructor has a command-line key that parses back to it (the
   CLI's [--arch] is built from this table).  [listed] is an exhaustive
   match, so a new constructor fails to compile here until it is added. *)
let test_arch_keys_round_trip () =
  let listed = function
    | Kernel.Bsd | Kernel.Soft_lrp | Kernel.Ni_lrp | Kernel.Early_demux
    | Kernel.Napi | Kernel.Napi_gro | Kernel.Rss ->
        ()
  in
  List.iter listed Kernel.archs;
  Alcotest.(check int) "all seven constructors, once each" 7
    (List.length (List.sort_uniq compare Kernel.archs));
  List.iter
    (fun a ->
      let key = Kernel.arch_key a in
      Alcotest.(check bool) (key ^ " round-trips") true
        (Kernel.arch_of_key key = Some a))
    Kernel.archs;
  Alcotest.(check bool) "unknown key" true (Kernel.arch_of_key "lrp" = None)

(* --- Allocation on the UDP receive path, end to end ---------------------- *)

(* A 20k pkts/s blast of 14-byte datagrams from [client] to [dst]:
   minor words and process suspensions (on both hosts) per offered
   packet over a one-second window, after a warm-up of 1.2 s. *)
let blast_window w client server ~dst =
  let src =
    Blast.start_source (World.engine w) (Kernel.nic client)
      ~src:(Kernel.ip_address client) ~dst:(dst, 9000) ~rate:20_000.
      ~size:14 ~until:(Time.sec 3.) ()
  in
  let suspensions () =
    Cpu.suspensions (Kernel.cpu client) + Cpu.suspensions (Kernel.cpu server)
  in
  World.run w ~until:(Time.ms 1_200.);
  let sent0 = src.Blast.sent and s0 = suspensions () in
  let w0 = Gc.minor_words () in
  World.run w ~until:(Time.ms 2_200.);
  let w1 = Gc.minor_words () in
  let sent = float_of_int (src.Blast.sent - sent0) in
  ((w1 -. w0) /. sent, float_of_int (suspensions () - s0) /. sent)

(* What one process suspension allocates (the runtime's continuation),
   measured on a compute loop. *)
let words_per_suspension () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~start_clock:false ~name:"c" () in
  let words = ref 0. in
  ignore
    (Cpu.spawn cpu ~name:"p" (fun _ ->
         for _ = 1 to 100 do Cpu.compute cpu 1. done;
         let w0 = Gc.minor_words () in
         for _ = 1 to 10_000 do Cpu.compute cpu 1. done;
         words := (Gc.minor_words () -. w0) /. 10_000.));
  Engine.run eng ~until:(Time.sec 1.);
  !words

(* The receive path, from the fabric to the blast sink's [Api.recv],
   allocates nothing per packet but the continuations of the processes'
   suspensions.  The source's own words (its IP header and packet, and
   anything the build does not inline) are measured by a reference blast
   at an address no host owns, which the fabric drops on arrival.  The
   slack of 0.2 words per packet covers what is not per packet: the
   one-time growth of timer-wheel buckets that a busy CPU's clocks reach
   for the first time (about 0.05 words per packet in this window). *)
let test_receive_path_allocation () =
  let cont = words_per_suspension () in
  List.iter
    (fun arch ->
      let cfg = Kernel.default_config arch in
      let source_words, _ =
        let w, client, server = World.pair ~seed:42 ~cfg () in
        blast_window w client server
          ~dst:(Kernel.ip_address server + 100)
      in
      let words, susp =
        let w, client, server = World.pair ~seed:42 ~cfg () in
        let _sink = Blast.start_sink server ~port:9000 () in
        blast_window w client server ~dst:(Kernel.ip_address server)
      in
      let receive = words -. source_words in
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: receive path %.3f words/pkt <= %.3f suspensions/pkt x %.1f \
            words + 0.2"
           (Kernel.arch_name arch) receive susp cont)
        true
        (receive <= (susp *. cont) +. 0.2))
    Kernel.archs

(* --- Allocation on the SYN-flood path ------------------------------------ *)

(* A 10k SYN/s flood of spoofed connection requests from [client] to
   port 99 at [dst]: minor words per SYN over a one-second window after a
   warm-up of 1.2 s.  The server, when [dst] is its own, has a listener
   with a backlog of 5 on the port that never accepts. *)
let synflood_window w client server ~dst =
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"victim" (fun self ->
         let l = Api.socket_stream server in
         Api.tcp_listen server ~self l ~port:99 ~backlog:5;
         Proc.block (Proc.waitq "victim.forever")));
  let flood =
    Synflood.start (World.engine w) (Kernel.nic client) ~dst:(dst, 99)
      ~rate:10_000. ~until:(Time.sec 3.) ()
  in
  World.run w ~until:(Time.ms 1_200.);
  let sent0 = flood.Synflood.sent in
  let w0 = Gc.minor_words () in
  World.run w ~until:(Time.ms 2_200.);
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int (flood.Synflood.sent - sent0)

(* Past the source's own packet, a SYN costs nothing: BSD and Early-Demux
   find the full listener by port, the LRP kernels discard the SYN at the
   listener's disabled channel.  The reference is the same flood at an
   address no host owns, which the fabric drops on arrival; the slack
   covers the handful of SYN-ACK retransmissions of the five embryonic
   connections and one-time growth inside the window. *)
let test_synflood_allocation () =
  List.iter
    (fun arch ->
      let cfg = Kernel.default_config arch in
      let source_words =
        let w, client, server = World.pair ~seed:42 ~cfg () in
        synflood_window w client server ~dst:(Kernel.ip_address server + 100)
      in
      let words =
        let w, client, server = World.pair ~seed:42 ~cfg () in
        synflood_window w client server ~dst:(Kernel.ip_address server)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f words/SYN vs %.3f for a dropped flood"
           (Kernel.arch_name arch) words source_words)
        true
        (words -. source_words <= 0.5))
    archs

(* --- Channel teardown ------------------------------------------------------ *)

(* [n] connect/close cycles against a server that already holds [idle]
   open connections.  Returns the minor words per cycle and both hosts'
   [chan_conn] tables at the end. *)
let close_cycles arch ~idle ~n =
  let cfg = { (Kernel.default_config arch) with Kernel.time_wait = Time.ms 20. } in
  let w, client, server = World.pair ~seed:7 ~cfg () in
  let dst = (Kernel.ip_address server, 80) in
  let idle_up = ref false and words = ref 0. in
  ignore
    (Cpu.spawn (Kernel.cpu server) ~name:"srv" (fun self ->
         let l = Api.socket_stream server in
         Api.tcp_listen server ~self l ~port:80 ~backlog:8;
         for _ = 1 to idle do ignore (Api.tcp_accept server ~self l) done;
         for _ = 1 to n do
           let s = Api.tcp_accept server ~self l in
           ignore (Api.tcp_recv server ~self s ~max:64);
           Api.close server ~self s
         done));
  ignore
    (Cpu.spawn (Kernel.cpu client) ~name:"cli" (fun self ->
         for _ = 1 to idle do
           ignore (Api.tcp_connect client ~self (Api.socket_stream client) ~remote:dst)
         done;
         idle_up := true;
         Proc.sleep_for (Time.ms 50.);
         let w0 = Gc.minor_words () in
         for _ = 1 to n do
           let s = Api.socket_stream client in
           ignore (Api.tcp_connect client ~self s ~remote:dst);
           Api.close client ~self s;
           Proc.sleep_for (Time.ms 40.)
         done;
         words := (Gc.minor_words () -. w0) /. float_of_int n));
  World.run w ~until:(Time.sec 10.);
  Alcotest.(check bool) "idle connections established" true !idle_up;
  (!words, server.Kernel.chan_conn, client.Kernel.chan_conn)

(* Every closed connection's channel is forgotten: after the cycles only
   the listener (server) and the idle connections remain, and each
   remaining channel's connection is still open. *)
let test_chan_conn_forgets_closed () =
  List.iter
    (fun arch ->
      let idle = 5 in
      let _, srv, cli = close_cycles arch ~idle ~n:30 in
      let name = Kernel.arch_name arch in
      Alcotest.(check int) (name ^ ": server channels") (idle + 1)
        (Hashtbl.length srv);
      Alcotest.(check int) (name ^ ": client channels") idle (Hashtbl.length cli);
      List.iter
        (fun tbl ->
          Hashtbl.iter (* lint: unordered-ok — membership check only *)
            (fun _ conn ->
              Alcotest.(check bool) (name ^ ": a live connection") true
                (Lrp_proto.Tcp.state conn <> Lrp_proto.Tcp.Closed))
            tbl)
        [ srv; cli ])
    [ Kernel.Soft_lrp; Kernel.Ni_lrp ]

(* Closing a connection costs the same with 1 or 120 other channels open:
   the channel is found by its connection, not by a scan of the table. *)
let test_close_cost_independent_of_channels () =
  List.iter
    (fun arch ->
      let few, _, _ = close_cycles arch ~idle:1 ~n:20 in
      let many, _, _ = close_cycles arch ~idle:120 ~n:20 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: words per close %.0f with 120 open vs %.0f with 1"
           (Kernel.arch_name arch) many few)
        true
        (many -. few < 100.))
    [ Kernel.Soft_lrp; Kernel.Ni_lrp ]

let suite =
  [ Alcotest.test_case "arch keys round-trip" `Quick test_arch_keys_round_trip;
    Alcotest.test_case "icmp echo (all archs)" `Quick (for_all_archs test_icmp_echo);
    Alcotest.test_case "udp fragmentation e2e (all archs)" `Quick
      (for_all_archs test_udp_fragmentation_e2e);
    Alcotest.test_case "fragments split across channels" `Quick
      test_fragments_in_both_channels;
    Alcotest.test_case "helper preprocesses when CPU is idle" `Quick
      test_helper_preprocesses_when_idle;
    Alcotest.test_case "helper disabled leaves raw packets queued" `Quick
      test_helper_disabled;
    Alcotest.test_case "recvfrom with timeout" `Quick test_recvfrom_timeout;
    Alcotest.test_case "sendto auto-binds" `Quick test_sendto_autobinds;
    Alcotest.test_case "double bind rejected" `Quick test_double_bind_rejected;
    Alcotest.test_case "close wakes blocked receiver" `Quick
      test_close_wakes_blocked_receiver;
    Alcotest.test_case "port reusable after close" `Quick
      test_port_reusable_after_close;
    Alcotest.test_case "early-demux drop bookkeeping" `Quick
      test_edemux_early_drop_counted;
    Alcotest.test_case "LRP unmatched-packet drops" `Quick
      test_lrp_unmatched_udp_drops;
    Alcotest.test_case "mbuf pool balances" `Quick test_mbuf_balance;
    Alcotest.test_case "simulation is deterministic" `Quick test_determinism;
    Alcotest.test_case "receive path allocates only continuations (all archs)"
      `Quick test_receive_path_allocation;
    Alcotest.test_case "SYN flood allocates nothing past the source (4 archs)"
      `Quick test_synflood_allocation;
    Alcotest.test_case "closed connections leave chan_conn" `Quick
      test_chan_conn_forgets_closed;
    Alcotest.test_case "close cost independent of open channels" `Quick
      test_close_cost_independent_of_channels ]
