(* Tests for the protocol library: the demultiplexer (including the
   byte-level/structural equivalence property the NI firmware relies on),
   IP fragmentation/reassembly, and PCB tables. *)

open Lrp_net
open Lrp_proto

(* --- demux ------------------------------------------------------------- *)

let mk_udp ?(src = 11) ?(sport = 1000) ?(dport = 2000) ?(len = 14) () =
  Packet.udp ~src ~dst:99 ~src_port:sport ~dst_port:dport (Payload.synthetic len)

let mk_tcp ?(src = 11) ?(sport = 1000) ?(dport = 80) ?(syn = false)
    ?(ack = false) ?(len = 0) () =
  Packet.tcp ~src ~dst:99 ~src_port:sport ~dst_port:dport ~seq:1 ~ack_no:2
    ~flags:(Packet.flags ~syn ~ack ()) ~window:100 (Payload.synthetic len)

let test_flow_udp () =
  match Demux.flow_of_packet (mk_udp ()) with
  | Demux.Udp_flow { src; src_port; dst_port } ->
      Alcotest.(check int) "src" 11 src;
      Alcotest.(check int) "sport" 1000 src_port;
      Alcotest.(check int) "dport" 2000 dst_port
  | _ -> Alcotest.fail "expected udp flow"

let test_flow_tcp_syn () =
  match Demux.flow_of_packet (mk_tcp ~syn:true ()) with
  | Demux.Tcp_flow { syn_only; _ } ->
      Alcotest.(check bool) "syn-only" true syn_only
  | _ -> Alcotest.fail "expected tcp flow"

let test_flow_tcp_synack_not_syn_only () =
  match Demux.flow_of_packet (mk_tcp ~syn:true ~ack:true ()) with
  | Demux.Tcp_flow { syn_only; _ } ->
      Alcotest.(check bool) "syn+ack is not connection request" false syn_only
  | _ -> Alcotest.fail "expected tcp flow"

let test_flow_fragments () =
  let big = mk_udp ~len:20_000 () in
  let frags = Ip.fragment big ~mtu:9180 in
  Alcotest.(check int) "three fragments" 3 (List.length frags);
  (match frags with
   | first :: rest ->
       (* First fragment carries the transport header: demuxable. *)
       (match Demux.flow_of_packet first with
        | Demux.Udp_flow { dst_port; _ } ->
            Alcotest.(check int) "first fragment demuxes to port" 2000 dst_port
        | _ -> Alcotest.fail "first fragment should demux as UDP");
       (* Later fragments cannot be demultiplexed to an endpoint. *)
       List.iter
         (fun f ->
           match Demux.flow_of_packet f with
           | Demux.Frag_flow { src; _ } -> Alcotest.(check int) "src" 11 src
           | _ -> Alcotest.fail "non-first fragment must be Frag_flow")
         rest
   | [] -> Alcotest.fail "no fragments")

(* The core classifier property: the byte-level classifier (what would run
   in NI firmware) agrees with the structural one on every packet shape. *)
let prop_demux_bytes_equals_struct =
  let gen =
    QCheck.Gen.(
      let* kind = int_range 0 3 in
      let* src = int_range 1 0xfffff in
      let* sport = int_range 1 65535 in
      let* dport = int_range 1 65535 in
      let* len = int_range 0 200 in
      let* syn = bool in
      let* ack = bool in
      return (kind, src, sport, dport, len, syn, ack))
  in
  QCheck.Test.make ~count:400
    ~name:"demux: byte-level classifier == structural classifier"
    (QCheck.make gen)
    (fun (kind, src, sport, dport, len, syn, ack) ->
      let pkt =
        match kind with
        | 0 -> Packet.udp ~src ~dst:9 ~src_port:sport ~dst_port:dport (Payload.synthetic len)
        | 1 ->
            Packet.tcp ~src ~dst:9 ~src_port:sport ~dst_port:dport ~seq:7
              ~ack_no:8 ~flags:(Packet.flags ~syn ~ack ()) ~window:100
              (Payload.synthetic len)
        | 2 -> Packet.icmp ~src ~dst:9 Packet.Echo_request (Payload.synthetic len)
        | _ ->
            (* a fragment *)
            let big = Packet.udp ~src ~dst:9 ~src_port:sport ~dst_port:dport (Payload.synthetic 25_000) in
            List.nth (Ip.fragment big ~mtu:9180) 1
      in
      Demux.equal_flow
        (Demux.flow_of_packet pkt)
        (Demux.flow_of_bytes (Codec.encode pkt)))

let test_flow_of_bytes_garbage () =
  (* Garbage classifies as Other, never raises. *)
  match Demux.flow_of_bytes (Bytes.make 40 'x') with
  | Demux.Other_flow _ -> ()
  | _ -> Alcotest.fail "garbage should be Other_flow"

(* --- IP fragmentation / reassembly -------------------------------------- *)

let test_fragment_sizes () =
  let pkt = mk_udp ~len:20_000 () in
  let frags = Ip.fragment pkt ~mtu:9180 in
  List.iter
    (fun f ->
      Alcotest.(check bool) "each fragment fits mtu" true
        (Packet.wire_bytes f <= 9180))
    frags;
  let total =
    List.fold_left (fun acc f -> acc + Packet.payload_length f) 0 frags
  in
  Alcotest.(check int) "payload conserved" 20_000 total

let test_fragment_small_passthrough () =
  let pkt = mk_udp ~len:100 () in
  match Ip.fragment pkt ~mtu:9180 with
  | [ p ] -> Alcotest.(check bool) "unchanged" true (p == pkt)
  | _ -> Alcotest.fail "small packet should not fragment"

(* [Ip.Reasm.insert] at time 0, as an option. *)
let insert r f =
  let whole = Ip.Reasm.insert r ~clock:[| 0. |] f in
  if whole == Packet.null then None else Some whole

let test_reasm_passthrough () =
  let r = Ip.Reasm.create () in
  let pkt = mk_udp ~len:100 () in
  Alcotest.(check bool) "a non-fragment is its own whole" true
    (Ip.Reasm.insert r ~clock:[| 0. |] pkt == pkt);
  Alcotest.(check int) "nothing pending" 0 (Ip.Reasm.pending_count r)

let test_reasm_in_order () =
  let r = Ip.Reasm.create () in
  let pkt = mk_udp ~len:20_000 () in
  let frags = Ip.fragment pkt ~mtu:9180 in
  let results = List.map (fun f -> insert r f) frags in
  let completions = List.filter_map Fun.id results in
  Alcotest.(check int) "one completion" 1 (List.length completions);
  Alcotest.(check int) "only at the last fragment" 0
    (List.length (List.filter_map Fun.id (List.filteri (fun i _ -> i < List.length results - 1) results)))

let prop_reasm_any_order =
  QCheck.Test.make ~count:100 ~name:"reasm: completes in any arrival order"
    QCheck.(pair (int_range 10_000 60_000) small_int)
    (fun (len, seed) ->
      let r = Ip.Reasm.create () in
      let pkt = mk_udp ~len () in
      let frags = Array.of_list (Ip.fragment pkt ~mtu:9180) in
      let rng = Lrp_engine.Rng.create seed in
      Lrp_engine.Rng.shuffle rng frags;
      let completions =
        Array.to_list frags
        |> List.filter_map (fun f -> insert r f)
      in
      match completions with
      | [ whole ] -> Packet.payload_length whole = len
      | _ -> false)

let test_reasm_interleaved_datagrams () =
  (* Fragments of two datagrams interleaved: both complete. *)
  let r = Ip.Reasm.create () in
  let a = mk_udp ~len:20_000 ~sport:1 () in
  let b = mk_udp ~len:20_000 ~sport:2 () in
  let fa = Ip.fragment a ~mtu:9180 and fb = Ip.fragment b ~mtu:9180 in
  let interleaved = List.concat (List.map2 (fun x y -> [ x; y ]) fa fb) in
  let completions = List.filter_map (fun f -> insert r f) interleaved in
  Alcotest.(check int) "both complete" 2 (List.length completions)

let test_reasm_timeout () =
  let r = Ip.Reasm.create ~timeout:1_000. () in
  let pkt = mk_udp ~len:20_000 () in
  (match Ip.fragment pkt ~mtu:9180 with
   | f :: _ -> ignore (insert r f)
   | [] -> Alcotest.fail "no fragments");
  Alcotest.(check int) "pending" 1 (Ip.Reasm.pending_count r);
  let pruned = Ip.Reasm.prune r ~now:2_000. in
  Alcotest.(check int) "pruned" 1 pruned;
  Alcotest.(check int) "nothing pending" 0 (Ip.Reasm.pending_count r);
  Alcotest.(check int) "timeout counted" 1 (Ip.Reasm.timed_out r)

let test_reasm_duplicate_fragments () =
  let r = Ip.Reasm.create () in
  let pkt = mk_udp ~len:20_000 () in
  let frags = Ip.fragment pkt ~mtu:9180 in
  (* Insert the first fragment twice, then the rest. *)
  (match frags with
   | f :: _ -> ignore (insert r f)
   | [] -> ());
  let completions = List.filter_map (fun f -> insert r f) frags in
  Alcotest.(check int) "still exactly one completion" 1 (List.length completions)

(* --- PCB tables ---------------------------------------------------------- *)

let test_pcb_udp () =
  let t = Pcb.create () in
  Pcb.bind_udp t ~port:53 "dns";
  Alcotest.(check (option string)) "bound port found" (Some "dns")
    (Pcb.lookup_udp t ~remote:(1, 1000) ~port:53);
  Alcotest.(check (option string)) "unbound port misses" None
    (Pcb.lookup_udp t ~remote:(1, 1000) ~port:54);
  Pcb.connect_udp t ~remote:(2, 2000) ~port:53 "dns-conn";
  Alcotest.(check (option string)) "connected match preferred" (Some "dns-conn")
    (Pcb.lookup_udp t ~remote:(2, 2000) ~port:53);
  Alcotest.(check (option string)) "other remotes get wildcard" (Some "dns")
    (Pcb.lookup_udp t ~remote:(3, 3000) ~port:53)

let test_pcb_udp_rebind_rejected () =
  let t = Pcb.create () in
  Pcb.bind_udp t ~port:53 "a";
  Alcotest.check_raises "double bind" (Invalid_argument "Pcb.bind_udp: port in use")
    (fun () -> Pcb.bind_udp t ~port:53 "b")

let test_pcb_tcp () =
  let t = Pcb.create () in
  Pcb.listen_tcp t ~port:80 "listener";
  Pcb.insert_tcp t ~remote:(5, 5000) ~port:80 "conn";
  Alcotest.(check (option string)) "exact match wins" (Some "conn")
    (Pcb.lookup_tcp t ~remote:(5, 5000) ~port:80);
  Alcotest.(check (option string)) "fallback to listener" (Some "listener")
    (Pcb.lookup_tcp t ~remote:(6, 6000) ~port:80);
  Pcb.remove_tcp t ~remote:(5, 5000) ~port:80;
  Alcotest.(check (option string)) "removed conn falls back" (Some "listener")
    (Pcb.lookup_tcp t ~remote:(5, 5000) ~port:80);
  Alcotest.(check int) "count" 0 (Pcb.tcp_count t)

let test_pcb_lookup_cost () =
  let t = Pcb.create () in
  Pcb.bind_udp t ~port:53 "dns";
  let before = Pcb.lookup_cost_cells t in
  ignore (Pcb.lookup_udp t ~remote:(1, 1) ~port:53);
  Alcotest.(check bool) "lookups cost cells" true (Pcb.lookup_cost_cells t > before)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_demux_bytes_equals_struct; prop_reasm_any_order ]

let suite =
  [ Alcotest.test_case "udp flow extraction" `Quick test_flow_udp;
    Alcotest.test_case "tcp syn flow" `Quick test_flow_tcp_syn;
    Alcotest.test_case "syn-ack is not syn-only" `Quick test_flow_tcp_synack_not_syn_only;
    Alcotest.test_case "fragment flows" `Quick test_flow_fragments;
    Alcotest.test_case "garbage classifies as Other" `Quick test_flow_of_bytes_garbage;
    Alcotest.test_case "fragment sizes respect MTU" `Quick test_fragment_sizes;
    Alcotest.test_case "small packets pass through" `Quick test_fragment_small_passthrough;
    Alcotest.test_case "reassembly passes non-fragments through" `Quick
      test_reasm_passthrough;
    Alcotest.test_case "reassembly in order" `Quick test_reasm_in_order;
    Alcotest.test_case "reassembly of interleaved datagrams" `Quick
      test_reasm_interleaved_datagrams;
    Alcotest.test_case "reassembly timeout pruning" `Quick test_reasm_timeout;
    Alcotest.test_case "duplicate fragments" `Quick test_reasm_duplicate_fragments;
    Alcotest.test_case "pcb udp binding" `Quick test_pcb_udp;
    Alcotest.test_case "pcb rejects double bind" `Quick test_pcb_udp_rebind_rejected;
    Alcotest.test_case "pcb tcp exact + listen" `Quick test_pcb_tcp;
    Alcotest.test_case "pcb lookup cost accounting" `Quick test_pcb_lookup_cost ]
  @ qsuite

(* --- classifier robustness: fuzzing -------------------------------------- *)

(* The classifier runs in NI firmware / interrupt context in the real
   system: it must never raise, whatever bytes arrive off the wire. *)
let prop_classifier_never_raises =
  QCheck.Test.make ~count:500 ~name:"demux: random bytes never crash the classifier"
    QCheck.(pair small_int (int_range 0 120))
    (fun (seed, len) ->
      let rng = Lrp_engine.Rng.create seed in
      let b = Bytes.init len (fun _ -> Char.chr (Lrp_engine.Rng.int rng 256)) in
      match Demux.flow_of_bytes b with
      | Demux.Udp_flow _ | Demux.Tcp_flow _ | Demux.Frag_flow _
      | Demux.Icmp_flow | Demux.Other_flow _ -> true)

(* Bit-flip fuzzing: take a valid packet, flip one byte, classify. *)
let prop_classifier_survives_bitflips =
  QCheck.Test.make ~count:300 ~name:"demux: bit-flipped packets never crash"
    QCheck.(pair small_int (int_range 0 60))
    (fun (seed, pos) ->
      let pkt = mk_tcp ~syn:true ~len:20 () in
      let b = Codec.encode pkt in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + (seed land 0xfe))));
      match Demux.flow_of_bytes b with
      | Demux.Udp_flow _ | Demux.Tcp_flow _ | Demux.Frag_flow _
      | Demux.Icmp_flow | Demux.Other_flow _ -> true)

let qsuite2 =
  List.map QCheck_alcotest.to_alcotest
    [ prop_classifier_never_raises; prop_classifier_survives_bitflips ]

let suite = suite @ qsuite2
