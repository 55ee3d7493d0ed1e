(* The benchmark's workloads, built from the library's public API.

   A workload is a list of operations; one operation is one simulation
   run (one architecture of a pair workload, or one cluster run).  Each
   operation splits into the three phases the benchmark times: [setup]
   (build the worlds or topology and start the workload processes),
   [simulate] and [report] (render the deterministic statistics text
   whose digest is the correctness check at the default seed). *)

open Lrp_engine
open Lrp_net
open Lrp_kernel
open Lrp_workload
module Common = Lrp_experiments.Common
module Cluster = Lrp_experiments.Cluster
module Trace = Lrp_trace.Trace

type sim = {
  engines : Engine.t array;
  kernels : Kernel.t array;
  simulate : unit -> unit;
  report : unit -> string;
  check : unit -> string list;  (** conservation violations *)
  injected : unit -> int;  (** frames injected by all sources *)
  exchange : (unit -> int) ref option;  (** Shardsim's, wrappable *)
  shardsim : Shardsim.t option;
}

type op = { op_name : string; setup : unit -> sim }

(* {1 Inputs from the seed} *)

(* Each source starts at a seed-drawn phase inside its first interval and
   the blast sources use a seed-drawn UDP source port: the same seed
   gives the same inputs, another seed shifts every arrival time. *)
let delayed_source engine ~offset start =
  let src = ref None in
  ignore (Engine.schedule_after engine ~delay:offset (fun () -> src := Some (start ())));
  fun () -> match !src with Some (s : Blast.source) -> s.Blast.sent | None -> 0

let blast_source rng engine k ~dst ~rate ~until =
  let interval = 1e6 /. rate in
  let offset = Rng.float rng interval in
  let src_port = 1024 + Rng.int rng 60_000 in
  delayed_source engine ~offset (fun () ->
      Blast.start_source engine (Kernel.nic k) ~src:(Kernel.ip_address k) ~dst
        ~src_port ~rate ~size:14 ~until ())

(* {1 Statistics and conservation} *)

let fnv = Cluster.fnv1a64

let ledger_classes =
  Lrp_sim.Ledger.[ ("intr", Intr); ("soft", Soft); ("proto", Proto);
                   ("poll", Poll); ("app", App) ]

let ledger_total k cls = Lrp_sim.Ledger.total (Lrp_sim.Cpu.ledger (Kernel.cpu k)) cls

(* The simulated statistics of one host: every metric the kernel
   registers except the engine's timer-churn counters, which describe the
   simulator rather than the modelled host, plus the ledger class totals. *)
let host_stats buf k =
  Printf.bprintf buf "host %s\n" (Kernel.name k);
  List.iter
    (fun (name, v) ->
      if not (String.starts_with ~prefix:"engine." name) then
        Printf.bprintf buf " %s=%.3f\n" name v)
    (Lrp_trace.Metrics.snapshot (Kernel.metrics k));
  List.iter
    (fun (name, cls) -> Printf.bprintf buf " ledger.%s=%.3f\n" name (ledger_total k cls))
    ledger_classes

let rxq_drops nic =
  let d = ref 0 in
  for q = 0 to Nic.rx_queues nic - 1 do
    let _, drops, _, _ = Nic.rxq_stats nic q in
    d := !d + drops
  done;
  !d

(* Frames that reached the host's NIC minus every way the host accounts
   for one: delivered to a transport, dropped at a queue, discarded
   early, answered with a reset or forwarded.  What remains is in
   flight. *)
let in_flight k ~sockq_drops =
  let st = Kernel.stats k in
  let nic = Kernel.nic k in
  (Nic.stats nic).Nic.rx_packets
  - (st.udp_delivered + sockq_drops + st.tcp_delivered + st.rsts_sent
     + st.ipq_drops + st.mbuf_drops + st.no_port_drops + st.demux_drops
     + st.edemux_early_drops + Kernel.early_discards k + st.csum_drops
     + st.forwarded + st.fwd_drops + st.rx_wrong_peer + rxq_drops nic)

(* Every queue a received frame can wait in is bounded by the config. *)
let queue_capacity k =
  let c = Kernel.config k in
  c.ip_queue_limit + (c.channel_limit * List.length (Kernel.channels k))
  + (max 1 c.rx_queues * c.rx_ring) + c.udp_rcv_limit

let check_drained k ~sockq_drops =
  let f = in_flight k ~sockq_drops in
  if f <> 0 then
    [ Printf.sprintf "%s: %d frames unaccounted after drain" (Kernel.name k) f ]
  else []

let check_bounded k ~sockq_drops =
  let f = in_flight k ~sockq_drops and cap = queue_capacity k in
  if f < 0 || f > cap then
    [ Printf.sprintf "%s: %d frames in flight, outside [0, %d]" (Kernel.name k) f cap ]
  else []

(* Every frame a source sent left its NIC or was dropped at the interface
   queue, and no NIC received more frames than the senders put on the
   wire. *)
let check_wire ~sent ~senders ~receivers =
  let sum f ks = List.fold_left (fun a k -> a + f (Nic.stats (Kernel.nic k))) 0 ks in
  let tx = sum (fun s -> s.tx_packets + s.tx_drops) senders in
  let rx = sum (fun s -> s.rx_packets) receivers in
  (if tx <> sent then [ Printf.sprintf "sources sent %d, NICs took %d" sent tx ] else [])
  @ if rx > tx then [ Printf.sprintf "NICs received %d of %d sent" rx tx ] else []

let pair_sim w kernels ~simulate ~report ~check ~injected =
  { engines = [| World.engine w |]; kernels; simulate; report; check; injected;
    exchange = None; shardsim = None }

(* {1 udp-overload} *)

let blast_rate = 20_000.
let blast_until = Time.ms 2_200.
let blast_drain = Time.ms 500.

let udp_overload_op ~seed index sys =
  let name = "udp-overload/" ^ Common.system_name sys in
  let setup () =
    let seed = Common.job_seed ~seed ~index in
    let rng = Rng.create seed in
    let cfg = Common.config_of_system sys in
    let w, client, server = World.pair ~seed ~cfg () in
    let sink = Blast.start_sink server ~port:9000 () in
    let sent =
      blast_source rng (World.engine w) client
        ~dst:(Kernel.ip_address server, 9000) ~rate:blast_rate ~until:blast_until
    in
    let sockq_drops () = sink.Blast.sock.Socket.stats.Socket.rx_sockq_drops in
    pair_sim w [| client; server |]
      ~simulate:(fun () -> World.run w ~until:(blast_until +. blast_drain))
      ~injected:sent
      ~report:(fun () ->
        let buf = Buffer.create 4096 in
        Printf.bprintf buf "%s sent=%d received=%d sockq_drops=%d\n" name (sent ())
          sink.Blast.received (sockq_drops ());
        host_stats buf client;
        host_stats buf server;
        Buffer.contents buf)
      ~check:(fun () ->
        check_drained server ~sockq_drops:(sockq_drops ())
        @ check_drained client ~sockq_drops:0
        @ check_wire ~sent:(sent ()) ~senders:[ client ] ~receivers:[ server ]
        @
        if sink.Blast.received <> (Kernel.stats server).udp_delivered then
          [ "sink received differs from the kernel's UDP deliveries" ]
        else [])
  in
  { op_name = name; setup }

let udp_overload ~seed =
  List.mapi (udp_overload_op ~seed) Common.modern_systems

(* {1 http-synflood} *)

let syn_rate = 10_000.
let http_until = Time.sec 8.

let http_synflood_op ~seed index sys =
  let name = "http-synflood/" ^ Common.system_name sys in
  let setup () =
    let seed = Common.job_seed ~seed ~index in
    let rng = Rng.create seed in
    (* TIME_WAIT shortened to 500 ms, as in the paper's Figure 5. *)
    let tune cfg = { cfg with Kernel.time_wait = Time.ms 500. } in
    let cfg = Common.config_of_system ~tune sys in
    let w = World.make ~seed () in
    let server = World.add_host w ~name:"server" cfg in
    let clients = World.add_host w ~name:"clients" cfg in
    let attacker = World.add_host w ~name:"attacker" cfg in
    let served = Http.start_server server ~port:80 () in
    (* The flood's target: a listener on port 99 that never accepts. *)
    ignore
      (Lrp_sim.Cpu.spawn (Kernel.cpu server) ~name:"dummy" (fun self ->
           let lsock = Api.socket_stream server in
           Api.tcp_listen server ~self lsock ~port:99 ~backlog:5;
           Lrp_sim.Proc.block (Lrp_sim.Proc.waitq "dummy.forever")));
    let stats =
      Http.start_clients clients ~dst:(Kernel.ip_address server, 80) ~n:8 ()
    in
    let flood = ref None in
    let engine = World.engine w in
    let offset = Rng.float rng (1e6 /. syn_rate) in
    let spoof_base = Packet.ip_of_quad 11 (Rng.int rng 256) 0 1 in
    ignore
      (Engine.schedule_after engine ~delay:offset (fun () ->
           flood :=
             Some
               (Synflood.start engine (Kernel.nic attacker)
                  ~dst:(Kernel.ip_address server, 99) ~rate:syn_rate ~until:http_until
                  ~spoof_base ())));
    let syns () = match !flood with Some f -> f.Synflood.sent | None -> 0 in
    let hosts = [| server; clients; attacker |] in
    pair_sim w hosts
      ~simulate:(fun () -> World.run w ~until:http_until)
      ~injected:(fun () ->
        Array.fold_left (fun a k -> a + (Nic.stats (Kernel.nic k)).tx_packets) 0 hosts)
      ~report:(fun () ->
        let buf = Buffer.create 4096 in
        Printf.bprintf buf "%s syns=%d completed=%d failed=%d accepted=%d served=%d\n" name
          (syns ()) stats.Http.completed stats.Http.failed served.Http.accepted
          served.Http.served;
        Array.iter (host_stats buf) hosts;
        Buffer.contents buf)
      ~check:(fun () ->
        List.concat_map (fun k -> check_bounded k ~sockq_drops:0) (Array.to_list hosts)
        @ (if stats.Http.completed = 0 then [ "no HTTP request completed" ] else [])
        @
        if served.Http.served < stats.Http.completed then
          [ "clients completed more requests than the server served" ]
        else [])
  in
  { op_name = name; setup }

let http_synflood ~seed =
  List.mapi (http_synflood_op ~seed) Common.[ Bsd; Soft_lrp; Ni_lrp ]

(* {1 cluster} *)

let racks = 8
let hosts_per_rack = 8
let cluster_rate = 2_000.
let cluster_until = Time.ms 200.
let cluster_drain = Time.ms 20.
let sharded_shards = min 2 (Domain.recommended_domain_count ())

(* The merged slot-0 recorder dump, rendered and hashed as Cluster.run
   does: the expensive part of the report phase. *)
let dump_digest (cells : Topology.cell array) =
  let streams =
    Array.to_list
      (Array.map
         (fun (c : Topology.cell) -> (c.cell_id, Kernel.tracer c.kernels.(0)))
         cells)
  in
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter
    (fun (stream, ts, seq, ev) ->
      Format.fprintf fmt "r%d %12.1f [%6d] %a@." stream ts seq Trace.pp_event ev)
    (Trace.merged_events streams);
  Format.pp_print_flush fmt ();
  fnv (Buffer.contents buf)

let cluster_op ~seed ~shards =
  let name = "cluster" in
  let setup () =
    let rng = Rng.create seed in
    let cfg = Common.config_of_system Common.Soft_lrp in
    let topo = Topology.spine_leaf ~seed ~racks ~hosts_per_rack ~cfg () in
    let sinks = ref [] and sources = ref [] in
    for r = 0 to racks - 1 do
      Topology.on_cell topo r (fun (cell : Topology.cell) ->
          (* Recorders on each rack's first host only, as Cluster.run. *)
          Kernel.set_tracing cell.kernels.(0) true;
          Array.iter
            (fun k -> sinks := (k, Blast.start_sink k ~port:9000 ()) :: !sinks)
            cell.kernels;
          for s = 0 to hosts_per_rack - 1 do
            let k = cell.kernels.(s) in
            let stream ~dst ~rate =
              sources :=
                blast_source rng cell.engine k ~dst ~rate ~until:cluster_until :: !sources
            in
            (* One intra-rack stream to the next slot, one cross-rack
               stream through the spine to the same slot one rack over. *)
            stream ~dst:(Topology.host_ip ~rack:r ~slot:((s + 1) mod hosts_per_rack), 9000)
              ~rate:cluster_rate;
            stream ~dst:(Topology.host_ip ~rack:((r + 1) mod racks) ~slot:s, 9000)
              ~rate:(cluster_rate /. 2.)
          done)
    done;
    let cells = Topology.cells topo in
    let engines = Array.map (fun (c : Topology.cell) -> c.engine) cells in
    let exchange = ref (Topology.exchange topo) in
    let sim =
      Shardsim.create ~shards ~lookahead:(Topology.lookahead topo)
        ~exchange:(fun () -> !exchange ()) engines
    in
    let kernels =
      Array.concat (Array.to_list (Array.map (fun (c : Topology.cell) -> c.kernels) cells))
    in
    let sent () = List.fold_left (fun a f -> a + f ()) 0 !sources in
    let sinks = List.rev !sinks in
    let sockq_drops (_, (s : Blast.sink)) = s.sock.Socket.stats.Socket.rx_sockq_drops in
    let uplinks f =
      Array.fold_left (fun a (c : Topology.cell) -> a + f (Fabric.uplink_stats c.fabric)) 0 cells
    in
    { engines; kernels;
      simulate = (fun () -> Shardsim.run sim ~until:(cluster_until +. cluster_drain));
      injected = sent;
      exchange = Some exchange;
      shardsim = Some sim;
      report =
        (fun () ->
          let buf = Buffer.create 65536 in
          let received = List.fold_left (fun a (_, (s : Blast.sink)) -> a + s.received) 0 sinks in
          Printf.bprintf buf
            "cluster racks=%d hosts/rack=%d sent=%d delivered=%d cross=%d epochs=%d dump=%Lx\n"
            racks hosts_per_rack (sent ()) received (uplinks (fun u -> u.Fabric.up_sent))
            (Shardsim.epochs sim) (dump_digest cells);
          Array.iter (host_stats buf) kernels;
          Buffer.contents buf);
      check =
        (fun () ->
          List.concat_map (fun ((k, _) as s) -> check_drained k ~sockq_drops:(sockq_drops s)) sinks
          @ check_wire ~sent:(sent ()) ~senders:(Array.to_list kernels)
              ~receivers:(Array.to_list kernels)
          @
          if uplinks (fun u -> u.up_sent)
             <> uplinks (fun u -> u.up_received) + uplinks (fun u -> u.up_backlog)
          then [ "spine frames not conserved" ]
          else []) }
  in
  { op_name = name; setup }

(* {1 Registry} *)

type t = {
  name : string;
  ops : seed:int -> op list;
  reference : (seed:int -> op list) option;
      (** the same simulation another way; its digest must match *)
}

(* udp-overload loads the per-packet receive path past every arch's
   MLFRR; http-synflood is the only TCP and process-model workload;
   cluster-8x8 delivers every frame below saturation over a 64-host
   working set and is the only one with a report phase and Shardsim.  Its
   reference is the same run on min(2, nproc) shards: the sharded run is
   too unsteady on a shared 2-core host to be a workload of its own, so it
   is checked for digest parity and timed only in the traced run. *)
let all =
  [ { name = "udp-overload"; ops = udp_overload; reference = None };
    { name = "http-synflood"; ops = http_synflood; reference = None };
    { name = "cluster-8x8"; ops = (fun ~seed -> [ cluster_op ~seed ~shards:1 ]);
      reference = Some (fun ~seed -> [ cluster_op ~seed ~shards:sharded_shards ]) } ]

let find name = List.find_opt (fun w -> w.name = name) all
