(** Simulated host kernel, parameterised by network-subsystem architecture.

    One [Kernel.t] per host.  It owns the CPU, the NIC, the protocol state
    (PCBs, reassembly, TCP connections) and implements the four receive
    architectures the paper compares:

    - {b Bsd}: eager interrupt-driven processing.  The hardware interrupt
      stores the packet and appends it to the shared IP queue; a software
      interrupt performs IP + transport processing and deposits data on the
      socket queue; the application finally copies it out in a receive
      system call (section 2.1).
    - {b Soft_lrp}: LRP with demultiplexing in the interrupt handler: the
      hardware interrupt classifies the packet onto its NI channel (early
      discard if full); all protocol processing happens lazily in the
      receiver's context or in an APP thread charged to the receiver.
    - {b Ni_lrp}: like [Soft_lrp], but classification and discard happen on
      the network interface itself at zero host cost; the host is
      interrupted only when a blocked receiver must be woken.
    - {b Early_demux}: the control experiment of section 4.2 — early
      demultiplexing and early discard like SOFT-LRP, but protocol
      processing stays eager in software-interrupt context like BSD.

    Three modern (post-paper) back-ends extend the comparison to the
    receive architectures that eventually shipped in mainstream kernels:

    - {b Napi}: interrupt mitigation with budgeted polling.  The first
      frame raises a (cheap) interrupt that masks the queue and schedules
      a softirq poll; the poll dequeues up to [napi_budget] frames per
      round, re-enables the interrupt when the ring drains, and defers to
      a fairly-scheduled ksoftirqd process when the budget is exhausted
      with backlog remaining.  The NIC adds configurable interrupt
      coalescing (packet-count threshold / hold-off timer).
    - {b Napi_gro}: [Napi] plus receive-offload aggregation: consecutive
      in-order same-flow TCP segments are merged at the poll loop into
      one large segment before protocol processing (flushed on flow
      change, PSH, out-of-order arrival or budget exhaustion); same-flow
      UDP datagram trains share one protocol pass.
    - {b Rss}: receive-side scaling — the NIC hashes flows over the
      packed flow key onto [rx_queues] receive rings, each running its
      own [Napi] poll context.

    All architectures share the same protocol code ({!Lrp_proto.Tcp},
    {!Lrp_proto.Ip}) and the same cost table, exactly as the paper's kernels
    shared the 4.4BSD networking code.  Syscall-level behaviour (the socket
    API) lives in {!Api}. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_proto
open Lrp_core
module Trace = Lrp_trace.Trace
module Metrics = Lrp_trace.Metrics

type arch = Bsd | Soft_lrp | Ni_lrp | Early_demux | Napi | Napi_gro | Rss

let arch_name = function
  | Bsd -> "4.4BSD"
  | Soft_lrp -> "SOFT-LRP"
  | Ni_lrp -> "NI-LRP"
  | Early_demux -> "Early-Demux"
  | Napi -> "NAPI"
  | Napi_gro -> "NAPI-GRO"
  | Rss -> "RSS"

(* Command-line spelling of each architecture: the one table the CLI's
   [--arch] parser, printer and help text are built from. *)
let arch_key = function
  | Bsd -> "bsd"
  | Soft_lrp -> "soft-lrp"
  | Ni_lrp -> "ni-lrp"
  | Early_demux -> "early-demux"
  | Napi -> "napi"
  | Napi_gro -> "napi-gro"
  | Rss -> "rss"

let archs = [ Bsd; Soft_lrp; Ni_lrp; Early_demux; Napi; Napi_gro; Rss ]

let arch_of_key s = List.find_opt (fun a -> arch_key a = s) archs

let is_lrp = function
  | Soft_lrp | Ni_lrp -> true
  | Bsd | Early_demux | Napi | Napi_gro | Rss -> false

(* The NAPI-family back-ends run the NIC in queued-RX mode and poll. *)
let is_napi = function
  | Napi | Napi_gro | Rss -> true
  | Bsd | Soft_lrp | Ni_lrp | Early_demux -> false

type config = {
  arch : arch;
  costs : Cost.t;
  mtu : int;
  ip_queue_limit : int;       (* BSD shared IP queue, packets *)
  channel_limit : int;        (* LRP per-channel queue, packets *)
  udp_rcv_limit : int;        (* socket queue, datagrams *)
  mbuf_capacity : int;
  mss : int;
  sock_buf : int;             (* TCP send/receive buffer, bytes *)
  time_wait : float;
  initial_rto : float;
  max_syn_retries : int;
  udp_helper : bool;          (* LRP minimal-priority protocol thread *)
  forwarding : bool;          (* act as an IP gateway (section 3.5) *)
  fwd_nice : int;             (* priority of the LRP forwarding daemon *)
  fair_app_accounting : bool;
      (* charge APP-thread CPU to the owning process (section 3.4); turning
         this off is the accounting ablation: the APP thread is scheduled
         and charged as an independent thread, BSD-style *)
  (* --- NAPI-family knobs (Napi / Napi_gro / Rss only) --- *)
  napi_budget : int;          (* frames per poll round before deferring to
                                 ksoftirqd; a pathologically high budget
                                 keeps all polling at softirq level and
                                 reintroduces livelock *)
  rx_queues : int;            (* NIC receive rings (RSS steers across >1) *)
  rx_ring : int;              (* slots per receive ring *)
  coalesce_pkts : int;        (* interrupt after this many buffered frames *)
  coalesce_us : float;        (* ... or this long after the first one *)
}

let default_config ?(costs = Cost.default) arch =
  { arch; costs; mtu = 9180 (* ATM AAL5 *); ip_queue_limit = 50;
    channel_limit = 32; udp_rcv_limit = 32; mbuf_capacity = 4096;
    mss = 9140; sock_buf = 32 * 1024; time_wait = Lrp_engine.Time.sec 30.;
    initial_rto = Lrp_engine.Time.sec 1.5; max_syn_retries = 4;
    udp_helper = true; forwarding = false; fwd_nice = 0;
    fair_app_accounting = true;
    napi_budget = 64; rx_queues = (match arch with Rss -> 4 | _ -> 1);
    rx_ring = 256; coalesce_pkts = 8; coalesce_us = 30. }

type kstats = {
  mutable rx_frames : int;          (* frames seen by the receive path *)
  mutable ipq_drops : int;          (* BSD shared IP queue overflow *)
  mutable mbuf_drops : int;
  mutable no_port_drops : int;      (* no endpoint (BSD, after processing) *)
  mutable demux_drops : int;        (* no endpoint (LRP, at demux time) *)
  mutable edemux_early_drops : int; (* Early-Demux interrupt-time discards *)
  mutable udp_delivered : int;      (* datagrams deposited for applications *)
  mutable tcp_delivered : int;      (* TCP segments fed to their connection *)
  mutable rx_wrong_peer : int;      (* dropped by connected-UDP filtering *)
  mutable forwarded : int;          (* packets forwarded to another network *)
  mutable fwd_drops : int;          (* not ours and not forwarding *)
  mutable rsts_sent : int;
  mutable csum_drops : int;         (* content-checksum mismatches *)
  mutable ipq_hwm : int;            (* deepest shared-IP-queue depth seen *)
}

type job = Jchan of Channel.t | Jtimer of (unit -> unit)

(* An APP thread has at most one drain job per channel queued; the
   channel records which APP threads have one ({!Channel.drain_queued}),
   so a post needs no per-thread table. *)
type app = {
  app_owner : Proc.t;
  jobs : job Queue.t;
  app_wq : Proc.waitq;
  mutable app_proc : Proc.t option;
}

(* Per-receive-queue NAPI poll context (Napi / Napi_gro / Rss).  [poll_on]
   is the NAPI "scheduled" bit: set from the mitigated interrupt until the
   ring truly drains, so at most one poll chain runs per queue.  [episode]
   counts packets served since the interrupt was masked; once a softirq
   polling episode has served a whole budget with backlog remaining,
   polling is handed to the queue's ksoftirqd process, which repolls under
   the fair scheduler until the ring drains — the mechanism that keeps a
   sane budget out of livelock (poll cycles compete with applications
   instead of preempting them).

   A poll round's batch lives in the queue's record as parallel columns
   (packet, mbuf reservation made at dequeue time as the driver would,
   fragment flag: fragments stay on byte accounting, see [bsd_driver_rx])
   sized to the most frames one round can dequeue, so collecting and
   delivering a batch stores into existing slots.  A held GRO train is
   the index range [b_len, b_len + tr_len) of the packet column, just
   past the committed items.  The softirq chain and ksoftirqd never poll
   one queue at the same time (ksoftirqd only runs once the chain has
   handed over, and the chain only restarts once ksoftirqd has given the
   queue back to interrupt mode), so one batch per queue serves both. *)
type napi = {
  nq : int;                              (* receive-queue index *)
  mutable poll_on : bool;
  mutable episode : int;                 (* packets served this episode *)
  nf : float array;
      (* [nf_last_poll]: when the last poll round ended; [nf_cost]: CPU
         cost of the batch being collected *)
  mutable in_ksoftirqd : bool;
  ksoftirqd_wq : Proc.waitq;
  mutable ksoftirqd : Proc.t option;
  b_pkt : Packet.t array;
  b_mh : int array;
  b_frag : bool array;
  mutable b_len : int;                   (* items in the batch *)
  mutable b_served : int;                (* frames the round dequeued *)
  mutable tr_len : int;                  (* frames in the held GRO train *)
  mutable tr_udp : bool;
  mutable tr_next_seq : int;             (* next in-order TCP sequence *)
}

let nf_last_poll = 0
let nf_cost = 1

(* Typed CPU work handlers for the per-packet receive path (see
   {!Cpu.post_hard_to}): each post stores a handler, one argument and
   one int instead of building a closure.  Registered by [create] once
   the kernel record exists. *)
type rx_targets = {
  rx_intr : Packet.t Cpu.target;         (* BSD driver interrupt *)
  rx_demux : Packet.t Cpu.target;        (* SOFT-LRP demux interrupt *)
  edemux_intr : Packet.t Cpu.target;     (* Early-Demux interrupt *)
  softnet : Packet.t Cpu.target;         (* BSD softnet; int = mbuf handle *)
  edemux_softnet : Packet.t Cpu.target;  (* int = mbuf handle *)
  edemux_forward : Packet.t Cpu.target;
  reasm_complete : Packet.t Cpu.target;  (* transport input of a whole *)
  ni_wake : Proc.waitq Cpu.target;
  ni_wake_members : Socket.t list ref Cpu.target;
  ni_app : (Tcp.conn * Channel.t) Cpu.target;
  napi_irq : unit Cpu.target;            (* int = receive queue *)
  napi_round : napi Cpu.target;
  napi_deliver : napi Cpu.target;
}

let no_rx_targets =
  { rx_intr = Cpu.no_target; rx_demux = Cpu.no_target;
    edemux_intr = Cpu.no_target; softnet = Cpu.no_target;
    edemux_softnet = Cpu.no_target; edemux_forward = Cpu.no_target;
    reasm_complete = Cpu.no_target; ni_wake = Cpu.no_target;
    ni_wake_members = Cpu.no_target; ni_app = Cpu.no_target;
    napi_irq = Cpu.no_target; napi_round = Cpu.no_target;
    napi_deliver = Cpu.no_target }

(* A kick arriving within this many microseconds of the previous poll
   round's end continues the same polling {e episode} (the softirq level
   never really went quiet — Linux's "softirq storm"); a longer gap
   starts a fresh one.  Without this, a load whose per-packet softirq
   cost sits just below the interarrival time drains the ring on every
   round, resets the budget, and services the whole flood at interrupt
   priority — exactly the starvation NAPI exists to stop. *)
let napi_storm_gap = 60.

(* How long ksoftirqd holds the interrupt masked and sleeps before a
   grace poll when it finds the ring momentarily empty.  Longer than the
   storm gap on purpose: each grace poll then gathers a few frames, so
   the ksoftirqd/application alternation pays its context switches per
   small batch instead of per packet. *)
let napi_repoll = 500.

type t = {
  kname : string;
  engine : Engine.t;
  cpu : Cpu.t;
  nic : Nic.t;  (* primary interface *)
  mutable interfaces : (Packet.ip * int * Nic.t) list;
      (* (address, prefix length, nic); multi-homed gateways have several *)
  cfg : config;
  c : Cost.t;
  ip_addr : Packet.ip;
  (* --- BSD path state --- *)
  mutable ipq_len : int;
  mbufs : Mbuf.t;
  (* --- endpoint tables --- *)
  udp_ports : (int, Socket.t) Hashtbl.t;
  tcp_conns : Tcp.conn option Flowtab.t;
      (* connections by packed key: [hi] = remote address, [lo] = remote
         port lsl 16 lor local port (see [conn_lo]) *)
  tcp_listeners : (int, Tcp.conn) Hashtbl.t;
  conn_sock : (int, Socket.t) Hashtbl.t;   (* conn id -> socket *)
  conn_owner : (int, Proc.t) Hashtbl.t;    (* conn id -> owning process *)
  (* --- LRP state --- *)
  parena : Parena.t;
      (* shared RX descriptor arena; every NI channel's ring draws its
         frame descriptors from here *)
  chantab : Chantab.t;
  chan_sock : (int, Socket.t) Hashtbl.t;   (* channel id -> socket (UDP) *)
  mcast_members : (int, Socket.t list ref) Hashtbl.t;
      (* multicast port -> member sockets; all share one NI channel
         (section 3.1) *)
  chan_conn : (int, Tcp.conn) Hashtbl.t;   (* channel id -> connection *)
  conn_chan : (int, Channel.t) Hashtbl.t;  (* connection id -> its channel *)
  mutable all_channels : Channel.t list;
      (* newest first; may still hold retired channels (see
         [drop_channel]) — read it through [channels] *)
  mutable listed_channels : int;   (* entries in [all_channels] *)
  mutable retired_channels : int;  (* retired entries not yet compacted *)
  apps : (int, app) Hashtbl.t;             (* owner pid -> APP thread *)
  helper_wq : Proc.waitq;
  mutable helper_proc : Proc.t option;
  fwd_wq : Proc.waitq;
  mutable fwd_proc : Proc.t option;
  mutable udp_channels : Channel.t list;   (* scanned by the helper *)
  (* --- NAPI state --- *)
  mutable napi : napi array;   (* one per RX queue; [||] unless NAPI-family *)
  mutable napi_grace_tgt : Proc.waitq Engine.target option;
      (* closure-free grace-poll re-arm; registered on first IRQ deferral *)
  (* --- shared protocol state --- *)
  reasm : Ip.Reasm.t;
  mutable tcp_env : Tcp.env option;
  mutable timer_tgt : Tcp.timer Engine.target option;
      (* closure-free TCP timer expiry event; registered on first arm *)
  mutable rcvto_tgt : (Socket.t * bool ref) Engine.target option;
      (* closure-free recvfrom-timeout expiry event; registered on first
         use.  The argument pairs the blocked socket with the caller's
         expiry flag, so arming a timeout allocates one pair instead of a
         capturing closure. *)
  mutable eph_port : int;
  stats : kstats;
  mutable tg : rx_targets;
  (* --- observability (per-kernel: parallel sweeps never share these) --- *)
  tracer : Trace.t;
  metrics : Metrics.t;
}

let name t = t.kname
let cpu t = t.cpu
let engine t = t.engine
let nic t = t.nic
let config t = t.cfg
let costs t = t.c
let stats t = t.stats
let arch t = t.cfg.arch
let ip_address t = t.ip_addr
let chantab t = t.chantab
let mbufs t = t.mbufs
let lrp_mode t = is_lrp t.cfg.arch
let now t = Engine.now t.engine

(* Interface-list walks are top-level recursions, so answering a
   per-packet "is this ours?" builds no closure. *)
let rec has_addr addr = function
  | [] -> false
  | (ip, _, _) :: rest -> ip = addr || has_addr addr rest

(* Is [addr] one of this host's own addresses? *)
let is_local_addr t addr = has_addr addr t.interfaces

(* The longest matching prefix wins; on equal lengths the first listed
   interface does. *)
let rec best_route dst best best_len = function
  | [] -> best
  | (ip, masklen, nic) :: rest ->
      if masklen > 0 && masklen > best_len
         && ip lsr (32 - masklen) = dst lsr (32 - masklen)
      then best_route dst nic masklen rest
      else best_route dst best best_len rest

(* Longest-prefix-match routing across this host's interfaces; the primary
   interface is the default route. *)
let route t dst = best_route dst t.nic 0 t.interfaces

(* The reporting list of channels.  Dropping a channel only marks it
   retired; the list sheds its retired entries in one pass once they
   make up half of it, or when it is read, so a close costs O(1)
   amortised instead of a filter over every open channel. *)
let add_channel t ch =
  t.all_channels <- ch :: t.all_channels;
  t.listed_channels <- t.listed_channels + 1

(* Amortised: one pass per as many drops as there are live channels. *)
let compact_channels t =
  t.all_channels <-
    List.filter (fun ch -> not (Channel.retired ch)) t.all_channels;
  t.listed_channels <- t.listed_channels - t.retired_channels;
  t.retired_channels <- 0

let drop_channel t ch =
  if not (Channel.retired ch) then begin
    Channel.retire ch;
    t.retired_channels <- t.retired_channels + 1;
    if 2 * t.retired_channels >= t.listed_channels then compact_channels t
  end

let channels t =
  if t.retired_channels > 0 then compact_channels t;
  t.all_channels

let early_discards t =
  List.fold_left
    (fun acc ch -> acc + Channel.discarded ch + Channel.discarded_disabled ch)
    0 (channels t)

let tracer t = t.tracer
let metrics t = t.metrics

let set_tracing t on = Trace.set_enabled t.tracer on
let tracing t = Trace.enabled t.tracer

(* Only the TCP and APP-thread paths write notes.  Even a disabled note
   is not free: [Printf.ifprintf] still builds a closure per argument, so
   every call site tests [Trace.enabled] first and only reaches here when
   tracing is on. *)
let trc t fmt =
  if Trace.enabled t.tracer then
    (* alloc: cold — TCP/APP-thread notes, formatted only when tracing *)
    Printf.ksprintf (fun s -> Trace.note t.tracer s) fmt
  (* alloc: cold — an unguarded note with tracing off *)
  else Printf.ifprintf () fmt

let tcp_env_exn t =
  match t.tcp_env with Some e -> e | None -> assert false

(* ------------------------------------------------------------------ *)
(* Output path                                                          *)
(* ------------------------------------------------------------------ *)

(* Hand a datagram to IP output: fragment to the MTU and enqueue on the
   interface.  A datagram that fits goes straight to the interface; only
   one that needs fragmenting builds the fragment list.  Pure state
   manipulation; CPU cost is charged by the caller (process context for
   sends; interrupt/APP context for protocol-generated segments). *)
let ip_output t pkt =
  let nic = route t (Packet.dst pkt) in
  if Packet.wire_bytes pkt <= t.cfg.mtu then ignore (Nic.transmit nic pkt)
  else
    List.iter
      (* alloc: cold — only a datagram larger than the MTU is fragmented *)
      (fun f -> ignore (Nic.transmit nic f))
      (Ip.fragment pkt ~mtu:t.cfg.mtu)

(* Per-segment transmit cost (protocol output + driver). *)
let seg_out_cost t = t.c.Cost.tcp_out +. t.c.Cost.ip_out +. t.c.Cost.driver_tx

(* Free a packet's mbufs.  LRP receive paths never allocate from the mbuf
   pool (packets live in NI channel buffers), so the free is conditional on
   the architecture that allocated. *)
let free_rx_mbufs t bytes =
  match t.cfg.arch with
  | Bsd | Early_demux | Napi | Napi_gro | Rss -> Mbuf.free t.mbufs ~bytes
  | Soft_lrp | Ni_lrp -> ()

(* Handle-aware variant: the mbuf kernels' non-fragment receive path
   carries the pool handle from the driver's {!Mbuf.alloc_h} all the way
   to the free site, so the count returned is the count reserved — no
   per-site byte recomputation to drift.  Fragments (whose reassembled
   whole has a different wire footprint than the sum of its pieces) stay
   on byte accounting with [mh = Mbuf.no_handle]. *)
let free_rx_pkt t ~mh bytes =
  match t.cfg.arch with
  | Bsd | Early_demux | Napi | Napi_gro | Rss ->
      if mh >= 0 then Mbuf.free_h t.mbufs mh else Mbuf.free t.mbufs ~bytes
  | Soft_lrp | Ni_lrp -> ()

(* Receiver-side content-checksum verification.  Corrupted packets die at
   the first transport-level touch: counted, traced, and never delivered,
   never answered (no RST / ICMP reply for garbage). *)
let csum_ok t (pkt : Packet.t) =
  Packet.verify pkt
  ||
  begin
    t.stats.csum_drops <- t.stats.csum_drops + 1;
    Trace.csum_drop t.tracer ~pkt:pkt.Packet.ip.Packet.ident;
    false
  end

(* Cost of sending one UDP datagram from process context (excluding the
   per-byte copy, which the API adds). *)
let udp_send_cost t ~frags =
  t.c.Cost.udp_out +. (float_of_int frags *. (t.c.Cost.ip_out +. t.c.Cost.driver_tx))

(* ------------------------------------------------------------------ *)
(* Wakeup helpers                                                       *)
(* ------------------------------------------------------------------ *)

let wake_all t wq = ignore (Cpu.wakeup_all t.cpu wq)
let wake_one t wq = ignore (Cpu.wakeup_one t.cpu wq)

(* Grace-poll re-arm of the NAPI IRQ-deferral window: wake the queue's
   ksoftirqd waitq after [napi_repoll], through a registered dispatcher
   and a staged deadline so a deferral cycle allocates nothing (the
   inline [schedule_after ... (fun () -> ...)] form cost a thunk plus a
   boxed delay per grace poll). *)
let napi_grace_rearm t (n : napi) =
  let g =
    match t.napi_grace_tgt with
    | Some g -> g
    | None ->
        let g =
          (* alloc: cold — one-time dispatcher registration *)
          Engine.target t.engine (fun wq -> wake_one t wq)
        in
        (* alloc: cold — one-time dispatcher registration *)
        t.napi_grace_tgt <- Some g;
        g
  in
  (Engine.deadline_cell t.engine).(0) <-
    (Engine.clock_cell t.engine).(0) +. napi_repoll;
  ignore (Engine.schedule_to_staged t.engine g n.ksoftirqd_wq)

(* LRP gates the listening socket's channel on the backlog: once exceeded,
   protocol processing is disabled and further SYNs die cheaply at the NI
   channel (section 3.4). *)
let update_listen_gate t (listener : Tcp.conn) =
  if lrp_mode t then
    match Hashtbl.find t.conn_chan listener.Tcp.id with
    | exception Not_found -> ()
    | ch ->
        let load =
          listener.Tcp.syn_pending + Queue.length listener.Tcp.accept_queue
        in
        if load >= listener.Tcp.backlog then Channel.disable_processing ch
        else Channel.enable_processing ch

(* ------------------------------------------------------------------ *)
(* APP threads: asynchronous protocol processing for TCP (section 3.4)  *)
(* ------------------------------------------------------------------ *)

let rec app_loop t app =
  match Queue.take_opt app.jobs with
  | Some job ->
      (match job with
       | Jchan ch ->
           Channel.start_drain ch ~consumer:app.app_owner.Proc.pid;
           if Trace.enabled t.tracer then
             trc t "app %s: drain chan %d (len=%d)" app.app_owner.Proc.name
               (Channel.id ch) (Channel.length ch);
           drain_tcp_channel t ch
       | Jtimer f ->
           (Cpu.stage t.cpu).(0) <- t.c.Cost.lazy_locality *. t.c.Cost.tcp_in;
           Cpu.compute_proto t.cpu ~flow:(-1);
           f ());
      app_loop t app
  | None ->
      if app.app_owner.Proc.exited then
        (* The APP thread dies with its process. *)
        Hashtbl.remove t.apps app.app_owner.Proc.pid
      else begin
        if Trace.enabled t.tracer then
          trc t "app %s: block" app.app_owner.Proc.name;
        Proc.block app.app_wq;
        app_loop t app
      end

and drain_tcp_channel t ch =
  let pkt = Channel.pop ch in
  if pkt != Packet.null then begin
    (Cpu.stage t.cpu).(0) <-
      (match t.cfg.arch with
       | Ni_lrp -> t.c.Cost.ni_channel_access
       | Bsd | Soft_lrp | Early_demux | Napi | Napi_gro | Rss -> 0.)
      +. (t.c.Cost.lazy_locality *. (t.c.Cost.ip_in +. t.c.Cost.tcp_in));
    Cpu.compute_proto t.cpu ~flow:(Channel.id ch);
    (match Hashtbl.find t.chan_conn (Channel.id ch) with
     | exception Not_found -> () (* connection vanished: discard *)
     | conn ->
         tcp_deliver t conn pkt ~ctx:`Proc;
         if Tcp.state conn = Tcp.Listen then update_listen_gate t conn);
    drain_tcp_channel t ch
  end

(* Deliver a (non-fragment) TCP segment to its connection, charging for any
   extra segments the state machine emitted beyond the one emission already
   included in [tcp_in]. *)
and tcp_deliver t conn pkt ~ctx =
  if csum_ok t pkt then begin
    Trace.proto_deliver t.tracer ~pkt:pkt.Packet.ip.Packet.ident
      ~conn:conn.Tcp.id
      ~in_proc:(match ctx with `Proc -> true | `Soft -> false);
    let before = conn.Tcp.segs_sent in
    Tcp.input conn pkt;
    t.stats.tcp_delivered <- t.stats.tcp_delivered + 1;
    let extra = conn.Tcp.segs_sent - before - 1 in
    if extra > 0 then begin
      let cost = float_of_int extra *. seg_out_cost t in
      match ctx with
      | `Proc ->
          (Cpu.stage t.cpu).(0) <- t.c.Cost.lazy_locality *. cost;
          Cpu.compute_proto t.cpu ~flow:(-1)
      | `Soft -> Cpu.post_soft t.cpu ~label:"tcp-tx" ~cost (fun () -> ())
    end
  end

and app_for t (owner : Proc.t) =
  match Hashtbl.find t.apps owner.Proc.pid with
  | app -> app
  | exception Not_found ->
      let app =
        { app_owner = owner; jobs = Queue.create ();
          app_wq = Proc.waitq (Printf.sprintf "app.%s" owner.Proc.name);
          app_proc = None }
      in
      Hashtbl.replace t.apps owner.Proc.pid app;
      let proc =
        Cpu.spawn t.cpu ~name:(Printf.sprintf "app-%s" owner.Proc.name)
          (fun _self -> app_loop t app)
      in
      (* Scheduled at the owner's priority; CPU usage charged to the owner
         (paper section 3.4).  The accounting ablation skips this. *)
      if t.cfg.fair_app_accounting then
        Cpu.set_account t.cpu proc ~owner:(Some owner);
      app.app_proc <- Some proc;
      app

(* Orphaned connections (the owning process exited with the connection
   still draining — a normal close-behind-exit) have no APP thread left, so
   their protocol processing falls back to software-interrupt level, as in
   the paper's prototype where a kernel process owns TCP processing. *)
let rec orphan_drain t ch () =
  let pkt = Channel.pop ch in
  if pkt != Packet.null then begin
    (match Hashtbl.find_opt t.chan_conn (Channel.id ch) with
     | Some conn -> tcp_deliver t conn pkt ~ctx:`Soft
     | None -> ());
    if not (Channel.is_empty ch) then
      Cpu.post_soft t.cpu ~label:"tcp-orphan"
        ~cost:(t.c.Cost.soft_dispatch
               +. (t.c.Cost.eager_penalty *. (t.c.Cost.ip_in +. t.c.Cost.tcp_in)))
        (orphan_drain t ch)
  end

let post_orphan_drain t ch =
  Cpu.post_soft t.cpu ~label:"tcp-orphan"
    ~cost:(t.c.Cost.soft_dispatch
           +. (t.c.Cost.eager_penalty *. (t.c.Cost.ip_in +. t.c.Cost.tcp_in)))
    (orphan_drain t ch)

let app_post_chan t conn ch =
  match Hashtbl.find t.conn_owner conn.Tcp.id with
  | exception Not_found -> post_orphan_drain t ch
  | owner ->
      if owner.Proc.exited then post_orphan_drain t ch
      else begin
        let app = app_for t owner in
        if not (Channel.drain_queued ch ~consumer:owner.Proc.pid) then begin
          Channel.queue_drain ch ~consumer:owner.Proc.pid;
          Queue.add (Jchan ch) app.jobs;
          if Trace.enabled t.tracer then
            trc t "post chan %d job for %s" (Channel.id ch) owner.Proc.name
        end;
        wake_one t app.app_wq
      end

let app_post_timer t conn f =
  match Hashtbl.find t.conn_owner conn.Tcp.id with
  | owner when not owner.Proc.exited ->
      let app = app_for t owner in
      Queue.add (Jtimer f) app.jobs;
      wake_one t app.app_wq
  | _ | (exception Not_found) ->
      (* Orphaned connection (e.g. TIME_WAIT after exit): fall back to
         software-interrupt context so it still makes progress. *)
      Cpu.post_soft t.cpu ~label:"tcp-timer"
        ~cost:(t.c.Cost.soft_dispatch +. t.c.Cost.tcp_in) (fun () -> f ())

(* ------------------------------------------------------------------ *)
(* Connection registration                                              *)
(* ------------------------------------------------------------------ *)

(* The [lo] word of a connection's packed key in [tcp_conns] ([hi] is the
   remote address); ports are 16-bit. *)
let conn_lo ~remote_port ~local_port = (remote_port lsl 16) lor local_port

let register_conn t conn ~owner =
  match conn.Tcp.remote with
  | None -> invalid_arg "register_conn: no remote"
  | Some (rip, rport) ->
      Flowtab.add t.tcp_conns ~hi:rip
        ~lo:(conn_lo ~remote_port:rport ~local_port:conn.Tcp.local_port)
        (Some conn);
      (match owner with
       | Some o -> Hashtbl.replace t.conn_owner conn.Tcp.id o
       | None -> ());
      if lrp_mode t then begin
        let ch =
          Channel.create_conn ~arena:t.parena ~limit:t.cfg.channel_limit
            ~local_port:conn.Tcp.local_port ~remote_port:rport ()
        in
        Chantab.add_tcp t.chantab ~src:rip ~src_port:rport
          ~dst_port:conn.Tcp.local_port ch;
        Hashtbl.replace t.chan_conn (Channel.id ch) conn;
        Hashtbl.replace t.conn_chan conn.Tcp.id ch;
        add_channel t ch
      end

(* A registered connection owns exactly one channel: [register_conn]
   creates it together with the connection, each connection is registered
   once, and [conn_chan] records it.  Deallocating it is therefore a
   lookup, not a scan of every open channel.  A second call (TIME_WAIT
   teardown under NI-LRP, then the close) finds it already gone from
   [chan_conn] and does nothing. *)
let drop_conn_channel t conn =
  match Hashtbl.find_opt t.conn_chan conn.Tcp.id with
  | None -> ()
  | Some ch ->
      let chid = Channel.id ch in
      if Hashtbl.mem t.chan_conn chid then begin
        Hashtbl.remove t.chan_conn chid;
        drop_channel t ch
      end

let deregister_conn t conn =
  match conn.Tcp.remote with
  | None -> ()
  | Some (rip, rport) ->
      let lo = conn_lo ~remote_port:rport ~local_port:conn.Tcp.local_port in
      let slot = Flowtab.find t.tcp_conns ~hi:rip ~lo in
      (if slot >= 0 then
         match Flowtab.value t.tcp_conns slot with
         | Some c when c.Tcp.id = conn.Tcp.id ->
             ignore (Flowtab.remove t.tcp_conns ~hi:rip ~lo)
         | Some _ | None -> ());
      if lrp_mode t then begin
        Chantab.remove_tcp t.chantab ~src:rip ~src_port:rport
          ~dst_port:conn.Tcp.local_port;
        drop_conn_channel t conn;
        Hashtbl.remove t.conn_chan conn.Tcp.id
      end

(* ------------------------------------------------------------------ *)
(* TCP environment                                                      *)
(* ------------------------------------------------------------------ *)

(* Engine-time expiry of an armed TCP timer: hand the expiry to the
   architecture's protocol-processing context.  The generation snapshot
   makes a stop/re-arm that happens while the posted work is still queued
   drop the stale delivery, exactly as the old per-arm record's [cancelled]
   flag did. *)
let fire_tcp_timer t tm =
  let gen = Tcp.timer_gen tm in
  match t.cfg.arch with
  | Bsd | Early_demux | Napi | Napi_gro | Rss ->
      Cpu.post_soft t.cpu ~label:"tcp-timer"
        ~cost:(t.c.Cost.soft_dispatch
               +. (t.c.Cost.eager_penalty *. t.c.Cost.tcp_in))
        (fun () -> Tcp.timer_fired tm ~gen)
  | Soft_lrp | Ni_lrp ->
      app_post_timer t (Tcp.timer_conn tm) (fun () -> Tcp.timer_fired tm ~gen)

(* Typed dispatcher for [Api.recvfrom_timeout] deadlines: registered once
   per kernel, so arming a timeout allocates a (socket, flag) pair instead
   of a capturing closure (the engine's typed fast path). *)
let recv_timeout_target t =
  match t.rcvto_tgt with
  | Some g -> g
  | None ->
      let g =
        Engine.target t.engine (fun (sock, expired) ->
            expired := true;
            wake_all t sock.Socket.recv_wait)
      in
      t.rcvto_tgt <- Some g;
      g

let timer_target t =
  match t.timer_tgt with
  | Some g -> g
  | None ->
      let g = Engine.target t.engine (fun tm -> fire_tcp_timer t tm) in
      t.timer_tgt <- Some g;
      g

(* Wake the chosen wait queues (in this order) of [conn]'s socket, if it
   still has one. *)
let wake_conn_sock t (conn : Tcp.conn) ~send ~recv ~accept =
  match Hashtbl.find t.conn_sock conn.Tcp.id with
  | s ->
      if send then wake_all t s.Socket.send_wait;
      if recv then wake_all t s.Socket.recv_wait;
      if accept then wake_all t s.Socket.accept_wait
  | exception Not_found -> ()

let make_tcp_env t =
  { Tcp.now = (fun () -> Engine.now t.engine);
    emit = (fun pkt -> ip_output t pkt);
    start_timer =
      (fun tm delay ->
        tm.Tcp.cookie <-
          Engine.schedule_to_after t.engine ~delay (timer_target t) tm);
    stop_timer = (fun tm -> Engine.cancel t.engine tm.Tcp.cookie);
    on_readable =
      (fun conn -> wake_conn_sock t conn ~send:false ~recv:true ~accept:false);
    on_writable =
      (fun conn -> wake_conn_sock t conn ~send:true ~recv:false ~accept:false);
    on_established =
      (fun conn -> wake_conn_sock t conn ~send:true ~recv:true ~accept:false);
    on_accept_ready =
      (fun listener _child ->
        wake_conn_sock t listener ~send:false ~recv:false ~accept:true);
    on_syn_received =
      (fun listener child ->
        let owner = Hashtbl.find_opt t.conn_owner listener.Tcp.id in
        register_conn t child ~owner);
    on_connect_failed =
      (fun conn -> wake_conn_sock t conn ~send:true ~recv:true ~accept:false);
    on_reset =
      (fun conn -> wake_conn_sock t conn ~send:true ~recv:true ~accept:true);
    on_embryo_gone = (fun listener -> update_listen_gate t listener);
    on_time_wait =
      (fun conn ->
        (* NI-LRP deallocates the channel on entry to TIME_WAIT so that NI
           channel slots scale to busy servers (section 4.2). *)
        if t.cfg.arch = Ni_lrp then
          match conn.Tcp.remote with
          | Some (rip, rport) ->
              Chantab.remove_tcp t.chantab ~src:rip ~src_port:rport
                ~dst_port:conn.Tcp.local_port;
              drop_conn_channel t conn
          | None -> ());
    on_closed =
      (fun conn ->
        deregister_conn t conn;
        Hashtbl.remove t.conn_owner conn.Tcp.id;
        wake_conn_sock t conn ~send:true ~recv:true ~accept:false);
    mss = t.cfg.mss;
    time_wait_duration = t.cfg.time_wait;
    initial_rto = t.cfg.initial_rto;
    max_syn_retries = t.cfg.max_syn_retries }

(* ------------------------------------------------------------------ *)
(* Shared delivery helpers                                              *)
(* ------------------------------------------------------------------ *)

(* Connected-UDP semantics: a socket with a default peer only accepts
   datagrams from that peer. *)
let peer_accepts t (sock : Socket.t) ~src ~sport =
  match sock.Socket.remote with
  | Some (pip, pport) when pip <> src || pport <> sport ->
      t.stats.rx_wrong_peer <- t.stats.rx_wrong_peer + 1;
      false
  | Some _ | None -> true

(* Deposit a fully-processed UDP datagram on its socket queue, trace the
   outcome and wake a receiver.  Returns [false] on a socket-queue
   overflow (the BSD drop point); the caller frees the reservation. *)
let deposit_and_wake t (sock : Socket.t) (pkt : Packet.t) ~sport payload ~mh =
  let ident = pkt.Packet.ip.Packet.ident in
  let ok =
    Socket.deposit_udp sock ~payload ~src:pkt.Packet.ip.Packet.src ~sport
      ~ident ~mbuf:mh
  in
  if ok then begin
    Trace.sock_enqueue t.tracer ~pkt:ident ~sock:sock.Socket.id;
    t.stats.udp_delivered <- t.stats.udp_delivered + 1;
    wake_one t sock.Socket.recv_wait
  end
  else Trace.sock_drop t.tracer ~pkt:ident ~sock:sock.Socket.id;
  ok

(* One copy per member socket of the group (section 3.1).  Under the
   mbuf-based kernels the original chain is released and a duplicate is
   allocated per deposited copy, so each receiver's copyout frees exactly
   one chain. *)
let rec deliver_to_members t (pkt : Packet.t) ~sport payload = function
  | [] -> ()
  | (sock : Socket.t) :: rest ->
      if peer_accepts t sock ~src:pkt.Packet.ip.Packet.src ~sport then begin
        let dup_h =
          match t.cfg.arch with
          | Bsd | Early_demux | Napi | Napi_gro | Rss ->
              Mbuf.alloc_h t.mbufs ~bytes:(Packet.wire_bytes pkt)
          | Soft_lrp | Ni_lrp -> Mbuf.no_handle
        in
        let dup_ok =
          match t.cfg.arch with
          | Bsd | Early_demux | Napi | Napi_gro | Rss -> dup_h >= 0
          | Soft_lrp | Ni_lrp -> true
        in
        if dup_ok then begin
          if not (deposit_and_wake t sock pkt ~sport payload ~mh:dup_h) then
            free_rx_pkt t ~mh:dup_h (Packet.wire_bytes pkt)
        end
        else begin
          t.stats.mbuf_drops <- t.stats.mbuf_drops + 1;
          Trace.mbuf_drop t.tracer ~pkt:pkt.Packet.ip.Packet.ident
        end
      end;
      deliver_to_members t pkt ~sport payload rest

(* Terminal UDP delivery of a complete datagram: shared by the BSD
   softint path, the Early-Demux softint path, the NAPI poll loop, lazy
   receiver processing and the LRP helper thread.  [mh] is the mbuf
   reservation carried from the driver, or [Mbuf.no_handle]. *)
let deliver_udp_ready t (pkt : Packet.t) ~mh =
  if not (csum_ok t pkt) then free_rx_pkt t ~mh (Packet.wire_bytes pkt)
  else
  match pkt.Packet.body with
  | Packet.Udp (u, payload) ->
      let sport = u.Packet.usrc_port in
      if Packet.is_multicast pkt then begin
        free_rx_pkt t ~mh (Packet.wire_bytes pkt);
        if Hashtbl.mem t.mcast_members u.Packet.udst_port then
          deliver_to_members t pkt ~sport payload
            !(Hashtbl.find t.mcast_members u.Packet.udst_port)
        else t.stats.no_port_drops <- t.stats.no_port_drops + 1
      end
      else
        (match Hashtbl.find t.udp_ports u.Packet.udst_port with
         | exception Not_found ->
             t.stats.no_port_drops <- t.stats.no_port_drops + 1;
             free_rx_pkt t ~mh (Packet.wire_bytes pkt)
         | sock ->
             if not (peer_accepts t sock ~src:pkt.Packet.ip.Packet.src ~sport)
             then free_rx_pkt t ~mh (Packet.wire_bytes pkt)
             else if not (deposit_and_wake t sock pkt ~sport payload ~mh) then
               (* Socket queue overflow: the BSD drop point. *)
               free_rx_pkt t ~mh (Packet.wire_bytes pkt))
  | Packet.Tcp _ | Packet.Icmp _ | Packet.Fragment _ -> ()

let icmp_reply t (pkt : Packet.t) =
  if not (csum_ok t pkt) then ()
  else
  match pkt.Packet.body with
  | Packet.Icmp (Packet.Echo_request, payload) ->
      ip_output t
        (Packet.icmp ~src:t.ip_addr ~dst:pkt.Packet.ip.Packet.src
           Packet.Echo_reply payload)
  | Packet.Icmp _ | Packet.Udp _ | Packet.Tcp _ | Packet.Fragment _ -> ()

(* The connection [pkt] belongs to: a packed-key probe straight off the
   packet's fields, [None] when no connection matches. *)
let find_conn t (pkt : Packet.t) ~dport =
  let slot =
    Flowtab.find t.tcp_conns ~hi:(Packet.src pkt)
      ~lo:(conn_lo ~remote_port:(Packet.src_port_or_zero pkt) ~local_port:dport)
  in
  if slot < 0 then None else Flowtab.value t.tcp_conns slot

(* Input of a whole TCP segment: to its connection, else to the listener
   on its port, else an RST. *)
let deliver_tcp t (pkt : Packet.t) ~ctx =
  let dport = Packet.dst_port_or_zero pkt in
  match find_conn t pkt ~dport with
  | Some conn -> tcp_deliver t conn pkt ~ctx
  | None -> (
      match Hashtbl.find t.tcp_listeners dport with
      | listener -> tcp_deliver t listener pkt ~ctx
      | exception Not_found ->
          (* Don't answer garbage with a RST. *)
          if csum_ok t pkt then begin
            t.stats.rsts_sent <- t.stats.rsts_sent + 1;
            (* alloc: cold — an RST is a new segment *)
            Tcp.send_rst_for pkt ~emit:(fun p -> ip_output t p)
          end)

(* Transport-level processing of a complete (reassembled) datagram; runs in
   softint context under BSD / Early-Demux. *)
let bsd_transport_input t (pkt : Packet.t) ~mh =
  match pkt.Packet.body with
  | Packet.Udp _ ->
      Trace.proto_deliver t.tracer ~pkt:pkt.Packet.ip.Packet.ident ~conn:(-1)
        ~in_proc:false;
      deliver_udp_ready t pkt ~mh
  | Packet.Tcp _ ->
      free_rx_pkt t ~mh (Packet.wire_bytes pkt);
      deliver_tcp t pkt ~ctx:`Soft
  | Packet.Icmp _ ->
      free_rx_pkt t ~mh (Packet.wire_bytes pkt);
      icmp_reply t pkt
  | Packet.Fragment _ -> assert false

(* The receive-path costs below are computed straight into a float cell
   (the CPU's stage cell, where the post or segment that charges them
   reads them): a float returned from a call is boxed. *)

(* Cost of eager transport processing for a complete datagram, into
   [c.(0)]. *)
let stage_transport_cost t (pkt : Packet.t) ~skip_pcb c =
  let pcb = if skip_pcb then 0. else t.c.Cost.pcb_lookup in
  let base =
    match pkt.Packet.body with
    | Packet.Udp _ -> t.c.Cost.udp_in +. pcb
    | Packet.Tcp _ -> t.c.Cost.tcp_in +. pcb
    | Packet.Icmp _ -> t.c.Cost.udp_in
    | Packet.Fragment _ -> 0.
  in
  c.(0) <- t.c.Cost.eager_penalty *. base

(* ------------------------------------------------------------------ *)
(* BSD receive path                                                     *)
(* ------------------------------------------------------------------ *)

(* Completion discovered while processing a fragment: the transport
   processing of the whole datagram is a separate softint activation.
   Fragments arrive without a handle; the whole is freed by bytes, as its
   pieces were allocated. *)
let post_reasm_complete t whole ~skip_pcb =
  stage_transport_cost t whole ~skip_pcb (Cpu.stage t.cpu);
  Cpu.post_soft_to t.cpu ~label:"ip-reasm-complete"
    ~tpkt:whole.Packet.ip.Packet.ident ~poll:false t.tg.reasm_complete whole 0

(* The BSD softint's cost for [pkt], into [c.(0)]. *)
let stage_bsd_soft_cost t (pkt : Packet.t) c =
  if not (is_local_addr t (Packet.dst pkt)) && not (Packet.is_multicast pkt)
  then
    (* Transit packet: IP forwarding (or discard) in softint context. *)
    c.(0) <-
      t.c.Cost.soft_dispatch +. t.c.Cost.ipq_op
      +. (t.c.Cost.eager_penalty *. (t.c.Cost.ip_in +. t.c.Cost.ip_forward))
  else begin
    let frag = Packet.is_fragment pkt in
    let frag_extra =
      if frag then t.c.Cost.eager_penalty *. t.c.Cost.reasm_per_frag else 0.
    in
    if frag then c.(0) <- 0. else stage_transport_cost t pkt ~skip_pcb:false c;
    c.(0) <-
      t.c.Cost.soft_dispatch +. t.c.Cost.ipq_op
      +. (t.c.Cost.eager_penalty *. t.c.Cost.ip_in)
      +. frag_extra +. c.(0) +. t.c.Cost.sockbuf_append
  end

(* IP forwarding (or discard) of a transit packet in softint context. *)
let forward_or_drop t pkt ~mh =
  free_rx_pkt t ~mh (Packet.wire_bytes pkt);
  if t.cfg.forwarding then begin
    t.stats.forwarded <- t.stats.forwarded + 1;
    ip_output t pkt
  end
  else t.stats.fwd_drops <- t.stats.fwd_drops + 1

let bsd_softnet t pkt ~mh =
  t.ipq_len <- t.ipq_len - 1;
  if not (is_local_addr t (Packet.dst pkt)) && not (Packet.is_multicast pkt)
  then forward_or_drop t pkt ~mh
  else
    let whole = Ip.Reasm.insert t.reasm ~clock:(Engine.clock_cell t.engine) pkt in
    (* [Packet.null]: incomplete datagram; fragments wait in the
       reassembler. *)
    if whole != Packet.null then
      if Packet.is_fragment pkt then post_reasm_complete t whole ~skip_pcb:false
      else bsd_transport_input t whole ~mh

let bsd_driver_rx t pkt =
  (* Non-fragment datagrams carry their mbuf reservation as a handle from
     here to the copyout (or drop) site; fragment reservations are
     recounted by bytes because the reassembled whole's footprint differs
     from the sum of its pieces. *)
  let is_frag = Packet.is_fragment pkt in
  let mh =
    if is_frag then Mbuf.no_handle
    else Mbuf.alloc_h t.mbufs ~bytes:(Packet.wire_bytes pkt)
  in
  let alloc_ok =
    if is_frag then Mbuf.alloc t.mbufs ~bytes:(Packet.wire_bytes pkt)
    else mh >= 0
  in
  if not alloc_ok then begin
    t.stats.mbuf_drops <- t.stats.mbuf_drops + 1;
    Trace.mbuf_drop t.tracer ~pkt:pkt.Packet.ip.Packet.ident
  end
  else if t.ipq_len >= t.cfg.ip_queue_limit then begin
    (* The shared IP queue is full: the drop point that couples unrelated
       sockets under BSD (section 2.2). *)
    t.stats.ipq_drops <- t.stats.ipq_drops + 1;
    Trace.ipq_drop t.tracer ~pkt:pkt.Packet.ip.Packet.ident ~qlen:t.ipq_len;
    free_rx_pkt t ~mh (Packet.wire_bytes pkt)
  end
  else begin
    t.ipq_len <- t.ipq_len + 1;
    if t.ipq_len > t.stats.ipq_hwm then t.stats.ipq_hwm <- t.ipq_len;
    Trace.ipq_enqueue t.tracer ~pkt:pkt.Packet.ip.Packet.ident
      ~qlen:t.ipq_len;
    stage_bsd_soft_cost t pkt (Cpu.stage t.cpu);
    Cpu.post_soft_to t.cpu ~label:"softnet" ~tpkt:pkt.Packet.ip.Packet.ident
      ~poll:false t.tg.softnet pkt mh
  end

(* ------------------------------------------------------------------ *)
(* NAPI receive path (Napi / Napi_gro / Rss)                            *)
(* ------------------------------------------------------------------ *)

(* RSS steering: hash the packed flow key — the same [hi]/[lo] integer
   packing the Flowtab demux probe uses, so steering allocates nothing
   and performs no structural hashing — onto a queue index.  A pure
   function of packet fields, so queue placement is seed-stable and
   shard-count independent.  Fragments (including the first) steer by IP
   ident so every piece of one datagram lands on the same ring. *)
let rss_steer pkt ~queues =
  let frag = Packet.is_fragment pkt in
  let sp =
    if frag then pkt.Packet.ip.Packet.ident land 0xffff
    else Packet.src_port_or_zero pkt
  in
  let dp = if frag then 0 else Packet.dst_port_or_zero pkt in
  let hi = (Packet.src pkt lsl 2) lxor Packet.dst pkt in
  let lo = (sp lsl 16) lor (dp land 0xffff) in
  let h = hi lxor (lo * 0x9E37_79B1) in
  let h = h lxor (h lsr 16) in
  (h land max_int) mod queues

(* GRO train cap, the analogue of the 64 kB aggregation limit. *)
let gro_max_segs = 16

let napi_add n pkt mh frag =
  let i = n.b_len in
  n.b_pkt.(i) <- pkt;
  n.b_mh.(i) <- mh;
  n.b_frag.(i) <- frag;
  n.b_len <- i + 1

(* Add the protocol-processing cost of one polled packet to the batch:
   the BSD softint work minus the parts the poll loop does not repeat per
   packet (softirq dispatch, shared-IP-queue churn).  The per-packet ring
   dequeue is charged separately ([poll_dequeue]). *)
let napi_add_proto_cost t n pkt =
  let s = Cpu.stage t.cpu in
  stage_bsd_soft_cost t pkt s;
  n.nf.(nf_cost) <-
    n.nf.(nf_cost) +. (s.(0) -. t.c.Cost.soft_dispatch -. t.c.Cost.ipq_op)

(* Admit one packet the BSD way: reserve its mbufs (drop on pool
   exhaustion) and charge full eager protocol processing. *)
let napi_admit t n pkt =
  let frag = Packet.is_fragment pkt in
  let bytes = Packet.wire_bytes pkt in
  let mh = if frag then Mbuf.no_handle else Mbuf.alloc_h t.mbufs ~bytes in
  let ok = if frag then Mbuf.alloc t.mbufs ~bytes else mh >= 0 in
  if not ok then begin
    t.stats.mbuf_drops <- t.stats.mbuf_drops + 1;
    Trace.mbuf_drop t.tracer ~pkt:pkt.Packet.ip.Packet.ident
  end
  else begin
    napi_add_proto_cost t n pkt;
    napi_add n pkt mh frag
  end

(* GRO may only merge a packet whose merging cannot change what the
   shared protocol code would compute: local unicast, checksum already
   verified (GRO runs after hardware checksum validation), not a
   fragment. *)
let gro_candidate t pkt =
  (not (Packet.is_fragment pkt))
  && (not (Packet.is_multicast pkt))
  && is_local_addr t (Packet.dst pkt)
  && Packet.verify pkt

(* A TCP segment is mergeable when it also carries data and no
   connection-state flags. *)
let tcp_mergeable t pkt =
  gro_candidate t pkt
  &&
  match pkt.Packet.body with
  | Packet.Tcp (h, pl) ->
      Payload.length pl > 0
      && not
           (h.Packet.flags.Packet.syn || h.Packet.flags.Packet.fin
          || h.Packet.flags.Packet.rst)
  | Packet.Udp _ | Packet.Icmp _ | Packet.Fragment _ -> false

let udp_mergeable t pkt =
  gro_candidate t pkt
  &&
  match pkt.Packet.body with
  | Packet.Udp _ -> true
  | Packet.Tcp _ | Packet.Icmp _ | Packet.Fragment _ -> false

let same_flow (a : Packet.t) (b : Packet.t) =
  Packet.src a = Packet.src b
  && Packet.dst a = Packet.dst b
  &&
  match a.Packet.body with
  | Packet.Tcp (x, _) -> (
      match b.Packet.body with
      | Packet.Tcp (y, _) ->
          x.Packet.tsrc_port = y.Packet.tsrc_port
          && x.Packet.tdst_port = y.Packet.tdst_port
      | Packet.Udp _ | Packet.Icmp _ | Packet.Fragment _ -> false)
  | Packet.Udp (x, _) -> (
      match b.Packet.body with
      | Packet.Udp (y, _) ->
          x.Packet.usrc_port = y.Packet.usrc_port
          && x.Packet.udst_port = y.Packet.udst_port
      | Packet.Tcp _ | Packet.Icmp _ | Packet.Fragment _ -> false)
  | Packet.Icmp _ | Packet.Fragment _ -> false

(* Merge a TCP train into one super-segment: head's ident and seq, last
   segment's ack/window (and PSH), payloads glued, content checksum
   recomputed so the merged segment still verifies.  The merged segment
   is new simulated data, so building it allocates. *)
let merge_train ps =
  let head = List.hd ps in
  let last = List.nth ps (List.length ps - 1) in
  match head.Packet.body, last.Packet.body with
  | Packet.Tcp (th, _), Packet.Tcp (tl, _) ->
      let payload =
        Payload.concat
          (List.map
             (fun p ->
               match p.Packet.body with
               | Packet.Tcp (_, pl) -> pl
               | _ -> assert false)
             ps)
      in
      let hdr =
        { th with
          Packet.ack_no = tl.Packet.ack_no;
          window = tl.Packet.window;
          flags =
            { th.Packet.flags with Packet.psh = tl.Packet.flags.Packet.psh } }
      in
      let merged =
        { Packet.ip = head.Packet.ip; body = Packet.Tcp (hdr, payload) }
      in
      { merged with
        Packet.ip =
          { merged.Packet.ip with Packet.csum = Packet.checksum merged } }
  | _ -> assert false

(* The train's packets from index [i] down to [b_len], prepended to
   [acc]: the whole train, oldest first, from its last index. *)
let rec train_list n i acc =
  if i < n.b_len then acc
  (* alloc: cold — TCP GRO: the merged super-segment's input list *)
  else train_list n (i - 1) (n.b_pkt.(i) :: acc)

(* Flush the held train into the batch.  A lone frame is admitted as
   itself; a UDP train shares one IP/UDP protocol pass (fraglist-style:
   the head pays full cost, each absorbed datagram pays merge + deposit
   and is still deposited individually); a TCP train enters protocol
   processing as one merged super-segment, which stays on byte accounting
   because its wire footprint differs from any single reservation.  The
   train's frames are read from [b_len] up while the admitted items are
   written from [b_len] up, so the write index never passes the read
   index. *)
let napi_flush t n =
  let len = n.tr_len and start = n.b_len in
  if len = 1 then begin
    n.tr_len <- 0;
    napi_admit t n n.b_pkt.(start)
  end
  else if len > 1 then begin
    let head = n.b_pkt.(start) in
    let hid = head.Packet.ip.Packet.ident in
    for i = start + 1 to start + len - 1 do
      Trace.gro_merge t.tracer ~pkt:n.b_pkt.(i).Packet.ip.Packet.ident
        ~into:hid
    done;
    if n.tr_udp then begin
      n.tr_len <- 0;
      napi_admit t n head;
      for i = start + 1 to start + len - 1 do
        let p = n.b_pkt.(i) in
        let mh = Mbuf.alloc_h t.mbufs ~bytes:(Packet.wire_bytes p) in
        if mh < 0 then begin
          t.stats.mbuf_drops <- t.stats.mbuf_drops + 1;
          Trace.mbuf_drop t.tracer ~pkt:p.Packet.ip.Packet.ident
        end
        else begin
          n.nf.(nf_cost) <-
            n.nf.(nf_cost) +. t.c.Cost.gro_merge +. t.c.Cost.sockbuf_append;
          napi_add n p mh false
        end
      done
    end
    else begin
      let merged = merge_train (train_list n (start + len - 1) []) in
      n.tr_len <- 0;
      let bytes = Packet.wire_bytes merged in
      if not (Mbuf.alloc t.mbufs ~bytes) then begin
        t.stats.mbuf_drops <- t.stats.mbuf_drops + 1;
        Trace.mbuf_drop t.tracer ~pkt:hid
      end
      else begin
        napi_add_proto_cost t n merged;
        n.nf.(nf_cost) <-
          n.nf.(nf_cost) +. (float_of_int (len - 1) *. t.c.Cost.gro_merge);
        napi_add n merged Mbuf.no_handle false
      end
    end;
    Trace.gro_flush t.tracer ~pkt:hid ~segs:len
  end;
  (* Train slots past the batch (dropped frames, merged segments) must
     not pin their frames. *)
  for i = n.b_len to start + len - 1 do
    n.b_pkt.(i) <- Packet.null
  done

(* Start a train with [pkt] just past the committed items. *)
let train_start n pkt ~udp =
  n.b_pkt.(n.b_len) <- pkt;
  n.tr_len <- 1;
  n.tr_udp <- udp

let train_push n pkt =
  n.b_pkt.(n.b_len + n.tr_len) <- pkt;
  n.tr_len <- n.tr_len + 1

(* Receive-offload aggregation of one dequeued frame. *)
let rec napi_consider t n pkt =
  if n.tr_len = 0 then begin
    if tcp_mergeable t pkt then begin
      train_start n pkt ~udp:false;
      match pkt.Packet.body with
      | Packet.Tcp (h, pl) ->
          n.tr_next_seq <- h.Packet.seq + Payload.length pl;
          if h.Packet.flags.Packet.psh then napi_flush t n
      | Packet.Udp _ | Packet.Icmp _ | Packet.Fragment _ -> ()
    end
    else if udp_mergeable t pkt then train_start n pkt ~udp:true
    else napi_admit t n pkt
  end
  else if n.tr_udp then begin
    if udp_mergeable t pkt && same_flow n.b_pkt.(n.b_len) pkt then begin
      train_push n pkt;
      if n.tr_len >= gro_max_segs then napi_flush t n
    end
    else begin
      napi_flush t n;
      napi_consider t n pkt
    end
  end
  else if
    tcp_mergeable t pkt
    && same_flow n.b_pkt.(n.b_len) pkt
    &&
    match pkt.Packet.body with
    | Packet.Tcp (h, _) -> h.Packet.seq = n.tr_next_seq
    | Packet.Udp _ | Packet.Icmp _ | Packet.Fragment _ -> false
  then begin
    train_push n pkt;
    match pkt.Packet.body with
    | Packet.Tcp (h, pl) ->
        n.tr_next_seq <- h.Packet.seq + Payload.length pl;
        (* PSH marks an application-visible boundary: merge, then flush,
           as Linux GRO does. *)
        if h.Packet.flags.Packet.psh || n.tr_len >= gro_max_segs then
          napi_flush t n
    | Packet.Udp _ | Packet.Icmp _ | Packet.Fragment _ -> ()
  end
  else begin
    napi_flush t n;
    napi_consider t n pkt
  end

(* Pull up to [napi_budget] frames off the queue's ring, reserve their
   mbufs, and — under [Napi_gro] — run receive-offload aggregation.
   Leaves the batch in delivery order in the queue's columns, the CPU
   cost of processing it in [nf.(nf_cost)] and the number of frames
   served (the poll loop's "work done" that is compared against the
   budget) in [b_served]. *)
let napi_collect t n =
  let budget = t.cfg.napi_budget in
  let gro = t.cfg.arch = Napi_gro in
  n.b_len <- 0;
  n.b_served <- 0;
  n.nf.(nf_cost) <- 0.;
  let more = ref true in
  while !more && n.b_served < budget do
    let pkt = Nic.rxq_pop t.nic n.nq in
    if pkt == Packet.null then more := false
    else begin
      n.b_served <- n.b_served + 1;
      n.nf.(nf_cost) <- n.nf.(nf_cost) +. t.c.Cost.poll_dequeue;
      if gro then napi_consider t n pkt else napi_admit t n pkt
    end
  done;
  if gro then napi_flush t n

(* Deliver item [i] of the batch: the same terminal processing as the
   BSD softint path, minus the shared IP queue. *)
let napi_deliver t n i =
  let pkt = n.b_pkt.(i) and mh = n.b_mh.(i) in
  n.b_pkt.(i) <- Packet.null;
  if not (is_local_addr t (Packet.dst pkt)) && not (Packet.is_multicast pkt)
  then forward_or_drop t pkt ~mh
  else
    let whole = Ip.Reasm.insert t.reasm ~clock:(Engine.clock_cell t.engine) pkt in
    (* [Packet.null]: incomplete datagram; fragments wait in the
       reassembler. *)
    if whole != Packet.null then
      if n.b_frag.(i) then post_reasm_complete t whole ~skip_pcb:false
      else bsd_transport_input t whole ~mh

(* Deliver the whole batch in order. *)
let napi_deliver_all t n =
  for i = 0 to n.b_len - 1 do
    napi_deliver t n i
  done;
  n.b_len <- 0

(* The softirq poll chain.  Each round is two softirq work items: a fixed
   [poll_loop] charge whose action dequeues the batch (so the batch
   reflects the ring at dequeue time), then a batch-sized charge whose
   action runs protocol processing and decides how to continue:

   - ring empty -> this polling episode is over: unmask the interrupt
     (frames that slipped in while masked re-raise it immediately; the
     re-enable race is closed in the NIC);
   - episode served >= budget with backlog -> the softirq level has done
     its fair quantum of work: hand polling to ksoftirqd;
   - otherwise -> another softirq round.

   Unmasking only on a {e truly} empty ring is what prevents the
   interrupt storm: a "served < budget" test would re-enable while
   arrivals during delivery still sit in the ring, and sustained load
   would then be serviced entirely at interrupt priority. *)
let napi_post_poll t n =
  (Cpu.stage t.cpu).(0) <- t.c.Cost.poll_loop;
  Cpu.post_soft_to t.cpu ~label:"napi-poll" ~tpkt:(-1) ~poll:true
    t.tg.napi_round n 0

let napi_softirq_round t n =
  Trace.poll_begin t.tracer ~q:n.nq ~pending:(Nic.rxq_len t.nic n.nq);
  napi_collect t n;
  (Cpu.stage t.cpu).(0) <- n.nf.(nf_cost);
  Cpu.post_soft_to t.cpu ~label:"napi-poll" ~tpkt:(-1) ~poll:true
    t.tg.napi_deliver n 0

let napi_deliver_batch t n =
  let served = n.b_served in
  napi_deliver_all t n;
  Trace.poll_end t.tracer ~q:n.nq ~served;
  n.episode <- n.episode + served;
  n.nf.(nf_last_poll) <- (Engine.clock_cell t.engine).(0);
  if n.episode >= t.cfg.napi_budget then begin
    n.in_ksoftirqd <- true;
    wake_one t n.ksoftirqd_wq
  end
  else if Nic.rxq_len t.nic n.nq = 0 then begin
    (* Ring drained with budget to spare: unmask.  [episode] is kept —
       if the next kick lands within [napi_storm_gap] it continues
       this episode, so a sustained flood still reaches the budget
       and defers to ksoftirqd. *)
    n.poll_on <- false;
    Nic.rxq_enable_intr t.nic n.nq
  end
  else napi_post_poll t n

(* The mitigated interrupt: ack, mask the queue, schedule the poll —
   constant cost, no per-packet work (the NAPI contract). *)
let napi_kick t qi =
  (Cpu.stage t.cpu).(0) <- t.c.Cost.napi_irq;
  Cpu.post_hard_to t.cpu ~label:"napi-irq" ~tpkt:(-1) t.tg.napi_irq () qi

let napi_irq t qi =
  Nic.rxq_disable_intr t.nic qi;
  let n = t.napi.(qi) in
  if not n.poll_on then begin
    n.poll_on <- true;
    (* A quiet spell since the last poll round ends the episode; a
       kick inside the storm gap continues it (and its budget). *)
    if (Engine.clock_cell t.engine).(0) -. n.nf.(nf_last_poll) > napi_storm_gap
    then
      n.episode <- 0;
    napi_post_poll t n
  end

(* Process-context polling: once a softirq chain defers, the queue's
   ksoftirqd repolls under the fair scheduler — poll cycles now compete
   with application processes instead of preempting them, and the ledger
   attributes them to {!Ledger.Poll} via {!Cpu.compute_poll}.

   An empty ring does not immediately end the hand-off: the interrupt
   stays masked and the next poll is deferred by half the storm gap
   (Linux's [napi_defer_hard_irqs]/[gro_flush_timeout] IRQ deferral).
   Without the grace poll, a flood whose interarrival time exceeds one
   poll cycle would momentarily drain the ring, bounce straight back to
   interrupt mode, and re-earn the deferral 64 packets later — spending
   most of its life back at softirq priority.

   The loop is two top-level recursions over the queue's own record, so
   a poll builds no closure. *)
let rec ksoftirqd_wait t n =
  if not n.in_ksoftirqd then begin
    Proc.block n.ksoftirqd_wq;
    ksoftirqd_wait t n
  end
  else ksoftirqd_poll t n 0

and ksoftirqd_poll t n quiet =
  Trace.poll_begin t.tracer ~q:n.nq ~pending:(Nic.rxq_len t.nic n.nq);
  (Cpu.stage t.cpu).(0) <- t.c.Cost.poll_loop;
  Cpu.compute_poll t.cpu ~flow:(-1);
  napi_collect t n;
  (Cpu.stage t.cpu).(0) <- n.nf.(nf_cost);
  Cpu.compute_poll t.cpu ~flow:(-1);
  let served = n.b_served in
  napi_deliver_all t n;
  Trace.poll_end t.tracer ~q:n.nq ~served;
  if served > 0 || Nic.rxq_len t.nic n.nq > 0 then ksoftirqd_poll t n 0
  else if quiet >= 1 then begin
    (* Two consecutive quiet polls: back to interrupt mode. *)
    n.in_ksoftirqd <- false;
    n.poll_on <- false;
    n.episode <- 0;
    Nic.rxq_enable_intr t.nic n.nq;
    ksoftirqd_wait t n
  end
  else begin
    (* IRQ deferral: hold the interrupt masked, sleep [napi_repoll],
       grace poll.  Only this timer targets the waitq while
       [in_ksoftirqd] is set, so the wake below cannot be stolen. *)
    napi_grace_rearm t n;
    Proc.block n.ksoftirqd_wq;
    ksoftirqd_poll t n (quiet + 1)
  end

let ksoftirqd_loop t n = ksoftirqd_wait t n

(* ------------------------------------------------------------------ *)
(* LRP receive path (shared by SOFT-LRP and NI-LRP)                     *)
(* ------------------------------------------------------------------ *)

(* Wake a consumer from NI context.  Under soft demux we are already in a
   hardware interrupt, so the wake is immediate; under NI demux the NI must
   raise a (cheap) host interrupt to do it. *)
let ni_intr t tgt v =
  (Cpu.stage t.cpu).(0) <- t.c.Cost.ni_wakeup_intr;
  Cpu.post_hard_to t.cpu ~label:"ni-intr" ~tpkt:(-1) tgt v 0

let ni_wake t wq =
  match t.cfg.arch with
  | Ni_lrp -> ni_intr t t.tg.ni_wake wq
  | Soft_lrp | Bsd | Early_demux | Napi | Napi_gro | Rss -> wake_one t wq

let rec wake_members t = function
  | [] -> ()
  | (m : Socket.t) :: rest ->
      wake_one t m.Socket.recv_wait;
      wake_members t rest

let ni_wake_members t members =
  match t.cfg.arch with
  | Ni_lrp -> ni_intr t t.tg.ni_wake_members members
  | Soft_lrp | Bsd | Early_demux | Napi | Napi_gro | Rss ->
      wake_members t !members

let ni_wake_app t conn ch =
  match t.cfg.arch with
  | Ni_lrp -> ni_intr t t.tg.ni_app (conn, ch)
  | Soft_lrp | Bsd | Early_demux | Napi | Napi_gro | Rss ->
      app_post_chan t conn ch

let lrp_classify_rx t pkt =
  if not (is_local_addr t (Packet.dst pkt)) && not (Packet.is_multicast pkt)
  then begin
    (* Transit packet: demultiplexed straight onto the IP-forwarding
       daemon's channel (section 3.5), or discarded if this host is not a
       gateway. *)
    if t.cfg.forwarding then begin
      if Channel.enqueue_code (Chantab.fwd_channel t.chantab) pkt
         = Channel.queued_was_empty
      then ni_wake t t.fwd_wq
    end
    else t.stats.fwd_drops <- t.stats.fwd_drops + 1
  end
  else
  (* Classification runs without materialising the [Demux.flow] variant:
     [resolve_slot] does the packed-key probe straight off the packet
     fields and answers with an int slot code, and the
     constant-constructor class drives the wake logic — the whole demux
     decision allocates nothing. *)
  let cls = Demux.class_of_packet pkt in
  let slot = Chantab.resolve_slot t.chantab pkt in
  if slot = Chantab.slot_none then begin
      Trace.demux t.tracer ~pkt:pkt.Packet.ip.Packet.ident ~chan:(-1)
        ~flow:(Demux.flow_id_of_packet pkt);
      (match cls with
       | Demux.Tcp_class ->
           (* No endpoint: the protocol-proxy daemon answers with an RST on
              its own time (section 3.5). *)
           if Channel.enqueue_code (Chantab.icmp_channel t.chantab) pkt
              = Channel.queued_was_empty
              && t.cfg.udp_helper
           then ni_wake t t.helper_wq
       | Demux.Udp_class | Demux.Frag_class | Demux.Icmp_class ->
           t.stats.demux_drops <- t.stats.demux_drops + 1)
  end
  else
      let ch = Chantab.channel_of_slot t.chantab slot in
      Trace.demux t.tracer ~pkt:pkt.Packet.ip.Packet.ident
        ~chan:(Channel.id ch) ~flow:(Demux.flow_id_of_packet pkt);
      let code = Channel.enqueue_code ch pkt in
      (if code = Channel.discarded_code then
         (* Early packet discard, counted per channel. *)
         Trace.early_discard t.tracer ~pkt:pkt.Packet.ip.Packet.ident
           ~chan:(Channel.id ch)
       else
         let was_empty = code = Channel.queued_was_empty in
         (match cls with
            | Demux.Udp_class ->
                if Channel.interrupt_requested ch then begin
                  Channel.clear_interrupt_request ch;
                  let port = Demux.udp_dst_port_of_packet pkt in
                  if Hashtbl.mem t.mcast_members port then
                    ni_wake_members t (Hashtbl.find t.mcast_members port)
                  else
                    match Hashtbl.find t.chan_sock (Channel.id ch) with
                    | sock -> ni_wake t sock.Socket.recv_wait
                    | exception Not_found -> ()
                end
                else if t.cfg.udp_helper && was_empty then
                  (* Nobody is waiting: let the minimal-priority protocol
                     thread pick it up if the CPU is otherwise idle
                     (section 3.3). *)
                  ni_wake t t.helper_wq
            | Demux.Tcp_class ->
                if Trace.enabled t.tracer then
                  trc t "rx tcp chan %d len=%d trans=%s" (Channel.id ch)
                    (Channel.length ch)
                    (if was_empty then "empty" else "ne");
                (* The APP thread drains until empty, so only the
                   empty-to-non-empty transition needs a notification —
                   under NI demux that keeps host interrupts rare. *)
                if was_empty then
                  (match Hashtbl.find t.chan_conn (Channel.id ch) with
                   | conn -> ni_wake_app t conn ch
                   | exception Not_found ->
                       if Trace.enabled t.tracer then
                         trc t "rx tcp chan %d: NO CONN" (Channel.id ch))
            | Demux.Frag_class ->
                (* Fragments needing reassembly: the helper integrates them
                   if no receiver does it lazily first. *)
                if t.cfg.udp_helper && was_empty then
                  ni_wake t t.helper_wq
            | Demux.Icmp_class ->
                if t.cfg.udp_helper && was_empty then
                  ni_wake t t.helper_wq))

(* ------------------------------------------------------------------ *)
(* Early-Demux receive path                                             *)
(* ------------------------------------------------------------------ *)

let edemux_drop t pkt =
  t.stats.edemux_early_drops <- t.stats.edemux_early_drops + 1;
  Trace.early_discard t.tracer ~pkt:pkt.Packet.ip.Packet.ident ~chan:(-1)

(* Eager protocol processing of a packet that passed the early check.
   Early demux has already found the endpoint, so the transport cost
   skips the PCB lookup. *)
let edemux_eager t pkt =
  let is_frag = Packet.is_fragment pkt in
  let c = Cpu.stage t.cpu in
  let frag_extra =
    if is_frag then t.c.Cost.eager_penalty *. t.c.Cost.reasm_per_frag
    else 0.
  in
  if is_frag then c.(0) <- 0. else stage_transport_cost t pkt ~skip_pcb:true c;
  let cost =
    t.c.Cost.soft_dispatch
    +. (t.c.Cost.eager_penalty *. t.c.Cost.ip_in)
    +. frag_extra +. c.(0) +. t.c.Cost.sockbuf_append
  in
  let mh =
    if is_frag then Mbuf.no_handle
    else Mbuf.alloc_h t.mbufs ~bytes:(Packet.wire_bytes pkt)
  in
  let alloc_ok =
    if is_frag then Mbuf.alloc t.mbufs ~bytes:(Packet.wire_bytes pkt)
    else mh >= 0
  in
  if not alloc_ok then begin
    t.stats.mbuf_drops <- t.stats.mbuf_drops + 1;
    Trace.mbuf_drop t.tracer ~pkt:pkt.Packet.ip.Packet.ident
  end
  else begin
    c.(0) <- cost;
    Cpu.post_soft_to t.cpu ~label:"softnet" ~tpkt:pkt.Packet.ip.Packet.ident
      ~poll:false t.tg.edemux_softnet pkt mh
  end

let edemux_softnet t pkt mh =
  let whole = Ip.Reasm.insert t.reasm ~clock:(Engine.clock_cell t.engine) pkt in
  if whole != Packet.null then
    if Packet.is_fragment pkt then post_reasm_complete t whole ~skip_pcb:true
    else bsd_transport_input t whole ~mh

(* The early check of a TCP segment: discard when the connection's
   receive buffer is full, or when a SYN finds a full listen backlog. *)
let edemux_tcp t pkt =
  let dport = Packet.dst_port_or_zero pkt in
  match find_conn t pkt ~dport with
  | Some conn ->
      if conn.Tcp.rcvq_bytes >= conn.Tcp.rcv_buf_limit then edemux_drop t pkt
      else edemux_eager t pkt
  | None ->
      if Demux.syn_only_of_packet pkt then
        match Hashtbl.find t.tcp_listeners dport with
        | l ->
            if l.Tcp.syn_pending + Queue.length l.Tcp.accept_queue
               >= l.Tcp.backlog
            then edemux_drop t pkt
            else edemux_eager t pkt
        | exception Not_found ->
            (* No endpoint: process eagerly so TCP answers with an RST, as
               the BSD code this kernel is derived from does. *)
            edemux_eager t pkt
      else edemux_eager t pkt

let edemux_rx t pkt =
  if not (is_local_addr t (Packet.dst pkt)) && not (Packet.is_multicast pkt)
  then begin
    if t.cfg.forwarding then begin
      (Cpu.stage t.cpu).(0) <-
        t.c.Cost.soft_dispatch
        +. (t.c.Cost.eager_penalty *. (t.c.Cost.ip_in +. t.c.Cost.ip_forward));
      Cpu.post_soft_to t.cpu ~label:"ip-forward" ~tpkt:(-1) ~poll:false
        t.tg.edemux_forward pkt 0
    end
    else t.stats.fwd_drops <- t.stats.fwd_drops + 1
  end
  else begin
    (* Classified like the LRP path: the constant class and the int
       accessors, without materialising the [Demux.flow] variant. *)
    Trace.demux t.tracer ~pkt:pkt.Packet.ip.Packet.ident ~chan:(-1)
      ~flow:(Demux.flow_id_of_packet pkt);
    match Demux.class_of_packet pkt with
    | Demux.Udp_class -> (
        match Hashtbl.find t.udp_ports (Demux.udp_dst_port_of_packet pkt) with
        | exception Not_found -> edemux_drop t pkt
        | sock ->
            (* Early discard on a full receiver queue — but processing
               stays eager. *)
            if Socket.ready_count sock >= sock.Socket.udp_rcv_limit then
              edemux_drop t pkt
            else edemux_eager t pkt)
    | Demux.Tcp_class -> edemux_tcp t pkt
    | Demux.Frag_class | Demux.Icmp_class -> edemux_eager t pkt
  end

(* ------------------------------------------------------------------ *)
(* NIC receive dispatch                                                 *)
(* ------------------------------------------------------------------ *)

let rx_dispatch t pkt =
  t.stats.rx_frames <- t.stats.rx_frames + 1;
  let stage = Cpu.stage t.cpu in
  match t.cfg.arch with
  | Bsd ->
      stage.(0) <- t.c.Cost.hard_rx +. t.c.Cost.ipq_op;
      Cpu.post_hard_to t.cpu ~label:"rx-intr" ~tpkt:pkt.Packet.ip.Packet.ident
        t.tg.rx_intr pkt 0
  | Soft_lrp ->
      (* Soft demux: classification runs in the hardware interrupt. *)
      stage.(0) <- t.c.Cost.hard_rx +. t.c.Cost.demux;
      Cpu.post_hard_to t.cpu ~label:"rx-demux"
        ~tpkt:pkt.Packet.ip.Packet.ident t.tg.rx_demux pkt 0
  | Ni_lrp ->
      (* NI demux: classification runs on the interface's embedded
         processor — zero host CPU. *)
      lrp_classify_rx t pkt
  | Early_demux ->
      stage.(0) <- t.c.Cost.hard_rx +. t.c.Cost.demux;
      Cpu.post_hard_to t.cpu ~label:"rx-demux"
        ~tpkt:pkt.Packet.ip.Packet.ident t.tg.edemux_intr pkt 0
  | Napi | Napi_gro | Rss ->
      (* Only non-queued interfaces reach this handler (the primary NIC
         runs in queued-RX mode and hands frames to the poll loop without
         going through it); secondary interfaces of a multi-homed host
         fall back to the eager BSD path. *)
      stage.(0) <- t.c.Cost.hard_rx +. t.c.Cost.ipq_op;
      Cpu.post_hard_to t.cpu ~label:"rx-intr" ~tpkt:pkt.Packet.ip.Packet.ident
        t.tg.rx_intr pkt 0

(* Register the receive path's typed CPU work handlers (see
   [rx_targets]). *)
let register_rx_targets t =
  let tg f = Cpu.target t.cpu f in
  t.tg <-
    { rx_intr = tg (fun pkt _ -> bsd_driver_rx t pkt);
      rx_demux = tg (fun pkt _ -> lrp_classify_rx t pkt);
      edemux_intr = tg (fun pkt _ -> edemux_rx t pkt);
      softnet = tg (fun pkt mh -> bsd_softnet t pkt ~mh);
      edemux_softnet = tg (fun pkt mh -> edemux_softnet t pkt mh);
      edemux_forward =
        tg (fun pkt _ ->
            t.stats.forwarded <- t.stats.forwarded + 1;
            ip_output t pkt);
      reasm_complete =
        tg (fun whole _ -> bsd_transport_input t whole ~mh:Mbuf.no_handle);
      ni_wake = tg (fun wq _ -> wake_one t wq);
      ni_wake_members = tg (fun members _ -> wake_members t !members);
      ni_app = tg (fun (conn, ch) _ -> app_post_chan t conn ch);
      napi_irq = tg (fun () qi -> napi_irq t qi);
      napi_round = tg (fun n _ -> napi_softirq_round t n);
      napi_deliver = tg (fun n _ -> napi_deliver_batch t n) }

(* ------------------------------------------------------------------ *)
(* Lazy UDP protocol processing (LRP receive path, section 3.3)         *)
(* ------------------------------------------------------------------ *)

(* Pull any queued fragments for pending reassemblies out of the special
   fragment channel and integrate them, charging each as protocol work on
   [flow] in the current process context.  Returns the completed
   datagrams, most recently completed first. *)
let drain_frag_channel t ~flow =
  let frag_ch = Chantab.frag_channel t.chantab in
  let frags = Channel.extract frag_ch (fun _ -> true) in
  List.fold_left
    (* alloc: cold — fragments and reassembly *)
    (fun completed pkt ->
      (Cpu.stage t.cpu).(0) <- t.c.Cost.reasm_per_frag +. t.c.Cost.ip_in;
      Cpu.compute_proto t.cpu ~flow;
      let whole =
        Ip.Reasm.insert t.reasm ~clock:(Engine.clock_cell t.engine) pkt
      in
      (* alloc: cold — fragments and reassembly *)
      if whole == Packet.null then completed else whole :: completed)
    [] frags

(* Charge the lazy UDP input of one completed datagram. *)
let charge_udp_in t ~flow =
  (Cpu.stage t.cpu).(0) <- t.c.Cost.lazy_locality *. t.c.Cost.udp_in;
  Cpu.compute_proto t.cpu ~flow

(* Process one raw packet taken from UDP channel [ch], in the current
   process context, charging every step as protocol work on the channel.
   Returns the completed datagram, or [Packet.null] when none completed
   here: an incomplete fragment, or datagrams completed from the
   fragment channel, which are charged and delivered before returning. *)
let lrp_process_udp_raw t ch pkt =
  let flow = Channel.id ch in
  (* Lazy protocol processing starts here, in the receiver's own context;
     the deposit that follows the charges closes the proc-proto stage. *)
  Trace.proto_deliver t.tracer ~pkt:pkt.Packet.ip.Packet.ident ~conn:(-1)
    ~in_proc:true;
  (* Channel buffer management, plus the NI-memory access under NI
     demux. *)
  let c = Cpu.stage t.cpu in
  c.(0) <-
    t.c.Cost.sockq
    +. (match t.cfg.arch with
        | Ni_lrp -> t.c.Cost.ni_channel_access
        | Bsd | Soft_lrp | Early_demux | Napi | Napi_gro | Rss -> 0.);
  Cpu.compute_proto t.cpu ~flow;
  c.(0) <-
    t.c.Cost.lazy_locality
    *. (t.c.Cost.ip_in
        +. if Packet.is_fragment pkt then t.c.Cost.reasm_per_frag else 0.);
  Cpu.compute_proto t.cpu ~flow;
  let whole = Ip.Reasm.insert t.reasm ~clock:(Engine.clock_cell t.engine) pkt in
  if whole != Packet.null then begin
    charge_udp_in t ~flow;
    whole
  end
  else begin
    (* Missing fragments: check the special fragment channel
       (section 3.2). *)
    let completed = drain_frag_channel t ~flow in
    (* alloc: cold — fragments and reassembly *)
    List.iter (fun _ -> charge_udp_in t ~flow) completed;
    (* alloc: cold — fragments and reassembly *)
    List.iter (fun whole -> deliver_udp_ready t whole ~mh:Mbuf.no_handle)
      completed;
    Packet.null
  end

(* ------------------------------------------------------------------ *)
(* LRP helper thread (minimal priority, section 3.3)                    *)
(* ------------------------------------------------------------------ *)

(* One packet from each backlogged UDP channel — but only while the
   destination socket queue has room.  A full socket queue means the
   receiver is not keeping up, and leaving packets in the channel is what
   lets it fill and shed further load at the NI instead of burning host
   CPU on datagrams that would be dropped anyway.  Returns whether any
   channel had work. *)
let rec helper_udp_pass t worked = function
  | [] -> worked
  | ch :: rest ->
      let room =
        match Hashtbl.find t.chan_sock (Channel.id ch) with
        | sock -> Socket.ready_count sock < sock.Socket.udp_rcv_limit
        | exception Not_found -> false
      in
      let pkt = if room then Channel.pop ch else Packet.null in
      if pkt != Packet.null then begin
        let whole = lrp_process_udp_raw t ch pkt in
        if whole != Packet.null then
          deliver_udp_ready t whole ~mh:Mbuf.no_handle;
        helper_udp_pass t true rest
      end
      else helper_udp_pass t worked rest

let rec helper_loop t =
  let worked = ref false in
  (* Integrate any stray fragments. *)
  (match drain_frag_channel t ~flow:(-1) with
   | [] -> ()
   | completed ->
       worked := true;
       List.iter
         (fun whole ->
           Trace.proto_deliver t.tracer ~pkt:whole.Packet.ip.Packet.ident
             ~conn:(-1) ~in_proc:true;
           charge_udp_in t ~flow:(-1);
           deliver_udp_ready t whole ~mh:Mbuf.no_handle)
         completed);
  if helper_udp_pass t false t.udp_channels then worked := true;
  (* Protocol-proxy daemon duties: ICMP echo and RSTs for TCP segments
     with no endpoint (section 3.5). *)
  (let pkt = Channel.pop (Chantab.icmp_channel t.chantab) in
   if pkt != Packet.null then begin
     worked := true;
     (Cpu.stage t.cpu).(0) <-
       t.c.Cost.lazy_locality *. (t.c.Cost.ip_in +. t.c.Cost.udp_in);
     Cpu.compute_proto t.cpu ~flow:(-1);
     match pkt.Packet.body with
     | Packet.Tcp _ ->
         t.stats.rsts_sent <- t.stats.rsts_sent + 1;
         Tcp.send_rst_for pkt ~emit:(fun p -> ip_output t p)
     | Packet.Udp _ | Packet.Icmp _ | Packet.Fragment _ ->
         let whole =
           Ip.Reasm.insert t.reasm ~clock:(Engine.clock_cell t.engine) pkt
         in
         if whole != Packet.null then icmp_reply t whole
   end);
  if not !worked then Proc.block t.helper_wq;
  helper_loop t

(* ------------------------------------------------------------------ *)
(* IP-forwarding daemon (section 3.5)                                   *)
(* ------------------------------------------------------------------ *)

(* A proxy daemon owns the forwarding channel: transit packets are charged
   to it, and its scheduling priority bounds the resources the host spends
   on forwarding. *)
let fwd_daemon_loop t =
  let ch = Chantab.fwd_channel t.chantab in
  let rec loop () =
    let pkt = Channel.pop ch in
    if pkt != Packet.null then begin
      (Cpu.stage t.cpu).(0) <-
        t.c.Cost.lazy_locality *. (t.c.Cost.ip_in +. t.c.Cost.ip_forward);
      Cpu.compute_proto t.cpu ~flow:(Channel.id ch);
      t.stats.forwarded <- t.stats.forwarded + 1;
      ip_output t pkt;
      loop ()
    end
    else begin
      Proc.block t.fwd_wq;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let create engine fabric ~name ~ip cfg =
  let cpu =
    Cpu.create engine ~ctx_switch_cost:cfg.costs.Cost.ctx_switch ~name ()
  in
  let nic = Fabric.make_nic fabric ~name:(name ^ ".nic") ~ip () in
  let tracer = Trace.create ~name ~clock:(Engine.clock_cell engine) () in
  let metrics = Metrics.create () in
  let parena = Parena.create () in
  let t =
    { kname = name; engine; cpu; nic; cfg; c = cfg.costs; ip_addr = ip;
      tracer; metrics;
      ipq_len = 0; mbufs = Mbuf.create ~capacity:cfg.mbuf_capacity ();
      parena;
      interfaces = [];
      udp_ports = Hashtbl.create 64; tcp_conns = Flowtab.create ~dummy:None ();
      tcp_listeners = Hashtbl.create 16; conn_sock = Hashtbl.create 256;
      conn_owner = Hashtbl.create 256; chantab = Chantab.create ~arena:parena ();
      chan_sock = Hashtbl.create 64; mcast_members = Hashtbl.create 8;
      chan_conn = Hashtbl.create 256;
      conn_chan = Hashtbl.create 256;
      all_channels = []; listed_channels = 0; retired_channels = 0;
      apps = Hashtbl.create 16;
      helper_wq = Proc.waitq (name ^ ".udp-helper"); helper_proc = None;
      fwd_wq = Proc.waitq (name ^ ".ipfwdd"); fwd_proc = None;
      udp_channels = []; napi = [||]; napi_grace_tgt = None;
      reasm = Ip.Reasm.create ();
      tcp_env = None; timer_tgt = None; rcvto_tgt = None;
      eph_port = 20_000; tg = no_rx_targets;
      stats =
        { rx_frames = 0; ipq_drops = 0; mbuf_drops = 0; no_port_drops = 0;
          demux_drops = 0; edemux_early_drops = 0; udp_delivered = 0;
          tcp_delivered = 0;
          rx_wrong_peer = 0; forwarded = 0; fwd_drops = 0; rsts_sent = 0;
          csum_drops = 0; ipq_hwm = 0 } }
  in
  t.interfaces <- [ (ip, 24, nic) ];
  register_rx_targets t;
  t.tcp_env <- Some (make_tcp_env t);
  add_channel t (Chantab.fwd_channel t.chantab);
  add_channel t (Chantab.icmp_channel t.chantab);
  add_channel t (Chantab.frag_channel t.chantab);
  Nic.set_rx_handler nic (fun pkt -> rx_dispatch t pkt);
  Cpu.set_tracer cpu tracer;
  Nic.set_tracer nic tracer;
  (* Expose kernel state as pull gauges; components register their own
     instruments under their prefixes.  All callbacks read only this
     kernel's state, so snapshots stay race-free under parallel sweeps. *)
  let g nm f = Metrics.gauge metrics nm (fun () -> float_of_int (f ())) in
  g "kernel.rx_frames" (fun () -> t.stats.rx_frames);
  g "kernel.ipq_drops" (fun () -> t.stats.ipq_drops);
  g "kernel.mbuf_drops" (fun () -> t.stats.mbuf_drops);
  g "kernel.no_port_drops" (fun () -> t.stats.no_port_drops);
  g "kernel.demux_drops" (fun () -> t.stats.demux_drops);
  g "kernel.edemux_early_drops" (fun () -> t.stats.edemux_early_drops);
  g "kernel.udp_delivered" (fun () -> t.stats.udp_delivered);
  g "kernel.tcp_delivered" (fun () -> t.stats.tcp_delivered);
  g "kernel.ipq_hwm" (fun () -> t.stats.ipq_hwm);
  g "kernel.rx_wrong_peer" (fun () -> t.stats.rx_wrong_peer);
  g "kernel.forwarded" (fun () -> t.stats.forwarded);
  g "kernel.fwd_drops" (fun () -> t.stats.fwd_drops);
  g "kernel.rsts_sent" (fun () -> t.stats.rsts_sent);
  g "kernel.csum_drops" (fun () -> t.stats.csum_drops);
  g "kernel.ipq_len" (fun () -> t.ipq_len);
  g "kernel.channels" (fun () -> List.length (channels t));
  g "kernel.early_discards" (fun () -> early_discards t);
  (* Sums over the connection table: listeners are not in it, so their
     counters (notably [syn_drops_backlog]) never reach these gauges. *)
  List.iter
    (fun key ->
      g ("tcp." ^ key) (fun () ->
          let sum = ref 0 in
          Flowtab.iter
            (fun ~hi:_ ~lo:_ conn ->
              match conn with
              | Some conn -> sum := !sum + List.assoc key (Tcp.counters conn)
              | None -> ())
            t.tcp_conns;
          !sum))
    [ "segs_sent"; "segs_rcvd"; "bytes_sent"; "bytes_rcvd"; "retransmits";
      "syn_drops_backlog" ];
  (* Engine timer-churn counters: how many events were scheduled/fired/
     cancelled-before-fire, how schedules split between wheel buckets and
     the heap, and how many cancelled entries the wheel dropped at pour
     time (each one a heap round-trip avoided). *)
  g "engine.timers_scheduled" (fun () ->
      (Engine.timer_stats engine).Engine.scheduled);
  g "engine.timers_fired" (fun () -> (Engine.timer_stats engine).Engine.fired);
  g "engine.timers_cancelled" (fun () ->
      (Engine.timer_stats engine).Engine.cancelled);
  g "engine.sched_wheel" (fun () ->
      (Engine.timer_stats engine).Engine.routed_wheel);
  g "engine.sched_heap" (fun () ->
      (Engine.timer_stats engine).Engine.routed_heap);
  g "engine.pour_skipped" (fun () ->
      (Engine.timer_stats engine).Engine.pour_skipped);
  Cpu.register_metrics cpu metrics ~prefix:"cpu";
  Nic.register_metrics nic metrics ~prefix:"nic";
  Ip.Reasm.register_metrics t.reasm metrics ~prefix:"reasm";
  (* Periodic reassembly pruning (ip_slowtimo); re-arms its own event. *)
  let slowtimo_ev = ref Engine.none in
  slowtimo_ev :=
    Engine.schedule_after engine ~delay:(Time.sec 5.) (fun () ->
        ignore (Ip.Reasm.prune t.reasm ~now:(now t));
        Engine.reschedule_after engine !slowtimo_ev ~delay:(Time.sec 5.));
  if is_napi cfg.arch then begin
    let queues = max 1 cfg.rx_queues in
    (* [rx_frames] (the overload detector's offered-load numerator) is
       counted in the steer callback: under queued RX the NIC DMAs frames
       straight into its rings and the kernel's dispatch handler never
       sees them. *)
    let steer =
      if queues = 1 then (fun _pkt ->
        t.stats.rx_frames <- t.stats.rx_frames + 1;
        0)
      else (fun pkt ->
        t.stats.rx_frames <- t.stats.rx_frames + 1;
        rss_steer pkt ~queues)
    in
    (* One round dequeues at most a budget of frames, and no more than
       the ring holds (nothing arrives while it runs). *)
    let batch = max 1 (min cfg.napi_budget cfg.rx_ring) in
    t.napi <-
      Array.init queues (fun qi ->
          { nq = qi; poll_on = false; episode = 0;
            nf = [| neg_infinity; 0. |]; in_ksoftirqd = false;
            ksoftirqd_wq =
              Proc.waitq (Printf.sprintf "%s.ksoftirqd/%d" name qi);
            ksoftirqd = None; b_pkt = Array.make batch Packet.null;
            b_mh = Array.make batch Mbuf.no_handle;
            b_frag = Array.make batch false; b_len = 0; b_served = 0;
            tr_len = 0; tr_udp = false; tr_next_seq = 0 });
    Nic.configure_rx_queues nic ~queues ~ring:cfg.rx_ring
      ~coalesce_pkts:cfg.coalesce_pkts ~coalesce_us:cfg.coalesce_us ~steer
      ~kick:(fun qi -> napi_kick t qi);
    Array.iter
      (fun n ->
        let p =
          Cpu.spawn cpu ~name:(Printf.sprintf "%s.ksoftirqd/%d" name n.nq)
            (fun _self -> ksoftirqd_loop t n)
        in
        n.ksoftirqd <- Some p)
      t.napi
  end;
  if lrp_mode t && cfg.udp_helper then begin
    let p =
      Cpu.spawn cpu ~nice:20 ~name:(name ^ ".udp-helper") (fun _self ->
          helper_loop t)
    in
    t.helper_proc <- Some p
  end;
  if lrp_mode t && cfg.forwarding then begin
    let p =
      Cpu.spawn cpu ~nice:cfg.fwd_nice ~name:(name ^ ".ipfwdd") (fun _self ->
          fwd_daemon_loop t)
    in
    t.fwd_proc <- Some p
  end;
  t

(* Allocate an ephemeral port. *)
let fresh_port t =
  let rec try_port () =
    t.eph_port <- (if t.eph_port >= 65_000 then 20_000 else t.eph_port + 1);
    if Hashtbl.mem t.udp_ports t.eph_port
       || Hashtbl.mem t.tcp_listeners t.eph_port
    then try_port ()
    else t.eph_port
  in
  try_port ()


(* [add_interface t fabric ~ip ~masklen] attaches an additional interface
   (multi-homed gateway).  The same receive architecture runs on every
   interface. *)
let add_interface t fabric ~ip ?(masklen = 24) () =
  let nic =
    Fabric.make_nic fabric ~name:(Printf.sprintf "%s.nic%d" t.kname
                                    (List.length t.interfaces)) ~ip ()
  in
  Nic.set_rx_handler nic (fun pkt -> rx_dispatch t pkt);
  Nic.set_tracer nic t.tracer;
  Nic.register_metrics nic t.metrics
    ~prefix:(Printf.sprintf "nic%d" (List.length t.interfaces));
  t.interfaces <- t.interfaces @ [ (ip, masklen, nic) ];
  nic
