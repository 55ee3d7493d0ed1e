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

    - {b Napi}: interrupt mitigation with budgeted polling and NIC-level
      interrupt coalescing; budget exhaustion defers polling to a
      fairly-scheduled ksoftirqd process.
    - {b Napi_gro}: [Napi] plus receive-offload aggregation of
      consecutive in-order same-flow TCP segments (and same-flow UDP
      datagram trains) at the poll loop.
    - {b Rss}: receive-side scaling: flows hash over the packed flow key
      onto several receive rings, each with its own NAPI poll context.

    All architectures share the same protocol code ({!Lrp_proto.Tcp},
    {!Lrp_proto.Ip}) and the same cost table, exactly as the paper's kernels
    shared the 4.4BSD networking code.  Syscall-level behaviour (the socket
    API) lives in {!Api}. *)

type arch = Bsd | Soft_lrp | Ni_lrp | Early_demux | Napi | Napi_gro | Rss
(** The four receive architectures of the paper's evaluation, plus the
    three modern back-ends. *)

val arch_name : arch -> string

val arch_key : arch -> string
(** Command-line spelling ([bsd], [soft-lrp], [ni-lrp], [early-demux],
    [napi], [napi-gro], [rss]). *)

val archs : arch list
(** Every architecture, in declaration order. *)

val arch_of_key : string -> arch option
(** Inverse of {!arch_key}. *)

val is_lrp : arch -> bool

val is_napi : arch -> bool
(** The NAPI-family back-ends ([Napi], [Napi_gro], [Rss]): the NIC runs
    in queued-RX mode and the host polls. *)

type config = {
  arch : arch;
  costs : Cost.t;
  mtu : int;
  ip_queue_limit : int;
  channel_limit : int;
  udp_rcv_limit : int;
  mbuf_capacity : int;
  mss : int;
  sock_buf : int;
  time_wait : float;
  initial_rto : float;
  max_syn_retries : int;
  udp_helper : bool;
  forwarding : bool;
  fwd_nice : int;
  fair_app_accounting : bool;
  napi_budget : int;
      (** frames per poll round before deferring to ksoftirqd; a
          pathologically high budget keeps all polling at softirq level
          and reintroduces livelock *)
  rx_queues : int;  (** NIC receive rings (RSS steers across more than 1) *)
  rx_ring : int;  (** slots per receive ring *)
  coalesce_pkts : int;
      (** raise the interrupt after this many buffered frames... *)
  coalesce_us : float;  (** ... or this long after the first one *)
}
val default_config : ?costs:Cost.t -> arch -> config
(** The paper's testbed defaults: ATM MTU 9180, 32-packet channels,
    32 kB socket buffers, the UDP helper on, forwarding off.  NAPI-family
    defaults: budget 64, 256-slot rings, 8-packet / 30 us coalescing, and
    4 queues under [Rss] (1 otherwise). *)

type kstats = {
  mutable rx_frames : int;
  mutable ipq_drops : int;
  mutable mbuf_drops : int;
  mutable no_port_drops : int;
  mutable demux_drops : int;
  mutable edemux_early_drops : int;
  mutable udp_delivered : int;
  mutable tcp_delivered : int;
      (** TCP segments fed to their connection's state machine (with
          {!kstats.udp_delivered} and [forwarded], the "delivered work"
          numerator of the overload detector) *)
  mutable rx_wrong_peer : int;
  mutable forwarded : int;
  mutable fwd_drops : int;
  mutable rsts_sent : int;
  mutable csum_drops : int;
  mutable ipq_hwm : int;
      (** deepest shared-IP-queue depth observed (BSD path) *)
}
type job = Jchan of Lrp_core.Channel.t | Jtimer of (unit -> unit)
type app = {
  app_owner : Lrp_sim.Proc.t;
  jobs : job Queue.t;
  app_wq : Lrp_sim.Proc.waitq;
  mutable app_proc : Lrp_sim.Proc.t option;
}
(** An owner's APP thread.  It has at most one [Jchan] job per channel
    queued; the channel tracks which APP threads have one
    ({!Lrp_core.Channel.drain_queued}, keyed by owner pid). *)

(** Per-receive-queue NAPI poll context: the "scheduled" bit, the
    packets served since the interrupt was masked (a softirq polling
    episode defers to ksoftirqd once this reaches the budget), the
    ksoftirqd hand-off flag, the ksoftirqd process itself, and the poll
    batch: parallel columns (packet, mbuf reservation, fragment flag)
    sized to the most frames one round can dequeue, with a held GRO
    train as the index range [\[b_len, b_len + tr_len)] of [b_pkt]. *)
type napi = {
  nq : int;
  mutable poll_on : bool;
  mutable episode : int;
  nf : float array;
      (** slot 0: when the last poll round ended; slot 1: the cost of the
          batch being collected *)
  mutable in_ksoftirqd : bool;
  ksoftirqd_wq : Lrp_sim.Proc.waitq;
  mutable ksoftirqd : Lrp_sim.Proc.t option;
  b_pkt : Lrp_net.Packet.t array;
  b_mh : int array;
  b_frag : bool array;
  mutable b_len : int;
  mutable b_served : int;
  mutable tr_len : int;
  mutable tr_udp : bool;
  mutable tr_next_seq : int;
}

(** The receive path's typed CPU work handlers ({!Lrp_sim.Cpu.target}),
    registered once per kernel so a per-packet post builds no closure. *)
type rx_targets = {
  rx_intr : Lrp_net.Packet.t Lrp_sim.Cpu.target;
  rx_demux : Lrp_net.Packet.t Lrp_sim.Cpu.target;
  edemux_intr : Lrp_net.Packet.t Lrp_sim.Cpu.target;
  softnet : Lrp_net.Packet.t Lrp_sim.Cpu.target;
  edemux_softnet : Lrp_net.Packet.t Lrp_sim.Cpu.target;
  edemux_forward : Lrp_net.Packet.t Lrp_sim.Cpu.target;
  reasm_complete : Lrp_net.Packet.t Lrp_sim.Cpu.target;
  ni_wake : Lrp_sim.Proc.waitq Lrp_sim.Cpu.target;
  ni_wake_members : Socket.t list ref Lrp_sim.Cpu.target;
  ni_app : (Lrp_proto.Tcp.conn * Lrp_core.Channel.t) Lrp_sim.Cpu.target;
  napi_irq : unit Lrp_sim.Cpu.target;
  napi_round : napi Lrp_sim.Cpu.target;
  napi_deliver : napi Lrp_sim.Cpu.target;
}
type t = {
  kname : string;
  engine : Lrp_engine.Engine.t;
  cpu : Lrp_sim.Cpu.t;
  nic : Lrp_net.Nic.t;
  mutable interfaces : (Lrp_net.Packet.ip * int * Lrp_net.Nic.t) list;
  cfg : config;
  c : Cost.t;
  ip_addr : Lrp_net.Packet.ip;
  mutable ipq_len : int;
  mbufs : Lrp_net.Mbuf.t;
  udp_ports : (int, Socket.t) Hashtbl.t;
  tcp_conns : Lrp_proto.Tcp.conn option Lrp_core.Flowtab.t;
      (** registered connections (never listeners) by packed key: [hi] is
          the remote address, [lo] is [remote_port lsl 16 lor
          local_port]; values are always [Some] *)
  tcp_listeners : (int, Lrp_proto.Tcp.conn) Hashtbl.t;
  conn_sock : (int, Socket.t) Hashtbl.t;
  conn_owner : (int, Lrp_sim.Proc.t) Hashtbl.t;
  parena : Lrp_net.Parena.t;
      (** shared RX descriptor arena backing every NI channel's ring *)
  chantab : Lrp_core.Chantab.t;
  chan_sock : (int, Socket.t) Hashtbl.t;
  mcast_members : (int, Socket.t list ref) Hashtbl.t;
  chan_conn : (int, Lrp_proto.Tcp.conn) Hashtbl.t;
  conn_chan : (int, Lrp_core.Channel.t) Hashtbl.t;
  mutable all_channels : Lrp_core.Channel.t list;
      (** newest first, possibly with retired channels not yet shed: read
          it through {!channels}, add to it through {!add_channel} *)
  mutable listed_channels : int;
  mutable retired_channels : int;
  apps : (int, app) Hashtbl.t;
  helper_wq : Lrp_sim.Proc.waitq;
  mutable helper_proc : Lrp_sim.Proc.t option;
  fwd_wq : Lrp_sim.Proc.waitq;
  mutable fwd_proc : Lrp_sim.Proc.t option;
  mutable udp_channels : Lrp_core.Channel.t list;
  mutable napi : napi array;
      (** one per RX queue; [[||]] unless NAPI-family *)
  mutable napi_grace_tgt : Lrp_sim.Proc.waitq Lrp_engine.Engine.target option;
      (** closure-free grace-poll re-arm; registered on first IRQ
          deferral *)
  reasm : Lrp_proto.Ip.Reasm.t;
  mutable tcp_env : Lrp_proto.Tcp.env option;
  mutable timer_tgt : Lrp_proto.Tcp.timer Lrp_engine.Engine.target option;
  mutable rcvto_tgt : (Socket.t * bool ref) Lrp_engine.Engine.target option;
  mutable eph_port : int;
  stats : kstats;
  mutable tg : rx_targets;
  tracer : Lrp_trace.Trace.t;
  metrics : Lrp_trace.Metrics.t;
}
val name : t -> string
val cpu : t -> Lrp_sim.Cpu.t
val engine : t -> Lrp_engine.Engine.t
val nic : t -> Lrp_net.Nic.t
val config : t -> config
val costs : t -> Cost.t
val stats : t -> kstats
val arch : t -> arch
val ip_address : t -> Lrp_net.Packet.ip
val chantab : t -> Lrp_core.Chantab.t
val mbufs : t -> Lrp_net.Mbuf.t
val lrp_mode : t -> bool
val now : t -> Lrp_engine.Time.t
val is_local_addr : t -> Lrp_net.Packet.ip -> bool
val route : t -> int -> Lrp_net.Nic.t
val add_channel : t -> Lrp_core.Channel.t -> unit
(** Put a new channel at the head of the reporting list. *)

val drop_channel : t -> Lrp_core.Channel.t -> unit
(** Forget a deallocated channel: it is marked retired and leaves the
    reporting list in a batch, so a drop costs O(1) amortised however
    many channels are open.  Dropping it again does nothing. *)

val channels : t -> Lrp_core.Channel.t list
(** The live channels, newest first. *)

val early_discards : t -> int
(** Early discards (full queue or disabled processing) summed over the
    live channels. *)

val tracer : t -> Lrp_trace.Trace.t
(** The kernel's structured tracer.  Disabled by default; enable with
    {!set_tracing} (or {!Lrp_trace.Trace.set_enabled}) to record packet
    lifecycle and scheduler events into the per-kernel ring buffer. *)

val metrics : t -> Lrp_trace.Metrics.t
(** The kernel's metrics registry.  Kernel, CPU, NIC, reassembly and TCP
    instruments are registered at construction; snapshot with
    {!Lrp_trace.Metrics.snapshot}.

    The [tcp.*] gauges sum the counters of the connections in
    [tcp_conns] only.  Listeners are never in that table, so their
    counters are left out; in particular [tcp.syn_drops_backlog], which
    only a listener increments, always reads 0. *)

val set_tracing : t -> bool -> unit
val tracing : t -> bool

val trc : t -> ('a, unit, string, unit) format4 -> 'a
(** Formatted note into the kernel's tracer ([Note] event class); a no-op
    when tracing is disabled.  Not a free one: the arguments still go
    through [Printf.ifprintf], which builds a closure per argument, so a
    hot path tests {!tracing} before calling it. *)

val tcp_env_exn : t -> Lrp_proto.Tcp.env
val ip_output : t -> Lrp_net.Packet.t -> unit
val seg_out_cost : t -> float
val free_rx_mbufs : t -> int -> unit
val free_rx_pkt : t -> mh:Lrp_net.Mbuf.handle -> int -> unit
(* Free a received packet's mbuf reservation: by handle when the receive
   path carried one, by bytes otherwise.  A no-op under the LRP
   architectures, which never draw RX packets from the mbuf pool. *)
val udp_send_cost : t -> frags:int -> float
val wake_all : t -> Lrp_sim.Proc.waitq -> unit
val recv_timeout_target :
  t -> (Socket.t * bool ref) Lrp_engine.Engine.target
(* Typed recvfrom-timeout expiry dispatcher (registered on first use):
   sets the flag and wakes the socket's receive waiters. *)
val wake_one : t -> Lrp_sim.Proc.waitq -> unit
val update_listen_gate : t -> Lrp_proto.Tcp.conn -> unit
val app_loop : t -> app -> unit
val drain_tcp_channel : t -> Lrp_core.Channel.t -> unit
val tcp_deliver :
  t ->
  Lrp_proto.Tcp.conn ->
  Lrp_net.Packet.t -> ctx:[< `Proc | `Soft > `Proc ] -> unit
val app_for : t -> Lrp_sim.Proc.t -> app
val orphan_drain : t -> Lrp_core.Channel.t -> unit -> unit
val app_post_chan : t -> Lrp_proto.Tcp.conn -> Lrp_core.Channel.t -> unit
val app_post_timer : t -> Lrp_proto.Tcp.conn -> (unit -> unit) -> unit
val register_conn :
  t -> Lrp_proto.Tcp.conn -> owner:Lrp_sim.Proc.t option -> unit
val deregister_conn : t -> Lrp_proto.Tcp.conn -> unit
val make_tcp_env : t -> Lrp_proto.Tcp.env
val peer_accepts : t -> Socket.t -> src:Lrp_net.Packet.ip -> sport:int -> bool
(** Connected-UDP filtering: counts and refuses a datagram from anyone
    but the socket's default peer. *)

val deliver_udp_ready : t -> Lrp_net.Packet.t -> mh:Lrp_net.Mbuf.handle -> unit
(** Terminal delivery of a complete UDP datagram: checksum, port lookup,
    peer filter, deposit on the socket's ready queue (or the members'
    queues of a multicast group) and wakeup.  [mh] is the mbuf
    reservation carried from the driver, or [Lrp_net.Mbuf.no_handle]. *)

val icmp_reply : t -> Lrp_net.Packet.t -> unit
val deliver_tcp :
  t -> Lrp_net.Packet.t -> ctx:[< `Proc | `Soft > `Proc ] -> unit
val bsd_transport_input :
  t -> Lrp_net.Packet.t -> mh:Lrp_net.Mbuf.handle -> unit

val bsd_softnet : t -> Lrp_net.Packet.t -> mh:Lrp_net.Mbuf.handle -> unit
val bsd_driver_rx : t -> Lrp_net.Packet.t -> unit

val rss_steer : Lrp_net.Packet.t -> queues:int -> int
(** RSS queue placement: a deterministic integer mix over the packed
    flow key ([hi]/[lo] as the Flowtab probe packs them) — no tuple
    allocation, no structural hashing, stable across seeds and shard
    counts.  Fragments steer by IP ident so one datagram's pieces share
    a ring. *)

val ni_wake : t -> Lrp_sim.Proc.waitq -> unit
(** Wake the queue's longest sleeper from NI context: at once under soft
    demux, through a cheap host interrupt under NI demux. *)

val lrp_classify_rx : t -> Lrp_net.Packet.t -> unit
val edemux_rx : t -> Lrp_net.Packet.t -> unit
val rx_dispatch : t -> Lrp_net.Packet.t -> unit
val drain_frag_channel : t -> flow:int -> Lrp_net.Packet.t list
(** Integrate the fragment channel's pieces into the reassembler,
    charging each as protocol work on [flow]; returns the datagrams that
    completed, most recent first. *)

val lrp_process_udp_raw :
  t -> Lrp_core.Channel.t -> Lrp_net.Packet.t -> Lrp_net.Packet.t
(** Lazy IP/UDP input of one raw packet from a UDP channel, in the
    calling process's context, charged as protocol work on that channel
    in the CPU's {!Lrp_sim.Ledger}.  Returns the completed datagram for
    the caller to deliver, or [Lrp_net.Packet.null] when none completed
    here (datagrams completed from the fragment channel are charged and
    delivered before it returns). *)

val helper_loop : t -> 'a
val fwd_daemon_loop : t -> 'a
val create :
  Lrp_engine.Engine.t ->
  Lrp_net.Fabric.t -> name:string -> ip:Lrp_net.Packet.ip -> config -> t
val fresh_port : t -> int
val add_interface :
  t ->
  Lrp_net.Fabric.t ->
  ip:Lrp_net.Packet.ip -> ?masklen:int -> unit -> Lrp_net.Nic.t
