(** Simulated host kernel, parameterised by network-subsystem architecture.

    One [Kernel.t] per host.  It owns the CPU, the NIC, the protocol state
    (PCBs, reassembly, TCP connections) and runs one receive pipeline:
    NIC -> demux site -> early discard -> protocol context -> socket.  An
    architecture is a row of four policy choices, derived once by
    [create] from [config.arch]:

    {v
    arch         demux site  lazy protocol  NAPI poll  GRO
    Bsd          none        no             no         no
    Soft_lrp     host intr   yes            no         no
    Ni_lrp       NI          yes            no         no
    Early_demux  host intr   no             no         no
    Napi         none        no             yes        no
    Napi_gro     none        no             yes        yes
    Rss          none        no             yes        no
    v}

    - {e Demux site}: where a frame is classified onto its endpoint.
      With none, the driver interrupt queues it on the shared IP queue
      and finds the endpoint only after protocol processing; at the host
      interrupt or on the NI, an endpoint's full queue discards it early.
      NI demux costs the host nothing; it is interrupted only to wake a
      blocked receiver.
    - {e Lazy protocol}: protocol processing runs in the receiver's
      context (or an APP thread charged to it) from per-endpoint NI
      channels, instead of eagerly in a software interrupt.  A lazy
      kernel draws no RX mbufs and runs the UDP helper and the
      forwarding daemon.  Early-Demux is the paper's section 4.2 control:
      early discard without lazy processing.
    - {e NAPI poll}: a cheap mitigated interrupt masks the queue and
      schedules budgeted poll rounds; budget exhaustion defers polling to
      a fairly-scheduled ksoftirqd process.  [Rss] is [Napi] with 4
      receive rings ([default_config]'s [rx_queues]).
    - {e GRO}: the poll loop merges in-order same-flow TCP segments into
      one super-segment and lets same-flow UDP trains share one protocol
      pass.

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
(** The architecture processes protocols lazily ([Soft_lrp], [Ni_lrp]). *)

type policy
(** One row of the policy table above, derived from [arch]. *)

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
type app
(** An owner's APP thread: its protocol-processing jobs and wait queue. *)

type napi
(** A receive queue's NAPI poll context: the scheduled bit, the polling
    episode, the ksoftirqd hand-off and the poll batch. *)

type rx_targets
(** The receive path's typed CPU work handlers ({!Lrp_sim.Cpu.target}),
    registered once per kernel so a per-packet post builds no closure. *)

type t = {
  kname : string;
  engine : Lrp_engine.Engine.t;
  cpu : Lrp_sim.Cpu.t;
  nic : Lrp_net.Nic.t;
  mutable interfaces : (Lrp_net.Packet.ip * int * Lrp_net.Nic.t) list;
  cfg : config;
  pol : policy;
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
val ip_address : t -> Lrp_net.Packet.ip
val chantab : t -> Lrp_core.Chantab.t
val mbufs : t -> Lrp_net.Mbuf.t
val lrp_mode : t -> bool
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

val tcp_env_exn : t -> Lrp_proto.Tcp.env
val ip_output : t -> Lrp_net.Packet.t -> unit
val seg_out_cost : t -> float
val free_rx_pkt : t -> mh:Lrp_net.Mbuf.handle -> int -> unit
(* Free a received packet's mbuf reservation: by handle when the receive
   path carried one, by bytes otherwise.  A no-op under lazy protocol
   processing, which never draws RX packets from the mbuf pool. *)
val udp_send_cost : t -> frags:int -> float
val wake_all : t -> Lrp_sim.Proc.waitq -> unit
val recv_timeout_target :
  t -> (Socket.t * bool ref) Lrp_engine.Engine.target
(* Typed recvfrom-timeout expiry dispatcher (registered on first use):
   sets the flag and wakes the socket's receive waiters. *)
val update_listen_gate : t -> Lrp_proto.Tcp.conn -> unit
val register_conn :
  t -> Lrp_proto.Tcp.conn -> owner:Lrp_sim.Proc.t option -> unit
val deliver_udp_ready : t -> Lrp_net.Packet.t -> mh:Lrp_net.Mbuf.handle -> unit
(** Terminal delivery of a complete UDP datagram: checksum, port lookup,
    peer filter, deposit on the socket's ready queue (or the members'
    queues of a multicast group) and wakeup.  [mh] is the mbuf
    reservation carried from the driver, or [Lrp_net.Mbuf.no_handle]. *)

val rss_steer : Lrp_net.Packet.t -> queues:int -> int
(** RSS queue placement: a deterministic integer mix over the packed
    flow key ([hi]/[lo] as the Flowtab probe packs them) — no tuple
    allocation, no structural hashing, stable across seeds and shard
    counts.  Fragments steer by IP ident so one datagram's pieces share
    a ring. *)

val lrp_process_udp_raw :
  t -> Lrp_core.Channel.t -> Lrp_net.Packet.t -> Lrp_net.Packet.t
(** Lazy IP/UDP input of one raw packet from a UDP channel, in the
    calling process's context, charged as protocol work on that channel
    in the CPU's {!Lrp_sim.Ledger}.  Returns the completed datagram for
    the caller to deliver, or [Lrp_net.Packet.null] when none completed
    here (datagrams completed from the fragment channel are charged and
    delivered before it returns). *)

val create :
  Lrp_engine.Engine.t ->
  Lrp_net.Fabric.t -> name:string -> ip:Lrp_net.Packet.ip -> config -> t
val fresh_port : t -> int
val add_interface :
  t ->
  Lrp_net.Fabric.t ->
  ip:Lrp_net.Packet.ip -> ?masklen:int -> unit -> Lrp_net.Nic.t
