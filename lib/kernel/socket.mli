(** Socket objects.

    Pure state: behaviour lives in {!Kernel} and {!Api}.  A socket's receive
    plumbing depends on the architecture:

    - under BSD and Early-Demux, the ready queue holds fully-processed
      datagrams put there by software-interrupt protocol processing;
    - under LRP, raw packets sit in the socket's NI [chan] until a receiver
      processes them lazily; the ready queue then holds the datagrams
      processed by a receiver or, on its behalf, by the minimal-priority
      helper thread (section 3.3);
    - TCP sockets delegate stream state to their {!Lrp_proto.Tcp.conn};
      reassembled stream data lives in the connection's receive buffer. *)

type kind = Dgram | Stream
type udp_datagram = {
  dg_payload : Lrp_net.Payload.t;
  dg_from : Lrp_net.Packet.ip * int;
  dg_pkt : int;  (** originating packet's IP ident, for tracing *)
  dg_mbuf : int;
      (** mbuf-pool handle backing this datagram until copyout, or
          [Lrp_net.Mbuf.no_handle] on paths that account by bytes *)
}
type stats = {
  mutable rx_delivered : int;
  mutable rx_sockq_drops : int;
  mutable tx_packets : int;
  mutable rx_hwm : int;  (** deepest socket-queue occupancy observed *)
}
type t = {
  id : int;
  kind : kind;
  mutable port : int option;
  mutable remote : (Lrp_net.Packet.ip * int) option;
  mutable rq_payload : Lrp_net.Payload.t array;
  mutable rq_src : int array;
  mutable rq_sport : int array;
  mutable rq_ident : int array;
  mutable rq_mbuf : int array;
  mutable rq_head : int;
  mutable rq_len : int;
      (** the ready queue: a FIFO ring of parallel columns (payload,
          source address and port, IP ident, mbuf handle) whose capacity
          is zero or a power of two; it starts empty and doubles *)
  udp_rcv_limit : int;
  mutable last_payload : Lrp_net.Payload.t;
  mutable last_src : int;
  mutable last_sport : int;
  mutable last_ident : int;
  mutable last_mbuf : int;
      (** the fields of the datagram the last {!pop_udp} took *)
  recv_wait : Lrp_sim.Proc.waitq;
  send_wait : Lrp_sim.Proc.waitq;
  accept_wait : Lrp_sim.Proc.waitq;
  mutable chan : Lrp_core.Channel.t option;
  mutable tcp : Lrp_proto.Tcp.conn option;
  mutable owner : Lrp_sim.Proc.t option;
  mutable closed : bool;
  stats : stats;
}
val create : ?udp_rcv_limit:int -> kind -> t
val port_exn : t -> int
val ready_count : t -> int
(** Datagrams on the ready queue. *)

val deposit_udp :
  t -> payload:Lrp_net.Payload.t -> src:Lrp_net.Packet.ip -> sport:int ->
  ident:int -> mbuf:int -> bool
(** Append a datagram to the ready queue, or count a socket-queue drop
    and return [false] when the queue holds [udp_rcv_limit] datagrams.
    Allocation-free except when the ring grows. *)

val pop_udp : t -> unit
(** Move the oldest ready datagram into the [last_*] fields.
    @raise Invalid_argument when the queue is empty. *)

val last_datagram : t -> udp_datagram
(** A record of the [last_*] fields. *)

val pp : Format.formatter -> t -> unit
