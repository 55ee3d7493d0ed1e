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

open Lrp_net
open Lrp_sim

type kind = Dgram | Stream

type udp_datagram = {
  dg_payload : Payload.t;
  dg_from : Packet.ip * int;
  dg_pkt : int;  (* originating packet's IP ident, for tracing *)
  dg_mbuf : int;
      (* mbuf-pool handle backing this datagram until copyout, or
         [Mbuf.no_handle] on paths that account by bytes *)
}

type stats = {
  mutable rx_delivered : int;   (* datagrams handed to the application *)
  mutable rx_sockq_drops : int; (* datagrams dropped at a full socket queue *)
  mutable tx_packets : int;
  mutable rx_hwm : int;         (* deepest socket-queue occupancy observed *)
}

type t = {
  id : int;
  kind : kind;
  mutable port : int option;
  mutable remote : (Packet.ip * int) option;  (* connected-UDP peer *)
  (* The ready queue: a FIFO ring of parallel columns, one per datagram
     field, whose capacity is zero or a power of two (it starts empty and
     doubles), so depositing and popping a datagram store into existing
     slots. *)
  mutable rq_payload : Payload.t array;
  mutable rq_src : int array;
  mutable rq_sport : int array;
  mutable rq_ident : int array;
  mutable rq_mbuf : int array;
  mutable rq_head : int;
  mutable rq_len : int;
  udp_rcv_limit : int;  (* socket-queue limit, in datagrams *)
  (* The datagram the last {!pop_udp} took off the queue. *)
  mutable last_payload : Payload.t;
  mutable last_src : int;
  mutable last_sport : int;
  mutable last_ident : int;
  mutable last_mbuf : int;
  recv_wait : Proc.waitq;
  send_wait : Proc.waitq;
  accept_wait : Proc.waitq;
  mutable chan : Lrp_core.Channel.t option;  (* LRP architectures *)
  mutable tcp : Lrp_proto.Tcp.conn option;
  mutable owner : Proc.t option;
  mutable closed : bool;
  stats : stats;
}

(* Socket ids come from the per-engine id space installed on this domain
   (Lrp_engine.Idspace): per-cell sequences, independent of other
   simulations or shards allocating concurrently. *)

let create ?(udp_rcv_limit = 64) kind =
  let id = Lrp_engine.Idspace.next_sock_id () in
  { id; kind; port = None; remote = None; rq_payload = [||]; rq_src = [||];
    rq_sport = [||]; rq_ident = [||]; rq_mbuf = [||]; rq_head = 0;
    rq_len = 0; udp_rcv_limit; last_payload = Payload.empty; last_src = 0;
    last_sport = 0; last_ident = 0; last_mbuf = Mbuf.no_handle;
    recv_wait = Proc.waitq (Printf.sprintf "sock%d.recv" id);
    send_wait = Proc.waitq (Printf.sprintf "sock%d.send" id);
    accept_wait = Proc.waitq (Printf.sprintf "sock%d.accept" id);
    chan = None; tcp = None; owner = None; closed = false;
    stats = { rx_delivered = 0; rx_sockq_drops = 0; tx_packets = 0;
              rx_hwm = 0 } }

let port_exn t =
  match t.port with
  | Some p -> p
  | None -> invalid_arg "socket is not bound"

let ready_count t = t.rq_len

(* A copy of one column at twice the capacity (or 1), with the queued
   datagrams unwrapped to start at index 0. *)
let unwrap t a fill =
  let cap = Array.length a in
  (* alloc: cold — doubling growth, bounded by the socket-queue limit *)
  let b = Array.make (if cap = 0 then 1 else 2 * cap) fill in
  for i = 0 to t.rq_len - 1 do
    b.(i) <- a.((t.rq_head + i) land (cap - 1))
  done;
  b

let grow t =
  t.rq_payload <- unwrap t t.rq_payload Payload.empty;
  t.rq_src <- unwrap t t.rq_src 0;
  t.rq_sport <- unwrap t t.rq_sport 0;
  t.rq_ident <- unwrap t t.rq_ident 0;
  t.rq_mbuf <- unwrap t t.rq_mbuf 0;
  t.rq_head <- 0

(* Deposit a ready datagram in the socket queue (BSD softint path or the
   LRP helper thread).  Returns [false] and counts a drop when full. *)
let deposit_udp t ~payload ~src ~sport ~ident ~mbuf =
  if t.rq_len >= t.udp_rcv_limit then begin
    t.stats.rx_sockq_drops <- t.stats.rx_sockq_drops + 1;
    false
  end
  else begin
    if t.rq_len = Array.length t.rq_payload then grow t;
    let i = (t.rq_head + t.rq_len) land (Array.length t.rq_payload - 1) in
    t.rq_payload.(i) <- payload;
    t.rq_src.(i) <- src;
    t.rq_sport.(i) <- sport;
    t.rq_ident.(i) <- ident;
    t.rq_mbuf.(i) <- mbuf;
    t.rq_len <- t.rq_len + 1;
    if t.rq_len > t.stats.rx_hwm then t.stats.rx_hwm <- t.rq_len;
    true
  end

let pop_udp t =
  (* alloc: cold — error raise *)
  if t.rq_len = 0 then invalid_arg "Socket.pop_udp: empty queue";
  let i = t.rq_head in
  t.last_payload <- t.rq_payload.(i);
  t.last_src <- t.rq_src.(i);
  t.last_sport <- t.rq_sport.(i);
  t.last_ident <- t.rq_ident.(i);
  t.last_mbuf <- t.rq_mbuf.(i);
  t.rq_payload.(i) <- Payload.empty;
  t.rq_head <- (i + 1) land (Array.length t.rq_payload - 1);
  t.rq_len <- t.rq_len - 1

let last_datagram t =
  { dg_payload = t.last_payload; dg_from = (t.last_src, t.last_sport);
    dg_pkt = t.last_ident; dg_mbuf = t.last_mbuf }

let pp fmt t =
  Fmt.pf fmt "sock%d(%s%s)" t.id
    (match t.kind with Dgram -> "udp" | Stream -> "tcp")
    (match t.port with Some p -> Printf.sprintf ":%d" p | None -> "")
