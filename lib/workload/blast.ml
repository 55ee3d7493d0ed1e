(** Open-loop UDP traffic source and sink.

    The source injects packets directly at the sender's NIC — the equivalent
    of the paper's in-kernel packet source, needed because a user-process
    sender would saturate its own CPU long before the interesting offered
    rates (the paper notes using an in-kernel source for the same reason).

    The sink is a real application process: a receive-and-discard loop over
    the socket API, exactly like the paper's blast server. *)

open Lrp_engine
open Lrp_sim
open Lrp_net
open Lrp_kernel

type source = {
  mutable sent : int;
  mutable stop_at : float;
}

(* [start_source engine nic ~src ~dst ~rate ~size ~until ()] injects
   [size]-byte UDP datagrams at [rate] packets/sec until [until]. *)
let start_source engine nic ~src ~dst:(dip, dport) ?(src_port = 7777)
    ~rate ~size ~until () =
  let t = { sent = 0; stop_at = until } in
  let interval = 1e6 /. rate in
  (* Every datagram carries the same UDP header, payload and content
     checksum (which excludes the IP ident), so they are built once; a
     tick allocates only the IP header, with a fresh ident, and the packet
     record.  The first ident is drawn on the first tick, as
     [Packet.udp] would. *)
  let body =
    Packet.Udp
      ({ Packet.usrc_port = src_port; udst_port = dport },
       Payload.synthetic size)
  in
  let csum =
    Packet.checksum
      { Packet.ip = { src; dst = dip; ident = 0; ttl = 64; csum = 0 }; body }
  in
  (* One event record and one thunk for the whole run: each firing re-arms
     the same handle instead of scheduling a fresh closure per packet. *)
  let handle = ref None in
  let tick () =
    if Engine.now engine < t.stop_at then begin
      let pkt =
        { Packet.ip =
            { src; dst = dip; ident = Packet.next_ident (); ttl = 64; csum };
          body }
      in
      ignore (Nic.transmit nic pkt);
      t.sent <- t.sent + 1;
      match !handle with
      | Some h -> Engine.reschedule_after engine h ~delay:interval
      | None -> ()
    end
  in
  handle := Some (Engine.schedule_after engine ~delay:interval tick);
  t

type sink = {
  sock : Socket.t;
  mutable received : int;
}

(* The receive-and-discard loop: [Api.recv] copies each datagram out
   without building a record for it. *)
let rec discard kern self sink =
  Api.recv kern ~self sink.sock;
  sink.received <- sink.received + 1;
  discard kern self sink

(* [start_sink kern ~port ()] spawns the blast-server process: bind, then
   receive and discard in a loop. *)
let start_sink kern ?(nice = 0) ~port () =
  let sock = Api.socket_dgram kern in
  let sink = { sock; received = 0 } in
  let _proc =
    Cpu.spawn (Kernel.cpu kern) ~nice ~name:(Printf.sprintf "blast-sink:%d" port)
      (fun self ->
        Api.bind kern sock ~owner:(Some self) ~port;
        try discard kern self sink with Api.Socket_closed -> ())
  in
  sink
