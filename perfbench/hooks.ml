(* Timing from outside the library: a monotonic and a thread-CPU clock,
   per-layer accumulators wrapped around the public per-packet hooks,
   phase spans around the calls the benchmark makes itself, and GC phase
   times read back from [Runtime_events].  Nothing here changes what the
   simulator does; a wrapper only times the function it replaces. *)

open Lrp_net

external now_ns : unit -> (int[@untagged])
  = "lrpbench_now_ns_byte" "lrpbench_now_ns"
[@@noalloc]

external cpu_ns : unit -> (int[@untagged])
  = "lrpbench_cpu_ns_byte" "lrpbench_cpu_ns"
[@@noalloc]

let seconds ns = float_of_int ns *. 1e-9

(* {1 Per-packet layers} *)

(* The wrapped library boundaries, as indices into an accumulator. *)
let nic_rx = 0 (* Nic.rx_handler: NIC context, demux, early discard *)
let nic_kick = 1 (* Nic.rx_kick: queued-RX interrupt (NAPI/GRO/RSS) *)
let fabric_forward = 2 (* Nic.deliver as Fabric installs it *)
let exchange = 3 (* the exchange passed to Shardsim.create *)
let n_layers = 4

(* Self time and calls per layer.  Not synchronised: every hook feeding
   one accumulator must run on one domain.  [child.(d)] collects the
   inclusive time of finished hooks nested at depth [d], so a layer's
   self time excludes any wrapped layer it calls into. *)
type acc = {
  self_ns : int array;
  calls : int array;
  child : int array;
  mutable depth : int;
}

let acc () =
  { self_ns = Array.make n_layers 0; calls = Array.make n_layers 0;
    child = Array.make 64 0; depth = 0 }

let time a layer f x =
  let t0 = now_ns () in
  let d = a.depth + 1 in
  a.child.(d) <- 0;
  a.depth <- d;
  f x;
  a.depth <- d - 1;
  let dt = now_ns () - t0 in
  a.self_ns.(layer) <- a.self_ns.(layer) + dt - a.child.(d);
  a.calls.(layer) <- a.calls.(layer) + 1;
  a.child.(d - 1) <- a.child.(d - 1) + dt

(* A fixed busy-wait added inside the NIC-rx wrapper.  Only the
   attribution self-test sets it; measured runs leave it at 0. *)
let planted_rx_delay_ns = ref 0

let rec spin_until t = if now_ns () < t then spin_until t

(* Wrap one NIC's receive handler, queued-RX kick and fabric delivery.
   Must run after the kernel and fabric have installed theirs. *)
let wrap_nic a (nic : Nic.t) =
  let rx = nic.Nic.rx_handler in
  let delay = !planted_rx_delay_ns in
  let rx =
    if delay = 0 then rx
    else fun p ->
      rx p;
      spin_until (now_ns () + delay)
  in
  Nic.set_rx_handler nic (fun p -> time a nic_rx rx p);
  if Nic.rx_queues nic > 0 then begin
    let kick = nic.Nic.rx_kick in
    nic.Nic.rx_kick <- (fun q -> time a nic_kick kick q)
  end;
  let deliver = nic.Nic.deliver in
  Nic.set_deliver nic (fun p -> time a fabric_forward deliver p)

let wrap_exchange a (exch : (unit -> int) ref) =
  let f = !exch in
  let moved = ref 0 in
  let g () = moved := f () in
  exch := fun () -> time a exchange g (); !moved

(* {1 Phase spans} *)

type span = { name : string; id : int; parent : int; start_ns : int;
              mutable stop_ns : int }

let spans : span list ref = ref []
let next_id = ref 0

(* [span ~parent name f] records a span named [name] around [f id], where
   [id] is the new span's id (the parent of spans opened inside), and
   returns [f]'s result.  Spans stay in memory until [summary]. *)
let span ?(parent = -1) name f =
  let id = !next_id in
  incr next_id;
  let s = { name; id; parent; start_ns = now_ns (); stop_ns = 0 } in
  spans := s :: !spans;
  let r = f id in
  s.stop_ns <- now_ns ();
  r

let duration s = s.stop_ns - s.start_ns

(* Per span name (the text before ':'): count, total and self time, where
   self = duration minus the child spans it contains minus [extra_child]
   (the hook time measured inside that span). *)
let summary ~extra_child =
  let all = List.rev !spans in
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace kids s.parent
          (duration s + Option.value ~default:0 (Hashtbl.find_opt kids s.parent)))
    all;
  let kind s =
    match String.index_opt s.name ':' with
    | Some i -> String.sub s.name 0 i
    | None -> s.name
  in
  let rows = ref [] in
  List.iter
    (fun s ->
      let self =
        duration s
        - Option.value ~default:0 (Hashtbl.find_opt kids s.id)
        - extra_child s.id
      in
      let k = kind s in
      let n, tot, sf =
        Option.value ~default:(0, 0, 0) (List.assoc_opt k !rows)
      in
      rows :=
        (k, (n + 1, tot + duration s, sf + self)) :: List.remove_assoc k !rows)
    all;
  List.rev !rows

(* {1 GC phases from Runtime_events} *)

module Gc_phases = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    minor_ns : int ref;  (* EV_MINOR time, summed over domains *)
    major_ns : int ref;  (* EV_MAJOR_SLICE time, summed over domains *)
    lost : int ref;
  }

  let max_domains = 128

  (* Starts the runtime's event ring for this process, paused until the
     first [open_window]: call once, before the first traced phase. *)
  let create () =
    Runtime_events.start ();
    Runtime_events.pause ();
    let minor_ns = ref 0 and major_ns = ref 0 and lost = ref 0 in
    let minor_at = Array.make max_domains (-1) in
    let major_at = Array.make max_domains (-1) in
    let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
    let finish at total d ts =
      if at.(d) >= 0 then begin
        total := !total + ns ts - at.(d);
        at.(d) <- -1
      end
    in
    let runtime_begin d ts (phase : Runtime_events.runtime_phase) =
      match phase with
      | EV_MINOR -> minor_at.(d) <- ns ts
      | EV_MAJOR_SLICE -> major_at.(d) <- ns ts
      | _ -> ()
    in
    let runtime_end d ts (phase : Runtime_events.runtime_phase) =
      match phase with
      | EV_MINOR -> finish minor_at minor_ns d ts
      | EV_MAJOR_SLICE -> finish major_at major_ns d ts
      | _ -> ()
    in
    let callbacks =
      Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
        ~lost_events:(fun _ n -> lost := !lost + n)
        ()
    in
    { cursor = Runtime_events.create_cursor None; callbacks; minor_ns; major_ns; lost }

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

  (* The ring records only between [open_window] and [close_window], so
     GC work outside the traced phase neither counts nor overflows it. *)
  let open_window t =
    poll t;
    t.minor_ns := 0;
    t.major_ns := 0;
    t.lost := 0;
    Runtime_events.resume ()

  (* After this, the totals cover the GC work since [open_window]; [lost]
     counts events the ring dropped in that window. *)
  let close_window t =
    poll t;
    Runtime_events.pause ()
end
