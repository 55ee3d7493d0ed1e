(** NI channels (paper section 3.1).

    An NI channel is the queue shared between the network interface and the
    rest of the kernel.  Each socket gets its own channel; all received
    traffic for the socket flows through it.  The channel is where LRP's two
    load-control mechanisms live:

    - {b early packet discard}: once the queue is full, further packets for
      this socket are silently dropped by the NI (or the interrupt handler,
      for soft demux) before any host resources are invested;
    - {b feedback}: because receiver protocol processing runs at the
      receiving application's priority, a receiver that cannot keep up stops
      draining its channel, and the overload is shed at the NI without
      affecting any other socket.

    [processing_enabled] implements the listening-socket rule of section
    3.4: protocol processing is disabled for listeners whose backlog is
    exceeded, causing further SYNs to die here, cheaply.

    [intr_requested] is the interrupt-suppression flag of section 3.3: the
    NI raises a host interrupt only when the queue transitions from empty to
    non-empty and a receiver asked to be notified. *)

open Lrp_net

(* A channel's name is rendered when it is printed: a connection's channel
   keeps its two ports instead of a formatted string. *)
type label = Named of string | Conn of { local_port : int; remote_port : int }

(* The queue is a fixed ring of {!Parena} handles: the NI admits a frame
   into the (usually kernel-shared) descriptor arena and pushes the
   handle — an immediate int — into a flat ring sized exactly [limit]
   (enqueue early-discards at [limit], so the ring can never overflow).
   Compared with the previous [Packet.t Queue.t] this removes, per
   packet: the queue-cell allocation on enqueue, the option allocation
   of [Queue.take_opt], and the boxed packet sitting behind one more
   pointer indirection on the hottest per-packet loop in the system. *)
type t = {
  id : int;
  label : label;
  arena : Parena.t;
  ring : int array; (* Parena handles *)
  mutable head : int; (* index of the oldest entry *)
  mutable count : int;
  limit : int;
  mutable intr_requested : bool;
  mutable processing_enabled : bool;
  (* Consumers with a drain job for this channel queued, by id (the
     kernel's APP threads, by owner pid).  One is the common case and
     lives in [drain_first] (-1 = none); [drain_more] holds the others,
     present only while a job queued for an earlier consumer waits. *)
  mutable drain_first : int;
  mutable drain_more : int list;
  mutable retired : bool;         (* deallocated by its owner *)
  (* statistics *)
  mutable enqueued : int;
  mutable discarded : int;        (* early discards: queue full *)
  mutable discarded_disabled : int; (* discards due to disabled processing *)
  mutable hwm : int;              (* deepest queue occupancy observed *)
}

(* Channel ids come from the per-engine id space installed on this domain
   (Lrp_engine.Idspace), so a cell's id sequence is independent of other
   simulations — and other shards — allocating concurrently. *)

let make ?arena ?(limit = 32) label =
  let arena =
    (* Real kernels share one arena across all their channels; a channel
       created standalone (tests, microbenches) gets a private one. *)
    match arena with Some a -> a | None -> Parena.create ()
  in
  { id = Lrp_engine.Idspace.next_chan_id (); label;
    arena; ring = Array.make (max 1 limit) Parena.none; head = 0; count = 0;
    limit;
    intr_requested = false; processing_enabled = true; drain_first = -1;
    drain_more = []; retired = false; enqueued = 0; discarded = 0;
    discarded_disabled = 0; hwm = 0 }

let create ?arena ?limit ~name () = make ?arena ?limit (Named name)

let create_conn ?arena ?limit ~local_port ~remote_port () =
  make ?arena ?limit (Conn { local_port; remote_port })

let name t =
  match t.label with
  | Named s -> s
  | Conn { local_port; remote_port } ->
      Printf.sprintf "tcp:%d<-%d" local_port remote_port
let id t = t.id

type enqueue_result =
  | Queued of [ `Was_empty | `Was_nonempty ]
  | Discarded

(* Alloc-free result codes for the per-packet fast path; {!enqueue} wraps
   them in the structured variant for callers that prefer pattern
   matching. *)
let discarded_code = 0
let queued_was_empty = 1
let queued_was_nonempty = 2

(* [enqueue_code t pkt] is what the NI does on packet arrival: early
   discard when the queue is full or processing is disabled, FIFO append
   otherwise.  Returns one of the codes above; together with the handle
   ring this keeps the admission path free of per-packet allocation. *)
let enqueue_code t pkt =
  if not t.processing_enabled then begin
    t.discarded_disabled <- t.discarded_disabled + 1;
    discarded_code
  end
  else if t.count >= t.limit then begin
    t.discarded <- t.discarded + 1;
    discarded_code
  end
  else begin
    let was_empty = t.count = 0 in
    let cap = Array.length t.ring in
    let tail = t.head + t.count in
    let tail = if tail >= cap then tail - cap else tail in
    t.ring.(tail) <- Parena.acquire t.arena pkt;
    t.count <- t.count + 1;
    if t.count > t.hwm then t.hwm <- t.count;
    t.enqueued <- t.enqueued + 1;
    if was_empty then queued_was_empty else queued_was_nonempty
  end

let enqueue t pkt =
  let c = enqueue_code t pkt in
  if c = discarded_code then Discarded
  else Queued (if c = queued_was_empty then `Was_empty else `Was_nonempty)

(* [pop t] dequeues without boxing: [Lrp_net.Packet.null] (compare with
   [==]) means the queue was empty.  The consumer-side twin of
   {!enqueue_code}. *)
let pop t =
  if t.count = 0 then Packet.null
  else begin
    let h = t.ring.(t.head) in
    t.ring.(t.head) <- Parena.none;
    let head' = t.head + 1 in
    t.head <- (if head' >= Array.length t.ring then 0 else head');
    t.count <- t.count - 1;
    let pkt = Parena.pkt t.arena h in
    Parena.release t.arena h;
    pkt
  end

let dequeue t = if t.count = 0 then None else Some (pop t)

let length t = t.count

let is_empty t = t.count = 0

(* Remove queued packets matching [pred]; used by IP reassembly to fish
   missing fragments out of the special fragment channel.  Cold path:
   compacts the surviving handles back to the front of the ring. *)
let extract t pred =
  let cap = Array.length t.ring in
  let n = t.count in
  let out = ref [] in
  let kept = ref 0 in
  (* alloc: cold — fragment reassembly fishes the fragment channel *)
  let keep = Array.make (max 1 n) Parena.none in
  for i = 0 to n - 1 do
    let h = t.ring.((t.head + i) mod cap) in
    let p = Parena.pkt t.arena h in
    if pred p then begin
      (* alloc: cold — fragment reassembly fishes the fragment channel *)
      out := p :: !out;
      Parena.release t.arena h
    end
    else begin
      keep.(!kept) <- h;
      incr kept
    end
  done;
  Array.fill t.ring 0 cap Parena.none;
  Array.blit keep 0 t.ring 0 !kept;
  t.head <- 0;
  t.count <- !kept;
  (* alloc: cold — fragment reassembly fishes the fragment channel *)
  List.rev !out

let request_interrupt t = t.intr_requested <- true

let clear_interrupt_request t = t.intr_requested <- false

let interrupt_requested t = t.intr_requested

let enable_processing t = t.processing_enabled <- true

let disable_processing t = t.processing_enabled <- false

let processing_enabled t = t.processing_enabled

let rec mem_int x = function [] -> false | y :: rest -> y = x || mem_int x rest

let rec remove_int x = function
  | [] -> []
  | y :: rest -> if y = x then rest else y :: remove_int x rest

let drain_queued t ~consumer =
  t.drain_first = consumer || mem_int consumer t.drain_more

let queue_drain t ~consumer =
  if t.drain_first < 0 then t.drain_first <- consumer
  else t.drain_more <- consumer :: t.drain_more

let start_drain t ~consumer =
  if t.drain_first = consumer then t.drain_first <- -1
  else t.drain_more <- remove_int consumer t.drain_more

let retire t = t.retired <- true

let retired t = t.retired

let enqueued t = t.enqueued
let discarded t = t.discarded
let discarded_disabled t = t.discarded_disabled
let high_watermark t = t.hwm

let pp fmt t =
  Fmt.pf fmt "chan %s#%d [%d/%d] in=%d drop=%d" (name t) t.id
    t.count t.limit t.enqueued (t.discarded + t.discarded_disabled)
