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

type t
(** An NI channel.  Abstract: all state changes go through the operations
    below, which is what lets the NI (or interrupt handler) and the kernel
    share it safely. *)

val create : ?arena:Lrp_net.Parena.t -> ?limit:int -> name:string -> unit -> t
(** Fresh empty channel; [limit] (default 32 packets) is the early-discard
    threshold.  Queued frames live as descriptors in [arena] (the kernel
    passes its shared arena so every channel draws from one descriptor
    pool; standalone channels get a private arena), and the queue itself
    is a flat ring of handles sized exactly [limit]. *)

val create_conn :
  ?arena:Lrp_net.Parena.t -> ?limit:int -> local_port:int -> remote_port:int ->
  unit -> t
(** {!create} for a TCP connection's channel, named
    [tcp:LOCAL_PORT<-REMOTE_PORT].  The name is formatted only when it is
    read, so opening a connection builds no string. *)

val name : t -> string

val id : t -> int
(** Unique channel identifier (used as a table key by the kernel). *)

type enqueue_result = Queued of [ `Was_empty | `Was_nonempty ] | Discarded

val enqueue : t -> Lrp_net.Packet.t -> enqueue_result
(** What the NI does on packet arrival: early discard when the queue is
    full or processing is disabled, FIFO append otherwise.  The transition
    tag lets the caller implement interrupt suppression. *)

(** {2 Alloc-free fast path}

    The per-packet hot path uses integer result codes and a null-packet
    sentinel so that admission and consumption allocate nothing. *)

val discarded_code : int
val queued_was_empty : int
val queued_was_nonempty : int

val enqueue_code : t -> Lrp_net.Packet.t -> int
(** {!enqueue} returning one of the codes above instead of a variant. *)

val pop : t -> Lrp_net.Packet.t
(** Dequeue without boxing: [Lrp_net.Packet.null] (compare with [==])
    means the queue was empty. *)

val dequeue : t -> Lrp_net.Packet.t option

val length : t -> int

val is_empty : t -> bool

val extract : t -> (Lrp_net.Packet.t -> bool) -> Lrp_net.Packet.t list
(** Remove and return queued packets matching the predicate; used by IP
    reassembly to fish missing fragments out of the fragment channel. *)

val request_interrupt : t -> unit
(** Receiver is blocked: ask the NI for an interrupt on the next
    empty-to-non-empty transition (section 3.3). *)

val clear_interrupt_request : t -> unit

val interrupt_requested : t -> bool

val enable_processing : t -> unit

val disable_processing : t -> unit
(** Gate used for listening sockets whose backlog is exceeded: while
    disabled, every enqueue is discarded cheaply (section 3.4). *)

val processing_enabled : t -> bool

(** {2 Queued drain jobs}

    Which consumers (by a non-negative id; the kernel uses its APP
    threads' owner pids) have a drain job for this channel queued.  A
    consumer with a job queued needs no second one for a new arrival.
    Usually there is at most one; a channel that changes consumer while
    a job waits can have several, each tracked exactly. *)

val drain_queued : t -> consumer:int -> bool

val queue_drain : t -> consumer:int -> unit
(** [consumer] queued a drain job. *)

val start_drain : t -> consumer:int -> unit
(** [consumer]'s queued drain job started. *)

val retire : t -> unit
(** Mark the channel deallocated by its owner; the kernel sheds retired
    channels from its reporting list in batches. *)

val retired : t -> bool

val enqueued : t -> int
(** Packets accepted since creation. *)

val discarded : t -> int
(** Early discards due to a full queue. *)

val discarded_disabled : t -> int
(** Discards while processing was disabled (e.g. SYN-flood victims). *)

val high_watermark : t -> int
(** Deepest queue occupancy observed since creation (overload
    forensics: a high watermark near [limit] means the channel has been
    on the edge of early discard). *)

val pp : Format.formatter -> t -> unit
