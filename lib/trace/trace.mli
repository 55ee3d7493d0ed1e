(** Structured packet-lifecycle and scheduler tracing.

    One tracer per simulated kernel, backed by one packed flight recorder
    ({!Precorder}): a bounded SoA ring of fixed-width events, each stamped
    with the owning engine's virtual time and a monotonically increasing
    sequence number.  Typed {!event} values are a decode view over that
    ring ({!events}).  There is deliberately no global tracer — parallel
    sweeps run one simulation per domain, and every kernel records only
    into its own ring, so tracing can never perturb results or race across
    domains.

    Zero cost when disabled: every emitter takes immediate arguments and
    checks {!enabled} (plus the event-class filter) first, so a disabled
    tracer costs one branch per call site.  An enabled tracer writes four
    words per event and allocates nothing once its labels are interned.
    The ring's columns are only allocated on the first recorded event. *)

type t

type intr_level = Hard | Soft

type thread_state = Spawned | Runnable | Sleeping | Exited

(** Overload-detector alarm kinds (see {!Lrp_check.Overload}): sliding
    windows where delivered throughput collapsed against offered load
    ([Overload]), with the CPU additionally saturated at interrupt level
    ([Livelock]) or user progress starved ([Starvation]); queue
    high-watermark reports ([Queue_watermark]). *)
type alarm = Overload | Livelock | Starvation | Queue_watermark

(** Packet lifecycle events carry the packet's IP ident ([pkt]); [chan],
    [conn] and [sock] are channel / connection / socket ids, [-1] when not
    applicable. *)
type event =
  | Nic_rx of { pkt : int; bytes : int }
  | Demux of { pkt : int; chan : int; flow : int }
  | Ipq_enqueue of { pkt : int; qlen : int }
  | Ipq_drop of { pkt : int; qlen : int }
  | Early_discard of { pkt : int; chan : int }
  | Softint_begin of { pkt : int }
  | Softint_end of { pkt : int }
  | Proto_deliver of { pkt : int; conn : int; in_proc : bool }
  | Sock_enqueue of { pkt : int; sock : int }
  | Sock_drop of { pkt : int; sock : int }
  | Syscall_copyout of { pkt : int; sock : int; bytes : int }
  | Csum_drop of { pkt : int }
      (** Receiver dropped the packet: content checksum mismatch. *)
  | Mbuf_drop of { pkt : int }
      (** Receiver dropped the packet: mbuf pool exhausted. *)
  | Intr_enter of { level : intr_level; label : string }
  | Intr_exit of { level : intr_level; label : string }
  | Ctx_switch of { from_pid : int; to_pid : int }
  | Thread_state of { pid : int; state : thread_state }
  | Note of string
  | Alarm of { alarm : alarm; a : int; b : int }
      (** Structured detector alarm.  For [Overload]/[Livelock]: [a] =
          offered packets in the window, [b] = delivered (or for
          [Livelock], interrupt CPU share in percent).  For [Starvation]:
          [a] = user CPU share in percent, [b] = interrupt share in
          percent.  For [Queue_watermark]: [a] = queue code (0 = shared IP
          queue, 1 = channel, 2 = socket), [b] = high-watermark. *)
  | Poll_begin of { q : int; pending : int }
      (** A NAPI poll round starts on NIC queue [q] with [pending] packets
          waiting in its ring. *)
  | Poll_end of { q : int; served : int }
      (** The poll round on queue [q] ends having dequeued [served]
          packets (served < budget means the ring drained and the queue's
          interrupt was re-enabled). *)
  | Coalesce_fire of { q : int; pending : int }
      (** The NIC's interrupt-coalescing threshold (packet count or
          timer) fired for queue [q] and raised an interrupt covering
          [pending] buffered packets. *)
  | Gro_merge of { pkt : int; into : int }
      (** Receive-offload aggregation absorbed segment [pkt] into the
          held super-segment whose ident is [into]; [pkt] terminates here
          (its bytes travel on in [into]). *)
  | Gro_flush of { pkt : int; segs : int }
      (** The held super-segment [pkt], made of [segs] wire segments,
          was handed to protocol processing. *)

(** Event classes, for filtering at record time. *)
type cls = Packet_events | Sched_events | Note_events

val class_of_event : event -> cls

val create : ?capacity:int -> name:string -> clock:float array -> unit -> t
(** [create ~name ~clock ()] makes a tracer recording up to [capacity]
    (default 65536) events; older events are overwritten once full.
    [clock] is the owner's 1-slot time cell (a kernel passes its engine's
    {!Lrp_engine.Engine.clock_cell}); slot 0 stamps each event.  Starts
    disabled. *)

val null : unit -> t
(** A tracer that is disabled and records nothing; cheap placeholder for
    components created without a kernel. *)

val name : t -> string
val enabled : t -> bool
val set_enabled : t -> bool -> unit

val set_filter : t -> cls list -> unit
(** Record only the given classes (default: all). *)

val packed : t -> Precorder.t option
(** The tracer's recorder, for binary dumps ({!Precorder.write_dump}).
    Always [Some]: the recorder is the tracer's only store.  The option
    stays because the benchmark harness (perfbench) matches on it. *)

val events_of_precorder : Precorder.t -> (float * int * event) list
(** Decode a packed ring (e.g. one read back from a binary dump) to typed
    events, oldest first. *)

val clear : t -> unit
val length : t -> int

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val events : t -> (float * int * event) list
(** The recorder's surviving events decoded, oldest first, as [(virtual-time, seq, event)]. *)

val merged_events : (int * t) list -> (int * float * int * event) list
(** Merge labelled recorder streams into one timeline as
    [(stream, virtual-time, seq, event)], ordered by (time, stream, seq)
    with an explicit field-by-field comparator — a total order, so the
    merged dump of a sharded run is byte-identical at any shard count. *)

(* --- emitters (no-ops unless enabled and class passes the filter) ------ *)

val nic_rx : t -> pkt:int -> bytes:int -> unit
val demux : t -> pkt:int -> chan:int -> flow:int -> unit
val ipq_enqueue : t -> pkt:int -> qlen:int -> unit
val ipq_drop : t -> pkt:int -> qlen:int -> unit
val early_discard : t -> pkt:int -> chan:int -> unit
val softint_begin : t -> pkt:int -> unit
val softint_end : t -> pkt:int -> unit
val proto_deliver : t -> pkt:int -> conn:int -> in_proc:bool -> unit
val sock_enqueue : t -> pkt:int -> sock:int -> unit
val sock_drop : t -> pkt:int -> sock:int -> unit
val syscall_copyout : t -> pkt:int -> sock:int -> bytes:int -> unit
val csum_drop : t -> pkt:int -> unit
val mbuf_drop : t -> pkt:int -> unit
val intr_enter : t -> level:intr_level -> label:string -> unit
val intr_exit : t -> level:intr_level -> label:string -> unit
val ctx_switch : t -> from_pid:int -> to_pid:int -> unit
val thread_state : t -> pid:int -> state:thread_state -> unit
val alarm : t -> alarm:alarm -> a:int -> b:int -> unit
val poll_begin : t -> q:int -> pending:int -> unit
val poll_end : t -> q:int -> served:int -> unit
val coalesce_fire : t -> q:int -> pending:int -> unit
val gro_merge : t -> pkt:int -> into:int -> unit
val gro_flush : t -> pkt:int -> segs:int -> unit
val note : t -> string -> unit

val notef : t -> ('a, unit, string, unit) format4 -> 'a
(** Formatted {!note}.  When the tracer is disabled the format arguments
    are consumed without building the string. *)

(* --- sinks ------------------------------------------------------------- *)

val pp_event : Format.formatter -> event -> unit

val to_text : Buffer.t -> t -> unit
(** Human-readable dump, one event per line. *)

val to_csv : Buffer.t -> t -> unit
(** [seq,ts_us,class,event,pkt,a,b,detail] rows with a header line. *)

val chrome_json : t -> Json.t
(** Chrome [trace_event] document ({["{\"traceEvents\": [...]}"]}),
    loadable in Perfetto / about://tracing.  Interrupt activity becomes
    duration ("B"/"E") slices and lifecycle events instants, spread over
    one track per CPU context (nic / hardintr / softintr / process) plus
    one per channel and per socket. *)

val to_chrome : Buffer.t -> t -> unit

val write_file : t -> format:[ `Chrome | `Csv | `Text ] -> string -> unit

(* --- per-packet stage-latency breakdown -------------------------------- *)

module Report : sig
  (** Reconstructs each packet's NIC-arrival → copyout timeline from the
      event stream and aggregates per-stage latency distributions:

      - ["queue-wait"]: enqueue (shared IP queue or per-channel queue) to
        the start of protocol processing;
      - ["softint-proto"]: protocol processing done in software-interrupt
        context (BSD's big term; absent under LRP);
      - ["proc-proto"]: protocol processing done in the receiver's own
        context (LRP's lazy processing; absent under BSD);
      - ["sockq-wait"]: socket queue to copyout;
      - ["total"]: NIC arrival to copyout.

      Only packets with a complete NIC-arrival → copyout timeline within
      the buffered window contribute. *)

  type t = {
    stages : (string * Lrp_stats.Stats.Samples.t) list;  (* fixed order *)
    packets : int;  (* complete packet timelines seen *)
  }

  val stage_latency : (float * int * event) list -> t

  val pp : Format.formatter -> t -> unit
end
