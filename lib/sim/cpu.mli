(** Single-CPU host execution model.

    The CPU multiplexes three dispatch levels, highest first:

    + hardware-interrupt work,
    + software-interrupt work,
    + user processes (chosen by the 4.3BSD scheduler in {!Lrp_sched.Sched}).

    Hardware-interrupt work preempts everything; software interrupts preempt
    user processes but not hardware interrupts; user processes preempt each
    other according to scheduler priority.  Preempted work resumes where it
    left off.  This is exactly the BSD structure that produces receiver
    livelock: interrupt-level work can starve every process (paper
    section 2.2).

    Time accounting follows BSD: a 10 ms clock tick charges [p_cpu] to the
    current process — and when the tick lands in interrupt context, to the
    process that was interrupted, reproducing the paper's "inappropriate
    resource accounting".  Exact (microsecond) per-context times are also
    tracked for reporting.

    Context-switch model: switching the CPU to a different user process costs
    [ctx_switch_cost] plus the incoming process's [working_set_us]
    (cache-reload penalty), charged to the incoming process. *)

open Lrp_engine
module Sched = Lrp_sched.Sched

type t

val create :
  Engine.t -> ?ctx_switch_cost:float -> ?start_clock:bool -> name:string ->
  unit -> t
(** [create engine ~name ()] makes a CPU driven by [engine]'s clock.
    [ctx_switch_cost] defaults to 0; [start_clock] (default true) installs
    the periodic scheduler tick and decay events. *)

val name : t -> string
val engine : t -> Engine.t
val sched : t -> Sched.t

(** {1 Processes} *)

val spawn :
  t -> ?nice:int -> ?working_set:float -> name:string -> (Proc.t -> unit) ->
  Proc.t
(** Create a process and make it runnable now.  The body runs as a coroutine
    performing [Compute] (through {!compute}) and {!Proc.block} effects. *)

val join : Proc.t -> unit
(** Block the calling process until [p] exits (process context only). *)

val wakeup_one : t -> Proc.waitq -> bool
(** Wake the longest-waiting process on the queue.  Returns [false] if the
    queue was empty.  Callable from any context. *)

val wakeup_all : t -> Proc.waitq -> int

val proc_count : t -> int

(** {1 Interrupt work} *)

val post_hard :
  t -> ?label:string -> ?tpkt:int -> cost:float -> (unit -> unit) -> unit
(** Enqueue hardware-interrupt work: after [cost] microseconds of CPU at
    hardware-interrupt level, [action] runs (instantaneously).  The action
    typically moves a packet between queues and posts further work.
    [tpkt] is the packet ident this work processes (for tracing; default
    [-1] = none). *)

val post_soft :
  t -> ?label:string -> ?tpkt:int -> ?poll:bool -> cost:float ->
  (unit -> unit) -> unit
(** Enqueue software-interrupt work (BSD's softnet level).  When [tpkt] is
    given, the tracer brackets the timed segment in
    [Softint_begin]/[Softint_end] events keyed by that packet.  [poll]
    (default false) marks the work as a NAPI poll round: it still runs
    and preempts at softirq level, but its cycles are ledgered as
    {!Ledger.Poll} instead of [Soft]. *)

(** {2 Typed posts}

    The closure-free form of {!post_hard}/{!post_soft}, for per-packet
    call sites.  A call site registers its handler once as a {!target};
    each post then stores only the target, one argument and one int in
    the level's work ring.  The cost is read from the {!stage} cell and
    [label]/[tpkt] are required arguments, because a computed float
    argument is boxed at the call and an optional argument is wrapped in
    [Some].  In steady state a typed post allocates nothing. *)

type 'a target
(** A registered work handler taking an ['a] and an int. *)

val target : t -> ('a -> int -> unit) -> 'a target
(** [target t f] registers [f] as a work handler.  Call it once per call
    site at setup, not per post. *)

val no_target : 'a target
(** A handler that does nothing: the initial value of a target slot that
    is filled in after its owner is built. *)

val stage : t -> float array
(** The CPU's 1-slot cost cell.  Write the cost of the next typed post
    or process segment into slot 0 immediately before calling
    {!post_hard_to}, {!post_soft_to} or one of the staged compute
    functions; they read it at once. *)

val post_hard_to :
  t -> label:string -> tpkt:int -> 'a target -> 'a -> int -> unit
(** [post_hard_to t ~label ~tpkt tgt v i] is
    [post_hard t ~label ~tpkt ~cost:(stage t).(0) (fun () -> f v i)]
    for the [f] that [tgt] registers. *)

val post_soft_to :
  t -> label:string -> tpkt:int -> poll:bool -> 'a target -> 'a -> int ->
  unit
(** The software-interrupt counterpart of {!post_hard_to}. *)

val set_account : t -> Proc.t -> owner:Proc.t option -> unit
(** Redirect scheduler charging for a process (LRP's APP thread runs at its
    owning process's priority and charges CPU to it). *)

(** {1 Accounting ledger} *)

(** {1 Process segments}

    A process consumes CPU by staging the segment's cost in the {!stage}
    cell and performing the constant [Proc.Compute] effect, which the
    CPU's handler answers by reading the cell.  Every function here runs
    in the context of a process on this CPU.  A zero or negative cost is
    a no-op. *)

val compute : t -> float -> unit
(** [compute t d] consumes [d] simulated microseconds of CPU, preemptibly,
    as application work: [(stage t).(0) <- d; compute_staged t]. *)

val compute_staged : t -> unit
(** Consume the cost staged in [(stage t).(0)].  The allocation-free form
    for per-packet call sites: a computed float passed to {!compute} is
    boxed at the call. *)

val compute_proto : t -> flow:int -> unit
(** [compute_proto t ~flow] is {!compute_staged} with the segment
    attributed to receiver-context protocol work serving channel [flow]
    (or [-1]) in the CPU's {!Ledger} (LRP's lazy protocol processing, the
    UDP helper, the forwarding daemon).  Plain {!compute} segments are
    attributed as application work. *)

val compute_poll : t -> flow:int -> unit
(** [compute_poll t ~flow] is {!compute_staged} with the segment
    attributed to NAPI poll work in the CPU's {!Ledger} (ksoftirqd's
    process-context polling). *)

val ledger : t -> Ledger.t
(** The CPU's always-on cycle-accounting ledger.  Interrupt-level cycles
    are recorded against the interrupted victim ({!curproc}), reproducing
    BSD's mis-accounting; process cycles split into protocol vs
    application work. *)

(** {1 Introspection / statistics} *)

val self_running : t -> Proc.t option
(** The user process currently executing, if any. *)

val curproc : t -> Proc.t option
(** BSD's [curproc]: the process whose context the CPU is in, which during
    interrupt handling is the (possibly unrelated) interrupted process. *)

val hard_pending : t -> int
val soft_pending : t -> int

val time_hard : t -> float
(** Exact microseconds spent at hardware-interrupt level so far. *)

val time_soft : t -> float
val time_user : t -> float

val time_poll : t -> float
(** Microseconds of NAPI poll work so far.  Informational slice: poll
    cycles are already included in {!time_soft} (softirq rounds) or
    {!time_user} (ksoftirqd), so the conservation law
    [elapsed = hard + soft + user + idle] is unchanged. *)

val time_idle : t -> float
val context_switches : t -> int

val suspensions : t -> int
(** Effects performed by processes on this CPU so far (segments, blocks,
    sleeps, yields), counting foreign effects too.  Each suspension
    allocates the runtime's continuation, the one per-suspension
    allocation of the process model. *)

val softirq_dispatches : t -> int
val hardirq_dispatches : t -> int

val utilization : t -> float
(** Fraction of elapsed time the CPU was not idle. *)

val iter_procs : t -> (Proc.t -> unit) -> unit
(** Iterate over live (not yet reaped) processes. *)

(** {1 Observability} *)

val set_tracer : t -> Lrp_trace.Trace.t -> unit
(** Install the owning kernel's tracer.  The CPU records interrupt
    enter/exit spans, per-packet software-interrupt spans, context switches
    and thread state changes into it; with no (or a disabled) tracer every
    emission is a single branch. *)

val register_metrics : t -> Lrp_trace.Metrics.t -> prefix:string -> unit
(** Expose CPU time split, dispatch/switch counts, process count and the
    scheduler's gauges under [prefix]. *)
