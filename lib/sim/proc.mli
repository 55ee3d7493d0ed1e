(** Simulated processes.

    A process is an OCaml function run as an effect-handled coroutine.  Host
    OCaml execution is instantaneous in virtual time; simulated CPU
    consumption happens only where the code performs [Compute] (through
    {!Cpu.compute}).  This makes
    costs explicit: kernel code paths state how many microseconds of the
    simulated CPU they burn, and the CPU model (see {!Cpu}) interleaves,
    preempts and charges those segments.

    The effects here are the complete interface between process code and the
    CPU model:

    - [Compute] — consume the microseconds of CPU staged in the CPU's cost
      cell, preemptibly (performed by {!Cpu.compute});
    - [block wq] — sleep until another party wakes the queue;
    - [sleep_for d] — sleep for [d] microseconds of virtual time;
    - [yield ()] — go to the back of the run queue without sleeping. *)

open Lrp_engine

type times = {
  mutable work_left : float;
  mutable cpu_time : float;  (** total simulated CPU consumed, microseconds *)
  mutable overhead_time : float;
      (** part of [cpu_time] that was context-switch / cache-reload
          overhead rather than useful work *)
  mutable started_at : Time.t;
  mutable exited_at : Time.t;
  mutable last_on_cpu : Time.t;
      (** last instant this process occupied the CPU (for the cache-reload
          model: eviction grows with absence) *)
}
(** A process's time fields.  An all-float record stores its fields flat,
    so updating them on every charged or preempted segment allocates
    nothing (a mutable float field of a record that also holds pointers
    is boxed on every store). *)

type t = {
  pid : int;
  name : string;
  thread : Lrp_sched.Sched.thread;
  working_set_us : float;
      (** Cache-reload penalty paid when this process is switched onto the
          CPU after a different process ran (models the paper's
          memory-locality effects, e.g. the Table-2 worker whose working set
          covers 35 % of the L2 cache). *)
  mutable pending : pending;
  tm : times;
  mutable k : (unit, unit) Effect.Deep.continuation;
      (** the suspended body; meaningful only while [pending] is [Work],
          [Resume] or [Blocked] (see {!no_k}) *)
  mutable exited : bool;
  exit_waiters : waitq;
  mutable lcls : int;
      (** ledger class of the current compute segment: 0 = app, 1 =
          receiver-context protocol work (set by {!Cpu.compute_proto}),
          2 = NAPI poll work (set by {!Cpu.compute_poll}) *)
  mutable lflow : int;
      (** channel/flow id the current protocol segment serves, or [-1] *)
  self_opt : t option;
      (** [Some] of this very process, built once at spawn, so that
          pointing an optional field at it (the CPU's [curproc]) stores
          an existing block instead of allocating one *)
}

and pending =
  | Start of (t -> unit)  (** never dispatched yet *)
  | Work                  (** owes [work_left] microseconds of CPU *)
  | Resume                (** continuation ready to run instantly *)
  | Blocked               (** waiting on a {!waitq} or timer *)
  | Done                  (** body returned *)

and waitq = {
  wq_name : string;
  mutable wq_procs : t array;
      (** FIFO ring of sleepers; capacity zero or a power of two *)
  mutable wq_head : int;
  mutable wq_len : int;
  mutable wq_block : unit Effect.t;
      (** this queue's [Block] effect, built at its first block ([Yield]
          until then) *)
}

type _ Effect.t +=
  | Compute : unit Effect.t
      (** run the cost staged in the CPU's cell ({!Cpu.compute}) *)
  | Block : waitq -> unit Effect.t
  | Sleep : float -> unit Effect.t
  | Yield : unit Effect.t

val no_k : (unit, unit) Effect.Deep.continuation
(** Placeholder stored in [k] before a process first suspends and after
    it is resumed.  It is never continued. *)

val cpu_time : t -> float
val overhead_time : t -> float
val started_at : t -> Time.t
val exited_at : t -> Time.t

val block : waitq -> unit
(** Sleep until {!Cpu.wakeup_one} or {!Cpu.wakeup_all} targets the queue.
    Performs the queue's own [Block] effect, built at its first block:
    after that the only allocation is the runtime's continuation. *)

val sleep_for : float -> unit
(** Sleep for a fixed amount of virtual time. *)

val yield : unit -> unit

val waitq : string -> waitq
(** Fresh empty wait queue. *)

val waitq_length : waitq -> int

val waitq_push : waitq -> t -> unit
(** Append a sleeper.  Allocation-free except when the ring grows. *)

val waitq_pop : waitq -> t
(** Remove and return the longest-waiting sleeper.  The queue must not be
    empty. *)
