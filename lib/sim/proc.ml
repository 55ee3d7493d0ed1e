open Lrp_engine
module Sched = Lrp_sched.Sched

type times = {
  mutable work_left : float;
  mutable cpu_time : float;
  mutable overhead_time : float;
  mutable started_at : Time.t;
  mutable exited_at : Time.t;
  mutable last_on_cpu : Time.t;
}

type t = {
  pid : int;
  name : string;
  thread : Sched.thread;
  working_set_us : float;
  mutable pending : pending;
  tm : times;
  mutable k : (unit, unit) Effect.Deep.continuation;
  mutable exited : bool;
  exit_waiters : waitq;
  mutable lcls : int;
  mutable lflow : int;
  self_opt : t option;
}

and pending = Start of (t -> unit) | Work | Resume | Blocked | Done

and waitq = {
  wq_name : string;
  mutable wq_procs : t array;
  mutable wq_head : int;
  mutable wq_len : int;
  mutable wq_block : unit Effect.t;
}

type _ Effect.t +=
  | Compute : unit Effect.t
  | Block : waitq -> unit Effect.t
  | Sleep : float -> unit Effect.t
  | Yield : unit Effect.t

(* Never resumed: [k] is only read while [pending = Resume], and every
   transition into [Resume] first stores a real continuation. *)
let no_k : (unit, unit) Effect.Deep.continuation = Obj.magic 0

let cpu_time p = p.tm.cpu_time
let overhead_time p = p.tm.overhead_time
let started_at p = p.tm.started_at
let exited_at p = p.tm.exited_at

(* A queue's [Block] effect value is built the first time a process
   blocks on it and performed again on every later block, so a steady
   block/wake cycle allocates no effect value: what a suspension still
   allocates is the runtime's continuation.  Most queues (a socket's
   send and accept queues, a process's exit waiters) are never blocked
   on and never build one. *)
let block wq =
  (* alloc: cold — once per queue, at its first block *)
  if wq.wq_block == Yield then wq.wq_block <- Block wq;
  Effect.perform wq.wq_block

let sleep_for d = Effect.perform (Sleep d)

let yield () = Effect.perform Yield

let waitq wq_name =
  { wq_name; wq_procs = [||]; wq_head = 0; wq_len = 0; wq_block = Yield }

let waitq_length wq = wq.wq_len

(* The sleepers form a FIFO ring whose capacity is zero or a power of
   two; it grows by doubling, so a steady block/wake cycle stores into
   existing slots. *)
let waitq_push wq p =
  let cap = Array.length wq.wq_procs in
  if wq.wq_len = cap then begin
    let cap' = if cap = 0 then 1 else 2 * cap in
    (* alloc: cold — doubling growth, amortised over the waitq's life *)
    let a = Array.make cap' p in
    for i = 0 to wq.wq_len - 1 do
      a.(i) <- wq.wq_procs.((wq.wq_head + i) land (cap - 1))
    done;
    wq.wq_procs <- a;
    wq.wq_head <- 0
  end;
  let mask = Array.length wq.wq_procs - 1 in
  wq.wq_procs.((wq.wq_head + wq.wq_len) land mask) <- p;
  wq.wq_len <- wq.wq_len + 1

let waitq_pop wq =
  assert (wq.wq_len > 0);
  let p = wq.wq_procs.(wq.wq_head) in
  wq.wq_head <- (wq.wq_head + 1) land (Array.length wq.wq_procs - 1);
  wq.wq_len <- wq.wq_len - 1;
  p
