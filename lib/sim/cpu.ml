open Lrp_engine
module Sched = Lrp_sched.Sched
module Trace = Lrp_trace.Trace

(* ------------------------------------------------------------------ *)
(* Interrupt work                                                      *)
(* ------------------------------------------------------------------ *)

(* Every unit of interrupt work is a dispatcher applied to an argument
   and an int.  A typed post stores the registered dispatcher itself; a
   closure post stores [run_thunk] with the closure as its argument.
   Arguments travel as [Obj.t] (the identity on the uniform
   representation), exactly as in the engine's typed event slots. *)
type 'a target = Obj.t -> int -> unit

let run_thunk : Obj.t -> int -> unit = fun f _ -> (Obj.obj f : unit -> unit) ()
let no_work : Obj.t -> int -> unit = fun _ _ -> ()
let no_arg = Obj.repr 0
let no_target = no_work

(* One dispatch level's pending work: a FIFO ring of parallel arrays
   whose capacity is a power of two.  Posting appends; a preempted item
   goes back at the head.  [tpkts] holds the packet ident the work
   processes, or -1 (it keys the tracer's per-packet software-interrupt
   spans); [polls] marks NAPI poll rounds, which run at softirq level
   but are ledgered as [Poll], not [Soft]. *)
type ring = {
  mutable mask : int;  (* capacity - 1 *)
  mutable head : int;
  mutable len : int;
  mutable labels : string array;
  mutable costs : float array;  (* microseconds still owed *)
  mutable tpkts : int array;
  mutable polls : bool array;
  mutable disps : (Obj.t -> int -> unit) array;
  mutable args : Obj.t array;
  mutable iargs : int array;
}

let ring_create () =
  let n = 16 in
  { mask = n - 1; head = 0; len = 0; labels = Array.make n "";
    costs = Array.make n 0.; tpkts = Array.make n (-1);
    polls = Array.make n false; disps = Array.make n no_work;
    args = Array.make n no_arg; iargs = Array.make n 0 }

(* A copy of one column at twice the capacity, with the pending items
   unwrapped to start at index 0. *)
let unwrap q a fill =
  (* alloc: cold — amortised doubling growth *)
  let b = Array.make (2 * (q.mask + 1)) fill in
  for i = 0 to q.len - 1 do
    b.(i) <- a.((q.head + i) land q.mask)
  done;
  b

let ring_grow q =
  q.labels <- unwrap q q.labels "";
  q.costs <- unwrap q q.costs 0.;
  q.tpkts <- unwrap q q.tpkts (-1);
  q.polls <- unwrap q q.polls false;
  q.disps <- unwrap q q.disps no_work;
  q.args <- unwrap q q.args no_arg;
  q.iargs <- unwrap q q.iargs 0;
  q.head <- 0;
  q.mask <- (2 * q.mask) + 1

(* Claim the slot behind the last item / in front of the first. *)
let ring_slot_back q =
  if q.len > q.mask then ring_grow q;
  let i = (q.head + q.len) land q.mask in
  q.len <- q.len + 1;
  i

let ring_slot_front q =
  if q.len > q.mask then ring_grow q;
  q.head <- (q.head - 1) land q.mask;
  q.len <- q.len + 1;
  q.head

let ring_set q i label tpkt poll disp arg iarg =
  q.labels.(i) <- label;
  q.tpkts.(i) <- tpkt;
  q.polls.(i) <- poll;
  q.disps.(i) <- disp;
  q.args.(i) <- arg;
  q.iargs.(i) <- iarg

(* What occupies the CPU: [cls_idle], or the class of the running work.
   Classes are ordered, so preemption is an integer comparison. *)
let cls_idle = -1
let cls_user = 0
let cls_soft = 1
let cls_hard = 2

(* Slots of [acc].  Mutable floats in a record that also holds pointers
   are boxed, so every store would allocate; a float array stores them
   flat. *)
let k_hard = 0 (* exact time per level, for reporting *)
let k_soft = 1
let k_user = 2
let k_poll = 3
  (* informational slice: poll cycles inside soft/user time, so the
     time-conservation law (elapsed = hard + soft + user + idle) is
     untouched *)
let k_left = 4 (* the running segment's cost at dispatch *)
let k_started = 5 (* ... and its dispatch instant *)
let k_sleep = 6 (* staged [Proc.Sleep] duration *)

type t = {
  cpu_name : string;
  engine : Engine.t;
  sched : Sched.t;
  ctx_switch_cost : float;
  clock : float array;  (* the engine's clock cell *)
  hardq : ring;
  softq : ring;
  procs : (int, Proc.t) Hashtbl.t;  (* keyed by scheduler tid *)
  mutable next_pid : int;
  (* The running unit, as plain fields: its class, and — for interrupt
     work — the item popped off its ring, or — for a process — the
     process's preallocated [Some].  [r_ev] is the pending segment-end
     event ([Engine.none] when idle). *)
  mutable r_cls : int;
  mutable r_label : string;
  mutable r_tpkt : int;
  mutable r_poll : bool;
  mutable r_disp : Obj.t -> int -> unit;
  mutable r_arg : Obj.t;
  mutable r_iarg : int;
  mutable r_proc : Proc.t option;
  mutable r_ev : Engine.handle;
  acc : float array;  (* indexed by the [k_*] slots *)
  seg : float array;  (* 1 slot: the cycles [charge] books *)
  cost : float array;  (* 1 slot: the staged cost of the next typed post *)
  mutable cur : Proc.t option;      (* BSD curproc *)
  mutable last_user : int;          (* pid last on CPU, for cache penalty *)
  mutable in_dispatch : bool;
  mutable redo : bool;
  mutable force_resched : bool;
  (* registered engine targets (closure-free schedule path); filled in by
     [create] right after the record is built *)
  mutable seg_tgt : unit Engine.target option;
  mutable wake_tgt : Proc.t Engine.target option;
  mutable blocked_on : Proc.waitq;  (* staged [Proc.Block] payload *)
  mutable eff_proc : Proc.t option;  (* see [eff_proc] *)
  mutable eff_handler : (unit, unit) Effect.Deep.handler option;
  mutable n_ctx_switch : int;
  mutable n_suspend : int;  (* effects performed by processes *)
  mutable n_soft_dispatch : int;
  mutable n_hard_dispatch : int;
  created_at : Time.t;
  mutable tracer : Trace.t;  (* owning kernel's tracer; disabled by default *)
  ledger : Ledger.t;
  (* class hints for the next [Proc.Compute] segment, set by
     [compute_proto] / [compute_poll] and latched into the process by the
     effect handler *)
  mutable hint_proto : bool;
  mutable hint_poll : bool;
  mutable hint_flow : int;
}

let name t = t.cpu_name
let engine t = t.engine
let sched t = t.sched
let set_tracer t tr = t.tracer <- tr
let target _t (f : 'a -> int -> unit) : 'a target = Obj.magic f
let stage t = t.cost

(* Trace bracketing for interrupt-level work.  Emitters are no-ops on a
   disabled tracer, so these cost one branch each on the hot path. *)

let trace_work_begin t cls =
  if cls = cls_hard then
    Trace.intr_enter t.tracer ~level:Trace.Hard ~label:t.r_label
  else begin
    Trace.intr_enter t.tracer ~level:Trace.Soft ~label:t.r_label;
    if t.r_tpkt >= 0 then Trace.softint_begin t.tracer ~pkt:t.r_tpkt
  end

let trace_work_end t cls label tpkt =
  if cls = cls_hard then Trace.intr_exit t.tracer ~level:Trace.Hard ~label
  else begin
    if tpkt >= 0 then Trace.softint_end t.tracer ~pkt:tpkt;
    Trace.intr_exit t.tracer ~level:Trace.Soft ~label
  end

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

(* BSD's curproc at the instant interrupt cycles are charged: the ledger's
   "victim" pid, or -1 when the interrupt preempted an idle CPU. *)
let victim_pid t =
  match t.cur with Some p -> p.Proc.pid | None -> -1

let running_proc t =
  match t.r_proc with Some p -> p | None -> assert false

(* Book [seg.(0)] microseconds to the running unit. *)
let charge t =
  let d = t.seg.(0) in
  if d > 0. then begin
    let a = t.acc in
    if t.r_cls = cls_hard then begin
      a.(k_hard) <- a.(k_hard) +. d;
      Ledger.charge_cell t.ledger Ledger.Intr ~pid:(victim_pid t) ~flow:(-1)
        t.seg
    end
    else if t.r_cls = cls_soft then begin
      a.(k_soft) <- a.(k_soft) +. d;
      if t.r_poll then begin
        a.(k_poll) <- a.(k_poll) +. d;
        Ledger.charge_cell t.ledger Ledger.Poll ~pid:(victim_pid t) ~flow:(-1)
          t.seg
      end
      else
        Ledger.charge_cell t.ledger Ledger.Soft ~pid:(victim_pid t) ~flow:(-1)
          t.seg
    end
    else begin
      let p = running_proc t in
      a.(k_user) <- a.(k_user) +. d;
      p.Proc.tm.cpu_time <- p.Proc.tm.cpu_time +. d;
      p.Proc.tm.last_on_cpu <- t.clock.(0);
      if p.Proc.lcls = 1 then
        Ledger.charge_cell t.ledger Ledger.Proto ~pid:p.Proc.pid
          ~flow:p.Proc.lflow t.seg
      else if p.Proc.lcls = 2 then begin
        a.(k_poll) <- a.(k_poll) +. d;
        Ledger.charge_cell t.ledger Ledger.Poll ~pid:p.Proc.pid
          ~flow:p.Proc.lflow t.seg
      end
      else
        Ledger.charge_cell t.ledger Ledger.App ~pid:p.Proc.pid ~flow:(-1) t.seg
    end
  end

(* ------------------------------------------------------------------ *)
(* Dispatch machinery                                                  *)
(* ------------------------------------------------------------------ *)

let best_class t =
  if t.hardq.len > 0 then cls_hard
  else if t.softq.len > 0 then cls_soft
  else if Sched.pick_tid t.sched >= 0 then cls_user
  else cls_idle

(* Run the popped work item's action, then close its trace span. *)
let complete_work t cls =
  let label = t.r_label and tpkt = t.r_tpkt in
  let disp = t.r_disp and arg = t.r_arg and iarg = t.r_iarg in
  t.r_disp <- no_work;
  t.r_arg <- no_arg;
  disp arg iarg;
  trace_work_end t cls label tpkt

let stop_running t =
  let cls = t.r_cls in
  if cls <> cls_idle then begin
    let elapsed = t.clock.(0) -. t.acc.(k_started) in
    t.seg.(0) <- elapsed;
    charge t;
    Engine.cancel t.engine t.r_ev;
    t.r_ev <- Engine.none;
    let l = t.acc.(k_left) -. elapsed in
    let left = if l > 0. then l else 0. in
    if cls = cls_user then begin
      (running_proc t).Proc.tm.work_left <- left;
      t.r_proc <- None
    end
    else begin
      (* Preempted: close the span (re-dispatch opens a new one) and put
         the item back at the head of its level. *)
      trace_work_end t cls t.r_label t.r_tpkt;
      let q = if cls = cls_hard then t.hardq else t.softq in
      let i = ring_slot_front q in
      ring_set q i t.r_label t.r_tpkt t.r_poll t.r_disp t.r_arg t.r_iarg;
      q.costs.(i) <- left;
      t.r_disp <- no_work;
      t.r_arg <- no_arg
    end;
    t.r_cls <- cls_idle
  end

(* Targets are registered by [create] before any event can fire. *)
let seg_target t =
  match t.seg_tgt with Some g -> g | None -> assert false

let wake_target t =
  match t.wake_tgt with Some g -> g | None -> assert false

(* The running segment's end event: [now + acc.(k_left)], staged so the
   deadline is not boxed. *)
let arm_segment t =
  (Engine.deadline_cell t.engine).(0) <- t.acc.(k_started) +. t.acc.(k_left);
  t.r_ev <- Engine.schedule_to_staged t.engine (seg_target t) ()

let rec segment_done t =
  t.seg.(0) <- t.acc.(k_left);
  charge t;
  t.r_ev <- Engine.none;
  let cls = t.r_cls in
  t.r_cls <- cls_idle;
  if cls = cls_user then begin
    let p = running_proc t in
    t.r_proc <- None;
    p.Proc.tm.work_left <- 0.;
    p.Proc.pending <- Proc.Resume;
    run_instant t p
  end
  else complete_work t cls

(* Run a process's host-side code until its next effect.  Instantaneous in
   virtual time.  Must execute with [in_dispatch] set. *)
and run_instant t (p : Proc.t) =
  t.eff_proc <- p.Proc.self_opt;
  (match p.Proc.pending with
   | Proc.Start body ->
       p.Proc.pending <- Proc.Blocked;
       Effect.Deep.match_with body p (effect_handler t)
   | Proc.Resume ->
       let k = p.Proc.k in
       p.Proc.k <- Proc.no_k;
       p.Proc.pending <- Proc.Blocked;
       Effect.Deep.continue k ()
   | Proc.Work | Proc.Blocked | Proc.Done -> assert false);
  match p.Proc.pending with
  | Proc.Done -> reap t p
  | Proc.Work | Proc.Blocked | Proc.Resume -> ()
  | Proc.Start _ -> assert false

and reap t (p : Proc.t) =
  Trace.thread_state t.tracer ~pid:p.Proc.pid ~state:Trace.Exited;
  p.Proc.exited <- true;
  p.Proc.tm.exited_at <- t.clock.(0);
  Sched.exit_thread t.sched p.Proc.thread;
  Hashtbl.remove t.procs (Sched.tid p.Proc.thread);
  (match t.cur with Some q when q.Proc.pid = p.Proc.pid -> t.cur <- None | _ -> ());
  let wq = p.Proc.exit_waiters in
  while Proc.waitq_length wq > 0 do
    wake t (Proc.waitq_pop wq)
  done

and wake t (q : Proc.t) =
  if not q.Proc.exited then begin
    Trace.thread_state t.tracer ~pid:q.Proc.pid ~state:Trace.Runnable;
    q.Proc.pending <- Proc.Resume;
    Sched.make_runnable_at t.sched ~clock:t.clock q.Proc.thread;
    (* BSD preemption point: a wakeup may preempt a worse-priority curproc. *)
    t.force_resched <- true;
    t.redo <- true
  end

(* The process whose host code is running: only one runs at a time (any
   CPU entry point it calls only queues work, because [in_dispatch] is
   set), so one effect handler per CPU serves every process. *)
and eff_proc t =
  match t.eff_proc with Some p -> p | None -> assert false

and effect_handler t =
  match t.eff_handler with
  | Some h -> h
  | None ->
      let h = handler t in
      (* alloc: cold — built once per CPU, at its first process start *)
      t.eff_handler <- Some h;
      h

(* Each effect answers with a response built here once; the effect's
   payload is staged in a field first (the response receives only the
   continuation), so a suspension allocates no [Some] and no closure. *)
and handler t : (unit, unit) Effect.Deep.handler =
  (* alloc: cold — built once per CPU, at its first process start *)
  let on_compute = Some (fun k ->
      let p = eff_proc t in
      p.Proc.k <- k;
      (* Latch the ledger class for this segment; it survives preemption
         splits because [charge] reads it from the process, not from the
         (consumed) hint. *)
      p.Proc.lcls <- (if t.hint_proto then 1 else if t.hint_poll then 2 else 0);
      p.Proc.lflow <- t.hint_flow;
      t.hint_proto <- false;
      t.hint_poll <- false;
      t.hint_flow <- -1;
      p.Proc.pending <- Proc.Work)
  in
  (* alloc: cold — built once per CPU, at its first process start *)
  let on_block = Some (fun k ->
      let p = eff_proc t in
      p.Proc.k <- k;
      p.Proc.pending <- Proc.Blocked;
      Proc.waitq_push t.blocked_on p;
      Trace.thread_state t.tracer ~pid:p.Proc.pid ~state:Trace.Sleeping;
      Sched.sleep_at t.sched ~clock:t.clock p.Proc.thread)
  in
  (* alloc: cold — built once per CPU, at its first process start *)
  let on_sleep = Some (fun k ->
      let p = eff_proc t in
      p.Proc.k <- k;
      p.Proc.pending <- Proc.Blocked;
      Trace.thread_state t.tracer ~pid:p.Proc.pid ~state:Trace.Sleeping;
      Sched.sleep_at t.sched ~clock:t.clock p.Proc.thread;
      (Engine.deadline_cell t.engine).(0) <- t.clock.(0) +. t.acc.(k_sleep);
      ignore (Engine.schedule_to_staged t.engine (wake_target t) p))
  in
  (* alloc: cold — built once per CPU, at its first process start *)
  let on_yield = Some (fun k ->
      let p = eff_proc t in
      p.Proc.k <- k;
      p.Proc.pending <- Proc.Resume;
      Sched.requeue t.sched p.Proc.thread;
      t.force_resched <- true)
  in
  (* alloc: cold — built once per CPU, at its first process start *)
  { Effect.Deep.retc = (fun () -> (eff_proc t).Proc.pending <- Proc.Done);
    exnc = raise;
    (* alloc: cold — built once per CPU, at its first process start *)
    effc = (fun (type a) (eff : a Effect.t)
             : ((a, unit) Effect.Deep.continuation -> unit) option ->
      t.n_suspend <- t.n_suspend + 1;
      match eff with
      | Proc.Compute ->
          (eff_proc t).Proc.tm.work_left <- t.cost.(0);
          on_compute
      | Proc.Block wq ->
          t.blocked_on <- wq;
          on_block
      | Proc.Sleep d ->
          t.acc.(k_sleep) <- d;
          on_sleep
      | Proc.Yield -> on_yield
      | _ -> None) }

and begin_timed t (p : Proc.t) =
  let now = t.clock.(0) in
  if t.last_user <> p.Proc.pid then begin
    (* Cache-reload penalty: eviction is proportional to how long other
       work occupied the CPU, capped by this process's working set.  This
       keeps the model from compounding reloads into a livelock when a
       process is preempted mid-reload. *)
    let gap = now -. p.Proc.tm.last_on_cpu in
    let absence = if gap > 0. then gap else 0. in
    let half = 0.5 *. absence in
    let ws = p.Proc.working_set_us in
    let reload = if ws < half then ws else half in
    let overhead = t.ctx_switch_cost +. reload in
    if overhead > 0. then begin
      p.Proc.tm.work_left <- p.Proc.tm.work_left +. overhead;
      p.Proc.tm.overhead_time <- p.Proc.tm.overhead_time +. overhead
    end;
    t.n_ctx_switch <- t.n_ctx_switch + 1;
    Trace.ctx_switch t.tracer ~from_pid:t.last_user ~to_pid:p.Proc.pid;
    t.last_user <- p.Proc.pid
  end;
  t.cur <- p.Proc.self_opt;
  t.r_cls <- cls_user;
  t.r_proc <- p.Proc.self_opt;
  t.acc.(k_left) <- p.Proc.tm.work_left;
  t.acc.(k_started) <- now;
  arm_segment t

(* Pop the head of [q] into the running fields and start it. *)
and begin_work t cls q =
  let i = q.head in
  t.r_label <- q.labels.(i);
  t.r_tpkt <- q.tpkts.(i);
  t.r_poll <- q.polls.(i);
  t.r_disp <- q.disps.(i);
  t.r_arg <- q.args.(i);
  t.r_iarg <- q.iargs.(i);
  t.acc.(k_left) <- q.costs.(i);
  q.disps.(i) <- no_work;
  q.args.(i) <- no_arg;
  q.head <- (i + 1) land q.mask;
  q.len <- q.len - 1;
  if cls = cls_hard then t.n_hard_dispatch <- t.n_hard_dispatch + 1
  else t.n_soft_dispatch <- t.n_soft_dispatch + 1;
  trace_work_begin t cls;
  t.acc.(k_started) <- t.clock.(0);
  if t.acc.(k_left) <= 0. then begin
    (* Zero-cost work completes immediately. *)
    complete_work t cls;
    t.redo <- true
  end
  else begin
    t.r_cls <- cls;
    arm_segment t
  end

and start_best t =
  if t.hardq.len > 0 then begin_work t cls_hard t.hardq
  else if t.softq.len > 0 then begin_work t cls_soft t.softq
  else
    let tid = Sched.pick_tid t.sched in
    if tid >= 0 then begin
      let p =
        match Hashtbl.find t.procs tid with
        | p -> p
        | exception Not_found -> assert false
      in
      match p.Proc.pending with
      | Proc.Work -> begin_timed t p
      | Proc.Start _ | Proc.Resume ->
          (* Host-side code is free in virtual time: run it now, then
             re-evaluate.  [last_user] is left alone so the switch
             penalty lands on the first timed segment. *)
          t.cur <- p.Proc.self_opt;
          run_instant t p;
          t.redo <- true
      | Proc.Blocked | Proc.Done -> assert false
    end
    (* else idle *)

and do_dispatch t =
  let c = t.r_cls in
  if c = cls_idle then start_best t
  else begin
    let b = best_class t in
    if b > c then begin
      stop_running t;
      start_best t
    end
    else if c = cls_user && b = cls_user then begin
      (* User-user preemption only at BSD's preemption points (wakeup,
         tick, yield), flagged via [force_resched] — not on every
         dispatch event. *)
      if t.force_resched
         && Sched.should_preempt t.sched
              ~current:(running_proc t).Proc.thread
      then begin
        stop_running t;
        start_best t
      end
    end
  end;
  t.force_resched <- false

(* Every entry point makes its change first and then calls [settle]:
   inside the dispatch loop it just asks for another pass; outside, it
   runs the single non-reentrant loop that brings the CPU to a fixed
   point.  Event handlers that run work actions enter the loop first
   (see [fire_segment]), so those actions' own posts only queue. *)
and settle t =
  if t.in_dispatch then t.redo <- true
  else begin
    t.in_dispatch <- true;
    drain t
  end

and drain t =
  do_dispatch t;
  while t.redo do
    t.redo <- false;
    do_dispatch t
  done;
  t.in_dispatch <- false

(* Engine event handlers: a segment's end, a sleeper's timer. *)
let fire_segment t =
  if t.in_dispatch then begin
    segment_done t;
    t.redo <- true
  end
  else begin
    t.in_dispatch <- true;
    segment_done t;
    drain t
  end

let fire_wake t p =
  if t.in_dispatch then begin
    wake t p;
    t.redo <- true
  end
  else begin
    t.in_dispatch <- true;
    wake t p;
    drain t
  end

(* ------------------------------------------------------------------ *)
(* Clock: scheduler tick (10 ms) and usage decay (1 s)                 *)
(* ------------------------------------------------------------------ *)

(* The process a tick charges: the running one, or — during interrupt
   work — the interrupted one (BSD's mis-accounting). *)
let charged_proc t =
  if t.r_cls = cls_user then t.r_proc
  else if t.r_cls = cls_idle then None
  else t.cur

let tick t =
  (match charged_proc t with
   | Some p -> Sched.charge_tick t.sched p.Proc.thread
   | None -> ());
  (if t.r_cls = cls_user then
     let p = running_proc t in
     if Sched.quantum_expired p.Proc.thread then
       Sched.requeue t.sched p.Proc.thread);
  (* Ticks are a BSD preemption point: priorities were just
     recomputed. *)
  t.force_resched <- true;
  settle t

let decay t =
  Sched.decay t.sched;
  settle t

(* Periodic clocks re-arm their own event record ([reschedule_after]), so a
   long run pays one slot and one closure total per clock, not one per
   firing. *)
let install_periodic engine ~delay fn =
  let h = ref None in
  let ev =
    Engine.schedule_after engine ~delay (fun () ->
        fn ();
        match !h with
        | Some ev -> Engine.reschedule_after engine ev ~delay
        | None -> assert false)
  in
  h := Some ev

let install_tick t =
  install_periodic t.engine ~delay:Sched.tick_interval (fun () -> tick t)

let install_decay t =
  install_periodic t.engine ~delay:Sched.decay_interval (fun () -> decay t)

let create engine ?(ctx_switch_cost = 0.) ?(start_clock = true) ~name () =
  let t =
    { cpu_name = name; engine; sched = Sched.create (); ctx_switch_cost;
      clock = Engine.clock_cell engine; hardq = ring_create ();
      softq = ring_create (); procs = Hashtbl.create 17; next_pid = 1;
      r_cls = cls_idle; r_label = ""; r_tpkt = -1; r_poll = false;
      r_disp = no_work; r_arg = no_arg; r_iarg = 0; r_proc = None;
      r_ev = Engine.none; acc = Array.make 7 0.; seg = [| 0. |];
      cost = [| 0. |]; cur = None; last_user = -1; in_dispatch = false;
      redo = false; force_resched = false; seg_tgt = None; wake_tgt = None;
      blocked_on = Proc.waitq "(none)"; eff_proc = None; eff_handler = None;
      n_ctx_switch = 0; n_suspend = 0;
      n_soft_dispatch = 0; n_hard_dispatch = 0; created_at = Engine.now engine;
      tracer = Trace.null (); ledger = Ledger.create (); hint_proto = false;
      hint_poll = false; hint_flow = -1 }
  in
  (* One dispatcher per event kind, registered once: firing a segment or
     a sleeper's timer allocates nothing. *)
  t.seg_tgt <- Some (Engine.target engine (fun () -> fire_segment t));
  t.wake_tgt <- Some (Engine.target engine (fun p -> fire_wake t p));
  if start_clock then begin
    install_tick t;
    install_decay t
  end;
  t

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)
(* ------------------------------------------------------------------ *)

let spawn t ?(nice = 0) ?(working_set = 0.) ~name body =
  let thread = Sched.add_thread t.sched ~nice ~name () in
  let now = t.clock.(0) in
  let rec p : Proc.t =
    { Proc.pid = t.next_pid; name; thread; working_set_us = working_set;
      pending = Proc.Start body;
      tm =
        { Proc.work_left = 0.; cpu_time = 0.; overhead_time = 0.;
          started_at = now; exited_at = Time.zero; last_on_cpu = now };
      k = Proc.no_k; exited = false;
      exit_waiters = Proc.waitq (name ^ ".exit"); lcls = 0; lflow = -1;
      self_opt = Some p }
  in
  t.next_pid <- t.next_pid + 1;
  Hashtbl.add t.procs (Sched.tid thread) p;
  Ledger.set_name t.ledger ~pid:p.Proc.pid name;
  Trace.thread_state t.tracer ~pid:p.Proc.pid ~state:Trace.Spawned;
  Sched.make_runnable_at t.sched ~clock:t.clock thread;
  settle t;
  p

let join (p : Proc.t) = if not p.Proc.exited then Proc.block p.Proc.exit_waiters

let wakeup_one t (wq : Proc.waitq) =
  if Proc.waitq_length wq = 0 then false
  else begin
    wake t (Proc.waitq_pop wq);
    settle t;
    true
  end

let wakeup_all t (wq : Proc.waitq) =
  let n = Proc.waitq_length wq in
  for _ = 1 to n do
    wake t (Proc.waitq_pop wq)
  done;
  settle t;
  n

let proc_count t = Hashtbl.length t.procs

let post_hard t ?(label = "hardintr") ?(tpkt = -1) ~cost action =
  let q = t.hardq in
  let i = ring_slot_back q in
  ring_set q i label tpkt false run_thunk (Obj.repr action) 0;
  q.costs.(i) <- cost;
  settle t

let post_soft t ?(label = "softintr") ?(tpkt = -1) ?(poll = false) ~cost action =
  let q = t.softq in
  let i = ring_slot_back q in
  ring_set q i label tpkt poll run_thunk (Obj.repr action) 0;
  q.costs.(i) <- cost;
  settle t

let post_hard_to t ~label ~tpkt (tgt : 'a target) (v : 'a) iarg =
  let q = t.hardq in
  let i = ring_slot_back q in
  ring_set q i label tpkt false tgt (Obj.repr v) iarg;
  q.costs.(i) <- t.cost.(0);
  settle t

let post_soft_to t ~label ~tpkt ~poll (tgt : 'a target) (v : 'a) iarg =
  let q = t.softq in
  let i = ring_slot_back q in
  ring_set q i label tpkt poll tgt (Obj.repr v) iarg;
  q.costs.(i) <- t.cost.(0);
  settle t

(* A process segment's cost is staged in the same cell as a typed post's
   and the constant [Proc.Compute] effect is performed; the handler reads
   the cell at once.  Passing the cost in the effect would allocate the
   effect block and box a computed float on every call. *)
let compute_staged t = if t.cost.(0) > 0. then Effect.perform Proc.Compute

let compute t d =
  t.cost.(0) <- d;
  compute_staged t

(* [compute_proto] is [compute_staged] with ledger attribution: the
   segment is receiver-context protocol work serving [flow].  The hint is
   consumed synchronously by the Compute effect handler (or cleared below
   when the cost is zero and no effect fires), so it cannot leak onto
   another process's segment. *)
let compute_proto t ~flow =
  t.hint_proto <- true;
  t.hint_flow <- flow;
  compute_staged t;
  t.hint_proto <- false;
  t.hint_flow <- -1

(* [compute_poll] is the process-context analogue for ksoftirqd: the
   segment is NAPI poll work, ledgered as [Poll] against the polling
   process itself (Linux charges ksoftirqd, not the victim). *)
let compute_poll t ~flow =
  t.hint_poll <- true;
  t.hint_flow <- flow;
  compute_staged t;
  t.hint_poll <- false;
  t.hint_flow <- -1

let ledger t = t.ledger

let set_account t (p : Proc.t) ~owner =
  ignore t;
  Sched.set_account p.Proc.thread
    (Option.map (fun (o : Proc.t) -> o.Proc.thread) owner)

let self_running t = if t.r_cls = cls_user then t.r_proc else None

let curproc t = t.cur

let hard_pending t = t.hardq.len
let soft_pending t = t.softq.len
let time_hard t = t.acc.(k_hard)
let time_soft t = t.acc.(k_soft)
let time_user t = t.acc.(k_user)
let time_poll t = t.acc.(k_poll)

let time_idle t =
  let elapsed = Engine.now t.engine -. t.created_at in
  Float.max 0. (elapsed -. time_hard t -. time_soft t -. time_user t)

let context_switches t = t.n_ctx_switch
let suspensions t = t.n_suspend
let softirq_dispatches t = t.n_soft_dispatch
let hardirq_dispatches t = t.n_hard_dispatch

let utilization t =
  let elapsed = Engine.now t.engine -. t.created_at in
  if elapsed <= 0. then 0.
  else (time_hard t +. time_soft t +. time_user t) /. elapsed

(* Sorted by pid so callers observe processes in a reproducible order. *)
let iter_procs t f = Lrp_det.Det.iter_sorted (fun _ p -> f p) t.procs

let register_metrics t m ~prefix =
  let module Metrics = Lrp_trace.Metrics in
  Metrics.gauge m (prefix ^ ".time_hard_us") (fun () -> time_hard t);
  Metrics.gauge m (prefix ^ ".time_soft_us") (fun () -> time_soft t);
  Metrics.gauge m (prefix ^ ".time_user_us") (fun () -> time_user t);
  Metrics.gauge m (prefix ^ ".time_idle_us") (fun () -> time_idle t);
  Metrics.gauge m (prefix ^ ".ctx_switches") (fun () ->
      float_of_int t.n_ctx_switch);
  Metrics.gauge m (prefix ^ ".hard_dispatches") (fun () ->
      float_of_int t.n_hard_dispatch);
  Metrics.gauge m (prefix ^ ".soft_dispatches") (fun () ->
      float_of_int t.n_soft_dispatch);
  Metrics.gauge m (prefix ^ ".procs") (fun () ->
      float_of_int (Hashtbl.length t.procs));
  Sched.register_metrics t.sched m ~prefix:(prefix ^ ".sched")
