open Lrp_engine

let tick_interval = Time.ms 10.

let decay_interval = Time.sec 1.

let quantum_ticks = 10

let priority_user = 50

let priority_max = 127

type state = Runnable | Sleeping | Exited

type thread = {
  tid : int;
  name : string;
  mutable nice : int;
  p_cpu : float array;
      (* 1 slot, for the same reason as [sleep_start]: a tick charges it *)
  mutable priority : int;
  mutable state : state;
  mutable enqueue_seq : int;
  mutable quantum : int;
  sleep_start : float array;
      (* 1 slot: a mutable float field of this mixed record would box on
         every store, and the CPU sleeps a thread per blocking call *)
  mutable account : thread option;
  mutable ticks : int;
}

(* Live threads sit in [threads.(0 .. n - 1)], oldest first; the array
   grows by doubling and an exit closes the gap in place, so the dispatch
   path's scans and removals allocate nothing. *)
type t = {
  mutable threads : thread array;
  mutable n : int;
  mutable next_tid : int;
  mutable next_seq : int;
  mutable loadavg : float;
  now_cell : float array;  (* stages [~now] for the float-argument API *)
}

let create () =
  { threads = [||]; n = 0; next_tid = 1; next_seq = 0; loadavg = 0.;
    now_cell = [| 0. |] }

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

let recompute_priority th =
  match th.account with
  | Some owner ->
      th.priority <-
        clamp priority_user priority_max
          (priority_user + (int_of_float owner.p_cpu.(0) / 4) + (2 * owner.nice))
  | None ->
      th.priority <-
        clamp priority_user priority_max
          (priority_user + (int_of_float th.p_cpu.(0) / 4) + (2 * th.nice))

let add_thread t ?(nice = 0) ~name () =
  let th =
    { tid = t.next_tid; name; nice = clamp (-20) 20 nice; p_cpu = [| 0. |];
      priority = priority_user; state = Sleeping; enqueue_seq = 0; quantum = 0;
      sleep_start = [| Time.zero |]; account = None; ticks = 0 }
  in
  t.next_tid <- t.next_tid + 1;
  recompute_priority th;
  if t.n = Array.length t.threads then begin
    let a = Array.make (max 8 (2 * t.n)) th in
    Array.blit t.threads 0 a 0 t.n;
    t.threads <- a
  end;
  t.threads.(t.n) <- th;
  t.n <- t.n + 1;
  th

let set_account th owner = th.account <- owner

let name th = th.name
let tid th = th.tid
let nice th = th.nice
let priority th = th.priority
let p_cpu th = th.p_cpu.(0)
let is_runnable th = th.state = Runnable
let is_sleeping th = th.state = Sleeping
let ticks_charged th = th.ticks

let runnable_count t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if t.threads.(i).state = Runnable then incr c
  done;
  !c

let decay_factor load = 2. *. load /. ((2. *. load) +. 1.)

let make_runnable_at t ~clock th =
  match th.state with
  | Runnable -> ()
  | Exited ->
      (* alloc: cold — error path *)
      invalid_arg "Sched.make_runnable: thread has exited"
  | Sleeping ->
      (* 4.3BSD updatepri(): decay p_cpu once per whole second slept, so a
         thread that waits on I/O regains good priority. *)
      let slept_sec =
        (* [Time.to_sec], written out: a float-returning call boxes *)
        int_of_float ((clock.(0) -. th.sleep_start.(0)) /. 1_000_000.)
      in
      if slept_sec > 0 then begin
        (* [decay_factor t.loadavg], written out for the same reason *)
        let load = t.loadavg in
        let f = 2. *. load /. ((2. *. load) +. 1.) in
        for _ = 1 to min slept_sec 20 do
          th.p_cpu.(0) <- th.p_cpu.(0) *. f
        done
      end;
      recompute_priority th;
      th.state <- Runnable;
      th.enqueue_seq <- t.next_seq;
      t.next_seq <- t.next_seq + 1;
      th.quantum <- 0

let make_runnable t ~now th =
  t.now_cell.(0) <- now;
  make_runnable_at t ~clock:t.now_cell th

let sleep_at _t ~clock th =
  if th.state = Exited then
    (* alloc: cold — error path *)
    invalid_arg "Sched.sleep: thread has exited";
  th.state <- Sleeping;
  th.sleep_start.(0) <- clock.(0)

let sleep t ~now th =
  t.now_cell.(0) <- now;
  sleep_at t ~clock:t.now_cell th

let exit_thread t th =
  th.state <- Exited;
  let j = ref 0 in
  for i = 0 to t.n - 1 do
    let other = t.threads.(i) in
    if other.tid <> th.tid then begin
      t.threads.(!j) <- other;
      incr j
    end
  done;
  t.n <- !j

let better a b =
  a.priority < b.priority || (a.priority = b.priority && a.enqueue_seq < b.enqueue_seq)

(* Index of the best runnable thread, or [-1]: the priority fold as an
   index scan, so a dispatch decision builds no option. *)
let best_index t =
  let best = ref (-1) in
  for i = 0 to t.n - 1 do
    let th = t.threads.(i) in
    if th.state = Runnable && (!best < 0 || better th t.threads.(!best)) then
      best := i
  done;
  !best

let pick_tid t =
  let i = best_index t in
  if i < 0 then -1 else t.threads.(i).tid

let pick t =
  let i = best_index t in
  if i < 0 then None else Some t.threads.(i)

let should_preempt t ~current =
  let i = best_index t in
  i >= 0
  &&
  let best = t.threads.(i) in
  best.tid <> current.tid && best.priority < current.priority

let requeue t th =
  th.enqueue_seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  th.quantum <- 0

let charge_tick _t th =
  let target = match th.account with Some owner -> owner | None -> th in
  let c = target.p_cpu.(0) +. 1. in
  target.p_cpu.(0) <- (if c < 255. then c else 255.);
  target.ticks <- target.ticks + 1;
  recompute_priority target;
  recompute_priority th;
  th.quantum <- th.quantum + 1

let quantum_expired th = th.quantum >= quantum_ticks

let reset_quantum th = th.quantum <- 0

let decay t =
  (* Smooth the instantaneous runnable count into a load average, then decay
     every thread's usage, as 4.3BSD's schedcpu() does once per second. *)
  let inst = float_of_int (runnable_count t) in
  t.loadavg <- (0.8 *. t.loadavg) +. (0.2 *. inst);
  let f = decay_factor t.loadavg in
  (* Newest first: a thread that accounts to an older owner (LRP's APP
     thread) recomputes its priority from the owner's usage before the
     owner's own decay, as schedcpu() walking the process list does. *)
  for i = t.n - 1 downto 0 do
    let th = t.threads.(i) in
    th.p_cpu.(0) <- (f *. th.p_cpu.(0)) +. float_of_int th.nice;
    if th.p_cpu.(0) < 0. then th.p_cpu.(0) <- 0.;
    recompute_priority th
  done

let load_average t = t.loadavg

let register_metrics t m ~prefix =
  let module Metrics = Lrp_trace.Metrics in
  Metrics.gauge m (prefix ^ ".loadavg") (fun () -> t.loadavg);
  Metrics.gauge m (prefix ^ ".runnable") (fun () ->
      float_of_int (runnable_count t));
  Metrics.gauge m (prefix ^ ".threads") (fun () ->
      float_of_int t.n)

let pp_thread fmt th =
  Fmt.pf fmt "%s(tid=%d pri=%d p_cpu=%.1f %s)" th.name th.tid th.priority
    th.p_cpu.(0)
    (match th.state with
     | Runnable -> "run"
     | Sleeping -> "sleep"
     | Exited -> "exit")
