(* Tests for the process/CPU model: coroutine effects, dispatch levels,
   preemption, accounting. *)

open Lrp_engine
open Lrp_sim

let mk () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~name:"host" () in
  (eng, cpu)

let test_single_compute () =
  let eng, cpu = mk () in
  let done_at = ref (-1.) in
  let _p =
    Cpu.spawn cpu ~name:"worker" (fun _self ->
        Cpu.compute cpu 1_000.;
        done_at := Engine.now eng)
  in
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (float 1e-6)) "work completed after 1000us" 1_000. !done_at;
  Alcotest.(check (float 1e-6)) "user time charged" 1_000. (Cpu.time_user cpu)

let test_sequential_computes () =
  let eng, cpu = mk () in
  let marks = ref [] in
  ignore
    (Cpu.spawn cpu ~name:"worker" (fun _ ->
         Cpu.compute cpu 100.;
         marks := Engine.now eng :: !marks;
         Cpu.compute cpu 250.;
         marks := Engine.now eng :: !marks));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (list (float 1e-6))) "marks" [ 100.; 350. ] (List.rev !marks)

let test_two_procs_share_cpu () =
  (* Two equal compute-bound processes must finish in roughly twice the
     standalone time, interleaved by the quantum. *)
  let eng, cpu = mk () in
  let finish = Hashtbl.create 4 in
  let spawn_one name =
    ignore
      (Cpu.spawn cpu ~name (fun _ ->
           Cpu.compute cpu (Time.sec 1.);
           Hashtbl.replace finish name (Engine.now eng)))
  in
  spawn_one "a";
  spawn_one "b";
  Engine.run eng ~until:(Time.sec 5.);
  let fa = Hashtbl.find finish "a" and fb = Hashtbl.find finish "b" in
  Alcotest.(check bool) "both finish near 2s" true
    (Time.to_sec fa > 1.8 && Time.to_sec fa < 2.2
     && Time.to_sec fb > 1.8 && Time.to_sec fb < 2.2);
  Alcotest.(check bool) "many context switches happened" true
    (Cpu.context_switches cpu > 10)

let test_block_wakeup () =
  let eng, cpu = mk () in
  let wq = Proc.waitq "test" in
  let woke_at = ref (-1.) in
  ignore
    (Cpu.spawn cpu ~name:"sleeper" (fun _ ->
         Proc.block wq;
         woke_at := Engine.now eng));
  ignore
    (Engine.schedule eng ~at:500. (fun () -> ignore (Cpu.wakeup_one cpu wq)));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (float 1e-6)) "woken at 500" 500. !woke_at

let test_wakeup_all () =
  let eng, cpu = mk () in
  let wq = Proc.waitq "test" in
  let woken = ref 0 in
  for i = 1 to 3 do
    ignore
      (Cpu.spawn cpu ~name:(Printf.sprintf "s%d" i) (fun _ ->
           Proc.block wq;
           incr woken))
  done;
  ignore (Engine.schedule eng ~at:100. (fun () -> ignore (Cpu.wakeup_all cpu wq)));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check int) "all woken" 3 !woken

let test_wakeup_one_is_fifo () =
  let eng, cpu = mk () in
  let wq = Proc.waitq "test" in
  let order = ref [] in
  for i = 1 to 3 do
    ignore
      (Cpu.spawn cpu ~name:(Printf.sprintf "s%d" i) (fun _ ->
           Proc.block wq;
           order := i :: !order))
  done;
  ignore (Engine.schedule eng ~at:100. (fun () -> ignore (Cpu.wakeup_one cpu wq)));
  ignore (Engine.schedule eng ~at:200. (fun () -> ignore (Cpu.wakeup_one cpu wq)));
  ignore (Engine.schedule eng ~at:300. (fun () -> ignore (Cpu.wakeup_one cpu wq)));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (list int)) "FIFO wake order" [ 1; 2; 3 ] (List.rev !order)

let test_sleep_for () =
  let eng, cpu = mk () in
  let woke_at = ref (-1.) in
  ignore
    (Cpu.spawn cpu ~name:"sleeper" (fun _ ->
         Proc.sleep_for (Time.ms 3.);
         woke_at := Engine.now eng));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (float 1e-6)) "slept 3ms" (Time.ms 3.) !woke_at

let test_hard_preempts_user () =
  let eng, cpu = mk () in
  let user_done = ref (-1.) in
  let intr_done = ref (-1.) in
  ignore
    (Cpu.spawn cpu ~name:"worker" (fun _ ->
         Cpu.compute cpu 1_000.;
         user_done := Engine.now eng));
  ignore
    (Engine.schedule eng ~at:200. (fun () ->
         Cpu.post_hard cpu ~cost:300. (fun () -> intr_done := Engine.now eng)));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (float 1e-6)) "interrupt ran immediately" 500. !intr_done;
  Alcotest.(check (float 1e-6)) "user delayed by interrupt" 1_300. !user_done;
  Alcotest.(check (float 1e-6)) "hard time" 300. (Cpu.time_hard cpu)

let test_hard_preempts_soft () =
  let eng, cpu = mk () in
  let log = ref [] in
  ignore
    (Engine.schedule eng ~at:0. (fun () ->
         Cpu.post_soft cpu ~cost:1_000. (fun () ->
             log := ("soft", Engine.now eng) :: !log)));
  ignore
    (Engine.schedule eng ~at:100. (fun () ->
         Cpu.post_hard cpu ~cost:50. (fun () ->
             log := ("hard", Engine.now eng) :: !log)));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (list (pair string (float 1e-6))))
    "hard finishes first; soft resumes and finishes late"
    [ ("hard", 150.); ("soft", 1_050.) ]
    (List.rev !log)

let test_soft_preempts_user_only () =
  let eng, cpu = mk () in
  let user_done = ref (-1.) in
  ignore
    (Cpu.spawn cpu ~name:"worker" (fun _ ->
         Cpu.compute cpu 400.;
         user_done := Engine.now eng));
  ignore
    (Engine.schedule eng ~at:100. (fun () ->
         Cpu.post_soft cpu ~cost:200. (fun () -> ())));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (float 1e-6)) "user resumed after softint" 600. !user_done;
  Alcotest.(check (float 1e-6)) "soft time" 200. (Cpu.time_soft cpu)

let test_interrupt_storm_starves_user () =
  (* The livelock mechanism in miniature: interrupt work arriving faster
     than it can be processed leaves zero CPU for processes. *)
  let eng, cpu = mk () in
  let progressed = ref 0. in
  ignore
    (Cpu.spawn cpu ~name:"victim" (fun _ ->
         let rec loop () =
           Cpu.compute cpu 100.;
           progressed := !progressed +. 100.;
           loop ()
         in
         loop ()));
  (* 100us of hard-interrupt work every 80us: oversubscribed. *)
  let rec storm () =
    Cpu.post_hard cpu ~cost:100. (fun () -> ());
    if Engine.now eng < Time.ms 50. then
      ignore (Engine.schedule_after eng ~delay:80. storm)
  in
  ignore (Engine.schedule eng ~at:1_000. storm);
  Engine.run eng ~until:(Time.ms 60.);
  Alcotest.(check bool)
    (Printf.sprintf "victim starved (progressed %.0fus of ~1000us)" !progressed)
    true
    (!progressed <= 1_100.)

let test_priority_preemption () =
  (* A woken thread with much better priority preempts a CPU hog. *)
  let eng, cpu = mk () in
  let wq = Proc.waitq "wq" in
  let woke = ref (-1.) in
  ignore
    (Cpu.spawn cpu ~name:"hog" ~nice:10 (fun _ ->
         let rec loop () =
           Cpu.compute cpu 1_000.;
           loop ()
         in
         loop ()));
  ignore
    (Cpu.spawn cpu ~name:"interactive" (fun _ ->
         Proc.block wq;
         Cpu.compute cpu 10.;
         woke := Engine.now eng));
  ignore (Engine.schedule eng ~at:50_500. (fun () -> ignore (Cpu.wakeup_one cpu wq)));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check bool)
    (Printf.sprintf "interactive ran promptly (at %.0fus)" !woke)
    true
    (!woke >= 50_510. && !woke < 52_000.)

let test_ctx_switch_penalty () =
  (* With a working-set penalty, alternating processes pay cache reloads:
     total completion takes longer than the pure compute time. *)
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~ctx_switch_cost:50. ~name:"host" () in
  let finish = ref Time.zero in
  let spawn_one name =
    ignore
      (Cpu.spawn cpu ~name ~working_set:500. (fun _ ->
           Cpu.compute cpu (Time.sec 0.5);
           if Engine.now eng > !finish then finish := Engine.now eng))
  in
  spawn_one "a";
  spawn_one "b";
  Engine.run eng ~until:(Time.sec 5.);
  let overhead = Time.to_sec !finish -. 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "switch overhead visible (%.3fs extra)" overhead)
    true
    (overhead > 0.003);
  Alcotest.(check bool) "overhead accounted" true
    (Cpu.time_user cpu > Time.sec 1.)

let test_tick_misaccounting () =
  (* Interrupt time is charged to the interrupted process: a process that
     merely coexists with an interrupt storm accumulates p_cpu. *)
  let eng, cpu = mk () in
  let victim =
    Cpu.spawn cpu ~name:"victim" (fun _ ->
        let rec loop () =
          Cpu.compute cpu 1_000.;
          loop ()
        in
        loop ())
  in
  (* Interrupt work eats 90% of the CPU. *)
  let rec storm () =
    Cpu.post_hard cpu ~cost:900. (fun () -> ());
    if Engine.now eng < Time.ms 900. then
      ignore (Engine.schedule_after eng ~delay:1_000. storm)
  in
  ignore (Engine.schedule eng ~at:0. storm);
  Engine.run eng ~until:(Time.ms 990.);
  let ticks = Lrp_sched.Sched.ticks_charged victim.Proc.thread in
  (* ~99 ticks happen in 990ms; the victim only ran ~10% of the time but is
     charged for nearly all of them. *)
  Alcotest.(check bool)
    (Printf.sprintf "victim charged %d ticks despite ~10%% CPU" ticks)
    true
    (ticks > 80)

let test_join () =
  let eng, cpu = mk () in
  let joined_at = ref (-1.) in
  let child =
    Cpu.spawn cpu ~name:"child" (fun _ -> Cpu.compute cpu 700.)
  in
  ignore
    (Cpu.spawn cpu ~name:"parent" (fun _ ->
         Cpu.join child;
         joined_at := Engine.now eng));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (float 1e-6)) "joined when child exited" 700. !joined_at;
  Alcotest.(check bool) "child exited" true child.Proc.exited;
  Alcotest.(check int) "only parent was reaped too" 0 (Cpu.proc_count cpu)

let test_join_exited () =
  let eng, cpu = mk () in
  let ok = ref false in
  let child = Cpu.spawn cpu ~name:"child" (fun _ -> ()) in
  ignore
    (Cpu.spawn cpu ~name:"parent" (fun _ ->
         Proc.sleep_for 100.;
         Cpu.join child;
         (* joining an already-dead process returns immediately *)
         ok := true));
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check bool) "join on exited child returns" true !ok

let test_yield_round_robin () =
  let eng, cpu = mk () in
  let log = ref [] in
  let spawn_one name =
    ignore
      (Cpu.spawn cpu ~name (fun _ ->
           for _ = 1 to 3 do
             Cpu.compute cpu 10.;
             log := name :: !log;
             Proc.yield ()
           done))
  in
  spawn_one "a";
  spawn_one "b";
  Engine.run eng ~until:(Time.sec 1.);
  Alcotest.(check (list string)) "yield alternates"
    [ "a"; "b"; "a"; "b"; "a"; "b" ]
    (List.rev !log)

let test_idle_time () =
  let eng, cpu = mk () in
  ignore (Cpu.spawn cpu ~name:"w" (fun _ -> Cpu.compute cpu 1_000.));
  Engine.run eng ~until:(Time.ms 10.);
  Alcotest.(check (float 1.)) "idle = elapsed - busy" 9_000. (Cpu.time_idle cpu);
  Alcotest.(check bool) "utilization = 10%" true
    (Float.abs (Cpu.utilization cpu -. 0.1) < 0.01)

let test_zero_cost_work () =
  let eng, cpu = mk () in
  let ran = ref false in
  ignore
    (Engine.schedule eng ~at:10. (fun () ->
         Cpu.post_hard cpu ~cost:0. (fun () -> ran := true)));
  Engine.run eng ~until:(Time.ms 1.);
  Alcotest.(check bool) "zero-cost interrupt action ran" true !ran

(* --- the per-level work ring ------------------------------------------- *)

(* Posts that outgrow the 16-slot ring while its head sits mid-ring must
   keep FIFO order: the ring first wraps its tail, then grows and unwraps
   the pending items. *)
let test_ring_wrap_and_growth () =
  let eng, cpu = mk () in
  let log = ref [] in
  let post i =
    Cpu.post_soft cpu ~cost:10. (fun () -> log := (i, Engine.now eng) :: !log)
  in
  let pending_after = ref (-1) in
  ignore
    (Engine.schedule eng ~at:0. (fun () ->
         for i = 0 to 9 do
           post i
         done));
  (* At 85 items 0-7 are done, 8 is running and 9 is pending at ring
     index 9: 20 more posts wrap the tail, then force a growth. *)
  ignore
    (Engine.schedule eng ~at:85. (fun () ->
         for i = 10 to 29 do
           post i
         done;
         pending_after := Cpu.soft_pending cpu));
  Engine.run eng ~until:(Time.ms 1.);
  Alcotest.(check int) "pending past the initial capacity" 21 !pending_after;
  Alcotest.(check (list (pair int (float 1e-6))))
    "FIFO completion, back to back"
    (List.init 30 (fun i -> (i, float_of_int ((i + 1) * 10))))
    (List.rev !log);
  Alcotest.(check int) "ring drained" 0 (Cpu.soft_pending cpu)

(* Hard work arriving mid-soft preempts it; the preempted item goes back
   at the head of its level, ahead of soft work posted before it. *)
let test_preempted_item_resumes_first () =
  let eng, cpu = mk () in
  let log = ref [] in
  let note name () = log := (name, Engine.now eng) :: !log in
  ignore
    (Engine.schedule eng ~at:0. (fun () ->
         Cpu.post_soft cpu ~cost:100. (note "a");
         Cpu.post_soft cpu ~cost:100. (note "b")));
  ignore
    (Engine.schedule eng ~at:50. (fun () ->
         Cpu.post_hard cpu ~cost:10. (note "h1");
         Cpu.post_hard cpu ~cost:10. (note "h2")));
  Engine.run eng ~until:(Time.ms 1.);
  Alcotest.(check (list (pair string (float 1e-6))))
    "hard work in order, then the preempted soft item, then the rest"
    [ ("h1", 60.); ("h2", 70.); ("a", 120.); ("b", 220.) ]
    (List.rev !log);
  Alcotest.(check int) "a dispatched twice, b once" 3
    (Cpu.softirq_dispatches cpu);
  Alcotest.(check int) "hard dispatches" 2 (Cpu.hardirq_dispatches cpu);
  Alcotest.(check (float 1e-6)) "soft time" 200. (Cpu.time_soft cpu);
  Alcotest.(check (float 1e-6)) "hard time" 20. (Cpu.time_hard cpu)

(* Closure posts and typed posts share one FIFO per level. *)
let test_closure_and_typed_posts_interleave () =
  let eng, cpu = mk () in
  let log = ref [] in
  let tgt = Cpu.target cpu (fun name i -> log := (name ^ string_of_int i, Engine.now eng) :: !log) in
  let typed i =
    (Cpu.stage cpu).(0) <- 5.;
    Cpu.post_soft_to cpu ~label:"typed" ~tpkt:(-1) ~poll:false tgt "t" i
  in
  let closure i =
    Cpu.post_soft cpu ~cost:5. (fun () ->
        log := ("c" ^ string_of_int i, Engine.now eng) :: !log)
  in
  ignore
    (Engine.schedule eng ~at:0. (fun () ->
         closure 0;
         typed 1;
         closure 2;
         typed 3;
         typed 4;
         closure 5));
  ignore
    (Engine.schedule eng ~at:100. (fun () ->
         (Cpu.stage cpu).(0) <- 7.;
         Cpu.post_hard_to cpu ~label:"typed-hard" ~tpkt:(-1) tgt "h" 6));
  Engine.run eng ~until:(Time.ms 1.);
  Alcotest.(check (list (pair string (float 1e-6))))
    "posting order, each item's own cost"
    [ ("c0", 5.); ("t1", 10.); ("c2", 15.); ("t3", 20.); ("t4", 25.);
      ("c5", 30.); ("h6", 107.) ]
    (List.rev !log);
  Alcotest.(check (float 1e-6)) "typed hard cost charged" 7. (Cpu.time_hard cpu)

(* Time conservation: every elapsed microsecond is hard, soft, user or
   idle, with interrupts preempting processes and each other. *)
let test_time_conservation () =
  let eng, cpu = mk () in
  ignore
    (Cpu.spawn cpu ~name:"spin" (fun _ ->
         for _ = 1 to 40 do
           Cpu.compute cpu 300.
         done));
  ignore
    (Cpu.spawn cpu ~name:"nap" (fun _ ->
         for _ = 1 to 10 do
           Cpu.compute cpu 50.;
           Proc.sleep_for 700.
         done));
  for i = 0 to 99 do
    ignore
      (Engine.schedule eng ~at:(float_of_int (i * 173)) (fun () ->
           Cpu.post_hard cpu ~cost:20. (fun () ->
               Cpu.post_soft cpu ~cost:45. (fun () -> ()))))
  done;
  let until = Time.ms 40. in
  Engine.run eng ~until;
  let sum =
    Cpu.time_hard cpu +. Cpu.time_soft cpu +. Cpu.time_user cpu
    +. Cpu.time_idle cpu
  in
  Alcotest.(check (float 1e-6)) "hard + soft + user + idle = elapsed" until sum;
  Alcotest.(check bool) "every level ran" true
    (Cpu.time_hard cpu > 0. && Cpu.time_soft cpu > 0.
     && Cpu.time_user cpu > 0. && Cpu.time_idle cpu > 0.)

(* Steady state of the typed path: post, dispatch, segment end, action.
   Counted exactly with [Gc.minor_words] deltas after a warm-up, as the
   perf baseline does. *)
let typed_loop_words ~soft =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~start_clock:false ~name:"host" () in
  let hits = ref 0 in
  let tgt = Cpu.target cpu (fun (_ : unit) i -> hits := !hits + i) in
  let cycle () =
    (Cpu.stage cpu).(0) <- 3.;
    if soft then
      Cpu.post_soft_to cpu ~label:"rx" ~tpkt:7 ~poll:false tgt () 1
    else Cpu.post_hard_to cpu ~label:"rx" ~tpkt:7 tgt () 1;
    ignore (Engine.step eng)
  in
  for _ = 1 to 20_000 do
    cycle ()
  done;
  let n = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    cycle ()
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every item ran" (20_000 + n) !hits;
  dw /. float_of_int n

let test_typed_post_allocates_nothing () =
  Alcotest.(check (float 0.)) "hard: words per item" 0.
    (typed_loop_words ~soft:false);
  Alcotest.(check (float 0.)) "soft: words per item" 0.
    (typed_loop_words ~soft:true)

let suite =
  [ Alcotest.test_case "single compute" `Quick test_single_compute;
    Alcotest.test_case "sequential computes" `Quick test_sequential_computes;
    Alcotest.test_case "two procs share the CPU" `Quick test_two_procs_share_cpu;
    Alcotest.test_case "block / wakeup_one" `Quick test_block_wakeup;
    Alcotest.test_case "wakeup_all" `Quick test_wakeup_all;
    Alcotest.test_case "wakeup_one is FIFO" `Quick test_wakeup_one_is_fifo;
    Alcotest.test_case "sleep_for" `Quick test_sleep_for;
    Alcotest.test_case "hard interrupt preempts user" `Quick test_hard_preempts_user;
    Alcotest.test_case "hard preempts soft" `Quick test_hard_preempts_soft;
    Alcotest.test_case "soft preempts user only" `Quick test_soft_preempts_user_only;
    Alcotest.test_case "interrupt storm starves processes" `Quick
      test_interrupt_storm_starves_user;
    Alcotest.test_case "wakeup preempts worse-priority hog" `Quick
      test_priority_preemption;
    Alcotest.test_case "context-switch / cache penalty" `Quick test_ctx_switch_penalty;
    Alcotest.test_case "tick mis-accounting charges the interrupted" `Quick
      test_tick_misaccounting;
    Alcotest.test_case "join" `Quick test_join;
    Alcotest.test_case "join on exited process" `Quick test_join_exited;
    Alcotest.test_case "yield round-robins" `Quick test_yield_round_robin;
    Alcotest.test_case "idle time accounting" `Quick test_idle_time;
    Alcotest.test_case "zero-cost interrupt work" `Quick test_zero_cost_work;
    Alcotest.test_case "work ring wraps and grows in FIFO order" `Quick
      test_ring_wrap_and_growth;
    Alcotest.test_case "preempted item resumes first" `Quick
      test_preempted_item_resumes_first;
    Alcotest.test_case "closure and typed posts interleave" `Quick
      test_closure_and_typed_posts_interleave;
    Alcotest.test_case "hard + soft + user + idle = elapsed" `Quick
      test_time_conservation;
    Alcotest.test_case "typed post cycle allocates nothing" `Quick
      test_typed_post_allocates_nothing ]
