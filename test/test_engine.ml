(* Unit and property tests for the discrete-event engine. *)

open Lrp_engine

let check_float = Alcotest.(check (float 1e-9))

let test_time_units () =
  check_float "ms" 1_000. (Time.ms 1.);
  check_float "sec" 1_000_000. (Time.sec 1.);
  check_float "to_sec" 2.5 (Time.to_sec (Time.sec 2.5));
  check_float "to_ms" 42. (Time.to_ms (Time.us 42_000.))

let test_schedule_order () =
  let eng = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Engine.schedule eng ~at:30. (record "c"));
  ignore (Engine.schedule eng ~at:10. (record "a"));
  ignore (Engine.schedule eng ~at:20. (record "b"));
  Engine.run eng ~until:100.;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock advanced to until" 100. (Engine.now eng)

let test_fifo_ties () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule eng ~at:5. (fun () -> log := i :: !log))
  done;
  Engine.run eng ~until:10.;
  Alcotest.(check (list int)) "fifo among equal keys"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule eng ~at:10. (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Engine.is_pending eng h);
  Engine.cancel eng h;
  Alcotest.(check bool) "not pending" false (Engine.is_pending eng h);
  Engine.cancel eng h (* double cancel is a no-op *);
  Engine.run eng ~until:100.;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  Alcotest.(check int) "no live events" 0 (Engine.pending_events eng)

let test_schedule_from_event () =
  let eng = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule eng ~at:10. (fun () ->
         times := Engine.now eng :: !times;
         ignore
           (Engine.schedule_after eng ~delay:5. (fun () ->
                times := Engine.now eng :: !times))));
  Engine.run eng ~until:100.;
  Alcotest.(check (list (float 1e-9))) "chained" [ 10.; 15. ] (List.rev !times)

let test_schedule_past_rejected () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~at:50. (fun () -> ()));
  Engine.run eng ~until:60.;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule: at=10.000 is before now=60.000")
    (fun () -> ignore (Engine.schedule eng ~at:10. (fun () -> ())))

let test_run_while () =
  let eng = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule_after eng ~delay:1. tick)
  in
  ignore (Engine.schedule eng ~at:0. tick);
  Engine.run_while eng (fun () -> !count < 5) ~until:1000.;
  Alcotest.(check int) "stopped by predicate" 5 !count

let test_run_while_clock_on_early_stop () =
  let eng = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule_after eng ~delay:1. tick)
  in
  ignore (Engine.schedule eng ~at:0. tick);
  Engine.run_while eng (fun () -> !count < 5) ~until:1000.;
  (* The predicate stopped the loop at the fifth event (t=4); the clock
     must not have jumped ahead to [until]. *)
  check_float "clock stays at the last fired event" 4. (Engine.now eng);
  (* ... so continuing the simulation before [until] is still legal. *)
  ignore (Engine.schedule eng ~at:10. (fun () -> ()));
  Engine.run eng ~until:20.;
  check_float "resumed run advances normally" 20. (Engine.now eng);
  (* A cancelled entry that [step] pops is dropped without moving the
     clock: only a fired event is "the last fired event". *)
  let eng = Engine.create () in
  Engine.cancel eng (Engine.schedule eng ~at:5. (fun () -> ()));
  Alcotest.(check bool) "step pops the cancelled entry" true
    (Engine.step eng);
  check_float "a cancelled pop leaves the clock" 0. (Engine.now eng)

let test_reschedule_periodic () =
  let eng = Engine.create () in
  let count = ref 0 in
  let times = ref [] in
  let handle = ref None in
  let tick () =
    incr count;
    times := Engine.now eng :: !times;
    if !count < 4 then
      match !handle with
      | Some h -> Engine.reschedule_after eng h ~delay:10.
      | None -> ()
  in
  handle := Some (Engine.schedule eng ~at:10. tick);
  Engine.run eng ~until:1000.;
  Alcotest.(check int) "fired four times" 4 !count;
  Alcotest.(check (list (float 1e-9)))
    "periodic timestamps" [ 10.; 20.; 30.; 40. ] (List.rev !times);
  Alcotest.(check int) "nothing left pending" 0 (Engine.pending_events eng)

let test_reschedule_outside_callback () =
  let eng = Engine.create () in
  let h = Engine.schedule eng ~at:10. (fun () -> ()) in
  Alcotest.check_raises "re-arm only valid while firing"
    (Invalid_argument
       "Engine.reschedule: handle is not the currently-firing event")
    (fun () -> Engine.reschedule_after eng h ~delay:20.)

(* A fired thunk must not outlive its event: the slot it ran in is
   recycled, and a recycled slot may not pin the closure (and so its
   captures) until the slot's next occupant overwrites it. *)
let[@inline never] schedule_capturing eng seen =
  let captured = Bytes.make 64 'x' in
  Weak.set seen 0 (Some captured);
  ignore
    (Engine.schedule eng ~at:10. (fun () ->
         ignore (Sys.opaque_identity (Bytes.length captured))))

let test_fired_thunk_released () =
  let eng = Engine.create () in
  let seen = Weak.create 1 in
  schedule_capturing eng seen;
  Engine.run eng ~until:20.;
  Alcotest.(check int) "the thunk fired" 1 (Engine.events_executed eng);
  Gc.full_major ();
  Alcotest.(check bool) "captures unreachable with the engine live" false
    (Weak.check seen 0);
  ignore (Sys.opaque_identity eng)

let test_stale_handle_safety () =
  let eng = Engine.create () in
  (* Fire an event; its slot goes back on the free stack. *)
  let h1 = Engine.schedule eng ~at:10. (fun () -> ()) in
  Engine.run eng ~until:20.;
  Alcotest.(check bool) "fired handle no longer pending" false
    (Engine.is_pending eng h1);
  (* The very next schedule recycles that slot; the stale handle must not
     be able to touch the new occupant. *)
  let fired = ref false in
  let h2 = Engine.schedule eng ~at:30. (fun () -> fired := true) in
  Engine.cancel eng h1;
  Alcotest.(check bool) "stale cancel left the new event pending" true
    (Engine.is_pending eng h2);
  Engine.run eng ~until:40.;
  Alcotest.(check bool) "new event fired" true !fired

let test_events_executed () =
  let eng = Engine.create () in
  for i = 1 to 7 do
    ignore (Engine.schedule eng ~at:(float_of_int i) (fun () -> ()))
  done;
  Engine.run eng ~until:100.;
  Alcotest.(check int) "executed" 7 (Engine.events_executed eng)

(* --- property tests ------------------------------------------------- *)

(* The heap through its cell primitives, with the FIFO ranks the test
   assigns itself (the engine's wheel assigns them in production). *)
let heap_cell = [| 0.; infinity |]

let heap_add h ~seq ~key v =
  heap_cell.(0) <- key;
  Eheap.add_pre_cell h ~cell:heap_cell ~seq v

let heap_pop h =
  heap_cell.(1) <- infinity;
  let v = Eheap.pop_boundcell_into h ~cell:heap_cell ~default:(-1) in
  if v < 0 then None else Some (heap_cell.(0), v)

let prop_heap_sorted =
  QCheck.Test.make ~count:300 ~name:"eheap pops keys in nondecreasing order"
    QCheck.(list (float_bound_exclusive 1e6))
    (fun keys ->
      let h = Eheap.create () in
      List.iteri (fun i k -> heap_add h ~seq:i ~key:k i) keys;
      let rec drain acc =
        match heap_pop h with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      let out = drain [] in
      out = List.sort compare keys)

let prop_heap_fifo_on_equal =
  QCheck.Test.make ~count:200 ~name:"eheap is FIFO for equal keys"
    QCheck.(small_nat)
    (fun n ->
      let h = Eheap.create () in
      for i = 0 to n - 1 do
        heap_add h ~seq:i ~key:1. i
      done;
      let rec drain acc =
        match heap_pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      drain [] = List.init n (fun i -> i))

(* Model-based test of the mixed-operation behaviour: a stable sorted
   association list is the reference.  Few distinct keys force FIFO ties;
   long op lists push the heap past its initial 16 slots; occasional
   full drains check reuse of an emptied heap. *)
let prop_heap_model =
  QCheck.Test.make ~count:500 ~name:"eheap agrees with a sorted-list model"
    QCheck.(list small_nat)
    (fun ops ->
      let h = Eheap.create () in
      let model = ref [] in
      let next_id = ref 0 in
      let ok = ref true in
      let stable_insert key id =
        let rec ins = function
          | (k, v) :: tl when k <= key -> (k, v) :: ins tl
          | rest -> (key, id) :: rest
        in
        model := ins !model
      in
      List.iter
        (fun n ->
          if n mod 13 = 12 then begin
            List.iter (fun x -> if heap_pop h <> Some x then ok := false)
              !model;
            if heap_pop h <> None then ok := false;
            model := []
          end
          else if n mod 3 = 2 then begin
            let expect =
              match !model with
              | [] -> None
              | x :: tl ->
                  model := tl;
                  Some x
            in
            if heap_pop h <> expect then ok := false
          end
          else begin
            let key = float_of_int (n mod 8) in
            let id = !next_id in
            incr next_id;
            heap_add h ~seq:id ~key id;
            stable_insert key id
          end)
        ops;
      let rec drain () =
        match (heap_pop h, !model) with
        | None, [] -> true
        | Some got, expect :: tl when got = expect ->
            model := tl;
            drain ()
        | _ -> false
      in
      !ok && drain ())

let test_heap_growth () =
  (* Push well past the initial 16-slot capacity and drain in order. *)
  let h = Eheap.create () in
  for i = 199 downto 0 do
    heap_add h ~seq:(199 - i) ~key:(float_of_int i) i
  done;
  Alcotest.(check int) "length" 200 (Eheap.length h);
  for i = 0 to 199 do
    match heap_pop h with
    | Some (k, v) ->
        check_float "key order" (float_of_int i) k;
        Alcotest.(check int) "value order" i v
    | None -> Alcotest.fail "heap drained early"
  done;
  Alcotest.(check bool) "empty at the end" true (heap_pop h = None)

let prop_rng_deterministic =
  QCheck.Test.make ~count:100 ~name:"rng: same seed, same stream"
    QCheck.(small_int)
    (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      List.init 20 (fun _ -> Rng.bits64 a) = List.init 20 (fun _ -> Rng.bits64 b))

let prop_rng_int_bounds =
  QCheck.Test.make ~count:200 ~name:"rng: int stays within bound"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      List.for_all
        (fun _ ->
          let v = Rng.int r bound in
          v >= 0 && v < bound)
        (List.init 50 Fun.id))

let prop_rng_uniform_bounds =
  QCheck.Test.make ~count:200 ~name:"rng: uniform in [0,1)"
    QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      List.for_all
        (fun _ ->
          let v = Rng.uniform r in
          v >= 0. && v < 1.)
        (List.init 50 Fun.id))

let prop_rng_exponential_positive =
  QCheck.Test.make ~count:200 ~name:"rng: exponential draws are nonnegative"
    QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      List.for_all
        (fun _ -> Rng.exponential r ~mean:100. >= 0.)
        (List.init 50 Fun.id))

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.bits64 a) in
  let ys = List.init 10 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_split_seed () =
  let a = Rng.split_seed ~seed:42 ~index:0 in
  let b = Rng.split_seed ~seed:42 ~index:1 in
  Alcotest.(check bool) "different indices differ" true (a <> b);
  Alcotest.(check int) "deterministic" a (Rng.split_seed ~seed:42 ~index:0);
  Alcotest.(check bool) "nonnegative" true (a >= 0 && b >= 0);
  Alcotest.(check bool) "child differs from parent-as-seed" true
    (a <> 42);
  (* Derived streams must actually be distinct. *)
  let ra = Rng.create a and rb = Rng.create b in
  Alcotest.(check bool) "independent streams" true
    (List.init 10 (fun _ -> Rng.bits64 ra)
    <> List.init 10 (fun _ -> Rng.bits64 rb));
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.split_seed: index must be nonnegative") (fun () ->
      ignore (Rng.split_seed ~seed:42 ~index:(-1)))

let test_rng_exponential_mean () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:50.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f within 5%% of 50" mean)
    true
    (mean > 47.5 && mean < 52.5)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_heap_sorted; prop_heap_fifo_on_equal; prop_heap_model;
      prop_rng_deterministic; prop_rng_int_bounds; prop_rng_uniform_bounds;
      prop_rng_exponential_positive ]

let suite =
  [ Alcotest.test_case "time units" `Quick test_time_units;
    Alcotest.test_case "events run in time order" `Quick test_schedule_order;
    Alcotest.test_case "equal timestamps are FIFO" `Quick test_fifo_ties;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "events can schedule events" `Quick test_schedule_from_event;
    Alcotest.test_case "scheduling in the past is rejected" `Quick
      test_schedule_past_rejected;
    Alcotest.test_case "run_while stops on predicate" `Quick test_run_while;
    Alcotest.test_case "run_while early stop leaves the clock" `Quick
      test_run_while_clock_on_early_stop;
    Alcotest.test_case "reschedule re-arms a periodic event" `Quick
      test_reschedule_periodic;
    Alcotest.test_case "reschedule outside the callback is rejected" `Quick
      test_reschedule_outside_callback;
    Alcotest.test_case "stale handles cannot touch recycled slots" `Quick
      test_stale_handle_safety;
    Alcotest.test_case "eheap grows past its initial capacity" `Quick
      test_heap_growth;
    Alcotest.test_case "events_executed counts" `Quick test_events_executed;
    Alcotest.test_case "rng split gives a distinct stream" `Quick
      test_rng_split_independent;
    Alcotest.test_case "rng split_seed derives stable child seeds" `Quick
      test_rng_split_seed;
    Alcotest.test_case "rng exponential has the right mean" `Slow
      test_rng_exponential_mean ]
  @ qsuite
  @ [ Alcotest.test_case "a fired thunk's captures are released" `Quick
        test_fired_thunk_released ]
