(* End-to-end simulator benchmark.

     lrpbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     lrpbench --selftest

   Runs the workload's operations in rounds until [--seconds] of
   measurement have passed (after one warm-up round) and prints one JSON
   object as its last stdout line.  [--trace 0] reports the end-to-end
   metrics, host-side costs of the simulator; [--trace 1] alternates
   untraced rounds with rounds whose per-packet hooks are wrapped and
   timed, and reports the per-layer split.  Every operation is checked:
   packet conservation at any seed, the statistics digest at the default
   seed, and for the cluster the digest at 1 and at min(2, nproc)
   shards.  See README.md. *)

open Lrp_engine
open Lrp_kernel
module W = Workload
module H = Hooks

let default_seed = 42

(* Digests of each operation's statistics text at the default seed.  A
   change that alters what the simulator computes changes one of these; a
   change that only makes it faster does not. *)
let expected_digests =
  [ ("udp-overload/4.4BSD", 0xbfccb6ae6b4aeb8L);
    ("udp-overload/NI-LRP", 0x9a9038955c0913c1L);
    ("udp-overload/SOFT-LRP", 0xb9b0c2fa3d5eb9b8L);
    ("udp-overload/Early-Demux", 0x67ea991ed824bbecL);
    ("udp-overload/NAPI", 0x3c8b29684c21293dL);
    ("udp-overload/NAPI-GRO", 0xe17713630116bd76L);
    ("udp-overload/RSS", 0xed6267e14df1d0bfL);
    ("http-synflood/4.4BSD", 0xa1cdfcbeda2d1328L);
    ("http-synflood/SOFT-LRP", 0x9c24fe2e05ad062eL);
    ("http-synflood/NI-LRP", 0x505e000e383507ffL);
    ("cluster", 0xcc7f16243f5397b4L) ]

(* {1 One operation} *)

(* [*_ns] are wall times, [*_cpu_ns] the main thread's CPU time over the
   same phase, which leaves out time the host scheduler gives to other
   processes. *)
type run = {
  sim_ns : int;
  report_ns : int;
  setup_cpu_ns : int;
  sim_cpu_ns : int;
  report_cpu_ns : int;
  events : int;
  injected : int;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  report_words : float;
  digest : int64;
  errors : string list;
  layer_ns : int array;
  layer_calls : int array;
  gc_minor_ns : int;
  gc_major_ns : int;
  counts : (string * float) list;  (* simulated and engine counters *)
  epochs : int;
  messages : int;
  critical : int;
}

let sum_int f a = Array.fold_left (fun acc x -> acc + f x) 0 a

(* Simulated per-layer counters, summed over hosts, plus the engine's
   timer statistics summed over engines. *)
let counters (sim : W.sim) =
  let ks = sim.kernels in
  let metric name =
    sum_int
      (fun k ->
        match List.assoc_opt name (Lrp_trace.Metrics.snapshot (Kernel.metrics k)) with
        | Some v when Float.is_finite v -> int_of_float v
        | _ -> 0)
      ks
  in
  let st f = sum_int (fun k -> f (Kernel.stats k)) ks in
  let ts f = sum_int (fun e -> f (Engine.timer_stats e)) sim.engines in
  let ledger cls = Array.fold_left (fun a k -> a +. W.ledger_total k cls) 0. ks in
  let recorded k =
    match Lrp_trace.Trace.packed (Kernel.tracer k) with
    | Some p -> Lrp_trace.Precorder.recorded p
    | None -> 0
  in
  let f = float_of_int in
  [ ("timers_scheduled", f (ts (fun t -> t.scheduled)));
    ("timers_cancelled", f (ts (fun t -> t.cancelled)));
    ("routed_heap", f (ts (fun t -> t.routed_heap)));
    ("engine.pour_skipped", f (ts (fun t -> t.pour_skipped)));
    ("nic.tx_drops", f (sum_int (fun k -> (Lrp_net.Nic.stats (Kernel.nic k)).tx_drops) ks));
    ("nic.rxq_drops", f (sum_int (fun k -> W.rxq_drops (Kernel.nic k)) ks));
    ("kernel.rx_frames", f (st (fun s -> s.rx_frames)));
    ("kernel.early_discards", f (sum_int Kernel.early_discards ks));
    ("kernel.ipq_drops", f (st (fun s -> s.ipq_drops)));
    ("delivered", f (st (fun s -> s.udp_delivered + s.tcp_delivered)));
    ("tcp.segs_rcvd", f (metric "tcp.segs_rcvd"));
    ("tcp.segs_sent", f (metric "tcp.segs_sent"));
    ("tcp.retransmits", f (metric "tcp.retransmits"));
    ("tcp.syn_drops_backlog", f (metric "tcp.syn_drops_backlog"));
    ("cpu.ctx_switches", f (metric "cpu.ctx_switches"));
    ("cpu.hard_dispatches", f (metric "cpu.hard_dispatches"));
    ("cpu.soft_dispatches", f (metric "cpu.soft_dispatches"));
    ("ledger.intr_us", ledger Lrp_sim.Ledger.Intr);
    ("ledger.soft_us", ledger Lrp_sim.Ledger.Soft);
    ("ledger.proto_us", ledger Lrp_sim.Ledger.Proto);
    ("ledger.poll_us", ledger Lrp_sim.Ledger.Poll);
    ("ledger.app_us", ledger Lrp_sim.Ledger.App);
    ("trace.records", f (sum_int recorded ks)) ]

(* Wrapped-hook time inside each simulate span, by span id. *)
let hook_ns : (int, int) Hashtbl.t = Hashtbl.create 64

let run_op ?gc ~seed ~round ~traced (op : W.op) =
  let span name f = H.span ~parent:round (name ^ ":" ^ op.op_name) f in
  let c0 = H.cpu_ns () in
  let sim = span "setup" (fun _ -> op.setup ()) in
  let c1 = H.cpu_ns () in
  (* Traced rounds run on one domain (the sharded reference rounds are
     never traced), so one accumulator serves every hook of the run. *)
  let acc = H.acc () in
  if traced then begin
    Array.iter (fun k -> H.wrap_nic acc (Kernel.nic k)) sim.kernels;
    Option.iter (H.wrap_exchange acc) sim.exchange
  end;
  Option.iter H.Gc_phases.open_window gc;
  let sim_span = ref (-1) in
  let g0 = Gc.quick_stat () in
  let c2 = H.cpu_ns () in
  let t2 = H.now_ns () in
  let errors =
    match span "simulate" (fun id -> sim_span := id; sim.simulate ()) with
    | () -> []
    | exception e -> [ "simulate raised " ^ Printexc.to_string e ]
  in
  let t3 = H.now_ns () in
  let c3 = H.cpu_ns () in
  let g1 = Gc.quick_stat () in
  Option.iter H.Gc_phases.close_window gc;
  let w0 = Gc.minor_words () in
  let c4 = H.cpu_ns () in
  let t4 = H.now_ns () in
  let text = if errors = [] then span "report" (fun _ -> sim.report ()) else "" in
  let t5 = H.now_ns () in
  let c5 = H.cpu_ns () in
  let w1 = Gc.minor_words () in
  let errors = if errors = [] then sim.check () else errors in
  let digest = W.fnv text in
  let errors =
    match List.assoc_opt op.op_name expected_digests with
    | Some d when seed = default_seed && d <> digest && errors = [] ->
        [ Printf.sprintf "digest %Lx, expected %Lx" digest d ]
    | _ -> errors
  in
  let layer_ns = acc.self_ns and layer_calls = acc.calls in
  Hashtbl.replace hook_ns !sim_span (Array.fold_left ( + ) 0 layer_ns);
  let epochs, messages, critical =
    match sim.shardsim with
    | Some s -> (Shardsim.epochs s, Shardsim.messages s, Shardsim.events_critical s)
    | None -> (0, 0, 0)
  in
  let gc_ns f = match gc with Some g -> !(f g) | None -> 0 in
  if gc_ns (fun g -> g.H.Gc_phases.lost) > 0 then
    Printf.eprintf "warning: %s: runtime events lost, gc.* undercount\n" op.op_name;
  { sim_ns = t3 - t2; report_ns = t5 - t4;
    setup_cpu_ns = c1 - c0; sim_cpu_ns = c3 - c2; report_cpu_ns = c5 - c4;
    events = sum_int Engine.events_executed sim.engines;
    injected = sim.injected ();
    minor_words = g1.minor_words -. g0.minor_words;
    promoted_words = g1.promoted_words -. g0.promoted_words;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections;
    report_words = w1 -. w0; digest; errors; layer_ns; layer_calls;
    gc_minor_ns = gc_ns (fun g -> g.H.Gc_phases.minor_ns);
    gc_major_ns = gc_ns (fun g -> g.H.Gc_phases.major_ns);
    counts = (if traced then counters sim else []);
    epochs; messages; critical }

(* {1 Rounds} *)

type round = { runs : (string * run) list; traced : bool; reference : bool }

let attempted = ref 0
let failed = ref 0
let failures = ref []

let fail name e =
  incr failed;
  failures := (name ^ ": " ^ e) :: !failures

let run_round ?gc ~seed ~traced ~reference ops =
  (* Every round starts from an empty minor heap and a collected major
     heap, as a fresh process would: GC work left over from the previous
     round is not charged to this one. *)
  Gc.full_major ();
  H.span "round" (fun round ->
      let runs =
        List.map
          (fun (op : W.op) ->
            let r = run_op ?gc ~seed ~round ~traced op in
            incr attempted;
            if r.errors <> [] then fail op.op_name (String.concat "; " r.errors);
            (op.op_name, r))
          ops
      in
      { runs; traced; reference })

let total f rd = List.fold_left (fun a (_, r) -> a + f r) 0 rd.runs
let totalf f rd = List.fold_left (fun a (_, r) -> a +. f r) 0. rd.runs
let sim_s rd = H.seconds (total (fun r -> r.sim_ns) rd)
let sim_cpu_s rd = H.seconds (total (fun r -> r.sim_cpu_ns) rd)
let events rd = float_of_int (total (fun r -> r.events) rd)
let pkts_per_s rd = float_of_int (total (fun r -> r.injected) rd) /. sim_s rd
let layer_s l rd = H.seconds (total (fun r -> r.layer_ns.(l)) rd)
let layer_calls l rd = float_of_int (total (fun r -> r.layer_calls.(l)) rd)

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let med rounds f = median (List.map f rounds)
let ratio a b = if b = 0. then 0. else a /. b

(* {1 Metrics} *)

(* The end-to-end metrics are the ones that repeat from run to run on a
   shared host: set-up time, allocation per event and peak heap.  The
   simulate-phase speed swings by up to 2x with the host's memory latency
   (README.md, "Why speed is a per-layer metric"), so it is reported by
   the traced run, from its untraced rounds, without a bound. *)
let end_to_end ~peak_heap_words rounds =
  let m = med rounds in
  let per_event f rd = ratio (totalf f rd) (events rd) in
  [ ("setup_s", "s", m (fun rd -> H.seconds (total (fun r -> r.setup_cpu_ns) rd)));
    ("minor_words_per_event", "words", m (per_event (fun r -> r.minor_words)));
    ("promoted_words_per_event", "words", m (per_event (fun r -> r.promoted_words)));
    ("peak_heap_mb", "MB",
     float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1048576.) ]

(* Host-side speed of the untraced rounds, in CPU seconds. *)
let speed rounds =
  let m = med rounds in
  let injected rd = float_of_int (total (fun r -> r.injected) rd) in
  [ ("run_cpu_s", "s",
     m (fun rd ->
         H.seconds (total (fun r -> r.setup_cpu_ns + r.sim_cpu_ns + r.report_cpu_ns) rd)));
    ("sim_pkts_per_cpu_s", "1/s", m (fun rd -> injected rd /. sim_cpu_s rd));
    ("sim_events_per_cpu_s", "1/s", m (fun rd -> events rd /. sim_cpu_s rd)) ]

let per_layer ~untraced ~traced ~reference =
  let mt = med traced in
  let count name rd =
    totalf (fun r -> Option.value ~default:0. (List.assoc_opt name r.counts)) rd
  in
  let counted unit names = List.map (fun name -> (name, unit, mt (count name))) names in
  let of_int f rd = float_of_int (total f rd) in
  let hooks rd =
    List.fold_left (fun a l -> a +. layer_s l rd) 0.
      [ H.nic_rx; H.nic_kick; H.fabric_forward; H.exchange ]
  in
  let gc_s rd = H.seconds (total (fun r -> r.gc_minor_ns + r.gc_major_ns) rd) in
  let epochs = of_int (fun r -> r.epochs) in
  [ ("engine.events_per_pkt", "events/pkt",
     mt (fun rd -> ratio (events rd) (of_int (fun r -> r.injected) rd)));
    ("engine.cancel_ratio", "ratio",
     mt (fun rd -> ratio (count "timers_cancelled" rd) (count "timers_scheduled" rd)));
    ("engine.heap_share", "ratio",
     mt (fun rd -> ratio (count "routed_heap" rd) (count "timers_scheduled" rd)));
    ("engine.pour_skipped", "count", mt (count "engine.pour_skipped"));
    ("engine.residual_s", "s", mt (fun rd -> sim_s rd -. hooks rd));
    ("nic.rx_s", "s", mt (layer_s H.nic_rx));
    ("nic.rx_calls", "count", mt (layer_calls H.nic_rx));
    ("nic.kick_s", "s", mt (layer_s H.nic_kick));
    ("nic.kicks", "count", mt (layer_calls H.nic_kick));
    ("fabric.forward_s", "s", mt (layer_s H.fabric_forward));
    ("fabric.forwards", "count", mt (layer_calls H.fabric_forward)) ]
  @ counted "count"
      [ "nic.tx_drops"; "nic.rxq_drops"; "kernel.rx_frames"; "kernel.early_discards";
        "kernel.ipq_drops" ]
  @ [ ("kernel.delivered_ratio", "ratio",
       mt (fun rd -> ratio (count "delivered" rd) (count "kernel.rx_frames" rd))) ]
  @ counted "count"
      [ "tcp.segs_rcvd"; "tcp.segs_sent"; "tcp.retransmits"; "tcp.syn_drops_backlog";
        "cpu.ctx_switches"; "cpu.hard_dispatches"; "cpu.soft_dispatches" ]
  @ counted "us"
      [ "ledger.intr_us"; "ledger.soft_us"; "ledger.proto_us"; "ledger.poll_us";
        "ledger.app_us" ]
  @ counted "count" [ "trace.records" ]
  @ [ ("trace.report_s", "s", mt (fun rd -> H.seconds (total (fun r -> r.report_ns) rd)));
      ("trace.report_words", "words", mt (totalf (fun r -> r.report_words)));
      ("gc.minor_s", "s", mt (fun rd -> H.seconds (total (fun r -> r.gc_minor_ns) rd)));
      ("gc.major_s", "s", mt (fun rd -> H.seconds (total (fun r -> r.gc_major_ns) rd)));
      ("gc.share", "ratio", mt (fun rd -> gc_s rd /. sim_s rd));
      ("gc.minor_collections", "count", mt (of_int (fun r -> r.minor_gcs)));
      ("gc.major_collections", "count", mt (of_int (fun r -> r.major_gcs)));
      ("shardsim.epochs", "count", mt epochs);
      ("shardsim.messages", "count", mt (of_int (fun r -> r.messages)));
      ("shardsim.exchange_s", "s", mt (layer_s H.exchange));
      ("shardsim.us_per_epoch", "us", mt (fun rd -> ratio (sim_s rd *. 1e6) (epochs rd)));
      ("shardsim.speedup_available", "x",
       med reference (fun rd -> ratio (events rd) (of_int (fun r -> r.critical) rd)));
      ("shardsim.wall_speedup", "x",
       if reference = [] then 0. else ratio (med untraced sim_s) (med reference sim_s));
      ("trace_overhead", "x", ratio (mt sim_s) (med untraced sim_s)) ]
  @ speed untraced

(* {1 Main} *)

let json_result metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (!failed = 0 && !attempted > 0) !attempted !failed;
  List.iteri
    (fun i (name, unit, v) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ") name (if Float.is_finite v then v else 0.) unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let measure (w : W.t) ~seed ~seconds ~trace =
  let ops = w.ops ~seed in
  let gc = if trace then Some (H.Gc_phases.create ()) else None in
  (* Warm-up round, unmeasured: runs the reference variant when the
     workload has one, so its digest can be compared with every measured
     round's. *)
  let reference = match w.reference with Some f -> f ~seed | None -> [] in
  let warm =
    run_round ~seed ~traced:false ~reference:false (if reference = [] then ops else reference)
  in
  let ref_digests = List.map (fun (_, r) -> r.digest) warm.runs in
  (* A traced run alternates untraced rounds (for trace_overhead) with
     traced ones, plus untraced reference rounds when there is one (for
     the sharded cluster's measured wall speedup). *)
  let cycle = if not trace then 1 else if reference = [] then 2 else 3 in
  (* The heap's high-water mark climbs for the first 4-11 rounds,
     depending on the seed, and then creeps by under 1%, so it is read
     after a fixed number of rounds, not after however many fit in
     [seconds]. *)
  let min_rounds = max (cycle * 3) 16 in
  let start = H.now_ns () in
  let rounds = ref [] in
  let i = ref 0 in
  let peak_heap_words = ref 0 in
  while H.seconds (H.now_ns () - start) < seconds || !i < min_rounds do
    let rd =
      match !i mod cycle with
      | 0 -> run_round ~seed ~traced:false ~reference:false ops
      | 1 -> run_round ?gc ~seed ~traced:true ~reference:false ops
      | _ -> run_round ~seed ~traced:false ~reference:true reference
    in
    List.iter2
      (fun (name, r) d ->
        if r.digest <> d && r.errors = [] then
          fail name (Printf.sprintf "digest %Lx differs from the warm-up's %Lx" r.digest d))
      rd.runs ref_digests;
    rounds := rd :: !rounds;
    incr i;
    (* Read with [Gc.stat] at every round's end, outside the timed
       phases: it repeats across seeds to about 1%, where a single
       [Gc.quick_stat] read after the loop moved by up to 20%. *)
    let top = (Gc.stat ()).top_heap_words in
    if !i = min_rounds then peak_heap_words := top
  done;
  let rounds = List.rev !rounds in
  let untraced = List.filter (fun rd -> not (rd.traced || rd.reference)) rounds in
  let traced = List.filter (fun rd -> rd.traced) rounds in
  let reference = List.filter (fun rd -> rd.reference) rounds in
  if trace then per_layer ~untraced ~traced ~reference
  else end_to_end ~peak_heap_words:!peak_heap_words untraced

let print_spans () =
  let hooks id = Option.value ~default:0 (Hashtbl.find_opt hook_ns id) in
  Printf.printf "%-10s %6s %10s %10s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (k, (n, tot, self)) ->
      Printf.printf "%-10s %6d %10.4f %10.4f\n" k n (H.seconds tot) (H.seconds self))
    (H.summary ~extra_child:hooks)

(* {1 Attribution self-test} *)

(* Plants a fixed busy-wait inside the benchmark's own NIC-rx wrapper and
   checks that the per-layer split blames that layer: nic.rx_s grows by
   about the planted total and grows most of all the layers,
   udp-overload's sim_pkts_per_s falls, and fabric.forward_s moves by
   less than a tenth of nic.rx_s's growth.  Exits 1 on failure. *)
let selftest () =
  let delay_ns = 2_000 in
  let ops = W.udp_overload ~seed:default_seed in
  let names =
    [| "nic.rx_s"; "nic.kick_s"; "fabric.forward_s"; "shardsim.exchange_s";
       "engine.residual_s" |]
  in
  let measure delay =
    H.planted_rx_delay_ns := delay;
    let round () = run_round ~seed:default_seed ~traced:true ~reference:false ops in
    ignore (round ());
    let rounds = List.init 3 (fun _ -> round ()) in
    H.planted_rx_delay_ns := 0;
    let m = med rounds in
    let layers = Array.init H.n_layers (fun l -> m (layer_s l)) in
    let residual = m sim_s -. Array.fold_left ( +. ) 0. layers in
    (Array.append layers [| residual |], m pkts_per_s, m (layer_calls H.nic_rx))
  in
  let base, base_pkts, calls = measure 0 in
  let planted, planted_pkts, _ = measure delay_ns in
  let growth = Array.mapi (fun i p -> p -. base.(i)) planted in
  Array.iteri
    (fun i n -> Printf.printf "%-22s %10.4f -> %10.4f s\n" n base.(i) planted.(i))
    names;
  Printf.printf "%-22s %10.0f -> %10.0f 1/s\n" "sim_pkts_per_s" base_pkts planted_pkts;
  let expected = calls *. float_of_int delay_ns *. 1e-9 in
  let most = ref 0 in
  Array.iteri (fun i g -> if g > growth.(!most) then most := i) growth;
  let checks =
    [ ("no operation failed", !failed = 0);
      (Printf.sprintf "nic.rx_s grew by >= 0.8 x the planted %.4f s" expected,
       growth.(H.nic_rx) >= 0.8 *. expected);
      ("the layer that grew most is nic.rx_s (it was " ^ names.(!most) ^ ")",
       !most = H.nic_rx);
      ("sim_pkts_per_s fell by >= 10%", planted_pkts <= 0.9 *. base_pkts);
      ("fabric.forward_s moved < 0.1 x nic.rx_s's growth",
       Float.abs growth.(H.fabric_forward) < 0.1 *. growth.(H.nic_rx)) ]
  in
  List.iter
    (fun (what, ok) -> Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") what)
    checks;
  if not (List.for_all snd checks) then exit 1

let usage () =
  prerr_endline
    "usage: lrpbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \       lrpbench --selftest";
  exit 2

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.
  and trace = ref false and self = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--selftest" :: rest -> self := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !self then selftest ()
  else
    match W.find !workload with
    | None -> usage ()
    | Some w ->
        let metrics = measure w ~seed:!seed ~seconds:!seconds ~trace:!trace in
        List.iter (fun e -> Printf.eprintf "FAILED %s\n" e) (List.rev !failures);
        if !trace then print_spans ();
        List.iter (fun (n, u, v) -> Printf.printf "%-28s %16.6g %s\n" n v u) metrics;
        print_endline (json_result metrics)
