(* Command-line front end: run any of the paper's experiments, or a single
   parameterised scenario, from the shell.

     lrp_sim table1|fig3|fig4|table2|fig5|mlfrr [--quick]
     lrp_sim blast --arch soft-lrp --rate 12000 --duration 2
     lrp_sim ablations
     lrp_sim gateway --arch bsd --rate 20000 *)

open Cmdliner
open Lrp_experiments
open Lrp_engine
open Lrp_net
open Lrp_kernel
open Lrp_workload

let quick =
  let doc = "Shrink workloads for a fast smoke run." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let jobs =
  let doc =
    "Fan independent simulations out over $(docv) domains.  Results are \
     identical for any value; 1 runs everything sequentially."
  in
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* Parser, printer and help text all come from [Kernel.arch_key], so every
   architecture the kernel implements is reachable here. *)
let arch_conv =
  let parse s =
    match Kernel.arch_of_key s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown architecture %S" s))
  in
  let print fmt a = Format.pp_print_string fmt (Kernel.arch_key a) in
  Arg.conv (parse, print)

let arch =
  let doc =
    "Kernel architecture: "
    ^ String.concat ", " (List.map Kernel.arch_key Kernel.archs)
    ^ "."
  in
  Arg.(value & opt arch_conv Kernel.Soft_lrp & info [ "arch" ] ~doc)

let rate =
  let doc = "Offered load, packets per second." in
  Arg.(value & opt float 10_000. & info [ "rate" ] ~doc)

let duration =
  let doc = "Run length, simulated seconds." in
  Arg.(value & opt float 1. & info [ "duration" ] ~doc)

(* --- paper experiments ------------------------------------------------- *)

let experiment name doc run =
  Cmd.v (Cmd.info name ~doc) Term.(const run $ quick $ jobs)

let table1_cmd =
  experiment "table1" "Latency/throughput microbenchmarks (Table 1)"
    (fun quick jobs -> Table1.print (Table1.run ~quick ~jobs ()))

let fig3_cmd =
  experiment "fig3" "Throughput vs offered load (Figure 3)"
    (fun quick jobs -> Fig3.print (Fig3.run ~quick ~jobs ()))

let mlfrr_cmd =
  experiment "mlfrr" "Maximum loss-free receive rate" (fun quick jobs ->
      Fig3.print_mlfrr
        (Fig3.mlfrr_all ~quick ~jobs
           [ Common.Bsd; Common.Soft_lrp; Common.Ni_lrp ]))

let fig4_cmd =
  experiment "fig4" "Latency with concurrent load (Figure 4)"
    (fun quick jobs -> Fig4.print (Fig4.run ~quick ~jobs ()))

let table2_cmd =
  experiment "table2" "Synthetic RPC server workload (Table 2)"
    (fun quick jobs -> Table2.print (Table2.run ~quick ~jobs ()))

let fig5_cmd =
  experiment "fig5" "HTTP throughput under SYN flood (Figure 5)"
    (fun quick jobs -> Fig5.print (Fig5.run ~quick ~jobs ()))

let accounting_cmd =
  experiment "accounting" "CPU accounting ledger and livelock detector"
    (fun quick jobs -> Accounting.print (Accounting.run ~quick ~jobs ()))

let ablations_cmd =
  let run jobs =
    Ablations.print_discard (Ablations.discard ~jobs ());
    Ablations.print_accounting (Ablations.accounting ~jobs ());
    Ablations.print_demux_cost (Ablations.demux_cost ~jobs ())
  in
  Cmd.v (Cmd.info "ablations" ~doc:"Design-choice ablations")
    Term.(const run $ jobs)

(* --- parameterised one-off scenarios ----------------------------------- *)

let blast_cmd =
  let run arch rate duration =
    let cfg = Kernel.default_config arch in
    let w, client, server = World.pair ~cfg () in
    let sink = Blast.start_sink server ~port:9000 () in
    let src =
      Blast.start_source (World.engine w) (Kernel.nic client)
        ~src:(Kernel.ip_address client)
        ~dst:(Kernel.ip_address server, 9000)
        ~rate ~size:14 ~until:(Time.sec duration) ()
    in
    World.run w ~until:(Time.sec duration);
    let st = Kernel.stats server in
    let cpu = Kernel.cpu server in
    Printf.printf "%s: offered %.0f pkts/s for %.1fs\n" (Kernel.arch_name arch)
      rate duration;
    Printf.printf "  sent %d, delivered %d (%.0f pkts/s)\n" src.Blast.sent
      sink.Blast.received
      (float_of_int sink.Blast.received /. duration);
    Printf.printf "  early discards %d, ipq drops %d, demux drops %d\n"
      (Kernel.early_discards server) st.Kernel.ipq_drops st.Kernel.demux_drops;
    Printf.printf
      "  server CPU: %.1f%% hardintr, %.1f%% softintr, %.1f%% user, %d switches\n"
      (100. *. Lrp_sim.Cpu.time_hard cpu /. Time.sec duration)
      (100. *. Lrp_sim.Cpu.time_soft cpu /. Time.sec duration)
      (100. *. Lrp_sim.Cpu.time_user cpu /. Time.sec duration)
      (Lrp_sim.Cpu.context_switches cpu)
  in
  Cmd.v
    (Cmd.info "blast" ~doc:"One UDP overload point with full CPU breakdown")
    Term.(const run $ arch $ rate $ duration)

let gateway_cmd =
  let run arch rate duration =
    let engine = Engine.create () in
    let net_a = Fabric.create engine () in
    let net_b = Fabric.create engine () in
    let cfg = Kernel.default_config arch in
    let gw_cfg = { cfg with Kernel.forwarding = true } in
    let client =
      Kernel.create engine net_a ~name:"client"
        ~ip:(Lrp_net.Packet.ip_of_quad 10 0 0 10) cfg
    in
    let gw =
      Kernel.create engine net_a ~name:"gw"
        ~ip:(Lrp_net.Packet.ip_of_quad 10 0 0 1) gw_cfg
    in
    ignore
      (Kernel.add_interface gw net_b ~ip:(Lrp_net.Packet.ip_of_quad 10 0 1 1) ());
    let server =
      Kernel.create engine net_b ~name:"server"
        ~ip:(Lrp_net.Packet.ip_of_quad 10 0 1 20) cfg
    in
    Fabric.set_default_gateway net_a ~ip:(Lrp_net.Packet.ip_of_quad 10 0 0 1);
    Fabric.set_default_gateway net_b ~ip:(Lrp_net.Packet.ip_of_quad 10 0 1 1);
    let sink = Blast.start_sink server ~port:9000 () in
    ignore
      (Blast.start_source engine (Kernel.nic client)
         ~src:(Kernel.ip_address client)
         ~dst:(Kernel.ip_address server, 9000)
         ~rate ~size:14 ~until:(Time.sec duration) ());
    Engine.run engine ~until:(Time.sec duration);
    Printf.printf "%s gateway: %.0f pkts/s transit for %.1fs\n"
      (Kernel.arch_name arch) rate duration;
    Printf.printf "  forwarded %d, delivered end-to-end %d\n"
      (Kernel.stats gw).Kernel.forwarded sink.Blast.received
  in
  Cmd.v (Cmd.info "gateway" ~doc:"Transit flood through an IP gateway")
    Term.(const run $ arch $ rate $ duration)

let trace_cmd =
  let module Trace = Lrp_trace.Trace in
  let trace_file =
    let doc = "Write the recorded trace to $(docv)." in
    Arg.(
      value & opt string "trace.json" & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let trace_format =
    let fmt_conv =
      Arg.conv
        ( (function
          | "chrome" -> Ok `Chrome
          | "csv" -> Ok `Csv
          | "text" -> Ok `Text
          | s -> Error (`Msg (Printf.sprintf "unknown trace format %S" s))),
          fun fmt f ->
            Format.pp_print_string fmt
              (match f with
              | `Chrome -> "chrome"
              | `Csv -> "csv"
              | `Text -> "text") )
    in
    let doc =
      "Trace sink: chrome (Perfetto-loadable trace_event JSON), csv, or \
       text."
    in
    Arg.(
      value & opt fmt_conv `Chrome
      & info [ "trace-format" ] ~docv:"FORMAT" ~doc)
  in
  let classes =
    let cls_conv =
      Arg.conv
        ( (function
          | "packet" -> Ok Trace.Packet_events
          | "sched" -> Ok Trace.Sched_events
          | "note" -> Ok Trace.Note_events
          | s -> Error (`Msg (Printf.sprintf "unknown event class %S" s))),
          fun fmt c ->
            Format.pp_print_string fmt
              (match c with
              | Trace.Packet_events -> "packet"
              | Trace.Sched_events -> "sched"
              | Trace.Note_events -> "note") )
    in
    let doc =
      "Record only these event classes (packet, sched, note); repeatable \
       or comma-separated.  Default: all."
    in
    Arg.(
      value
      & opt_all (Arg.list cls_conv) []
      & info [ "classes" ] ~docv:"CLASSES" ~doc)
  in
  let run arch rate duration trace_file trace_format classes =
    let cfg = Kernel.default_config arch in
    let w, client, server = World.pair ~cfg () in
    let tracer = Kernel.tracer server in
    Kernel.set_tracing server true;
    (match List.concat classes with
    | [] -> ()
    | cs -> Trace.set_filter tracer cs);
    let sink = Blast.start_sink server ~port:9000 () in
    let src =
      Blast.start_source (World.engine w) (Kernel.nic client)
        ~src:(Kernel.ip_address client)
        ~dst:(Kernel.ip_address server, 9000)
        ~rate ~size:14 ~until:(Time.sec duration) ()
    in
    World.run w ~until:(Time.sec duration);
    Trace.write_file tracer ~format:trace_format trace_file;
    Printf.printf "%s: offered %.0f pkts/s for %.1fs; sent %d, delivered %d\n"
      (Kernel.arch_name arch) rate duration src.Blast.sent sink.Blast.received;
    Printf.printf "  %d events buffered (%d overwritten) -> %s (%s)\n"
      (Trace.length tracer) (Trace.dropped tracer) trace_file
      (match trace_format with
      | `Chrome -> "chrome"
      | `Csv -> "csv"
      | `Text -> "text");
    (* Self-check: a chrome trace must round-trip through a JSON parser. *)
    (match trace_format with
    | `Chrome -> (
        let ic = open_in_bin trace_file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        match Lrp_trace.Json.parse s with
        | Ok _ -> Printf.printf "  chrome JSON validated (%d bytes)\n" n
        | Error e ->
            Printf.eprintf "  chrome JSON INVALID: %s\n" e;
            exit 1)
    | `Csv | `Text -> ());
    Format.printf "%a@."
      Trace.Report.pp
      (Trace.Report.stage_latency (Trace.events tracer))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one UDP overload point with structured tracing enabled and \
          write the event stream to a file")
    Term.(
      const run $ arch $ rate $ duration $ trace_file $ trace_format $ classes)

let top_cmd =
  let module Trace = Lrp_trace.Trace in
  let module Overload = Lrp_check.Overload in
  let module Ledger = Lrp_sim.Ledger in
  let dump_file =
    let doc =
      "Also write the server's packed flight-recorder dump to $(docv) \
       (binary; reload with Lrp_trace.Precorder.read_dump)."
    in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)
  in
  let run arch rate duration dump_file =
    let cfg = Kernel.default_config arch in
    let w, client, server = World.pair ~cfg () in
    Kernel.set_tracing server true;
    let det = Lrp_check.Overload.attach server in
    let sink = Blast.start_sink server ~port:9000 () in
    let src =
      Blast.start_source (World.engine w) (Kernel.nic client)
        ~src:(Kernel.ip_address client)
        ~dst:(Kernel.ip_address server, 9000)
        ~rate ~size:14 ~until:(Time.sec duration) ()
    in
    World.run w ~until:(Time.sec duration);
    Overload.detach det;
    let cpu = Kernel.cpu server in
    let led = Lrp_sim.Cpu.ledger cpu in
    Printf.printf "%s: offered %.0f pkts/s for %.1fs; sent %d, delivered %d\n"
      (Kernel.arch_name arch) rate duration src.Blast.sent sink.Blast.received;
    Printf.printf "\nCPU ledger (us charged per process):\n";
    Printf.printf "  %5s %-16s %10s %10s %10s %10s %12s\n" "pid" "name"
      "intr-vict" "soft-vict" "proto" "app" "misaccounted";
    List.iter
      (fun (r : Ledger.row) ->
        Printf.printf "  %5d %-16s %10.0f %10.0f %10.0f %10.0f %12.0f\n"
          r.Ledger.pid r.Ledger.name r.Ledger.intr_victim r.Ledger.soft_victim
          r.Ledger.proto r.Ledger.app (Ledger.misaccounted r))
      (Ledger.rows led);
    (match Ledger.flow_rows led with
    | [] -> ()
    | flows ->
        Printf.printf "\nPer-flow protocol cycles:\n";
        Printf.printf "  %6s %10s\n" "chan" "proto";
        List.iter
          (fun (f : Ledger.flow_row) ->
            Printf.printf "  %6d %10.0f\n" f.Ledger.flow f.Ledger.f_proto)
          flows);
    Printf.printf "\nOverload detector: %s\n"
      (Format.asprintf "%a" Overload.pp_report (Overload.report det));
    (match dump_file with
    | None -> ()
    | Some file ->
        (match Trace.packed (Kernel.tracer server) with
        | Some p ->
            Lrp_trace.Precorder.write_dump p file;
            Printf.printf "\nflight recorder: %d events -> %s\n"
              (Lrp_trace.Precorder.length p) file
        | None -> ()))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run one UDP overload point and report the per-process CPU \
          accounting ledger, per-flow protocol cycles and the livelock \
          detector's verdict")
    Term.(const run $ arch $ rate $ duration $ dump_file)

let cluster_cmd =
  let module Cluster = Lrp_experiments.Cluster in
  let shards =
    let doc = "Domains to shard the cluster across (1 = sequential)." in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let racks =
    let doc = "Racks (= shardable cells) in the spine-leaf topology." in
    Arg.(value & opt int Cluster.default_racks & info [ "racks" ] ~doc)
  in
  let hosts =
    let doc = "Hosts per rack." in
    Arg.(value
         & opt int Cluster.default_hosts_per_rack
         & info [ "hosts" ] ~doc)
  in
  let rate =
    let doc = "Per-host intra-rack blast rate, pkts/s (cross-rack runs at \
               half this)." in
    Arg.(value & opt float 2000. & info [ "rate" ] ~doc)
  in
  let duration_ms =
    let doc = "Simulated duration, milliseconds." in
    Arg.(value & opt float 200. & info [ "duration-ms" ] ~doc)
  in
  let out_file =
    let doc =
      "Write the shard-invariant report to $(docv); files produced at \
       different --shards must be byte-identical (CI diffs them)."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let dump_file =
    let doc = "Write the merged per-rack recorder dump to $(docv)." in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)
  in
  let write file s =
    let oc = open_out file in
    output_string oc s;
    close_out oc
  in
  let run shards racks hosts rate duration_ms out_file dump_file =
    let r =
      Cluster.run ~racks ~hosts_per_rack:hosts ~shards ~rate
        ~duration:(Time.ms duration_ms) ()
    in
    Cluster.print r;
    (match out_file with
     | Some f -> write f (Cluster.report r)
     | None -> ());
    match dump_file with
    | Some f -> write f r.Cluster.dump
    | None -> ()
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run the sharded spine-leaf cluster experiment; results are \
          byte-identical at any --shards")
    Term.(
      const run $ shards $ racks $ hosts $ rate $ duration_ms $ out_file
      $ dump_file)

let dump_cmd =
  let module Trace = Lrp_trace.Trace in
  let module Precorder = Lrp_trace.Precorder in
  let file =
    let doc = "Flight-recorder binary dump (written by top --dump, or by a \
               failing fuzz run)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    match Precorder.read_dump file with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        exit 1
    | Ok p ->
        Printf.printf "# %s: %d events (%d overwritten before the dump)\n"
          file (Precorder.length p) (Precorder.dropped p);
        List.iter
          (fun (ts, seq, ev) ->
            Format.printf "%12.1f %8d  %a@." ts seq Trace.pp_event ev)
          (Trace.events_of_precorder p)
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Decode a packed flight-recorder binary dump back to typed events, \
          one per line")
    Term.(const run $ file)

let main () =
  let info = Cmd.info "lrp_sim" ~doc:"LRP (OSDI'96) reproduction harness" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ table1_cmd; fig3_cmd; mlfrr_cmd; fig4_cmd; table2_cmd; fig5_cmd;
            accounting_cmd; ablations_cmd; blast_cmd; gateway_cmd; trace_cmd;
            top_cmd; cluster_cmd; dump_cmd ]))

let () = main ()
