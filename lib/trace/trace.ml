module Samples = Lrp_stats.Stats.Samples

type intr_level = Hard | Soft

type thread_state = Spawned | Runnable | Sleeping | Exited

type alarm = Overload | Livelock | Starvation | Queue_watermark

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
  | Mbuf_drop of { pkt : int }
  | Intr_enter of { level : intr_level; label : string }
  | Intr_exit of { level : intr_level; label : string }
  | Ctx_switch of { from_pid : int; to_pid : int }
  | Thread_state of { pid : int; state : thread_state }
  | Note of string
  | Alarm of { alarm : alarm; a : int; b : int }
  | Poll_begin of { q : int; pending : int }
  | Poll_end of { q : int; served : int }
  | Coalesce_fire of { q : int; pending : int }
  | Gro_merge of { pkt : int; into : int }
  | Gro_flush of { pkt : int; segs : int }

type cls = Packet_events | Sched_events | Note_events

let class_of_event = function
  | Nic_rx _ | Demux _ | Ipq_enqueue _ | Ipq_drop _ | Early_discard _
  | Softint_begin _ | Softint_end _ | Proto_deliver _ | Sock_enqueue _
  | Sock_drop _ | Syscall_copyout _ | Csum_drop _ | Mbuf_drop _
  | Gro_merge _ | Gro_flush _ ->
      Packet_events
  | Intr_enter _ | Intr_exit _ | Ctx_switch _ | Thread_state _
  | Poll_begin _ | Poll_end _ | Coalesce_fire _ ->
      Sched_events
  | Note _ | Alarm _ -> Note_events

let bit = function Packet_events -> 1 | Sched_events -> 2 | Note_events -> 4
let all_mask = 7

type t = {
  tr_name : string;
  mutable on : bool;
  mutable mask : int;
  store : Precorder.t;
      (* the packed SoA ring every emitter writes (zero allocation per
         record); [events] decodes it back, so the sinks below see typed
         events *)
}

let create ?capacity ~name ~clock () =
  { tr_name = name; on = false; mask = all_mask;
    store = Precorder.create ?capacity ~clock () }

let null () = create ~capacity:1 ~name:"null" ~clock:[| 0. |] ()

let name t = t.tr_name
let enabled t = t.on
let set_enabled t b = t.on <- b
let set_filter t classes = t.mask <- List.fold_left (fun m c -> m lor bit c) 0 classes

let packed t = Some t.store
let length t = Precorder.length t.store
let dropped t = Precorder.dropped t.store
let clear t = Precorder.clear t.store

(* --- packed encoding ---------------------------------------------------- *)

(* Kind codes for the packed backend.  These are part of the binary dump
   format (DESIGN.md §13): never renumber, only append. *)

let k_nic_rx = 0
let k_demux = 1
let k_ipq_enqueue = 2
let k_ipq_drop = 3
let k_early_discard = 4
let k_softint_begin = 5
let k_softint_end = 6
let k_proto_deliver = 7
let k_sock_enqueue = 8
let k_sock_drop = 9
let k_syscall_copyout = 10
let k_csum_drop = 11
let k_mbuf_drop = 12
let k_intr_enter = 13
let k_intr_exit = 14
let k_ctx_switch = 15
let k_thread_state = 16
let k_note = 17
let k_alarm = 18
let k_poll_begin = 19
let k_poll_end = 20
let k_coalesce_fire = 21
let k_gro_merge = 22
let k_gro_flush = 23

let level_code = function Hard -> 0 | Soft -> 1
let level_of_code c = if c = 0 then Hard else Soft

let state_code = function
  | Spawned -> 0
  | Runnable -> 1
  | Sleeping -> 2
  | Exited -> 3

let state_of_code = function
  | 0 -> Spawned
  | 1 -> Runnable
  | 2 -> Sleeping
  | _ -> Exited

let alarm_code = function
  | Overload -> 0
  | Livelock -> 1
  | Starvation -> 2
  | Queue_watermark -> 3

let alarm_of_code = function
  | 0 -> Overload
  | 1 -> Livelock
  | 2 -> Starvation
  | _ -> Queue_watermark

(* Lossless packed -> typed decode; the inverse of the emitters below. *)
let event_of_packed p ~kind ~ident ~a ~b =
  match kind with
  | 0 -> Nic_rx { pkt = ident; bytes = a }
  | 1 -> Demux { pkt = ident; chan = a; flow = b }
  | 2 -> Ipq_enqueue { pkt = ident; qlen = a }
  | 3 -> Ipq_drop { pkt = ident; qlen = a }
  | 4 -> Early_discard { pkt = ident; chan = a }
  | 5 -> Softint_begin { pkt = ident }
  | 6 -> Softint_end { pkt = ident }
  | 7 -> Proto_deliver { pkt = ident; conn = a; in_proc = b = 1 }
  | 8 -> Sock_enqueue { pkt = ident; sock = a }
  | 9 -> Sock_drop { pkt = ident; sock = a }
  | 10 -> Syscall_copyout { pkt = ident; sock = a; bytes = b }
  | 11 -> Csum_drop { pkt = ident }
  | 12 -> Mbuf_drop { pkt = ident }
  | 13 ->
      Intr_enter { level = level_of_code a; label = Precorder.get_string p b }
  | 14 ->
      Intr_exit { level = level_of_code a; label = Precorder.get_string p b }
  | 15 -> Ctx_switch { from_pid = a; to_pid = b }
  | 16 -> Thread_state { pid = a; state = state_of_code b }
  | 17 -> Note (Precorder.get_string p a)
  | 18 -> Alarm { alarm = alarm_of_code ident; a; b }
  | 19 -> Poll_begin { q = ident; pending = a }
  | 20 -> Poll_end { q = ident; served = a }
  | 21 -> Coalesce_fire { q = ident; pending = a }
  | 22 -> Gro_merge { pkt = ident; into = a }
  | 23 -> Gro_flush { pkt = ident; segs = a }
  | k -> Note (Printf.sprintf "unknown-kind-%d" k)

let events_of_precorder p =
  let acc = ref [] in
  Precorder.iter p (fun ~ts ~seq ~kind ~ident ~a ~b ->
      acc := (ts, seq, event_of_packed p ~kind ~ident ~a ~b) :: !acc);
  List.rev !acc

let events t = events_of_precorder t.store

(* Merge per-cell recorder streams into one timeline keyed by
   (timestamp, stream id, sequence).  The key is a total order — (stream,
   seq) is unique — and the comparator is explicit field-by-field, so the
   merged dump is deterministic and identical however the streams were
   produced (any shard count). *)
let merged_events streams =
  let all =
    List.concat_map
      (fun (stream, t) ->
        List.map (fun (ts, seq, ev) -> (stream, ts, seq, ev)) (events t))
      streams
  in
  List.sort
    (fun (s1, ts1, q1, _) (s2, ts2, q2, _) ->
      let c = Float.compare ts1 ts2 in
      if c <> 0 then c
      else
        let c = Int.compare s1 s2 in
        if c <> 0 then c else Int.compare q1 q2)
    all

(* Emitters check [on] and the class filter first, so a disabled tracer
   costs one branch per call site.  An enabled one allocates nothing
   either: each emitter writes four words into the SoA ring instead of
   building the variant. *)

let want t c = t.on && t.mask land bit c <> 0

let nic_rx t ~pkt ~bytes =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_nic_rx ~ident:pkt ~a:bytes ~b:(-1)

let demux t ~pkt ~chan ~flow =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_demux ~ident:pkt ~a:chan ~b:flow

let ipq_enqueue t ~pkt ~qlen =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_ipq_enqueue ~ident:pkt ~a:qlen
      ~b:(-1)

let ipq_drop t ~pkt ~qlen =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_ipq_drop ~ident:pkt ~a:qlen ~b:(-1)

let early_discard t ~pkt ~chan =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_early_discard ~ident:pkt ~a:chan
      ~b:(-1)

let softint_begin t ~pkt =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_softint_begin ~ident:pkt ~a:(-1)
      ~b:(-1)

let softint_end t ~pkt =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_softint_end ~ident:pkt ~a:(-1) ~b:(-1)

let proto_deliver t ~pkt ~conn ~in_proc =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_proto_deliver ~ident:pkt ~a:conn
      ~b:(if in_proc then 1 else 0)

let sock_enqueue t ~pkt ~sock =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_sock_enqueue ~ident:pkt ~a:sock
      ~b:(-1)

let sock_drop t ~pkt ~sock =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_sock_drop ~ident:pkt ~a:sock ~b:(-1)

let syscall_copyout t ~pkt ~sock ~bytes =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_syscall_copyout ~ident:pkt ~a:sock
      ~b:bytes

let csum_drop t ~pkt =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_csum_drop ~ident:pkt ~a:(-1) ~b:(-1)

let mbuf_drop t ~pkt =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_mbuf_drop ~ident:pkt ~a:(-1) ~b:(-1)

let intr_enter t ~level ~label =
  if want t Sched_events then
    Precorder.record t.store ~kind:k_intr_enter ~ident:(-1)
      ~a:(level_code level) ~b:(Precorder.intern t.store label)

let intr_exit t ~level ~label =
  if want t Sched_events then
    Precorder.record t.store ~kind:k_intr_exit ~ident:(-1)
      ~a:(level_code level) ~b:(Precorder.intern t.store label)

let ctx_switch t ~from_pid ~to_pid =
  if want t Sched_events then
    Precorder.record t.store ~kind:k_ctx_switch ~ident:(-1) ~a:from_pid
      ~b:to_pid

let thread_state t ~pid ~state =
  if want t Sched_events then
    Precorder.record t.store ~kind:k_thread_state ~ident:(-1) ~a:pid
      ~b:(state_code state)

let alarm t ~alarm:al ~a ~b =
  if want t Note_events then
    Precorder.record t.store ~kind:k_alarm ~ident:(alarm_code al) ~a ~b

let poll_begin t ~q ~pending =
  if want t Sched_events then
    Precorder.record t.store ~kind:k_poll_begin ~ident:q ~a:pending ~b:(-1)

let poll_end t ~q ~served =
  if want t Sched_events then
    Precorder.record t.store ~kind:k_poll_end ~ident:q ~a:served ~b:(-1)

let coalesce_fire t ~q ~pending =
  if want t Sched_events then
    Precorder.record t.store ~kind:k_coalesce_fire ~ident:q ~a:pending
      ~b:(-1)

let gro_merge t ~pkt ~into =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_gro_merge ~ident:pkt ~a:into ~b:(-1)

let gro_flush t ~pkt ~segs =
  if want t Packet_events then
    Precorder.record t.store ~kind:k_gro_flush ~ident:pkt ~a:segs ~b:(-1)

let note t s =
  if want t Note_events then
    Precorder.record t.store ~kind:k_note ~ident:(-1)
      ~a:(Precorder.intern t.store s) ~b:(-1)

let notef t fmt =
  if want t Note_events then Printf.ksprintf (fun s -> note t s) fmt
  else Printf.ifprintf () fmt

(* --- sinks ------------------------------------------------------------- *)

let level_name = function Hard -> "hard" | Soft -> "soft"

let state_name = function
  | Spawned -> "spawned"
  | Runnable -> "runnable"
  | Sleeping -> "sleeping"
  | Exited -> "exited"

let alarm_name = function
  | Overload -> "overload"
  | Livelock -> "livelock"
  | Starvation -> "starvation"
  | Queue_watermark -> "queue-watermark"

let pp_event fmt = function
  | Nic_rx { pkt; bytes } -> Format.fprintf fmt "nic-rx pkt=%d bytes=%d" pkt bytes
  | Demux { pkt; chan; flow } ->
      Format.fprintf fmt "demux pkt=%d chan=%d flow=%d" pkt chan flow
  | Ipq_enqueue { pkt; qlen } ->
      Format.fprintf fmt "ipq-enqueue pkt=%d qlen=%d" pkt qlen
  | Ipq_drop { pkt; qlen } -> Format.fprintf fmt "ipq-drop pkt=%d qlen=%d" pkt qlen
  | Early_discard { pkt; chan } ->
      Format.fprintf fmt "early-discard pkt=%d chan=%d" pkt chan
  | Softint_begin { pkt } -> Format.fprintf fmt "softint-begin pkt=%d" pkt
  | Softint_end { pkt } -> Format.fprintf fmt "softint-end pkt=%d" pkt
  | Proto_deliver { pkt; conn; in_proc } ->
      Format.fprintf fmt "proto-deliver pkt=%d conn=%d ctx=%s" pkt conn
        (if in_proc then "proc" else "softint")
  | Sock_enqueue { pkt; sock } ->
      Format.fprintf fmt "sock-enqueue pkt=%d sock=%d" pkt sock
  | Sock_drop { pkt; sock } -> Format.fprintf fmt "sock-drop pkt=%d sock=%d" pkt sock
  | Syscall_copyout { pkt; sock; bytes } ->
      Format.fprintf fmt "syscall-copyout pkt=%d sock=%d bytes=%d" pkt sock bytes
  | Csum_drop { pkt } -> Format.fprintf fmt "csum-drop pkt=%d" pkt
  | Mbuf_drop { pkt } -> Format.fprintf fmt "mbuf-drop pkt=%d" pkt
  | Intr_enter { level; label } ->
      Format.fprintf fmt "intr-enter %s %s" (level_name level) label
  | Intr_exit { level; label } ->
      Format.fprintf fmt "intr-exit %s %s" (level_name level) label
  | Ctx_switch { from_pid; to_pid } ->
      Format.fprintf fmt "ctx-switch %d -> %d" from_pid to_pid
  | Thread_state { pid; state } ->
      Format.fprintf fmt "thread %d %s" pid (state_name state)
  | Note s -> Format.fprintf fmt "note %s" s
  | Alarm { alarm; a; b } ->
      Format.fprintf fmt "alarm %s a=%d b=%d" (alarm_name alarm) a b
  | Poll_begin { q; pending } ->
      Format.fprintf fmt "poll-begin q=%d pending=%d" q pending
  | Poll_end { q; served } ->
      Format.fprintf fmt "poll-end q=%d served=%d" q served
  | Coalesce_fire { q; pending } ->
      Format.fprintf fmt "coalesce-fire q=%d pending=%d" q pending
  | Gro_merge { pkt; into } ->
      Format.fprintf fmt "gro-merge pkt=%d into=%d" pkt into
  | Gro_flush { pkt; segs } ->
      Format.fprintf fmt "gro-flush pkt=%d segs=%d" pkt segs

let to_text buf t =
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "# trace %s: %d events (%d overwritten)@." t.tr_name
    (length t) (dropped t);
  List.iter
    (fun (ts, seq, ev) ->
      Format.fprintf fmt "%12.1f [%6d] %a@." ts seq pp_event ev)
    (events t);
  Format.pp_print_flush fmt ()

(* CSV: event-specific int arguments land in generic [a]/[b] columns and
   strings in [detail]; the event name disambiguates. *)
let csv_fields = function
  | Nic_rx { pkt; bytes } -> ("nic-rx", pkt, bytes, -1, "")
  | Demux { pkt; chan; flow } -> ("demux", pkt, chan, flow, "")
  | Ipq_enqueue { pkt; qlen } -> ("ipq-enqueue", pkt, qlen, -1, "")
  | Ipq_drop { pkt; qlen } -> ("ipq-drop", pkt, qlen, -1, "")
  | Early_discard { pkt; chan } -> ("early-discard", pkt, chan, -1, "")
  | Softint_begin { pkt } -> ("softint-begin", pkt, -1, -1, "")
  | Softint_end { pkt } -> ("softint-end", pkt, -1, -1, "")
  | Proto_deliver { pkt; conn; in_proc } ->
      ("proto-deliver", pkt, conn, (if in_proc then 1 else 0), "")
  | Sock_enqueue { pkt; sock } -> ("sock-enqueue", pkt, sock, -1, "")
  | Sock_drop { pkt; sock } -> ("sock-drop", pkt, sock, -1, "")
  | Syscall_copyout { pkt; sock; bytes } -> ("syscall-copyout", pkt, sock, bytes, "")
  | Csum_drop { pkt } -> ("csum-drop", pkt, -1, -1, "")
  | Mbuf_drop { pkt } -> ("mbuf-drop", pkt, -1, -1, "")
  | Intr_enter { level; label } -> ("intr-enter", -1, -1, -1, level_name level ^ ":" ^ label)
  | Intr_exit { level; label } -> ("intr-exit", -1, -1, -1, level_name level ^ ":" ^ label)
  | Ctx_switch { from_pid; to_pid } -> ("ctx-switch", -1, from_pid, to_pid, "")
  | Thread_state { pid; state } -> ("thread-state", -1, pid, -1, state_name state)
  | Note s -> ("note", -1, -1, -1, s)
  | Alarm { alarm; a; b } -> ("alarm", -1, a, b, alarm_name alarm)
  | Poll_begin { q; pending } -> ("poll-begin", -1, q, pending, "")
  | Poll_end { q; served } -> ("poll-end", -1, q, served, "")
  | Coalesce_fire { q; pending } -> ("coalesce-fire", -1, q, pending, "")
  | Gro_merge { pkt; into } -> ("gro-merge", pkt, into, -1, "")
  | Gro_flush { pkt; segs } -> ("gro-flush", pkt, segs, -1, "")

let cls_name = function
  | Packet_events -> "packet"
  | Sched_events -> "sched"
  | Note_events -> "note"

let to_csv buf t =
  Buffer.add_string buf "seq,ts_us,class,event,pkt,a,b,detail\n";
  List.iter
    (fun (ts, seq, ev) ->
      let nm, pkt, a, b, detail = csv_fields ev in
      (* The detail column only ever holds identifier-ish strings, but keep
         the quoting honest anyway. *)
      let detail =
        if String.exists (fun c -> c = ',' || c = '"' || c = '\n') detail then
          "\"" ^ String.concat "\"\"" (String.split_on_char '"' detail) ^ "\""
        else detail
      in
      Buffer.add_string buf
        (Printf.sprintf "%d,%.3f,%s,%s,%d,%d,%d,%s\n" seq ts
           (cls_name (class_of_event ev)) nm pkt a b detail))
    (events t)

(* --- Chrome trace_event sink ------------------------------------------- *)

(* Track (thread) ids inside the single "host" process.  Fixed tracks for
   the CPU contexts, then one per channel and one per socket. *)
let tid_nic = 0
let tid_hard = 1
let tid_soft = 2
let tid_proc = 3
let tid_chan c = 100 + c
let tid_sock s = 10000 + s

let chrome_json t =
  let pid = 1 in
  let evs = events t in
  let items = ref [] in
  let emit e = items := e :: !items in
  let meta name args = Json.Obj ([ ("ph", Json.Str "M"); ("pid", Json.Num (float_of_int pid)); ("name", Json.Str name) ] @ args) in
  let thread_meta tid nm =
    meta "thread_name"
      [ ("tid", Json.Num (float_of_int tid));
        ("args", Json.Obj [ ("name", Json.Str nm) ]) ]
  in
  emit (meta "process_name" [ ("args", Json.Obj [ ("name", Json.Str t.tr_name) ]) ]);
  emit (thread_meta tid_nic "nic");
  emit (thread_meta tid_hard "hardintr");
  emit (thread_meta tid_soft "softintr");
  emit (thread_meta tid_proc "process");
  (* Name the per-channel / per-socket tracks we are about to use. *)
  let named = Hashtbl.create 16 in
  let ensure_track tid nm =
    if not (Hashtbl.mem named tid) then begin
      Hashtbl.add named tid ();
      emit (thread_meta tid nm)
    end
  in
  List.iter
    (fun (_, _, ev) ->
      match ev with
      | Demux { chan; _ } | Early_discard { chan; _ } when chan >= 0 ->
          ensure_track (tid_chan chan) (Printf.sprintf "chan %d" chan)
      | Sock_enqueue { sock; _ } | Sock_drop { sock; _ }
      | Syscall_copyout { sock; _ } when sock >= 0 ->
          ensure_track (tid_sock sock) (Printf.sprintf "sock %d" sock)
      | _ -> ())
    evs;
  (* The ring may have overwritten a "B" whose "E" survived; drop unmatched
     closes so the slice stacks stay well-formed. *)
  let depth = Hashtbl.create 8 in
  let get_depth tid = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
  let base ph name tid ts args =
    Json.Obj
      ([ ("ph", Json.Str ph); ("name", Json.Str name);
         ("pid", Json.Num (float_of_int pid));
         ("tid", Json.Num (float_of_int tid)); ("ts", Json.Num ts) ]
      @ (if args = [] then [] else [ ("args", Json.Obj args) ]))
  in
  let num i = Json.Num (float_of_int i) in
  let instant ?(args = []) name tid ts =
    emit (base "i" name tid ts (args @ [ ("s", Json.Str "t") ]))
  in
  let span_begin name tid ts args =
    Hashtbl.replace depth tid (get_depth tid + 1);
    emit (base "B" name tid ts args)
  in
  let span_end name tid ts =
    let d = get_depth tid in
    if d > 0 then begin
      Hashtbl.replace depth tid (d - 1);
      emit (base "E" name tid ts [])
    end
  in
  List.iter
    (fun (ts, _, ev) ->
      match ev with
      | Nic_rx { pkt; bytes } ->
          instant ~args:[ ("pkt", num pkt); ("bytes", num bytes) ] "nic-rx" tid_nic ts
      | Demux { pkt; chan; flow } ->
          instant
            ~args:[ ("pkt", num pkt); ("flow", num flow) ]
            "demux"
            (if chan >= 0 then tid_chan chan else tid_hard)
            ts
      | Ipq_enqueue { pkt; qlen } ->
          instant ~args:[ ("pkt", num pkt); ("qlen", num qlen) ] "ipq-enqueue" tid_hard ts
      | Ipq_drop { pkt; qlen } ->
          instant ~args:[ ("pkt", num pkt); ("qlen", num qlen) ] "ipq-drop" tid_hard ts
      | Early_discard { pkt; chan } ->
          instant ~args:[ ("pkt", num pkt) ] "early-discard"
            (if chan >= 0 then tid_chan chan else tid_hard)
            ts
      | Softint_begin { pkt } ->
          span_begin (Printf.sprintf "pkt %d" pkt) tid_soft ts [ ("pkt", num pkt) ]
      | Softint_end { pkt } -> ignore pkt; span_end "pkt" tid_soft ts
      | Proto_deliver { pkt; conn; in_proc } ->
          instant
            ~args:[ ("pkt", num pkt); ("conn", num conn) ]
            "proto-deliver"
            (if in_proc then tid_proc else tid_soft)
            ts
      | Sock_enqueue { pkt; sock } ->
          instant ~args:[ ("pkt", num pkt) ] "sock-enqueue" (tid_sock sock) ts
      | Sock_drop { pkt; sock } ->
          instant ~args:[ ("pkt", num pkt) ] "sock-drop" (tid_sock sock) ts
      | Syscall_copyout { pkt; sock; bytes } ->
          instant
            ~args:[ ("pkt", num pkt); ("bytes", num bytes) ]
            "copyout" (tid_sock sock) ts
      | Csum_drop { pkt } ->
          instant ~args:[ ("pkt", num pkt) ] "csum-drop" tid_hard ts
      | Mbuf_drop { pkt } ->
          instant ~args:[ ("pkt", num pkt) ] "mbuf-drop" tid_hard ts
      | Intr_enter { level; label } ->
          span_begin label
            (match level with Hard -> tid_hard | Soft -> tid_soft)
            ts []
      | Intr_exit { level; label } ->
          span_end label (match level with Hard -> tid_hard | Soft -> tid_soft) ts
      | Ctx_switch { from_pid; to_pid } ->
          instant
            ~args:[ ("from", num from_pid); ("to", num to_pid) ]
            "ctx-switch" tid_proc ts
      | Thread_state { pid = p; state } ->
          instant
            ~args:[ ("pid", num p); ("state", Json.Str (state_name state)) ]
            "thread-state" tid_proc ts
      | Note s -> instant ~args:[ ("text", Json.Str s) ] "note" tid_proc ts
      | Alarm { alarm; a; b } ->
          instant
            ~args:[ ("a", num a); ("b", num b) ]
            ("alarm:" ^ alarm_name alarm) tid_proc ts
      | Poll_begin { q; pending } ->
          span_begin
            (Printf.sprintf "poll q%d" q)
            tid_soft ts
            [ ("q", num q); ("pending", num pending) ]
      | Poll_end { q; served } ->
          ignore served;
          span_end (Printf.sprintf "poll q%d" q) tid_soft ts
      | Coalesce_fire { q; pending } ->
          instant
            ~args:[ ("q", num q); ("pending", num pending) ]
            "coalesce-fire" tid_nic ts
      | Gro_merge { pkt; into } ->
          instant ~args:[ ("pkt", num pkt); ("into", num into) ] "gro-merge"
            tid_soft ts
      | Gro_flush { pkt; segs } ->
          instant ~args:[ ("pkt", num pkt); ("segs", num segs) ] "gro-flush"
            tid_soft ts)
    evs;
  (* Close spans still open at the end of the buffered window so every
     "B" has a matching "E" (a run can end mid-interrupt). *)
  let last_ts = match List.rev evs with (ts, _, _) :: _ -> ts | [] -> 0. in
  (* Sorted by track id: the synthetic close events land in the JSON in a
     stable order, keeping the sink byte-reproducible. *)
  Lrp_det.Det.iter_sorted
    (fun tid d ->
      for _ = 1 to d do
        emit (base "E" "trace-end" tid last_ts [])
      done)
    depth;
  Json.Obj [ ("traceEvents", Json.Arr (List.rev !items)) ]

let to_chrome buf t = Json.to_buffer buf (chrome_json t)

let write_file t ~format path =
  let buf = Buffer.create 4096 in
  (match format with
  | `Chrome -> to_chrome buf t
  | `Csv -> to_csv buf t
  | `Text -> to_text buf t);
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc

(* --- per-packet stage-latency breakdown -------------------------------- *)

module Report = struct
  type marks = {
    mutable m_nic : float;
    mutable m_q : float;      (* ipq or per-channel queue entry *)
    mutable m_sb : float;     (* softint span begin *)
    mutable m_se : float;     (* softint span end *)
    mutable m_proto : float;
    mutable m_in_proc : bool;
    mutable m_sock : float;
  }

  type t = {
    stages : (string * Samples.t) list;
    packets : int;
  }

  let stage_names = [ "queue-wait"; "softint-proto"; "proc-proto"; "sockq-wait"; "total" ]

  let stage_latency evs =
    let stages = List.map (fun n -> (n, Samples.create ())) stage_names in
    let stage n = List.assoc n stages in
    let packets = ref 0 in
    let marks : (int, marks) Hashtbl.t = Hashtbl.create 256 in
    let fresh ts =
      { m_nic = ts; m_q = Float.nan; m_sb = Float.nan; m_se = Float.nan;
        m_proto = Float.nan; m_in_proc = false; m_sock = Float.nan }
    in
    let find pkt = Hashtbl.find_opt marks pkt in
    List.iter
      (fun (ts, _, ev) ->
        match ev with
        | Nic_rx { pkt; _ } -> Hashtbl.replace marks pkt (fresh ts)
        | Ipq_enqueue { pkt; _ } | Demux { pkt; _ } -> (
            match find pkt with
            | Some m when Float.is_nan m.m_q -> m.m_q <- ts
            | _ -> ())
        | Softint_begin { pkt } -> (
            match find pkt with Some m -> m.m_sb <- ts | None -> ())
        | Softint_end { pkt } -> (
            match find pkt with Some m -> m.m_se <- ts | None -> ())
        | Proto_deliver { pkt; in_proc; _ } -> (
            match find pkt with
            | Some m ->
                if Float.is_nan m.m_proto then begin
                  m.m_proto <- ts;
                  m.m_in_proc <- in_proc
                end
            | None -> ())
        | Sock_enqueue { pkt; _ } -> (
            match find pkt with Some m -> m.m_sock <- ts | None -> ())
        | Syscall_copyout { pkt; _ } -> (
            match find pkt with
            | Some m ->
                incr packets;
                Hashtbl.remove marks pkt;
                let ok x = not (Float.is_nan x) in
                let proto_start = if ok m.m_sb then m.m_sb else m.m_proto in
                if ok m.m_q && ok proto_start then
                  Samples.add (stage "queue-wait") (proto_start -. m.m_q);
                if ok m.m_sb && ok m.m_se then
                  Samples.add (stage "softint-proto") (m.m_se -. m.m_sb);
                if m.m_in_proc && ok m.m_proto && ok m.m_sock then
                  Samples.add (stage "proc-proto") (m.m_sock -. m.m_proto);
                if ok m.m_sock then
                  Samples.add (stage "sockq-wait") (ts -. m.m_sock);
                Samples.add (stage "total") (ts -. m.m_nic)
            | None -> ())
        | Ipq_drop _ | Early_discard _ | Sock_drop _ | Csum_drop _
        | Mbuf_drop _ | Intr_enter _ | Intr_exit _ | Ctx_switch _
        | Thread_state _ | Note _ | Alarm _ | Poll_begin _ | Poll_end _
        | Coalesce_fire _ | Gro_merge _ | Gro_flush _ -> ())
      evs;
    { stages; packets = !packets }

  let pp fmt t =
    Format.fprintf fmt "stage-latency over %d packets (us):@." t.packets;
    Format.fprintf fmt "  %-14s %8s %10s %10s %10s@." "stage" "count" "mean"
      "p50" "p99";
    List.iter
      (fun (nm, s) ->
        Format.fprintf fmt "  %-14s %8d %10.2f %10.2f %10.2f@." nm
          (Samples.count s) (Samples.mean s) (Samples.percentile s 50.)
          (Samples.percentile s 99.))
      t.stages
end
