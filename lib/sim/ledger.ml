(* Per-cycle CPU accounting ledger.

   Every simulated microsecond the CPU charges is mirrored here under one
   of four classes, keyed by the process it was *charged to* and (for
   receiver-context protocol work) the flow/channel it served:

     - Intr / Soft: interrupt-level work.  The pid column records BSD's
       "curproc at the time" — the interrupted victim — which is exactly
       the paper's mis-accounting: under BSD all receive-side protocol
       cycles land in these columns against whoever happened to be
       running, while under LRP the protocol cycles move to the Proto
       class against the receiving process itself.
     - Proto: protocol processing performed in a process's own context
       (LRP's lazy receiver processing, the UDP helper, the forwarding
       daemon), attributed to the owning pid and the channel it drained.
     - Poll: NAPI-style budgeted poll cycles — softirq poll rounds and
       ksoftirqd process-context polling.  Kept distinct from Soft so the
       overload detector can discriminate a NAPI kernel spending its CPU
       in accountable poll work from a BSD kernel drowning in eager
       interrupt-level processing.
     - App: everything else a process computes.

   Idle is derived by the caller (elapsed minus the grand total).  Rows
   are plain float arrays so the charge path allocates nothing beyond the
   first sighting of a pid/flow. *)

type cls = Intr | Soft | Proto | Poll | App

let idx = function Intr -> 0 | Soft -> 1 | Proto -> 2 | Poll -> 3 | App -> 4

type prow = { mutable p_name : string; pcols : float array }

type t = {
  totals : float array;                  (* 5 class totals, us *)
  cell : float array;                    (* 1-slot staging cell for [charge] *)
  pids : (int, prow) Hashtbl.t;          (* pid -> columns; -1 = idle ctx *)
  flows : (int, float array) Hashtbl.t;  (* flow/channel id -> columns *)
}

let create () =
  { totals = Array.make 5 0.;
    cell = [| 0. |];
    pids = Hashtbl.create 17;
    flows = Hashtbl.create 17 }

let prow t pid =
  match Hashtbl.find t.pids pid with
  | r -> r
  | exception Not_found ->
      let r =
        (* alloc: cold — first sighting of a pid *)
        { p_name = (if pid < 0 then "(idle)" else "?"); pcols = Array.make 5 0. }
      in
      (* alloc: cold — first sighting of a pid *)
      Hashtbl.add t.pids pid r;
      r

let frow t flow =
  match Hashtbl.find t.flows flow with
  | c -> c
  | exception Not_found ->
      (* alloc: cold — first sighting of a flow *)
      let c = Array.make 5 0. in
      (* alloc: cold — first sighting of a flow *)
      Hashtbl.add t.flows flow c;
      c

let set_name t ~pid name = (prow t pid).p_name <- name

(* The charge is read from [cell.(0)]: a float passed as an argument is
   boxed at the call, a float-array slot is not. *)
let charge_cell t cls ~pid ~flow cell =
  let d = cell.(0) in
  if d > 0. then begin
    let i = idx cls in
    t.totals.(i) <- t.totals.(i) +. d;
    let r = prow t pid in
    r.pcols.(i) <- r.pcols.(i) +. d;
    if flow >= 0 then begin
      let c = frow t flow in
      c.(i) <- c.(i) +. d
    end
  end

let charge t cls ~pid ~flow d =
  t.cell.(0) <- d;
  charge_cell t cls ~pid ~flow t.cell

let total t cls = t.totals.(idx cls)

let grand_total t =
  t.totals.(0) +. t.totals.(1) +. t.totals.(2) +. t.totals.(3) +. t.totals.(4)

type row = {
  pid : int;
  name : string;
  intr_victim : float;
  soft_victim : float;
  proto : float;
  poll : float;
  app : float;
}

let misaccounted r = r.intr_victim +. r.soft_victim

type flow_row = { flow : int; f_soft : float; f_proto : float; f_poll : float }

let rows t =
  let acc = ref [] in
  Lrp_det.Det.iter_sorted
    (fun pid (r : prow) ->
      acc :=
        { pid; name = r.p_name; intr_victim = r.pcols.(0);
          soft_victim = r.pcols.(1); proto = r.pcols.(2);
          poll = r.pcols.(3); app = r.pcols.(4) }
        :: !acc)
    t.pids;
  List.rev !acc

let flow_rows t =
  let acc = ref [] in
  Lrp_det.Det.iter_sorted
    (fun flow (c : float array) ->
      acc := { flow; f_soft = c.(1); f_proto = c.(2); f_poll = c.(3) } :: !acc)
    t.flows;
  List.rev !acc
