(** Two-tier pending-event queue: hierarchical timer wheel + {!Eheap}.

    Near-horizon events land in O(1) wheel buckets; far-horizon events
    overflow into the comparison heap.  All pops come from the heap, after
    [sync] has poured every bucket that could hold the global minimum, so
    firing order — (key, FIFO-seq) lexicographic — is exactly what a pure
    heap would produce.  Values are ints (the engine's packed handles), so
    the structure is fully unboxed and schedule/pop allocate nothing on the
    steady state.

    The queue has one add ({!add_cell}), one peek ({!min_key_into}) and
    one pop ({!pop_boundcell}).  Non-flambda OCaml boxes every float that
    crosses a function boundary as an argument or return value, but
    float-array loads and stores stay unboxed, so keys, times and bounds
    travel through the queue's two-float scratch {!cell}. *)

type t

val create : ?wheel:bool -> unit -> t
(** [create ()] makes an empty queue.  [~wheel:false] disables the wheel
    entirely — every event goes straight to the heap — which must be
    observationally identical; the equivalence property test runs the two
    side by side. *)

val set_filter : t -> (int -> bool) -> unit
(** Install the liveness filter consulted when a bucket pours: entries for
    which the filter returns [false] (cancelled events) are dropped in O(1)
    instead of entering the heap.  The filter may free the entry's backing
    state.  Default accepts everything. *)

val cell : t -> float array
(** The queue's scratch cell (length 2).  [cell.(0)] carries the event key
    into {!add_cell} and out of {!pop_boundcell}; [cell.(1)] carries the
    current virtual time into {!add_cell} and the bound into
    {!pop_boundcell}. *)

val add_cell : t -> int -> unit
(** [add_cell t v] schedules [v] at time [cell.(0)]; [cell.(1)] is the
    current virtual time, which lets an idle wheel snap its tick cursor
    forward so near-horizon events stay in the cheap path after a
    heap-only stretch.  Requires [cell.(0) >= cell.(1)]. *)

val min_key_into : t -> cell:float array -> bool
(** [min_key_into t ~cell] writes the minimal key into [cell.(0)] and
    returns [true], or returns [false] (leaving [cell] alone) when the
    queue is empty.  Turns the wheel as needed. *)

val pop_boundcell : t -> int
(** Remove the globally-minimal entry iff its key is [<= cell.(1)] and
    return its value, leaving its key in [cell.(0)]; returns [-1]
    otherwise (empty queue, or minimum beyond the bound).  Cancelled
    entries may be dropped on the way, so a queue holding only cancelled
    wheel entries comes up empty here.  Stored values must be [>= 0].
    [cell.(1)] is also written by {!add_cell}'s caller: re-write it before
    any pop that follows dispatched work. *)

(** {2 Routing statistics} — cumulative, for the metrics registry. *)

val scheduled_wheel : t -> int
(** Schedules that landed in a wheel bucket. *)

val scheduled_heap : t -> int
(** Schedules routed straight to the heap (past/overflow, or wheel off). *)

val skipped_at_pour : t -> int
(** Cancelled entries dropped by the filter at bucket-pour time — each one
    a heap insertion plus a heap pop avoided. *)
