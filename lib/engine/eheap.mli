(** Min-heap of timestamped entries with stable FIFO tie-breaking.

    The event queue of the simulator.  Each entry carries a caller-assigned
    sequence rank; entries with equal keys pop in rank order, which keeps
    simulations deterministic when many events share a timestamp.

    Values are ints (the engine's packed event handles): monomorphic
    [int array] value storage compiles to plain word stores, where a
    polymorphic ['a array] would pay the [caml_modify] write barrier on
    every sift step of the hot schedule/pop cycle.

    Keys and bounds travel through a caller-owned float-array cell: a
    float argument or return of a non-inlined call is boxed at every
    call, a float-array load or store is not. *)

type t

val create : unit -> t

val length : t -> int

val add_pre_cell : t -> cell:float array -> seq:int -> int -> unit
(** [add_pre_cell t ~cell ~seq v] inserts [v] with key [cell.(0)] and
    tie-break rank [seq].  {!Twheel} assigns every event its rank at
    schedule time and replays it when a wheel bucket pours into the heap,
    so FIFO-among-equals is preserved across the detour. *)

val min_key_into : t -> cell:float array -> bool
(** Write the smallest key into [cell.(0)] and return [true]; [false]
    (cell untouched) when the heap is empty. *)

val pop_boundcell_into : t -> cell:float array -> default:int -> int
(** [pop_boundcell_into t ~cell ~default] pops the smallest entry iff its
    key is [<= cell.(1)]: key into [cell.(0)], value returned.  [default]
    (cell untouched) when the heap is empty or its minimum exceeds the
    bound; a bound of [infinity] pops the minimum unconditionally. *)
