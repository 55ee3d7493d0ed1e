(* Array-backed binary min-heap.  Each entry carries the caller's
   sequence rank so that equal keys compare FIFO.

   Entries are stored in three parallel arrays (keys / seqs / values)
   instead of an array of entry records: no per-insertion allocation, and
   the float keys live in a flat unboxed array.  Sift-up and sift-down move
   a hole through the tree and write the inserted entry exactly once,
   instead of swapping triples at every level. *)

type t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable size : int;
}

let initial_capacity = 16

let create () =
  { keys = [||]; seqs = [||]; vals = [||]; size = 0 }

let length t = t.size

(* Ensure room for one more entry. *)
let reserve t =
  let cap = Array.length t.seqs in
  if t.size = cap then begin
    let cap' = max initial_capacity (2 * cap) in
    let keys = Array.make cap' 0. in (* alloc: cold — amortized growth *)
    let seqs = Array.make cap' 0 in (* alloc: cold — amortized growth *)
    let vals = Array.make cap' 0 in (* alloc: cold — amortized growth *)
    Array.blit t.keys 0 keys 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.vals 0 vals 0 t.size;
    t.keys <- keys;
    t.seqs <- seqs;
    t.vals <- vals
  end

(* Insert with a caller-supplied sequence rank.  The timer wheel routes
   events through holding buckets and pours them into the heap only when
   their horizon comes up; carrying the schedule-time sequence through the
   pour keeps FIFO-among-equal-keys identical to a direct heap insertion.
   The key is read out of [cell.(0)]: a float array load stays unboxed,
   where a float argument would be boxed at every call — this is the
   wheel's pour path, traversed once per event.  Sift-up walks the hole up
   from the new leaf, pulling parents down until the entry fits. *)
let[@inline] add_pre_cell t ~cell ~seq value =
  if t.size = Array.length t.seqs then reserve t;
  let key = cell.(0) in
  let i = ref t.size in
  t.size <- t.size + 1;
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let p = (!i - 1) / 2 in
    let pk = t.keys.(p) in
    if key < pk || (key = pk && seq < t.seqs.(p)) then begin
      t.keys.(!i) <- pk;
      t.seqs.(!i) <- t.seqs.(p);
      t.vals.(!i) <- t.vals.(p);
      i := p
    end
    else stop := true
  done;
  t.keys.(!i) <- key;
  t.seqs.(!i) <- seq;
  t.vals.(!i) <- value

(* The smallest key is written into [cell.(0)] (float-array-to-float-array,
   no box) instead of being returned. *)
let[@inline] min_key_into t ~cell =
  if t.size = 0 then false
  else begin
    cell.(0) <- t.keys.(0);
    true
  end

(* Remove the root: sift the hole down, then drop the displaced last entry
   into it.  The caller has already read the root's key/value. *)
let remove_top t =
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let key = t.keys.(n) and seq = t.seqs.(n) in
    let i = ref 0 in
    let stop = ref false in
    while not !stop do
      let l = (2 * !i) + 1 in
      if l >= n then stop := true
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (t.keys.(r) < t.keys.(l)
               || (t.keys.(r) = t.keys.(l) && t.seqs.(r) < t.seqs.(l)))
          then r
          else l
        in
        let ck = t.keys.(c) in
        if ck < key || (ck = key && t.seqs.(c) < seq) then begin
          t.keys.(!i) <- ck;
          t.seqs.(!i) <- t.seqs.(c);
          t.vals.(!i) <- t.vals.(c);
          i := c
        end
        else stop := true
      end
    done;
    t.keys.(!i) <- key;
    t.seqs.(!i) <- seq;
    t.vals.(!i) <- t.vals.(n)
  end

(* The heap's one pop.  Conditional: if the root's key is <= the bound
   in [cell.(1)], pop it — key into [cell.(0)], value returned; otherwise
   [default].  One root access where a min-compare followed by a pop pays
   two, and the bound is read out of the cell rather than passed as a
   float argument, which a non-inlined call boxes at every call site —
   two minor words per event on the event loop.  A bound of [infinity]
   makes it an unconditional pop-min. *)
let[@inline] pop_boundcell_into t ~cell ~default =
  if t.size = 0 || t.keys.(0) > cell.(1) then default
  else begin
    cell.(0) <- t.keys.(0);
    let top_val = t.vals.(0) in
    remove_top t;
    top_val
  end
