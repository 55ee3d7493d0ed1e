(* Packed flight recorder: the storage and codec layer under every Trace
   tracer.

   Events live in four parallel ring columns (SoA, like the packet arenas
   in lib/core): an int kind, a flat float timestamp, an int ident (the
   packet ident, or -1) and one int packing the event's two small
   arguments the way Flowtab packs flow keys.  Recording an event is four
   array stores and a handful of int ops — no allocation — and the
   timestamp comes straight out of the owner's 1-slot clock array
   ({!Lrp_engine.Engine.clock_cell} for kernels), so no boxed-closure
   clock read happens on the record path either.

   This module knows nothing about {!Trace.event}; Trace assigns the kind
   codes and performs the lossless packed->typed decode
   ([Trace.events_of_precorder]).  Strings (interrupt labels, notes) are
   interned here into a small id table so the columns stay all-int. *)

type t = {
  cap : int;
  clock : float array;  (* owner's clock; slot 0 is "now" *)
  mutable kcol : int array;    (* [||] until the first recorded event *)
  mutable tcol : float array;
  mutable icol : int array;
  mutable acol : int array;
  mutable head : int;   (* next write slot *)
  mutable count : int;  (* live entries, <= cap *)
  mutable seq : int;    (* total events ever recorded *)
  mutable lost : int;   (* overwritten *)
  (* string interning: label/note strings -> small ids.  Steady-state
     labels are a handful of constants, so the table stops growing (and
     the record path stops allocating) almost immediately. *)
  stab : (string, int) Hashtbl.t;
  mutable strs : string array;
  mutable nstr : int;
}

let create ?(capacity = 65536) ~clock () =
  { cap = max 1 capacity; clock; kcol = [||]; tcol = [||]; icol = [||];
    acol = [||]; head = 0; count = 0; seq = 0; lost = 0;
    stab = Hashtbl.create 16; strs = [||]; nstr = 0 }

let capacity t = t.cap
let length t = t.count
let dropped t = t.lost
let recorded t = t.seq

let clear t =
  t.head <- 0;
  t.count <- 0;
  t.seq <- 0;
  t.lost <- 0

(* --- argument packing --------------------------------------------------- *)

(* Two small ints in one word, Flowtab-style.  The +1 offset makes the -1
   "not applicable" sentinel encodable; each argument gets 31 bits, so the
   packed word fits a 63-bit OCaml int with a bit to spare. *)

let arg_max = (1 lsl 31) - 2

let pack ~a ~b = ((a + 1) lsl 31) lor (b + 1)
let unpack_a arg = (arg lsr 31) - 1
let unpack_b arg = (arg land 0x7FFF_FFFF) - 1

(* --- record path -------------------------------------------------------- *)

let grow t =
  t.kcol <- Array.make t.cap 0; (* alloc: cold — lazy first-use sizing *)
  t.tcol <- Array.make t.cap 0.; (* alloc: cold — lazy first-use sizing *)
  t.icol <- Array.make t.cap 0; (* alloc: cold — lazy first-use sizing *)
  t.acol <- Array.make t.cap 0 (* alloc: cold — lazy first-use sizing *)

let record t ~kind ~ident ~a ~b =
  if Array.length t.kcol = 0 then grow t;
  let i = t.head in
  t.kcol.(i) <- kind;
  t.tcol.(i) <- t.clock.(0);
  t.icol.(i) <- ident;
  t.acol.(i) <- ((a + 1) lsl 31) lor (b + 1);
  t.head <- (if i + 1 = t.cap then 0 else i + 1);
  if t.count = t.cap then t.lost <- t.lost + 1 else t.count <- t.count + 1;
  t.seq <- t.seq + 1

(* --- string interning --------------------------------------------------- *)

let intern t s =
  match Hashtbl.find t.stab s with
  | id -> id
  | exception Not_found ->
      let id = t.nstr in
      let n = Array.length t.strs in
      if id = n then begin
        (* alloc: cold — first sighting of a label *)
        let strs = Array.make (max 8 (2 * n)) "" in
        Array.blit t.strs 0 strs 0 n;
        t.strs <- strs
      end;
      t.strs.(id) <- s;
      t.nstr <- id + 1;
      (* alloc: cold — first sighting of a label *)
      Hashtbl.add t.stab s id;
      id

let get_string t id =
  if id >= 0 && id < t.nstr then t.strs.(id) else "?"

(* --- reading ------------------------------------------------------------ *)

let iter t f =
  let start = (t.head - t.count + (2 * t.cap)) mod t.cap in
  let seq0 = t.seq - t.count in
  for i = 0 to t.count - 1 do
    let j = (start + i) mod t.cap in
    let arg = t.acol.(j) in
    f ~ts:t.tcol.(j) ~seq:(seq0 + i) ~kind:t.kcol.(j) ~ident:t.icol.(j)
      ~a:(unpack_a arg) ~b:(unpack_b arg)
  done

(* --- binary dump -------------------------------------------------------- *)

(* Fixed-width little-endian int64 words after an 8-byte magic:

     "LRPREC01"
     count seq lost nstr                      (4 words)
     for each interned string: byte-length, then the bytes 0-padded
       to an 8-byte boundary
     count records x 4 words: kind, Int64.bits_of_float ts, ident,
       packed arg

   Records are emitted oldest-first, so a reader reconstructs exactly the
   surviving window (sequence numbers restart at [seq - count]). *)

let magic = "LRPREC01"

let add_word buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Buffer.add_bytes buf b

let add_int buf v = add_word buf (Int64.of_int v)

let dump_to_buffer buf t =
  Buffer.add_string buf magic;
  add_int buf t.count;
  add_int buf t.seq;
  add_int buf t.lost;
  add_int buf t.nstr;
  for i = 0 to t.nstr - 1 do
    let s = t.strs.(i) in
    add_int buf (String.length s);
    Buffer.add_string buf s;
    let pad = (8 - (String.length s mod 8)) mod 8 in
    Buffer.add_string buf (String.make pad '\000')
  done;
  iter t (fun ~ts ~seq:_ ~kind ~ident ~a ~b ->
      add_int buf kind;
      add_word buf (Int64.bits_of_float ts);
      add_int buf ident;
      add_int buf (pack ~a ~b))

let write_dump t path =
  let buf = Buffer.create 4096 in
  dump_to_buffer buf t;
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

let of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = Error (Printf.sprintf "%s at byte %d" msg !pos) in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let word () =
    if !pos + 8 > len then fail "truncated dump"
    else begin
      let v = String.get_int64_le s !pos in
      pos := !pos + 8;
      Ok v
    end
  in
  let int () =
    let* v = word () in
    Ok (Int64.to_int v)
  in
  if len < 8 || String.sub s 0 8 <> magic then fail "bad magic"
  else begin
    pos := 8;
    let* count = int () in
    let* seq = int () in
    let* lost = int () in
    let* nstr = int () in
    if count < 0 || nstr < 0 then fail "negative count"
    else begin
      let t = create ~capacity:(max 1 count) ~clock:[| 0. |] () in
      let rec strings i =
        if i = nstr then Ok ()
        else
          let* n = int () in
          let padded = n + ((8 - (n mod 8)) mod 8) in
          if n < 0 || !pos + padded > len then fail "truncated string table"
          else begin
            ignore (intern t (String.sub s !pos n));
            pos := !pos + padded;
            strings (i + 1)
          end
      in
      let* () = strings 0 in
      let rec records i =
        if i = count then Ok ()
        else
          let* kind = int () in
          let* bits = word () in
          let* ident = int () in
          let* arg = int () in
          record t ~kind ~ident ~a:(unpack_a arg) ~b:(unpack_b arg);
          (* [record] stamped from the dummy clock; restore the dump's
             timestamp. *)
          t.tcol.((t.head + t.cap - 1) mod t.cap) <- Int64.float_of_bits bits;
          records (i + 1)
      in
      let* () = records 0 in
      if !pos <> len then fail "trailing bytes"
      else begin
        (* Reconstruct the pre-dump counters: [record] above counted from
           zero. *)
        t.seq <- seq;
        t.lost <- lost;
        Ok t
      end
    end
  end

let read_dump path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      of_string s
