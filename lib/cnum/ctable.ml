(* Layout.  Entry [tag] lives in chunk [tag lsr chunk_bits] at offset
   [i = tag land chunk_mask].  Chunks have a fixed size, so growing the table
   allocates one more chunk and never copies an entry.  Per entry:
   - [floats.(c)]: the value's re and im, unboxed, at [2i] and [2i+1];
   - [ints.(c)]: the bucket key (kre, kim) at [3i] and [3i+1], and at [3i+2]
     the tag of the next older entry of the same bucket, or [empty];
   - [values.(c)]: the canonical [Cnum.t] handed out for the tag.
   [index] maps a bucket key to the bucket's newest entry by open addressing
   with linear probing.  A cell is [empty] or packs that entry's tag (low
   [tag_bits]) with a fingerprint of the key's hash (the bits above); a
   probe reads the key back from the entry only when the fingerprints agree.
   Buckets are never removed, so there are no tombstones.  Nothing on the
   lookup path allocates. *)

let chunk_bits = 9
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let empty = -1

(* 2^40 entries would take over 10 TB, so every tag fits. *)
let tag_bits = 40
let tag_mask = (1 lsl tag_bits) - 1

(* With the first chunk, [create] allocates about 3.6k words; a small
   context stays small. *)
let initial_index_size = 512

type t = {
  tolerance : float;
  mutable floats : float array array;
  mutable ints : int array array;
  mutable values : Cnum.t array array;
  mutable index : int array;
  mutable buckets : int;
  mutable next_tag : int;
}

let zero_tag = 0
let one_tag = 1

let[@inline] bucket tolerance x = int_of_float (floor ((x /. tolerance) +. 0.5))

let[@inline] hash kre kim =
  let h = ((kre * 0x2545F4914F6CDD1D) + kim) * 0x3C6EF372FE94F82B in
  h lxor (h lsr 29)

(* Non-negative and zero in the tag bits, so a cell is never [empty]. *)
let[@inline] fingerprint h = (h lsr 1) land lnot tag_mask

let[@inline] head cell = if cell = empty then empty else cell land tag_mask

(* The slot holding bucket (kre, kim), or the empty slot where it would go;
   [fp] is the key's fingerprint. *)
let rec find_slot table kre kim fp slot =
  let cell = Array.unsafe_get table.index slot in
  if cell = empty then slot
  else if
    cell land lnot tag_mask = fp
    &&
    let tag = cell land tag_mask in
    let ints = table.ints.(tag lsr chunk_bits)
    and o = 3 * (tag land chunk_mask) in
    ints.(o) = kre && ints.(o + 1) = kim
  then slot
  else
    find_slot table kre kim fp ((slot + 1) land (Array.length table.index - 1))

let slot table kre kim =
  let h = hash kre kim in
  find_slot table kre kim (fingerprint h)
    (h land (Array.length table.index - 1))

(* Newest first: the first entry within tolerance of [z] wins. *)
let rec scan table z tag =
  if tag = empty then empty
  else
    let c = tag lsr chunk_bits and i = tag land chunk_mask in
    let floats = table.floats.(c) in
    if
      abs_float (floats.(2 * i) -. z.Cnum.re) <= table.tolerance
      && abs_float (floats.((2 * i) + 1) -. z.Cnum.im) <= table.tolerance
    then tag
    else scan table z table.ints.(c).((3 * i) + 2)

(* A value within [tolerance] of the query may live in a bucket adjacent to
   the query's own bucket, so all nine neighbours are scanned.  The probe
   order, like the newest-first walk in [scan], decides which representative
   wins and so must not change. *)
let probe_re = [| 0; -1; 1; 0; 0; -1; -1; 1; 1 |]
let probe_im = [| 0; 0; 0; -1; 1; -1; 1; -1; 1 |]

let rec find_existing table z kre kim k =
  if k = 9 then empty
  else
    let cell =
      table.index.(slot table (kre + probe_re.(k)) (kim + probe_im.(k)))
    in
    let tag = scan table z (head cell) in
    if tag <> empty then tag else find_existing table z kre kim (k + 1)

let grow_index table =
  let old = table.index in
  let index = Array.make (2 * Array.length old) empty in
  let mask = Array.length index - 1 in
  table.index <- index;
  Array.iter
    (fun cell ->
      if cell <> empty then begin
        let tag = cell land tag_mask in
        let ints = table.ints.(tag lsr chunk_bits)
        and o = 3 * (tag land chunk_mask) in
        let rec free slot =
          if index.(slot) = empty then slot else free ((slot + 1) land mask)
        in
        index.(free (hash ints.(o) ints.(o + 1) land mask)) <- cell
      end)
    old

(* Double a chunk spine, padding with the shared empty chunk; only the
   pointers to the chunks are copied. *)
let grow_spine spine =
  let grown = Array.make (2 * Array.length spine) [||] in
  Array.blit spine 0 grown 0 (Array.length spine);
  grown

(* Append [canonical] (tagged [table.next_tag]) as the newest entry of its
   bucket (kre, kim). *)
let add_entry table kre kim canonical =
  let tag = table.next_tag in
  let c = tag lsr chunk_bits and i = tag land chunk_mask in
  if i = 0 then begin
    if c = Array.length table.floats then begin
      table.floats <- grow_spine table.floats;
      table.ints <- grow_spine table.ints;
      table.values <- grow_spine table.values
    end;
    table.floats.(c) <- Array.make (2 * chunk_size) 0.;
    table.ints.(c) <- Array.make (3 * chunk_size) empty;
    table.values.(c) <- Array.make chunk_size Cnum.zero
  end;
  let s = slot table kre kim in
  let s =
    if table.index.(s) <> empty then s
    else if 2 * (table.buckets + 1) <= Array.length table.index then begin
      table.buckets <- table.buckets + 1;
      s
    end
    else begin
      grow_index table;
      table.buckets <- table.buckets + 1;
      slot table kre kim
    end
  in
  let floats = table.floats.(c) and ints = table.ints.(c) in
  floats.(2 * i) <- canonical.Cnum.re;
  floats.((2 * i) + 1) <- canonical.Cnum.im;
  ints.(3 * i) <- kre;
  ints.((3 * i) + 1) <- kim;
  ints.((3 * i) + 2) <- head table.index.(s);
  table.values.(c).(i) <- canonical;
  table.index.(s) <- fingerprint (hash kre kim) lor tag;
  table.next_tag <- tag + 1

let register table z =
  add_entry table
    (bucket table.tolerance z.Cnum.re)
    (bucket table.tolerance z.Cnum.im)
    z

let create ?(tolerance = 1e-12) () =
  let table =
    {
      tolerance;
      floats = [| [||] |];
      ints = [| [||] |];
      values = [| [||] |];
      index = Array.make initial_index_size empty;
      buckets = 0;
      next_tag = 0;
    }
  in
  register table Cnum.zero;
  register table Cnum.one;
  table

let tolerance table = table.tolerance

let intern table z =
  if z.Cnum.tag >= 0. then z
  else
    let kre = bucket table.tolerance z.Cnum.re
    and kim = bucket table.tolerance z.Cnum.im in
    let tag = find_existing table z kre kim 0 in
    if tag <> empty then table.values.(tag lsr chunk_bits).(tag land chunk_mask)
    else begin
      let canonical = Cnum.with_tag z table.next_tag in
      add_entry table kre kim canonical;
      canonical
    end

let size table = table.next_tag
