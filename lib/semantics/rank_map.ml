(* Rank -> index maps: the one interning table of every state store.

   A key is a layout rank (or any other non-negative int below [space]);
   a value is a dense index.  Two representations, chosen from what the
   map holds rather than from a setting:

   - a monomorphic open-addressing table: key and value interleaved in
     one [int array], multiplicative hashing, linear probing, load at
     most 1/2.  A lookup is a multiply, a shift and a few array reads:
     no polymorphic hash, no allocation;
   - a dense direct array over [0, space): [table.(key)] is the value,
     [-1] when absent.

   A map is dense from the first time its table would take as many
   words as the dense array: at creation, when it is sized for
   [space / 4] entries or more, or when growth would double the table
   past that.  Either way the map takes at most about 8 words per entry
   held: a sparse store (a fault span of a few thousand states in a
   product of 10^5 or more) keeps a small table, and a store that fills
   its space (a span that is most of the product) reads one array slot
   per lookup. *)

type t = {
  space : int;
  mutable dense : bool;
  (* Hashed: slot [s] is [table.(2s)] (key, [-1] when empty) and
     [table.(2s+1)] (value); the slot count is [1 lsl bits].  Dense:
     [table.(key)]. *)
  mutable table : int array;
  mutable bits : int;
  mutable count : int;
}

let empty = -1
let min_bits = 4

(* Fibonacci hashing: the top [bits] bits of the key times an odd
   constant near 2^62 / golden ratio. *)
let slot key bits = (key * 0x278DDE6E5FD29F05) lsr (63 - bits)

(* The dense array costs [space] words, a table of [1 lsl bits] slots
   twice that. *)
let dense_fits ~space bits = bits >= 62 || space <= 2 lsl bits

let create ?(expect = 0) ~space () =
  if space < 0 then
    Detcor_robust.Error.internal "Rank_map.create: negative space";
  let bits = ref min_bits in
  while !bits < 62 && 1 lsl !bits < 2 * expect do
    incr bits
  done;
  if dense_fits ~space !bits then
    { space; dense = true; table = Array.make space empty; bits = 0; count = 0 }
  else
    {
      space;
      dense = false;
      table = Array.make (2 lsl !bits) empty;
      bits = !bits;
      count = 0;
    }

let length t = t.count
let is_dense t = t.dense

(* The slot holding [key], or the empty slot ending its probe run. *)
let rec probe table mask key s =
  let k = Array.unsafe_get table (2 * s) in
  if k = key || k = empty then s else probe table mask key ((s + 1) land mask)

let find t key =
  if key < 0 || key >= t.space then -1
  else if t.dense then Array.unsafe_get t.table key
  else
    let s = probe t.table ((1 lsl t.bits) - 1) key (slot key t.bits) in
    if Array.unsafe_get t.table (2 * s) = key then
      Array.unsafe_get t.table ((2 * s) + 1)
    else -1

(* Store into the hashed table, which has room. *)
let store table bits key v =
  let s = probe table ((1 lsl bits) - 1) key (slot key bits) in
  Array.unsafe_set table (2 * s) key;
  Array.unsafe_set table ((2 * s) + 1) v

(* Double the table, or turn dense when the doubled table would cost at
   least the dense array. *)
let grow t =
  let old = t.table in
  let bits = t.bits + 1 in
  if dense_fits ~space:t.space bits then begin
    let table = Array.make t.space empty in
    for s = 0 to (Array.length old / 2) - 1 do
      let k = old.(2 * s) in
      if k <> empty then table.(k) <- old.((2 * s) + 1)
    done;
    t.table <- table;
    t.dense <- true
  end
  else begin
    let table = Array.make (2 lsl bits) empty in
    for s = 0 to (Array.length old / 2) - 1 do
      let k = old.(2 * s) in
      if k <> empty then store table bits k old.((2 * s) + 1)
    done;
    t.table <- table;
    t.bits <- bits
  end

let add t key v =
  if key < 0 || key >= t.space then
    Detcor_robust.Error.internal "Rank_map.add: key %d outside [0,%d)" key
      t.space;
  if v < 0 then
    Detcor_robust.Error.internal "Rank_map.add: negative value %d" v;
  if (not t.dense) && 2 * (t.count + 1) > 1 lsl t.bits then grow t;
  if t.dense then begin
    if t.table.(key) = empty then t.count <- t.count + 1;
    t.table.(key) <- v
  end
  else begin
    let s = probe t.table ((1 lsl t.bits) - 1) key (slot key t.bits) in
    if t.table.(2 * s) = empty then t.count <- t.count + 1;
    t.table.(2 * s) <- key;
    t.table.((2 * s) + 1) <- v
  end
