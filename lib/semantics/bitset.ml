(* Dense bit vectors over state indices.

   The predicate and guard caches of [Ts] store one bit per state; a
   [Bytes]-backed bitset keeps them 8x denser than [bool array]s and makes
   whole-set operations (union, count) cheap. *)

type t = {
  length : int;
  bits : Bytes.t;
}

let create length =
  if length < 0 then Detcor_robust.Error.internal "Bitset.create: negative length";
  { length; bits = Bytes.make ((length + 7) / 8) '\000' }

let length t = t.length

let check t i =
  if i < 0 || i >= t.length then
    Detcor_robust.Error.internal "Bitset: index %d out of bounds [0,%d)" i t.length

let get t i =
  check t i;
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let byte = i lsr 3 in
  Bytes.unsafe_set t.bits byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits byte) lor (1 lsl (i land 7))))

let clear t i =
  check t i;
  let byte = i lsr 3 in
  Bytes.unsafe_set t.bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bits byte) land lnot (1 lsl (i land 7))))

let of_fn length f =
  let t = create length in
  for i = 0 to length - 1 do
    if f i then set t i
  done;
  t

(* Popcount of a byte, via an 8-bit lookup table. *)
let popcount_table =
  let tbl = Bytes.create 256 in
  for b = 0 to 255 do
    let rec count n = if n = 0 then 0 else (n land 1) + count (n lsr 1) in
    Bytes.set tbl b (Char.chr (count b))
  done;
  tbl

let cardinal t =
  let n = Bytes.length t.bits in
  let total = ref 0 in
  for byte = 0 to n - 1 do
    total :=
      !total
      + Char.code (Bytes.get popcount_table (Char.code (Bytes.get t.bits byte)))
  done;
  !total

let iter_set t f =
  (* Skip zero bytes: sparse sets (frontiers, violation sets) are the
     common case in the backward fixpoints, and most bytes are empty. *)
  let n = Bytes.length t.bits in
  for byte = 0 to n - 1 do
    let b = Char.code (Bytes.unsafe_get t.bits byte) in
    if b <> 0 then begin
      let base = byte lsl 3 in
      for bit = 0 to 7 do
        if b land (1 lsl bit) <> 0 then f (base + bit)
      done
    end
  done

let equal a b = a.length = b.length && Bytes.equal a.bits b.bits

let copy t = { length = t.length; bits = Bytes.copy t.bits }

(* Whole-set queries and updates work byte-at-a-time: the trailing bits of
   the last byte are invariantly zero ([set] never writes past [length]),
   so no masking is needed. *)
let any t =
  let n = Bytes.length t.bits in
  let rec go i = i < n && (Bytes.unsafe_get t.bits i <> '\000' || go (i + 1)) in
  go 0

let union_into ~into t =
  if into.length <> t.length then
    Detcor_robust.Error.internal "Bitset.union_into: length %d vs %d" into.length
      t.length;
  let n = Bytes.length t.bits in
  let words = n lsr 3 in
  for w = 0 to words - 1 do
    let off = w lsl 3 in
    Bytes.set_int64_le into.bits off
      (Int64.logor
         (Bytes.get_int64_le into.bits off)
         (Bytes.get_int64_le t.bits off))
  done;
  for byte = words lsl 3 to n - 1 do
    Bytes.unsafe_set into.bits byte
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get into.bits byte)
         lor Char.code (Bytes.unsafe_get t.bits byte)))
  done

(* Raw bit bytes, for snapshot payloads.  [of_string] pairs the bytes
   back with their logical length, which the string alone cannot carry. *)
let to_string t = Bytes.to_string t.bits

let of_string length s =
  if length < 0 || String.length s <> (length + 7) / 8 then
    Detcor_robust.Error.internal
      "Bitset.of_string: %d bytes cannot hold exactly %d bits"
      (String.length s) length;
  { length; bits = Bytes.of_string s }
