(* Edge columns and the CSR builder of every [Ts] store (see the
   interface).  The flat and reference stores fill one builder for the
   whole system; the shard store fills one per BFS level, the segment
   it seals. *)

external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let labels n = Bytes.create (2 * n)
let targets n = Bytes.create (4 * n)

let first_block = 4096
let max_block = 32_768

type 'k t = {
  mutable keys : 'k array;
  mutable count : int;
  mutable rows : int array; (* rows.(i+1) = end offset of state i's edges *)
  mutable closed : int; (* states with closed rows: 0..closed-1 *)
  mutable ea : Bytes.t; (* the open block's label column *)
  mutable et : Bytes.t; (* the open block's target column *)
  mutable fill : int; (* edges in the open block *)
  mutable room : int; (* edges the open block holds *)
  mutable sealed_ea : Bytes.t list; (* full blocks, newest first *)
  mutable sealed_et : Bytes.t list;
  mutable sealed_edges : int; (* edges in the sealed blocks *)
}

let create () =
  {
    keys = [||];
    count = 0;
    rows = [| 0 |];
    closed = 0;
    ea = labels first_block;
    et = targets first_block;
    fill = 0;
    room = first_block;
    sealed_ea = [];
    sealed_et = [];
    sealed_edges = 0;
  }

let add b key =
  let i = b.count in
  let cap = Array.length b.keys in
  if i >= cap then begin
    let cap' = max 1024 (2 * cap) in
    let keys' = Array.make cap' key in
    Array.blit b.keys 0 keys' 0 cap;
    b.keys <- keys';
    let rows' = Array.make (cap' + 1) 0 in
    Array.blit b.rows 0 rows' 0 (cap + 1);
    b.rows <- rows'
  end;
  b.keys.(i) <- key;
  b.count <- i + 1;
  i

let key b i = b.keys.(i)
let count b = b.count
let keys b = Array.sub b.keys 0 b.count
let closed b = b.closed
let edges b = b.sealed_edges + b.fill

let seal b =
  b.sealed_ea <- b.ea :: b.sealed_ea;
  b.sealed_et <- b.et :: b.sealed_et;
  b.sealed_edges <- b.sealed_edges + b.room;
  let size = min max_block (2 * b.room) in
  b.ea <- labels size;
  b.et <- targets size;
  b.room <- size;
  b.fill <- 0

let push b aid j =
  if b.fill = b.room then seal b;
  set16 b.ea (2 * b.fill) aid;
  set32 b.et (4 * b.fill) (Int32.of_int j);
  b.fill <- b.fill + 1

(* [closed] trails the rows: everything below it is a consistent CSR
   prefix, which is exactly what a snapshot may persist.  The bounds of
   the [for] are read once, so states added while a row fills keep open
   rows. *)
let fill_rows b intern f =
  let emit aid k = push b aid (intern k) in
  for i = b.closed to b.count - 1 do
    f b.keys.(i) emit;
    b.rows.(i + 1) <- edges b;
    b.closed <- i + 1
  done

(* The first [len] bytes of one column, given its sealed blocks (newest
   first) and its open block, as one column of exact length. *)
let column sealed open_ len =
  let out = Bytes.create len and pos = ref 0 in
  List.iter
    (fun block ->
      let k = min (Bytes.length block) (len - !pos) in
      Bytes.blit block 0 out !pos k;
      pos := !pos + k)
    (List.rev (open_ :: sealed));
  out

let label_column b len = column b.sealed_ea b.ea (2 * len)
let target_column b len = column b.sealed_et b.et (4 * len)

let columns b =
  ( Array.sub b.rows 0 (b.count + 1),
    label_column b (edges b),
    target_column b (edges b) )

type 'k snap = {
  s_keys : 'k array;
  s_rows : int array;
  s_ea : Bytes.t;
  s_et : Bytes.t;
  s_closed : int;
}

let snapshot b =
  let len = b.rows.(b.closed) in
  {
    s_keys = keys b;
    s_rows = Array.sub b.rows 0 (b.closed + 1);
    s_ea = label_column b len;
    s_et = target_column b len;
    s_closed = b.closed;
  }

(* The snapshot's closed edges become the first sealed block. *)
let restore b snap =
  let len = snap.s_rows.(snap.s_closed) in
  if len > 0 then begin
    b.sealed_ea <- [ snap.s_ea ];
    b.sealed_et <- [ snap.s_et ]
  end;
  b.sealed_edges <- len;
  Array.blit snap.s_rows 0 b.rows 0 (snap.s_closed + 1);
  b.closed <- snap.s_closed
