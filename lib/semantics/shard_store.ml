(* Level-segmented, disk-spillable state storage: the out-of-core store.

   The flat store interns every state and edge into one pair of RAM
   arenas, which caps explorations at what the heap holds.  This store
   keeps the same data as a sequence of level-aligned *segments*, one
   per BFS level:

   - a segment is created from the states one BFS level interns (its
     rank column), receives its CSR edges while the *next* level
     expands those states, and is then sealed — one level in
     arrears, so a sealed segment is immutable forever after;
   - sealed segments are the spill unit: when the resident arena bytes
     exceed the budget, least-recently-used segments are written once to
     checksummed files under the spill directory (the [Checkpoint] file
     format, so truncation and corruption are detected on reload) and
     their arrays dropped; any later access reloads on demand;
   - dedup is one [Rank_map] over the layout space, as in the flat
     store: a table while the store is sparse in the product, a direct
     array once it fills enough of it;
   - the BFS interns each successor as it is found, in (source gid,
     successor position) order — exactly the interning order of the
     flat store, which is what keeps the numbering byte-identical.

   A state's global id (gid) is its position in the store: segments
   hold consecutive gid ranges, so the segment of a gid is a binary
   search on the segments' base gids.  Each store names its spill files
   apart from every other store's (process id, a random process token
   and a per-process store serial), and removes the files it wrote when
   the process exits unless a checkpoint session that writes snapshots
   was armed when it was created: those snapshots refer to the files.
   {!snapshot} captures the segment manifest (file references once
   spilled, inline payloads otherwise) and the open rank column, from
   which {!restore} rebinds the dedup table in gid order. *)

open Detcor_obs

let m_spills = Metrics.counter "engine.shard.spills"
let m_spill_bytes = Metrics.counter "engine.shard.spill_bytes"
let m_reloads = Metrics.counter "engine.shard.reloads"
let m_spill_errors = Metrics.counter "engine.shard.spill_errors"

(* Raised by {!intern} when the state count would exceed the limit; [Ts]
   converts it to its public [Too_large]. *)
exception Limit of int

(* ------------------------------------------------------------------ *)
(* Growable int buffers and varint coding.                             *)
(* ------------------------------------------------------------------ *)

module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create n = { a = Array.make (max n 8) 0; len = 0 }

  let add b v =
    if b.len = Array.length b.a then begin
      let a' = Array.make (2 * Array.length b.a) 0 in
      Array.blit b.a 0 a' 0 b.len;
      b.a <- a'
    end;
    b.a.(b.len) <- v;
    b.len <- b.len + 1

  let to_array b = Array.sub b.a 0 b.len
  let reset b = b.len <- 0
end

(* Edge columns, laid out as [Ts]'s: action ids as native-endian 16-bit
   words, target gids as 32-bit words, 6 bytes an edge in [Bytes] the GC
   never scans.  [Ts] refuses more actions or states than they hold. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let label col e = get16 col (2 * e)
let target col e = Int32.to_int (get32 col (4 * e))

(* A growable pair of edge columns: the open segment's CSR edges. *)
module Ebuf = struct
  type t = { mutable ea : Bytes.t; mutable et : Bytes.t; mutable len : int }

  let create n = { ea = Bytes.create (2 * n); et = Bytes.create (4 * n); len = 0 }

  let add b aid tgt =
    if 2 * b.len = Bytes.length b.ea then begin
      let grow col width =
        let col' = Bytes.create (2 * Bytes.length col) in
        Bytes.blit col 0 col' 0 (width * b.len);
        col'
      in
      b.ea <- grow b.ea 2;
      b.et <- grow b.et 4
    end;
    set16 b.ea (2 * b.len) aid;
    set32 b.et (4 * b.len) (Int32.of_int tgt);
    b.len <- b.len + 1

  let labels b = Bytes.sub b.ea 0 (2 * b.len)
  let targets b = Bytes.sub b.et 0 (4 * b.len)
  let reset b = b.len <- 0
end

(* LEB128-style varints over the full 63-bit int range (logical shifts,
   so negative ints terminate in at most 10 bytes); signed values go
   through zigzag so small deltas of either sign stay short. *)
module Vbuf = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create n = { buf = Bytes.create (max n 32); len = 0 }

  let ensure b extra =
    if b.len + extra > Bytes.length b.buf then begin
      let cap = ref (2 * Bytes.length b.buf) in
      while b.len + extra > !cap do
        cap := 2 * !cap
      done;
      let buf' = Bytes.create !cap in
      Bytes.blit b.buf 0 buf' 0 b.len;
      b.buf <- buf'
    end

  let put_u b v =
    ensure b 10;
    let v = ref v in
    let continue = ref true in
    while !continue do
      let byte = !v land 0x7f in
      v := !v lsr 7;
      if !v = 0 then begin
        Bytes.unsafe_set b.buf b.len (Char.unsafe_chr byte);
        continue := false
      end
      else Bytes.unsafe_set b.buf b.len (Char.unsafe_chr (byte lor 0x80));
      b.len <- b.len + 1
    done

  let zigzag v = (v lsl 1) lxor (v asr 62)
  let put_i b v = put_u b (zigzag v)

  let put_raw b s =
    let n = String.length s in
    put_u b n;
    ensure b n;
    Bytes.blit_string s 0 b.buf b.len n;
    b.len <- b.len + n

  let contents b = Bytes.sub_string b.buf 0 b.len
end

module Vcur = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }

  let get_u c =
    let v = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      if c.pos >= String.length c.data then
        Detcor_robust.Error.snapshot ~path:"shard payload" "truncated varint column";
      let byte = Char.code (String.unsafe_get c.data c.pos) in
      c.pos <- c.pos + 1;
      v := !v lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then continue := false
    done;
    !v

  let unzigzag u = (u lsr 1) lxor (- (u land 1))
  let get_i c = unzigzag (get_u c)

  let get_raw c =
    let n = get_u c in
    if c.pos + n > String.length c.data then
      Detcor_robust.Error.snapshot ~path:"shard payload" "truncated varint column";
    let s = String.sub c.data c.pos n in
    c.pos <- c.pos + n;
    s
end

(* ------------------------------------------------------------------ *)
(* Segments.                                                           *)
(* ------------------------------------------------------------------ *)

type seg = {
  seg_level : int;
  base : int; (* first gid covered *)
  count : int; (* states in the segment *)
  mutable edge_count : int;
  (* The arenas; all [||] while spilled. *)
  mutable ranks : int array;
  mutable row : int array; (* length count+1 once sealed *)
  mutable ea : Bytes.t; (* label column *)
  mutable et : Bytes.t; (* target column, as gids *)
  mutable sealed : bool;
  mutable resident : bool;
  mutable file : string option;
  mutable stamp : int; (* LRU clock *)
}

let seg_bytes s = (8 * (s.count + 1 + s.count)) + (6 * s.edge_count)

(* Segment payload: self-describing varint columns.  Ranks and targets
   are delta-coded (interning order makes neighbouring values close);
   row offsets are nondecreasing so their deltas are plain varints. *)
let ser_seg s =
  let vb = Vbuf.create (16 + (4 * s.count) + (4 * s.edge_count)) in
  Vbuf.put_u vb s.seg_level;
  Vbuf.put_u vb s.base;
  Vbuf.put_u vb s.count;
  Vbuf.put_u vb s.edge_count;
  let prev = ref 0 in
  for i = 0 to s.count - 1 do
    Vbuf.put_i vb (s.ranks.(i) - !prev);
    prev := s.ranks.(i)
  done;
  for i = 1 to s.count do
    Vbuf.put_u vb (s.row.(i) - s.row.(i - 1))
  done;
  for i = 0 to s.edge_count - 1 do
    Vbuf.put_u vb (label s.ea i)
  done;
  prev := 0;
  for i = 0 to s.edge_count - 1 do
    let j = target s.et i in
    Vbuf.put_i vb (j - !prev);
    prev := j
  done;
  Vbuf.contents vb

(* Decode a segment payload into the (already sized) metadata record. *)
let deser_seg s data =
  let c = Vcur.of_string data in
  let level = Vcur.get_u c in
  let base = Vcur.get_u c in
  let count = Vcur.get_u c in
  let ecount = Vcur.get_u c in
  if level <> s.seg_level || base <> s.base || count <> s.count
     || ecount <> s.edge_count
  then Detcor_robust.Error.snapshot ~path:"shard segment" "payload does not match its manifest";
  let ranks = Array.make count 0 in
  let prev = ref 0 in
  for i = 0 to count - 1 do
    prev := !prev + Vcur.get_i c;
    ranks.(i) <- !prev
  done;
  let row = Array.make (count + 1) 0 in
  for i = 1 to count do
    row.(i) <- row.(i - 1) + Vcur.get_u c
  done;
  let ea = Bytes.create (2 * ecount) in
  for i = 0 to ecount - 1 do
    set16 ea (2 * i) (Vcur.get_u c)
  done;
  let et = Bytes.create (4 * ecount) in
  prev := 0;
  for i = 0 to ecount - 1 do
    prev := !prev + Vcur.get_i c;
    set32 et (4 * i) (Int32.of_int !prev)
  done;
  s.ranks <- ranks;
  s.row <- row;
  s.ea <- ea;
  s.et <- et;
  s.resident <- true

(* ------------------------------------------------------------------ *)
(* The store.                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  limit : int;
  spill_dir : string;
  arena_budget : int;
  fingerprint : string;
  name : string; (* this store's part of its spill file names *)
  keep_files : bool; (* a checkpoint snapshot may refer to the files *)
  on_intern : unit -> unit;
  mutable segs : seg array; (* ascending base *)
  mutable hint : int; (* last segment index touched *)
  dedup : Rank_map.t; (* rank -> gid *)
  open_ranks : Ibuf.t; (* ranks of gids [sealed_n, n): the next level *)
  (* CSR accumulators of the segment currently receiving edges. *)
  mutable cur : seg option;
  cur_row : Ibuf.t;
  cur_edges : Ebuf.t;
  mutable cur_rel : int; (* segment-relative id whose edges are open *)
  mutable n : int;
  mutable edges : int;
  mutable sealed_n : int; (* gids promoted into segments *)
  mutable resident_bytes : int;
  mutable clock : int;
  mutable spill_count : int;
  mutable spill_bytes : int;
  mutable reload_count : int;
}

(* Spill files written by stores whose files no snapshot refers to;
   removed when the process exits. *)
let doomed : string list ref = ref []
let serial = ref 0

let process_token =
  lazy
    (at_exit (fun () ->
         List.iter (fun path -> try Sys.remove path with Sys_error _ -> ()) !doomed);
     Fmt.str "%d-%06x" (Unix.getpid ())
       (Random.State.bits (Random.State.make_self_init ()) land 0xffffff))

let create ?(on_intern = fun () -> ()) ~layout ~limit ~spill_dir
    ~arena_budget ~fingerprint () =
  incr serial;
  {
    limit;
    spill_dir;
    arena_budget;
    fingerprint;
    name = Fmt.str "%s-%d" (Lazy.force process_token) !serial;
    keep_files = Detcor_robust.Checkpoint.armed ();
    on_intern;
    segs = [||];
    hint = 0;
    dedup = Rank_map.create ~space:(Layout.space layout) ();
    open_ranks = Ibuf.create 64;
    cur = None;
    cur_row = Ibuf.create 64;
    cur_edges = Ebuf.create 64;
    cur_rel = 0;
    n = 0;
    edges = 0;
    sealed_n = 0;
    resident_bytes = 0;
    clock = 0;
    spill_count = 0;
    spill_bytes = 0;
    reload_count = 0;
  }

let num_states t = t.n
let num_edges t = t.edges
let spill_stats t = (t.spill_count, t.spill_bytes, t.reload_count)

(* ------------------------------------------------------------------ *)
(* Spill and reload.                                                   *)
(* ------------------------------------------------------------------ *)

let seg_path t level =
  Filename.concat t.spill_dir (Fmt.str "dcshard-%s-l%d.seg" t.name level)

(* Drop a sealed segment's arrays, writing the spill file first if this
   is its first eviction.  A failed write keeps the segment resident —
   losing memory headroom must not fail the run (mirrors the snapshot
   write policy). *)
let spill_seg t seg =
  (match seg.file with
  | Some _ -> ()
  | None ->
    let path = seg_path t seg.seg_level in
    let data = ser_seg seg in
    if not t.keep_files then doomed := path :: !doomed;
    ignore
      (Detcor_robust.Checkpoint.write_file ~path ~fingerprint:t.fingerprint
         [| { Detcor_robust.Checkpoint.step = 0; kind = "shard.seg";
              complete = true; data } |]);
    seg.file <- Some path;
    t.spill_count <- t.spill_count + 1;
    t.spill_bytes <- t.spill_bytes + String.length data;
    if Obs.on () then begin
      Metrics.incr m_spills;
      Metrics.incr ~by:(String.length data) m_spill_bytes
    end);
  seg.ranks <- [||];
  seg.row <- [||];
  seg.ea <- Bytes.empty;
  seg.et <- Bytes.empty;
  seg.resident <- false;
  t.resident_bytes <- t.resident_bytes - seg_bytes seg

let try_spill_seg t seg =
  match spill_seg t seg with
  | () -> ()
  | exception (Sys_error _ | Detcor_robust.Failpoint.Injected _) ->
    if Obs.on () then Metrics.incr m_spill_errors

(* Evict least-recently-used sealed segments until the resident arenas
   fit the budget again.  [keep] protects the segment the caller is
   about to read. *)
let maybe_evict ?keep t =
  let continue = ref (t.resident_bytes > t.arena_budget) in
  while !continue do
    let victim = ref None in
    Array.iter
      (fun seg ->
        if
          seg.sealed && seg.resident
          && (match keep with Some s -> s != seg | None -> true)
          && (match !victim with None -> true | Some v -> seg.stamp < v.stamp)
        then victim := Some seg)
      t.segs;
    match !victim with
    | Some seg ->
      let before = t.resident_bytes in
      try_spill_seg t seg;
      continue :=
        t.resident_bytes > t.arena_budget && t.resident_bytes < before
    | None -> continue := false
  done

let touch t seg =
  t.clock <- t.clock + 1;
  seg.stamp <- t.clock

let ensure_resident t seg =
  touch t seg;
  if not seg.resident then begin
    (match seg.file with
    | None ->
      Detcor_robust.Error.internal "Shard_store: spilled segment has no file"
    | Some path ->
      let fp, entries = Detcor_robust.Checkpoint.read_file ~path in
      if fp <> t.fingerprint then
        Detcor_robust.Error.snapshot ~path "spill file belongs to a different run";
      if Array.length entries <> 1 then
        Detcor_robust.Error.snapshot ~path "not a shard segment";
      deser_seg seg entries.(0).Detcor_robust.Checkpoint.data);
    t.resident_bytes <- t.resident_bytes + seg_bytes seg;
    t.reload_count <- t.reload_count + 1;
    if Obs.on () then Metrics.incr m_reloads;
    maybe_evict ~keep:seg t
  end

(* ------------------------------------------------------------------ *)
(* Location and dedup.                                                 *)
(* ------------------------------------------------------------------ *)

(* The segment of a promoted gid, by binary search with a hint: both the
   expansion and the gid-order scans touch gids in ascending order, so
   the hint almost always hits. *)
let seg_of t gid =
  let segs = t.segs in
  let inside s = gid >= s.base && gid < s.base + s.count in
  let found =
    if t.hint < Array.length segs && inside segs.(t.hint) then segs.(t.hint)
    else begin
      let lo = ref 0 and hi = ref (Array.length segs - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if segs.(mid).base <= gid then lo := mid else hi := mid - 1
      done;
      t.hint <- !lo;
      segs.(!lo)
    end
  in
  ensure_resident t found;
  found

let rank_of t gid =
  if gid >= t.sealed_n then t.open_ranks.Ibuf.a.(gid - t.sealed_n)
  else begin
    let seg = seg_of t gid in
    seg.ranks.(gid - seg.base)
  end

let find t rank = if rank < 0 then -1 else Rank_map.find t.dedup rank

let intern t rank =
  let known = Rank_map.find t.dedup rank in
  if known >= 0 then known
  else begin
    if t.n >= t.limit then raise (Limit t.limit);
    let gid = t.n in
    t.n <- t.n + 1;
    Ibuf.add t.open_ranks rank;
    Rank_map.add t.dedup rank gid;
    Detcor_robust.Budget.count_state ();
    t.on_intern ();
    gid
  end

(* ------------------------------------------------------------------ *)
(* Level lifecycle.                                                    *)
(* ------------------------------------------------------------------ *)

(* Promote the open rank column into a fresh segment — the new frontier
   — and return its gid range.  The segment stays resident while its
   CSR fills during the level about to run. *)
let begin_level t =
  let lo = t.sealed_n in
  let count = t.open_ranks.Ibuf.len in
  if count > 0 then begin
    let seg =
      {
        seg_level = Array.length t.segs;
        base = lo;
        count;
        edge_count = 0;
        ranks = Ibuf.to_array t.open_ranks;
        row = [||];
        ea = Bytes.empty;
        et = Bytes.empty;
        sealed = false;
        resident = true;
        file = None;
        stamp = 0;
      }
    in
    touch t seg;
    t.segs <- Array.append t.segs [| seg |];
    t.cur <- Some seg;
    Ibuf.reset t.open_ranks;
    Ibuf.reset t.cur_row;
    Ibuf.add t.cur_row 0;
    Ebuf.reset t.cur_edges;
    t.cur_rel <- 0
  end;
  t.sealed_n <- t.n;
  (lo, t.n)

let add_edge t ~src ~aid ~tgt =
  match t.cur with
  | None -> Detcor_robust.Error.internal "Shard_store.add_edge: no open segment"
  | Some seg ->
    let rel = src - seg.base in
    while t.cur_rel < rel do
      Ibuf.add t.cur_row t.cur_edges.Ebuf.len;
      t.cur_rel <- t.cur_rel + 1
    done;
    Ebuf.add t.cur_edges aid tgt;
    t.edges <- t.edges + 1

(* Seal the frontier segment: close the remaining CSR rows, freeze the
   arrays, and let the eviction policy spill what no longer fits. *)
let end_level t =
  (match t.cur with
  | None -> ()
  | Some seg ->
    while t.cur_rel < seg.count do
      Ibuf.add t.cur_row t.cur_edges.Ebuf.len;
      t.cur_rel <- t.cur_rel + 1
    done;
    seg.row <- Ibuf.to_array t.cur_row;
    seg.ea <- Ebuf.labels t.cur_edges;
    seg.et <- Ebuf.targets t.cur_edges;
    seg.edge_count <- t.cur_edges.Ebuf.len;
    seg.sealed <- true;
    t.resident_bytes <- t.resident_bytes + seg_bytes seg;
    t.cur <- None);
  maybe_evict t

(* ------------------------------------------------------------------ *)
(* Read access.                                                        *)
(* ------------------------------------------------------------------ *)

let iter_ranks t f =
  for gid = 0 to t.n - 1 do
    Detcor_robust.Budget.tick ();
    f gid (rank_of t gid)
  done

let iter_out t gid f =
  if gid < t.sealed_n then begin
    let seg = seg_of t gid in
    if seg.sealed then begin
      let rel = gid - seg.base in
      (* Capture the arenas before calling [f]: the callback may fault in
         another segment and evict this one, which swaps the fields to
         [||] — the captured arrays stay valid (spilling never mutates
         their contents, it only drops the references). *)
      let row = seg.row and ea = seg.ea and et = seg.et in
      for e = row.(rel) to row.(rel + 1) - 1 do
        f (label ea e) (target et e)
      done
    end
  end

let out_degree t gid =
  if gid >= t.sealed_n then 0
  else begin
    let seg = seg_of t gid in
    if not seg.sealed then 0
    else begin
      let rel = gid - seg.base in
      seg.row.(rel + 1) - seg.row.(rel)
    end
  end

let iter_edges t f =
  for gid = 0 to t.n - 1 do
    Detcor_robust.Budget.tick ();
    iter_out t gid (fun aid tgid -> f gid aid tgid)
  done

(* ------------------------------------------------------------------ *)
(* Snapshot and restore.                                               *)
(* ------------------------------------------------------------------ *)

(* Force-spill every sealed segment (first spills write their file;
   re-spills just drop arrays) so the snapshot is a small manifest of
   file references plus the open, still-dirty rank column; a segment
   whose spill write failed rides inline.  The dedup
   map is never serialized: the restore scan rebinds every rank from
   the segment rank columns and the open column, in gid order, which
   rebuilds it exactly.  (Spilling the dedup map to a side file would
   be unsound: the file would be overwritten at barriers newer than the
   manifest the resume loads, and a stale entry aliases an unknown state
   to a gid the resumed run never assigned instead of interning it.) *)
let snapshot t =
  Array.iter (fun seg -> if seg.sealed && seg.resident then try_spill_seg t seg) t.segs;
  let vb = Vbuf.create 4096 in
  Vbuf.put_u vb t.n;
  Vbuf.put_u vb t.edges;
  Vbuf.put_u vb t.sealed_n;
  Vbuf.put_u vb t.spill_count;
  Vbuf.put_u vb t.spill_bytes;
  Vbuf.put_u vb (Array.length t.segs);
  Array.iter
    (fun seg ->
      Vbuf.put_u vb seg.count;
      Vbuf.put_u vb seg.edge_count;
      match seg.file with
      | Some path ->
        Vbuf.put_u vb 1;
        Vbuf.put_raw vb path
      | None ->
        Vbuf.put_u vb 0;
        Vbuf.put_raw vb (ser_seg seg))
    t.segs;
  let prev = ref 0 in
  Vbuf.put_u vb t.open_ranks.Ibuf.len;
  for i = 0 to t.open_ranks.Ibuf.len - 1 do
    let r = t.open_ranks.Ibuf.a.(i) in
    Vbuf.put_i vb (r - !prev);
    prev := r
  done;
  Vbuf.contents vb

let restore ?on_intern ~layout ~limit ~spill_dir ~arena_budget ~fingerprint
    data =
  let corrupt what = Detcor_robust.Error.snapshot ~path:"shard snapshot" "%s" what in
  let c = Vcur.of_string data in
  let t =
    create ?on_intern ~layout ~limit ~spill_dir ~arena_budget ~fingerprint ()
  in
  t.n <- Vcur.get_u c;
  t.edges <- Vcur.get_u c;
  t.sealed_n <- Vcur.get_u c;
  t.spill_count <- Vcur.get_u c;
  t.spill_bytes <- Vcur.get_u c;
  let nsegs = Vcur.get_u c in
  let base = ref 0 in
  t.segs <-
    Array.init nsegs (fun seg_level ->
        let count = Vcur.get_u c in
        let edge_count = Vcur.get_u c in
        let tag = Vcur.get_u c in
        let payload = Vcur.get_raw c in
        let seg =
          {
            seg_level;
            base = !base;
            count;
            edge_count;
            ranks = [||];
            row = [||];
            ea = Bytes.empty;
            et = Bytes.empty;
            sealed = true;
            resident = false;
            file = (if tag = 1 then Some payload else None);
            stamp = 0;
          }
        in
        base := !base + count;
        if tag = 0 then begin
          deser_seg seg payload;
          t.resident_bytes <- t.resident_bytes + seg_bytes seg
        end;
        seg);
  if !base <> t.sealed_n then corrupt "segments do not cover the sealed states";
  (* Rebind ranks in gid order: the sealed rank columns, then the open
     one. *)
  let gid = ref 0 in
  let bind rank =
    Detcor_robust.Budget.tick ();
    Rank_map.add t.dedup rank !gid;
    incr gid
  in
  Array.iter
    (fun seg ->
      ensure_resident t seg;
      Array.iter bind seg.ranks)
    t.segs;
  let prev = ref 0 in
  for _ = 1 to Vcur.get_u c do
    prev := !prev + Vcur.get_i c;
    Ibuf.add t.open_ranks !prev;
    bind !prev
  done;
  if !gid <> t.n then corrupt "rank columns do not match";
  maybe_evict t;
  t
