(* Level-segmented, disk-spillable state storage: the out-of-core store.

   The flat store interns every state and edge into one pair of RAM
   arenas, which caps explorations at what the heap holds.  This store
   keeps the same data as a sequence of level-aligned *segments*, one
   per BFS level:

   - a segment is one [Csr] builder: its keys are the ranks one BFS
     level interns, it receives its CSR edges while the *next* level
     expands those states, and is then sealed into exact columns — one
     level in arrears, so a sealed segment is immutable forever after;
   - sealed segments are the spill unit: when the resident arena bytes
     exceed the budget, least-recently-used segments are written once to
     checksummed files under the spill directory (the [Checkpoint] file
     format, so truncation and corruption are detected on reload) and
     their arrays dropped; any later access reloads on demand;
   - dedup is one [Rank_map] over the layout space, as in the flat
     store: a table while the store is sparse in the product, a direct
     array once it fills enough of it;
   - [Ts]'s exploration loop drives it as it drives the flat store
     ({!find}, {!add}, {!begin_level}, whose builder takes the level's
     rows, {!end_level}), interning each successor as it is found, in
     (source gid, successor position) order, which is what keeps the
     numbering byte-identical.

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

(* ------------------------------------------------------------------ *)
(* Varint coding.                                                      *)
(* ------------------------------------------------------------------ *)

(* LEB128-style varints over the full 63-bit int range (logical shifts,
   so negative ints terminate in at most 10 bytes), written to a
   [Buffer]; signed values go through zigzag so small deltas of either
   sign stay short. *)
let rec put_u b v =
  let byte = v land 0x7f and rest = v lsr 7 in
  if rest = 0 then Buffer.add_char b (Char.unsafe_chr byte)
  else begin
    Buffer.add_char b (Char.unsafe_chr (byte lor 0x80));
    put_u b rest
  end

let put_i b v = put_u b ((v lsl 1) lxor (v asr 62))

let put_raw b s =
  put_u b (String.length s);
  Buffer.add_string b s

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

(* Edge columns are read and written with [Csr]'s primitives, which are
   no call per edge in any build profile.

   Segment payload: self-describing varint columns.  Ranks and targets
   are delta-coded (interning order makes neighbouring values close);
   row offsets are nondecreasing so their deltas are plain varints. *)
let ser_seg s =
  let vb = Buffer.create (16 + (4 * s.count) + (4 * s.edge_count)) in
  put_u vb s.seg_level;
  put_u vb s.base;
  put_u vb s.count;
  put_u vb s.edge_count;
  let prev = ref 0 in
  for i = 0 to s.count - 1 do
    put_i vb (s.ranks.(i) - !prev);
    prev := s.ranks.(i)
  done;
  for i = 1 to s.count do
    put_u vb (s.row.(i) - s.row.(i - 1))
  done;
  for i = 0 to s.edge_count - 1 do
    put_u vb (Csr.get16 s.ea (2 * i))
  done;
  prev := 0;
  for i = 0 to s.edge_count - 1 do
    let j = Int32.to_int (Csr.get32 s.et (4 * i)) in
    put_i vb (j - !prev);
    prev := j
  done;
  Buffer.contents vb

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
  let ea = Csr.labels ecount in
  for i = 0 to ecount - 1 do
    Csr.set16 ea (2 * i) (Vcur.get_u c)
  done;
  let et = Csr.targets ecount in
  prev := 0;
  for i = 0 to ecount - 1 do
    prev := !prev + Vcur.get_i c;
    Csr.set32 et (4 * i) (Int32.of_int !prev)
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
  spill_dir : string;
  arena_budget : int;
  fingerprint : string;
  name : string; (* this store's part of its spill file names *)
  keep_files : bool; (* a checkpoint snapshot may refer to the files *)
  mutable segs : seg array; (* ascending base *)
  mutable hint : int; (* last segment index touched *)
  dedup : Rank_map.t; (* rank -> gid *)
  mutable next : int Csr.t; (* ranks of gids [sealed_n, n): the next level *)
  (* The segment receiving edges, and its builder. *)
  mutable cur : (seg * int Csr.t) option;
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

let create ~layout ~spill_dir ~arena_budget ~fingerprint () =
  incr serial;
  {
    spill_dir;
    arena_budget;
    fingerprint;
    name = Fmt.str "%s-%d" (Lazy.force process_token) !serial;
    keep_files = Detcor_robust.Checkpoint.armed ();
    segs = [||];
    hint = 0;
    dedup = Rank_map.create ~space:(Layout.space layout) ();
    next = Csr.create ();
    cur = None;
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
  if gid >= t.sealed_n then Csr.key t.next (gid - t.sealed_n)
  else begin
    let seg = seg_of t gid in
    seg.ranks.(gid - seg.base)
  end

let find t rank = if rank < 0 then -1 else Rank_map.find t.dedup rank

let add t rank =
  let gid = t.n in
  t.n <- gid + 1;
  ignore (Csr.add t.next rank);
  Rank_map.add t.dedup rank gid;
  gid

(* ------------------------------------------------------------------ *)
(* Level lifecycle.                                                    *)
(* ------------------------------------------------------------------ *)

(* Promote the open rank column into a fresh segment — the new frontier
   — and return its builder.  The segment stays resident while its
   builder fills during the level about to run. *)
let begin_level t =
  let lo = t.sealed_n and b = t.next in
  t.sealed_n <- t.n;
  if Csr.count b = 0 then None
  else begin
    let seg =
      {
        seg_level = Array.length t.segs;
        base = lo;
        count = Csr.count b;
        edge_count = 0;
        ranks = Csr.keys b;
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
    t.cur <- Some (seg, b);
    t.next <- Csr.create ();
    Some b
  end

(* Seal the frontier segment into exact columns, and let the eviction
   policy spill what no longer fits. *)
let end_level t =
  (match t.cur with
  | None -> ()
  | Some (seg, b) ->
    let row, ea, et = Csr.columns b in
    seg.row <- row;
    seg.ea <- ea;
    seg.et <- et;
    seg.edge_count <- Csr.edges b;
    t.edges <- t.edges + Csr.edges b;
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
        f (Csr.get16 ea (2 * e)) (Int32.to_int (Csr.get32 et (4 * e)))
      done
    end
  end

(* The segment's own target column is lent, valid after an eviction
   for the reason [iter_out] gives. *)
let with_out_row t gid k =
  if gid < t.sealed_n then begin
    let seg = seg_of t gid in
    if seg.sealed then
      let rel = gid - seg.base in
      k seg.et seg.row.(rel) seg.row.(rel + 1)
    else k Bytes.empty 0 0
  end
  else k Bytes.empty 0 0

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
  let vb = Buffer.create 4096 in
  put_u vb t.n;
  put_u vb t.edges;
  put_u vb t.sealed_n;
  put_u vb t.spill_count;
  put_u vb t.spill_bytes;
  put_u vb (Array.length t.segs);
  Array.iter
    (fun seg ->
      put_u vb seg.count;
      put_u vb seg.edge_count;
      match seg.file with
      | Some path ->
        put_u vb 1;
        put_raw vb path
      | None ->
        put_u vb 0;
        put_raw vb (ser_seg seg))
    t.segs;
  let prev = ref 0 in
  put_u vb (Csr.count t.next);
  for i = 0 to Csr.count t.next - 1 do
    let r = Csr.key t.next i in
    put_i vb (r - !prev);
    prev := r
  done;
  Buffer.contents vb

let restore ~layout ~spill_dir ~arena_budget ~fingerprint data =
  let corrupt what = Detcor_robust.Error.snapshot ~path:"shard snapshot" "%s" what in
  let c = Vcur.of_string data in
  let t =
    create ~layout ~spill_dir ~arena_budget ~fingerprint ()
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
    ignore (Csr.add t.next !prev);
    bind !prev
  done;
  if !gid <> t.n then corrupt "rank columns do not match";
  maybe_evict t;
  t
