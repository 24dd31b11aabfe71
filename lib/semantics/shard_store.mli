(** Level-segmented, disk-spillable state storage: the out-of-core
    store of {!Ts}, used when a spill directory is set.

    States (as {!Layout} ranks) live in one sequence of level-aligned
    segments: a segment's rank column fills when a BFS level is
    interned, its CSR edges fill while the next level expands those
    states, and the sealed result is the spill unit —
    least-recently-used sealed segments are written once to checksummed
    files (the {!Detcor_robust.Checkpoint} file format) under the spill
    directory and reloaded on demand, keeping the resident arena bytes
    under a budget.  A state's global id is its position in the store,
    assigned as the BFS interns successors, in (source gid, successor
    position) order, which reproduces the flat store's numbering
    exactly.  Dedup is one {!Rank_map} over the layout space.

    Every store names its spill files apart from every other store's,
    in this process and in others, and removes the files it wrote when
    the process exits — unless a checkpoint session with a write path
    ({!Detcor_robust.Checkpoint.armed}) existed when it was created,
    since that session's snapshots refer to them.  {!snapshot} captures
    the segment manifest and the open rank column; {!restore} rebinds
    the dedup table in gid order, rereading spilled arenas without
    re-spilling them. *)

type t

(** Raised by {!intern} when the state count would exceed the limit. *)
exception Limit of int

(** [create ~layout ~limit ~spill_dir ~arena_budget ~fingerprint ()]: an
    empty store spilling under the directory [spill_dir].  [arena_budget]
    bounds resident sealed-segment bytes.  [fingerprint] is written
    into every spill file and checked on reload.  [on_intern] runs once
    per newly interned state (the live-metrics hook). *)
val create :
  ?on_intern:(unit -> unit) ->
  layout:Layout.t ->
  limit:int ->
  spill_dir:string ->
  arena_budget:int ->
  fingerprint:string ->
  unit ->
  t

val num_states : t -> int
val num_edges : t -> int

(** (spill count, spilled bytes, reload count) so far. *)
val spill_stats : t -> int * int * int

(** Intern a rank, returning its gid (new or already known).  New
    states are appended to the open column — part of the next frontier.
    @raise Limit when the state count would exceed the limit. *)
val intern : t -> int -> int

(** The gid of a rank, or [-1] when it is not interned. *)
val find : t -> int -> int

(** The rank of a gid (reloading its segment if spilled). *)
val rank_of : t -> int -> int

(** Promote the open column into a fresh frontier segment and return
    the frontier's gid range [(lo, hi)]; empty when exploration is
    done. *)
val begin_level : t -> int * int

(** Append an edge to the frontier segment's CSR.  Sources must arrive
    in nondecreasing gid order within a level — the BFS's expansion
    order. *)
val add_edge : t -> src:int -> aid:int -> tgt:int -> unit

(** Seal the frontier segment (closing its CSR rows) and spill past the
    arena budget. *)
val end_level : t -> unit

(** [iter_ranks t f]: [f gid rank] for every state, ascending gid. *)
val iter_ranks : t -> (int -> int -> unit) -> unit

(** [iter_out t gid f]: [f aid target_gid] per out-edge, in edge
    order. *)
val iter_out : t -> int -> (int -> int -> unit) -> unit

val out_degree : t -> int -> int

(** [iter_edges t f]: [f src aid tgt] over all edges, sources
    ascending. *)
val iter_edges : t -> (int -> int -> int -> unit) -> unit

(** Serialize the store at a level barrier: the segment manifest (file
    references for spilled segments, which are all sealed segments whose
    spill write succeeded; inline payloads otherwise), the open column
    and counters. *)
val snapshot : t -> string

(** Rebuild a store from {!snapshot} output.  Sealed arenas are reread
    (and re-evicted under the budget) to rebind the dedup table; spill
    files named in the manifest are reused as-is, never rewritten.
    @raise Detcor_robust.Error.Detcor_error on any defect. *)
val restore :
  ?on_intern:(unit -> unit) ->
  layout:Layout.t ->
  limit:int ->
  spill_dir:string ->
  arena_budget:int ->
  fingerprint:string ->
  string ->
  t
