(** Hash-partitioned, disk-spillable state storage for the sharded
    engine of {!Ts}.

    States (as {!Layout} ranks) are owned by shard [rank mod k] and live
    in per-shard arenas of level-aligned segments: a segment's rank
    column fills when a BFS level is interned, its CSR edges fill while
    the next level expands those states, and the sealed result is the
    spill unit — least-recently-used sealed segments are written once to
    checksummed files (the {!Detcor_robust.Checkpoint} file format)
    under the spill directory and reloaded on demand, keeping the
    resident arena bytes under a budget.  Global state ids are dense and
    assigned as the BFS interns successors, in (source gid, successor
    position) order, which reproduces the packed engine's numbering
    exactly.  Shards are also the checkpoint unit: {!snapshot} captures
    the segment manifest, per-shard open columns and the gid->shard map;
    {!restore} rebuilds the dedup state deterministically, rereading
    spilled arenas without re-spilling them. *)

type t

(** Raised by {!intern} when the state count would exceed the limit. *)
exception Limit of int

(** Shard counts are clamped to this (the owner map snapshots one byte
    per state). *)
val max_shards : int

(** [create ~k ~layout ~limit ~spill_dir ~arena_budget ~fingerprint ()]:
    an empty store of [k] shards (clamped to [1 .. max_shards]).
    [arena_budget] bounds resident sealed-segment bytes — only enforced
    when [spill_dir] is given.  [on_intern] runs once per newly interned
    state (the live-metrics hook). *)
val create :
  ?on_intern:(unit -> unit) ->
  k:int ->
  layout:Layout.t ->
  limit:int ->
  spill_dir:string option ->
  arena_budget:int ->
  fingerprint:string ->
  unit ->
  t

val k : t -> int
val num_states : t -> int
val num_edges : t -> int

(** (spill count, spilled bytes, reload count) so far. *)
val spill_stats : t -> int * int * int

(** Intern a rank into its owner shard, returning its gid (new or
    already known).  New states are appended to the shard's open column
    — part of the next frontier.
    @raise Limit when the state count would exceed the limit. *)
val intern : t -> int -> int

(** The gid of a rank, or [-1] when it is not interned. *)
val find : t -> int -> int

(** The rank of a gid (reloading its segment if spilled). *)
val rank_of : t -> int -> int

(** Promote the open columns into fresh frontier segments and return
    the frontier's gid range [(lo, hi)]; empty when exploration is
    done. *)
val begin_level : t -> int * int

(** Append an edge to the source gid's segment CSR.  Sources must
    arrive in nondecreasing gid order within a level — the BFS's
    expansion order. *)
val add_edge : t -> src:int -> aid:int -> tgt:int -> unit

(** Seal the frontier segments (closing their CSR rows) and spill past
    the arena budget. *)
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

(** Serialize the store at a level barrier: the shard manifest (file
    references for spilled segments — all sealed segments, when a spill
    directory is set — inline payloads otherwise), open columns, owner
    map and counters. *)
val snapshot : t -> string

(** Rebuild a store from {!snapshot} output.  Sealed arenas are reread
    (and re-evicted under the budget) to rebind the dedup maps; spill
    files are reused as-is, never rewritten.
    @raise Detcor_robust.Error.Detcor_error on any defect. *)
val restore :
  ?on_intern:(unit -> unit) ->
  layout:Layout.t ->
  limit:int ->
  spill_dir:string option ->
  arena_budget:int ->
  fingerprint:string ->
  string ->
  t
