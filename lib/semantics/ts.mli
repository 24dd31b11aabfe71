(** Explicit-state transition systems.

    The semantic graph of a program: nodes are states (indexed by dense
    integers), edges are (action id, successor id) pairs stored in CSR
    (compressed sparse row) arrays.  All decision procedures (closure,
    convergence, leads-to, fairness, safety) run on this structure.

    Three engines build the same structure and produce identical state
    numbering, edges and initials:

    - {!Packed} (chosen by {!Auto} whenever the program's declared domains
      cover the explored states): a {!Layout} packs each state into a
      single integer rank for interning, and predicate / guard sweeps are
      cached in per-system bitsets, so {!holds_at} and {!enabled} answer in
      O(1) after one sweep.  Frontier expansion can run on OCaml 5 domains
      ([?workers]) with a deterministic in-order merge.
    - {!Reference}: the seed list-based path (map-keyed interning, direct
      predicate evaluation on every query), kept as the fallback for
      programs whose actions step outside their declared domains and as the
      oracle for differential testing.
    - {!Sharded}: the out-of-core engine for explorations past RAM — state
      and CSR arenas are hash-partitioned into shards whose level-aligned
      segments spill to checksummed files under a spill directory (see
      {!set_shard_defaults}), reloading on demand.  Exploration order is
      identical to {!Packed}; only residency differs.

    A program over an explored system (p over the span of [p [] F], p from
    the span's states in R) is built by {!build_within}, the one
    re-exploration.  Checks that relate two systems over the same states
    (p [] F and p, a span and a front end) move indices with {!index_map};
    backward fixpoints walk the in-edge arrays of {!reverse}. *)

open Detcor_kernel

type t

(** Engine selection: [Auto] uses the packed engine and falls back to the
    reference engine when the program's states do not fit a {!Layout};
    [Packed] insists (raising {!Layout.Unrepresentable} otherwise);
    [Reference] forces the seed path; [Sharded] (never chosen by [Auto])
    forces the out-of-core engine and, like [Packed], requires a layout. *)
type engine = Auto | Packed | Reference | Sharded

exception Too_large of int

val default_limit : int

(** Process-wide parameters of the {!Sharded} engine, set once by the
    CLI before dispatching: shard count (clamped to
    {!Shard_store.max_shards}), spill directory ([None] keeps all arenas
    resident — no out-of-core behavior, just the sharded layout), and
    the resident arena budget in MiB (enforced only when spilling is
    possible). *)
val set_shard_defaults :
  shards:int -> spill_dir:string option -> arena_budget_mb:int -> unit

(** The current sharded-engine parameters:
    [(shards, spill_dir, arena_budget_mb)]. *)
val shard_defaults : unit -> int * string option * int

(** [build program ~from] explores forward from the given initial states.
    Every recorded state is reachable from [from].  [workers] > 1 expands
    large frontiers on that many OCaml domains (the result is identical to
    the sequential build); actions and predicates must then be pure.
    @raise Too_large if more than [limit] states are encountered. *)
val build :
  ?limit:int -> ?engine:engine -> ?workers:int -> Program.t ->
  from:State.t list -> t

(** [build_within program ~span]: [program] explored from the states of
    the explored system [span], or only from those satisfying [where]
    (read through [span]'s cached bitset).  Numbered exactly as
    [build program ~from] of the same states.
    @raise Too_large if more than [limit] states are encountered. *)
val build_within :
  ?limit:int -> ?engine:engine -> ?workers:int -> ?where:Pred.t ->
  Program.t -> span:t -> t

(** [full program] builds the system over the whole product state space. *)
val full : ?limit:int -> ?engine:engine -> ?workers:int -> Program.t -> t

(** [of_pred program ~from] explores from all product-space states
    satisfying [from]. *)
val of_pred :
  ?limit:int -> ?engine:engine -> ?workers:int -> Program.t -> from:Pred.t -> t

val program : t -> Program.t
val num_states : t -> int
val state : t -> int -> State.t
val states : t -> State.t list
val initials : t -> int list
val actions : t -> Action.t array
val num_actions : t -> int
val action : t -> int -> Action.t

(** The layout compiled for this system, when the packed engine built it. *)
val layout : t -> Layout.t option

(** Which engine actually built this system ({!Packed}, {!Reference} or
    {!Sharded}). *)
val engine_of : t -> engine

val engine_name : engine -> string

(** Why an [Auto] build fell back to the reference engine, when it did:
    a human-readable diagnosis (layout overflow, or which variable / value
    escaped its declared domain).  [None] when no fallback happened. *)
val fallback_reason : t -> string option

(** For a sharded system, [(shard count, spills, spilled bytes,
    reloads)]; [None] for the other engines. *)
val shard_stats : t -> (int * int * int * int) option

val num_edges : t -> int

(** Outgoing edges of a state: [(action id, target id)] list.  Allocates;
    prefer {!iter_out} on hot paths. *)
val edges_of : t -> int -> (int * int) list

(** [iter_out ts i f] calls [f action_id target_id] for each outgoing edge
    of state [i], in edge order, without allocating. *)
val iter_out : t -> int -> (int -> int -> unit) -> unit

val out_degree : t -> int -> int
val fold_out : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a
val index_of : t -> State.t -> int option

(** {1 Layout ranks}

    On a system built with a {!layout} (packed or sharded), every state
    has a mixed-radix rank under that layout.  These read the builder's
    own data (rank columns, interning table, or the identity of the full
    product) and build no state, so synthesis keys its artefacts by rank
    ({!Pred.of_ranks}, {!Action.of_moves}) and maps between two systems
    of equal layout signature without hashing states. *)

(** [rank_of ts i]: the layout rank of state [i].
    @raise Invalid_argument on a system without a layout. *)
val rank_of : t -> int -> int

(** [index_of_rank ts r]: the index of the state of rank [r], or [-1]
    when [ts] does not hold it.
    @raise Invalid_argument on a system without a layout. *)
val index_of_rank : t -> int -> int

(** [index_map ~src ~dst]: the index in [dst] of each state of [src], or
    [-1] when [dst] does not hold it.  By rank when both systems have
    layouts of one signature (no state is built or hashed), by state
    otherwise. *)
val index_map : src:t -> dst:t -> int -> int
val action_id : t -> string -> int option

(** Ids of the actions named in the list — used to separate fault actions
    from program actions in a composed [p [] F] system. *)
val action_ids_of_names : t -> string list -> int list

val iter_edges : t -> (int -> int -> int -> unit) -> unit
val fold_edges : t -> ('a -> int -> int -> int -> 'a) -> 'a -> 'a

(** Reverse CSR adjacency over a class of actions (see {!reverse}). *)
type reverse

(** [reverse ?keep ts]: the in-edge arrays of [ts] restricted to edges
    whose action id satisfies [keep] (default: all).  Two O(edges)
    sweeps; backward fixpoints then iterate predecessors by index. *)
val reverse : ?keep:(int -> bool) -> t -> reverse

(** [iter_in rev j f] calls [f action_id source_id] for each kept in-edge
    of state [j], without allocating. *)
val iter_in : reverse -> int -> (int -> int -> unit) -> unit

(** [pred_bitset ts pred]: bitset of the states satisfying [pred].  Cached
    per predicate instance on packed systems; computed afresh on reference
    systems. *)
val pred_bitset : t -> Pred.t -> Bitset.t

(** [enabled_bitset ts aid]: bitset of the states where action [aid]'s
    guard holds; cached like {!pred_bitset}. *)
val enabled_bitset : t -> int -> Bitset.t

(** [enabled ts i aid]: guard of action [aid] true at state [i]. *)
val enabled : t -> int -> int -> bool

(** No action enabled at state [i]. *)
val deadlocked : t -> int -> bool

(** Indices of states satisfying the predicate, ascending. *)
val satisfying : t -> Pred.t -> int list

val holds_at : t -> Pred.t -> int -> bool
val pp_stats : t Fmt.t
