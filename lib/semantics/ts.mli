(** Explicit-state transition systems.

    The semantic graph of a program: nodes are states (indexed by dense
    integers), edges are (action id, successor id) pairs stored in CSR
    (compressed sparse row) form.  All decision procedures (closure,
    convergence, leads-to, fairness, safety) run on this structure.

    The edge columns, forward and reverse, are compact [Bytes] the GC
    never scans: an action id takes 16 bits and a state id 32, 6 bytes an
    edge.  Those widths bound every system: see {!max_actions} and
    {!max_states}.

    Three stores hold the same structure, with identical state
    numbering, edges and initials ({!store_name} says which built a
    system).  {!Auto} picks one from what it observes:

    - [packed], the flat store (whenever the program's declared domains
      cover the explored states and no spill directory is set): a
      {!Layout} packs each state into a single integer rank, interned in
      a {!Rank_map}.  The system keeps ranks only: {!state} decodes a
      rank on demand and {!index_of} packs a state and looks its rank up.
    - [sharded], the out-of-core store (the same condition, with a spill
      directory set by {!set_spill_defaults}): rank and CSR arenas are
      cut into one segment per BFS level, and sealed segments spill to
      checksummed files under the spill directory past the arena budget,
      reloading on demand.  Exploration order is the flat store's; only
      residency differs.
    - [reference]: the seed list-based path (map-keyed interning of the
      states themselves), the fallback for programs whose product
      overflows the rank range or whose actions step outside their
      declared domains ({!fallback_reason} says which), and, forced by
      {!Reference}, the oracle for differential testing.  It is the only
      store whose systems hold states.

    On every engine, predicate and guard sets are cached in per-system
    bitsets, so {!holds_at} and {!enabled} answer in O(1) after one
    pass.  A compiled action's enabled set is read off the edge labels.

    A program over an explored system (p over the span of [p [] F], p from
    the span's states in R) is built by {!build_within}: derived from the
    span's edge rows when the span holds the program's edges, explored
    again otherwise.  Checks that relate two systems over the same states
    (p [] F and p, a span and a front end) move indices with {!index_map};
    backward fixpoints walk the in-edge arrays of {!reverse}. *)

open Detcor_kernel

type t

(** Engine selection: [Auto] uses a layout store (the shard store when a
    spill directory is set, the flat one otherwise) and falls back to
    the reference engine when the program's states do not fit a
    {!Layout}; [Reference] forces the seed path. *)
type engine = Auto | Reference

exception Too_large of int

val default_limit : int

(** The most actions a system can have, 65,535: action ids are 16-bit
    edge labels.  Every engine refuses a program with more, before
    exploring, with an [Error.Type_error] naming the program and this
    ceiling; no id is wrapped. *)
val max_actions : int

(** The most states a system can have, 2{^31} − 1: state ids are 32-bit
    edge targets.  A build raises {!Too_large} on reaching it, whatever
    its [limit]. *)
val max_states : int

(** Process-wide parameters of the shard store, set once by the CLI
    before dispatching: the spill directory ([Some] makes {!Auto} build
    every layout-held system in the shard store spilling there; [None]
    keeps {!Auto} on the flat store), and the resident arena budget in
    MiB. *)
val set_spill_defaults : spill_dir:string option -> arena_budget_mb:int -> unit

(** {!set_spill_defaults} for callers written when the store was
    partitioned into shards; [shards] is ignored. *)
val set_shard_defaults :
  shards:int -> spill_dir:string option -> arena_budget_mb:int -> unit

(** The current shard-store parameters: [(spill_dir, arena_budget_mb)]. *)
val spill_defaults : unit -> string option * int

(** [build program ~from] explores forward from the given initial states.
    Every recorded state is reachable from [from].
    @raise Too_large if more than [limit] states are encountered. *)
val build :
  ?limit:int -> ?engine:engine -> Program.t -> from:State.t list -> t

(** [build_within program ~span]: [program] from the states of the
    explored system [span], or only from those satisfying [where] (read
    through [span]'s cached bitset).  Numbered exactly as
    [build program ~from] of the same states.

    The system is derived from [span]'s edge rows, with no action run,
    when [engine] is [Auto], [span] is a flat-store system,
    [program]'s layout has [span]'s signature and [program]'s
    actions are a physical prefix of [span]'s ([Fault.compose] gives
    [p [] F] exactly that): a breadth-first walk of the span's rows with
    the other actions' edges dropped, through the same builder.  Its
    states count toward [engine.states_visited], [limit] and the state
    budget as explored ones do; it runs in a [ts.derive] span and bumps
    [engine.derived] instead of [engine.builds].  Otherwise [program] is
    explored; when its layout has [span]'s signature the seeds are
    [span]'s sorted rank column, and no state is packed or compared.
    @raise Too_large if more than [limit] states are encountered. *)
val build_within :
  ?limit:int -> ?engine:engine -> ?where:Pred.t -> Program.t -> span:t -> t

(** [of_pred program ~from] explores from all product-space states
    satisfying [from], enumerated without sweeping the product when
    [from] has an expression.  With [from] = {!Pred.true_} the system is
    the whole product, numbered by rank. *)
val of_pred :
  ?limit:int -> ?engine:engine -> Program.t -> from:Pred.t -> t

(** [satisfying_states program pred]: the product states satisfying
    [pred], in [State.compare] order — the states {!of_pred} seeds from.
    Under [Auto] they are enumerated through [program]'s {!Layout}, with
    slot prefixes an expression decides false pruned, so the work tracks
    the satisfying set rather than the product; under [Reference], or
    when the product overflows the rank range, the product list is
    filtered. *)
val satisfying_states : ?engine:engine -> Program.t -> Pred.t -> State.t list

val program : t -> Program.t
val num_states : t -> int
val state : t -> int -> State.t
val states : t -> State.t list
val initials : t -> int list
val actions : t -> Action.t array
val num_actions : t -> int
val action : t -> int -> Action.t

(** The layout compiled for this system, when a layout store built it. *)
val layout : t -> Layout.t option

(** Which store actually built this system: ["packed"] (flat),
    ["sharded"] (out-of-core) or ["reference"]. *)
val store_name : t -> string

val engine_name : engine -> string

(** Why an [Auto] build fell back to the reference engine, when it did:
    a human-readable diagnosis (layout overflow, or which variable / value
    escaped its declared domain).  [None] when no fallback happened. *)
val fallback_reason : t -> string option

(** For a shard-store system, [(spills, spilled bytes, reloads)]; [None]
    for the other stores. *)
val shard_stats : t -> (int * int * int) option

val num_edges : t -> int

(** Outgoing edges of a state: [(action id, target id)] list.  Allocates;
    prefer {!iter_out} on hot paths. *)
val edges_of : t -> int -> (int * int) list

(** [iter_out ts i f] calls [f action_id target_id] for each outgoing edge
    of state [i], in edge order, without allocating. *)
val iter_out : t -> int -> (int -> int -> unit) -> unit

val out_degree : t -> int -> int

(** A lent row of out-edge targets, read by {!row_target}. *)
type row

(** [with_out_row ts i k]: [k row lo hi], where the targets of [i]'s
    out-edges, in edge order, are [row_target row lo] to
    [row_target row (hi - 1)].  For walks that suspend between edges: the
    flat store lends its own target column, the shard store a copy of
    the row, so a held row costs one segment lookup and pins no evicted
    arena. *)
val with_out_row : t -> int -> (row -> int -> int -> 'a) -> 'a

(** [row_target row e]: the target at offset [e] of a lent row; [e] must
    lie in the [lo, hi) the row was lent with. *)
val row_target : row -> int -> int

(** A row lending no edge: a placeholder for a slot that holds none. *)
val empty_row : row

val fold_out : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a
val index_of : t -> State.t -> int option

(** {1 Layout ranks}

    On a system built with a {!layout} (flat or shard store), every state
    has a mixed-radix rank under that layout.  These read the builder's
    own data (rank columns and {!Rank_map} interning table, or the shard
    store's columns) and build no state, so synthesis keys its
    artefacts by rank ({!Pred.of_ranks}, {!Action.of_moves}) and maps
    between two systems of equal layout signature without hashing
    states. *)

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

(** [reverse ?keep ts]: the in-edges of [ts] restricted to edges whose
    action id satisfies [keep] (default: all), in compact label and
    source columns.  [keep] is asked once per action id; two
    {!iter_edges} sweeps, then backward fixpoints iterate predecessors
    by index. *)
val reverse : ?keep:(int -> bool) -> t -> reverse

(** [iter_in rev j f] calls [f action_id source_id] for each kept in-edge
    of state [j], in source order, without allocating. *)
val iter_in : reverse -> int -> (int -> int -> unit) -> unit

(** [pred_bitset ts pred]: bitset of the states satisfying [pred], swept
    once per predicate instance and cached. *)
val pred_bitset : t -> Pred.t -> Bitset.t

(** [enabled_bitset ts aid]: bitset of the states where action [aid]'s
    guard holds, cached per action.  For an action that ran compiled it
    is read off the edge labels: its guard holds exactly where it labels
    an edge.  The first such lookup fills the sets of every compiled
    action in one pass over the edges, and counts as a hit of
    [engine.enabled_cache].  A closure-built action, and every action of
    a {!Reference} system, has its guard swept, a miss. *)
val enabled_bitset : t -> int -> Bitset.t

(** [ran_compiled ts aid]: action [aid] ran compiled when [ts] was built,
    so its guard holds exactly where it labels an edge (see
    {!enabled_bitset}).  False for a closure-built action, and for every
    action of a {!Reference} system. *)
val ran_compiled : t -> int -> bool

(** [enabled ts i aid]: guard of action [aid] true at state [i]. *)
val enabled : t -> int -> int -> bool

(** No action enabled at state [i]: an empty edge row when every action
    ran compiled, otherwise read from the enabled sets. *)
val deadlocked : t -> int -> bool

(** Indices of states satisfying the predicate, ascending. *)
val satisfying : t -> Pred.t -> int list

val holds_at : t -> Pred.t -> int -> bool
val pp_stats : t Fmt.t
