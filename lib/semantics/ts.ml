(* Explicit-state transition systems.

   A transition system is the semantic graph of a program: nodes are states,
   edges are (action, successor) pairs.  All decision procedures of the
   library (closure, convergence, leads-to, fairness, safety) run on it.

   Every exploration — [build] from explicit states, [of_pred] from the
   product states satisfying a predicate, [build_within] from the states
   of another explored system when it cannot derive (below) — runs one
   pipeline:

   - one dispatcher ([construct]) picks the store — the flat one, the
     shard store when a spill directory is set, the reference path when
     no layout holds the states — and owns the fallback;
   - one seed enumerator ([seed_ranks]) yields the seeds as ascending,
     duplicate-free [Layout] ranks (rank order is [State.compare] order);
     its predicate enumeration also lists a program's invariant states
     ([satisfying_states]);
   - one successor kernel ([successors]) yields (action, successor rank)
     for a source state of known rank, in action order.  Actions built
     from update lists (every guarded-command program) run compiled
     ([Compiled]): guards read slot codes and successor ranks are
     computed arithmetically, with no successor state; closure-built
     actions run the interpreter and [Layout.pack_from];
   - one exploration loop ([explore]) runs every store: seed, then
     expand each BFS level in id order, interning each successor as it
     is found, ticking the budget, recording the level's width and
     counting the system.  It takes a successor source — the kernel
     over ranks, the interpreter over states, or the rows of a flat
     span (a derivation) — and a store: the flat store (CSR columns and
     a rank column, states interned by rank in a [Rank_map]), the
     reference store (the states themselves, in a hash table), or the
     shard store ([Shard_store]: one segment per BFS level, spilling to
     disk, states interned in one [Rank_map] as well).

   Edges live in two compact columns the GC never scans ([Csr]): action
   ids as 16-bit and target ids as 32-bit native-endian words in
   [Bytes].  Every store fills [Csr] builders — one per system in RAM,
   one per level segment on the shard store — which append edges to
   blocks of those columns and concatenate them once, at the end, into
   columns of exact length; the reverse CSR uses the same columns.  The
   widths are ceilings: a system has at most [max_actions] actions and
   [max_states] states, and is refused, never wrapped, past either.

   A layout-built system keeps ranks only: [state] decodes a rank on
   demand, and [index_of] packs a state and looks its rank up.  The
   successor kernel decodes a source state only for actions that read it.
   [build_within] keeps what the span's build already knows: over a flat
   span whose actions begin with the program's (p over the span of
   p [] F) it derives the system from the span's edge rows, with no
   action run; otherwise it seeds from the span's rank column when the
   program's layout has its signature, so re-exploring a span packs and
   compares no state.

   Predicate and guard sets are cached in per-system bitsets, so
   [holds_at] and [enabled] answer in O(1) after one pass.  A compiled
   action's enabled set is read off the edge labels, which the build
   wrote where the guard held; every compiled action's set is filled in
   the same pass, and with every action compiled a deadlock is an empty
   edge row.  Any other guard, and any predicate, is swept: compiled,
   over ranks, when it has an expression, otherwise evaluated on each
   rank decoded into one scratch buffer.  Checkers fetch each bitset
   once, hoisted out of their loops, and read it directly.

   [build_reference], the seed list-based path (state-keyed interning of
   the states themselves), stays as the fallback for programs whose
   actions step outside their declared domains and as the oracle of the
   differential tests; it is the only store that holds [State.t]s.  Every
   store numbers seeds in [State.compare] order and runs the one loop,
   so all produce identical state numbering, edge arrays, initials and
   exploration metrics. *)

open Detcor_kernel
open Detcor_obs

(* Engine metrics.  Per-state and per-query updates are gated by
   [Obs.on ()] — one ref read and a branch — so construction with
   observability disabled matches the uninstrumented engine (the E11 bench
   claim).  The per-build totals (builds, states, edges) are bumped once
   per build, unconditionally: the run ledger reports them even when
   nothing else is recorded. *)
let m_states = Metrics.counter "engine.states_visited"

(* Live twin of [m_states]: advanced during construction rather than in
   bulk at [finish], so a telemetry scrape mid-construction sees the
   build move.  Gated on recording or armed heartbeats, and batched
   through a plain local counter — an atomic RMW per interned state is
   measurable on small hot builds; [finish] flushes the remainder. *)
let m_live_states = Metrics.counter "engine.states"
let live_batch = 64
let live_pending = ref 0

let live_state_interned () =
  incr live_pending;
  if !live_pending >= live_batch then begin
    Metrics.incr ~by:!live_pending m_live_states;
    live_pending := 0
  end

let live_flush () =
  if !live_pending > 0 then begin
    Metrics.incr ~by:!live_pending m_live_states;
    live_pending := 0
  end
let m_edges = Metrics.counter "engine.edges"
let m_builds = Metrics.counter "engine.builds"
let m_derived = Metrics.counter "engine.derived"

(* One more system: [m_builds] for an exploration, [m_derived] for a
   system derived from another's rows. *)
let count_build counter ~states ~edges =
  Metrics.incr counter;
  Metrics.incr ~by:states m_states;
  Metrics.incr ~by:edges m_edges

let m_pred_hits = Metrics.counter "engine.pred_cache.hits"
let m_pred_misses = Metrics.counter "engine.pred_cache.misses"
let m_enabled_hits = Metrics.counter "engine.enabled_cache.hits"
let m_enabled_misses = Metrics.counter "engine.enabled_cache.misses"
let m_fallbacks = Metrics.counter "engine.fallbacks"
let h_frontier = Metrics.histogram "engine.frontier_width"

module State_table = Hashtbl.Make (struct
  type t = State.t

  let equal = State.equal
  let hash = State.hash
end)

type engine = Auto | Reference

(* How a system holds its states.  A layout-built store keeps ranks only
   and decodes a state on demand; the reference engine keeps the states
   themselves. *)
type store =
  | Listed of State.t array * int State_table.t
      (* the reference engine: each state, and the state -> index table *)
  | Interned of Layout.t * int array * Rank_map.t
      (* a flat BFS store: the rank of each state, and the rank -> index
         interning table *)
  | Shards of Layout.t * Shard_store.t
      (* the out-of-core store; the flat CSR arrays are then empty and
         every accessor dispatches *)

(* An edge is 6 bytes in two [Bytes] columns ([Csr]): a 16-bit action
   id and a 32-bit target id, read here through the column primitives,
   with no call per edge. *)
let max_actions = 0xFFFF
let max_states = 0x7FFF_FFFF
let label col k = Csr.get16 col (2 * k)
let target col k = Int32.to_int (Csr.get32 col (4 * k))

(* A strongly-connected-component decomposition of a system's graph, or
   of the subgraph a state set induces ([Graph.decompose]); a system
   caches the one of its whole graph. *)
type components = {
  component : int array;
  count : int;
  members : int array;
  first : int array;
  cyclic : Bitset.t;
}

type t = {
  uid : int; (* distinct per system of the process *)
  program : Program.t;
  actions : Action.t array;
  (* CSR adjacency: edges of state [i] occupy [row_ptr.(i) .. row_ptr.(i+1))
     of the label column [edge_action] and the target column
     [edge_target]. *)
  row_ptr : int array;
  edge_action : Bytes.t;
  edge_target : Bytes.t;
  initials : int list;
  store : store;
  (* Per action id: the action ran compiled, so its guard holds at state
     [i] exactly when [i] has an edge labelled with it (see
     [enabled_bitset]). *)
  compiled : bool array;
  all_compiled : bool; (* then [deadlocked] is an empty edge row *)
  pred_cache : (int, Bitset.t) Hashtbl.t; (* keyed by Pred.id *)
  enabled_cache : Bitset.t option array; (* per action id *)
  mutable components : components option; (* the whole graph's SCCs *)
  (* For a system derived from a span's rows: the span's [uid], and the
     span index of each state. *)
  derivation : (int * int array) option;
  (* Set when [Auto] dispatch fell back to the reference engine: the
     diagnosed reason (domain escape, product overflow).  Surfaced by
     `dcheck info` and the Obs metrics. *)
  mutable fallback_reason : string option;
}

exception Too_large of int

let default_limit = 2_000_000

let next_uid = ref 0

let make_system ?derivation ~program ~actions ~initials ~store ~compiled
    (row_ptr, edge_action, edge_target) =
  incr next_uid;
  {
    uid = !next_uid;
    program;
    actions;
    row_ptr;
    edge_action;
    edge_target;
    initials;
    store;
    compiled;
    all_compiled = Array.for_all Fun.id compiled;
    pred_cache = Hashtbl.create 16;
    enabled_cache = Array.make (Array.length actions) None;
    components = None;
    derivation;
    fallback_reason = None;
  }

(* A system from a store in RAM: its builder's columns. *)
let finish ?derivation csr ~program ~actions ~initials ~store ~compiled =
  let columns = Csr.columns csr in
  (* The build's heap peaks here, between ticks: the blocks are still
     live next to the columns they were copied into. *)
  Detcor_robust.Budget.check ();
  make_system ?derivation ~program ~actions ~initials ~store ~compiled columns

(* ------------------------------------------------------------------ *)
(* The exploration loop.                                               *)
(* ------------------------------------------------------------------ *)

(* What an exploration fills: a store's side of the loop, over keys of
   type ['k]:
   - [intern k]: the id of the state of key [k]; a new key takes the
     next id and joins the next frontier;
   - [level ()]: open the next BFS level, [None] once every state is
     expanded.  [Some b]: the level's states are those of the builder
     [b] whose rows are open, which the loop fills
     ([Csr.fill_rows]).  [barrier ()] closes the level. *)
type 'k sink = {
  intern : 'k -> int;
  level : unit -> 'k Csr.t option;
  barrier : unit -> unit;
  states : unit -> int;
  edges : unit -> int;
}

(* One more state, for a store that holds [n]: counted against the limit
   (never above [max_states], the ids a target column holds), the live
   counter and the budget. *)
let admit ~limit n =
  if n >= limit || n >= max_states then
    raise (Too_large (Int.min limit max_states));
  if Obs.on () || Progress.armed () then live_state_interned ();
  Detcor_robust.Budget.count_state ()

(* A new state of key [k] in a store in RAM. *)
let add ~limit csr k =
  admit ~limit (Csr.count csr);
  Csr.add csr k

(* A store in RAM: one builder for the whole system, its keys numbered by
   [intern].  A level is the states added since the last one. *)
let in_ram csr intern =
  {
    intern;
    level =
      (fun () -> if Csr.closed csr < Csr.count csr then Some csr else None);
    barrier = ignore;
    states = (fun () -> Csr.count csr);
    edges = (fun () -> Csr.edges csr);
  }

(* The breadth-first loop of every store: the seeded store's levels in
   order, each state's successors, as [expand key emit] yields them
   (action id and successor key, in edge order), interned as they are
   found.  It ticks the budget once per state, records each level's
   width ([engine.frontier_width], [ts.frontier]), runs in the
   [engine.bfs] progress phase ([readings] adds to its readings), and
   counts the system in [counter]. *)
let explore ?(counter = m_builds) ?(readings = fun () -> []) s expand =
  let width = ref 0 in
  let rec levels depth =
    match s.level () with
    | None -> ()
    | Some b ->
      width := Csr.count b - Csr.closed b;
      if Obs.on () then begin
        Metrics.observe h_frontier !width;
        Obs.event "ts.frontier" ~level:Attr.Debug
          ~attrs:[ Attr.int "depth" depth; Attr.int "width" !width ]
      end;
      Csr.fill_rows b s.intern (fun k emit ->
          Detcor_robust.Budget.tick ();
          expand k emit);
      s.barrier ();
      levels (depth + 1)
  in
  Progress.with_phase "engine.bfs"
    (fun () -> ("states", s.states ()) :: ("frontier", !width) :: readings ())
    (fun () -> levels 0);
  if Obs.on () || Progress.armed () then live_flush ();
  count_build counter ~states:(s.states ()) ~edges:(s.edges ())

(* ------------------------------------------------------------------ *)
(* Successor sources.                                                  *)
(* ------------------------------------------------------------------ *)

(* The reference engine's source: each action run by the interpreter on
   the state itself. *)
let expand_states actions st emit =
  Array.iteri
    (fun aid ac -> List.iter (fun st' -> emit aid st') (Action.execute ac st))
    actions

(* A program's actions compiled against its layout: [compiled.(aid)] is
   [Some] for an action whose update list compiled, [None] for a
   closure-built action, which runs through the interpreter and
   [Layout.pack_from]. *)
type kernel = {
  k_layout : Layout.t;
  k_actions : Action.t array;
  k_compiled : Compiled.action option array;
  num_compiled : int;
  closure_guards : int; (* compiled actions whose guard reads the state *)
  needs_state : bool; (* some action reads the source [State.t] *)
}

let kernel layout program =
  let actions = Array.of_list (Program.actions program) in
  let compiled = Array.map (Compiled.action layout) actions in
  {
    k_layout = layout;
    k_actions = actions;
    k_compiled = compiled;
    num_compiled =
      Array.fold_left (fun n c -> if c = None then n else n + 1) 0 compiled;
    closure_guards =
      Array.fold_left
        (fun n -> function
          | Some c when Compiled.needs_state c -> n + 1 | _ -> n)
        0 compiled;
    needs_state =
      Array.exists
        (function None -> true | Some c -> Compiled.needs_state c)
        compiled;
  }

(* [f aid rank'] for each statement outcome [st'] of action [aid];
   top-level, so the kernel allocates no closure per action. *)
let rec emit layout ~rank st aid f = function
  | [] -> ()
  | st' :: rest ->
    f aid (Layout.pack_from layout ~src_rank:rank st st');
    emit layout ~rank st aid f rest

(* The successor kernel: [f aid rank'] for every successor of the state
   [st] of rank [rank], in action order and then statement order — the
   edge order of every engine.  [codes] holds the slot codes of [rank],
   loaded when compiled actions read them; [st] is only read by
   interpreted actions and closure guards ([k.needs_state]).  No closure
   or allocation of its own per edge. *)
let successors k ~codes ~rank st f =
  for aid = 0 to Array.length k.k_actions - 1 do
    match Array.unsafe_get k.k_compiled aid with
    | Some c -> Compiled.successors c ~codes ~rank st aid f
    | None ->
      emit k.k_layout ~rank st aid f (Action.execute k.k_actions.(aid) st)
  done

(* The source of the layout stores: the successor kernel over ranks, with
   one slot-code buffer per build, decoding the source state only when
   some action reads it. *)
let expand_ranks k =
  let codes = Array.make (Layout.num_vars k.k_layout) 0 in
  fun rank emit ->
    if k.num_compiled > 0 then Layout.decode k.k_layout rank codes;
    let st =
      if k.needs_state then Layout.unpack k.k_layout rank else State.empty
    in
    successors k ~codes ~rank st emit

(* ------------------------------------------------------------------ *)
(* The stores.                                                         *)
(* ------------------------------------------------------------------ *)

(* The reference store: the states themselves, interned in a table. *)
let build_reference ~limit program ~from =
  let actions = Array.of_list (Program.actions program) in
  let index = State_table.create 1024 and csr = Csr.create () in
  let intern st =
    match State_table.find_opt index st with
    | Some i -> i
    | None ->
      let i = add ~limit csr st in
      State_table.add index st i;
      i
  in
  let seeds = List.sort_uniq State.compare from in
  List.iter (fun st -> ignore (intern st)) seeds;
  explore (in_ram csr intern) (expand_states actions);
  finish csr ~program ~actions
    ~initials:(List.init (List.length seeds) Fun.id)
    ~store:(Listed (Csr.keys csr, index))
    ~compiled:(Array.make (Array.length actions) false)

(* The flat store: ranks interned in a [Rank_map], the builder's keys
   the rank column.

   Its [ts.bfs] checkpoint persists the builder's closed prefix
   ([Csr.snapshot]): captures fire from [Budget] checkpoints, at which
   states [0..count) are fully written and edges beyond the closed rows
   belong to a half-expanded row.  Restoring re-interns the ranks in id
   order and resumes expansion at the first open row; everything
   downstream is deterministic, so the finished system is byte-identical
   to an uninterrupted build. *)
let build_packed ~limit k program seeds =
  let layout = k.k_layout in
  let index =
    Rank_map.create ~expect:(Array.length seeds) ~space:(Layout.space layout) ()
  in
  let csr = Csr.create () in
  let intern rank =
    let i = Rank_map.find index rank in
    if i >= 0 then i
    else begin
      let i = add ~limit csr rank in
      Rank_map.add index rank i;
      i
    end
  in
  (* Seed ranks are ascending and duplicate-free. *)
  Array.iter (fun rank -> ignore (intern rank)) seeds;
  let phase = Detcor_robust.Checkpoint.enter ~kind:"ts.bfs" in
  (match Detcor_robust.Checkpoint.resume_data phase with
  | Some (Detcor_robust.Checkpoint.Midway data)
  | Some (Detcor_robust.Checkpoint.Done data) ->
    let snap : int Csr.snap = Marshal.from_string data 0 in
    (* Re-intern in id order: the snapshot's rank sequence is the
       discovery order, so ids land exactly where they were.  The seeds
       already occupy the prefix. *)
    Array.iteri
      (fun i rank -> if i >= Csr.count csr then ignore (intern rank))
      snap.s_keys;
    Csr.restore csr snap
  | None -> ());
  Detcor_robust.Checkpoint.set_capture phase (fun () ->
      Marshal.to_string (Csr.snapshot csr) []);
  explore (in_ram csr intern) (expand_ranks k);
  let ranks = Csr.keys csr in
  let ts =
    finish csr ~program ~actions:k.k_actions
      ~initials:(List.init (Array.length seeds) Fun.id)
      ~store:(Interned (layout, ranks, index))
      ~compiled:(Array.map Option.is_some k.k_compiled)
  in
  (* The completed payload is the finished system's own arrays, marshalled
     only when a save persists it: a build pays nothing for it between
     saves, and nothing at all without a checkpoint session. *)
  if Detcor_robust.Checkpoint.active () then begin
    let snap =
      {
        Csr.s_keys = ranks;
        s_rows = ts.row_ptr;
        s_ea = ts.edge_action;
        s_et = ts.edge_target;
        s_closed = Array.length ranks;
      }
    in
    Detcor_robust.Checkpoint.complete_with phase (fun () ->
        Marshal.to_string snap [])
  end;
  ts

(* Process-wide parameters of the shard store — threaded here rather
   than through every [?engine] signature in [Tolerance]/[Synthesize];
   [dcheck] sets them once from its flags before dispatching.  A spill
   directory is what selects the store. *)
let spill_params = ref ((None : string option), 512)

let set_spill_defaults ~spill_dir ~arena_budget_mb =
  spill_params := (spill_dir, max 0 arena_budget_mb)

let set_shard_defaults ~shards:_ = set_spill_defaults
let spill_defaults () = !spill_params

(* The shard store: the same exploration, so the numbering, edge arrays
   and initials are the flat store's, over level segments that spill to
   checksummed files under the spill directory once the resident bytes
   exceed the arena budget.

   Its [ts.shard] checkpoint is the store itself.  Snapshots are only
   consistent at level barriers (mid-level, the open segment's builder
   is not serializable), so the capture returns the snapshot taken at
   the last barrier; resume restores the store there and replays the
   lost level deterministically.  Spill files the snapshot names are
   reused, never rewritten. *)
let build_sharded ~limit ~spill_dir k program seeds =
  let layout = k.k_layout in
  let arena_budget = snd !spill_params * 1024 * 1024 in
  let fingerprint =
    Detcor_robust.Checkpoint.digest
      [
        "ts.shard";
        Program.name program;
        string_of_int (Layout.space layout);
      ]
  in
  let phase = Detcor_robust.Checkpoint.enter ~kind:"ts.shard" in
  let resumed = Detcor_robust.Checkpoint.resume_data phase in
  let store =
    match resumed with
    | Some (Detcor_robust.Checkpoint.Midway data)
    | Some (Detcor_robust.Checkpoint.Done data) ->
      Shard_store.restore ~layout ~spill_dir ~arena_budget ~fingerprint data
    | None ->
      Shard_store.create ~layout ~spill_dir ~arena_budget ~fingerprint ()
  in
  let intern rank =
    let g = Shard_store.find store rank in
    if g >= 0 then g
    else begin
      admit ~limit (Shard_store.num_states store);
      Shard_store.add store rank
    end
  in
  if resumed = None then Array.iter (fun rank -> ignore (intern rank)) seeds;
  (* Barrier snapshots cost a full manifest walk; only maintain them
     when a checkpoint session wants captures. *)
  let track = Detcor_robust.Checkpoint.active () in
  let latest = ref (if track then Shard_store.snapshot store else "") in
  Detcor_robust.Checkpoint.set_capture phase (fun () -> !latest);
  let segments =
    {
      intern;
      level = (fun () -> Shard_store.begin_level store);
      barrier =
        (fun () ->
          Shard_store.end_level store;
          if track then latest := Shard_store.snapshot store);
      states = (fun () -> Shard_store.num_states store);
      edges = (fun () -> Shard_store.num_edges store);
    }
  in
  let readings () =
    let spills, _, _ = Shard_store.spill_stats store in
    [ ("spills", spills) ]
  in
  explore ~readings segments (expand_ranks k);
  Detcor_robust.Checkpoint.complete phase (if track then !latest else "");
  make_system ~program ~actions:k.k_actions
    ~initials:(List.init (Array.length seeds) Fun.id)
    ~store:(Shards (layout, store))
    ~compiled:(Array.map Option.is_some k.k_compiled)
    ([| 0 |], Bytes.empty, Bytes.empty)

(* ------------------------------------------------------------------ *)
(* Accessors.                                                          *)
(* ------------------------------------------------------------------ *)

let program ts = ts.program

let num_states ts =
  match ts.store with
  | Shards (_, store) -> Shard_store.num_states store
  | Listed _ | Interned _ -> Array.length ts.row_ptr - 1

let initials ts = ts.initials
let actions ts = ts.actions
let num_actions ts = Array.length ts.actions
let action ts i = ts.actions.(i)

let layout ts =
  match ts.store with
  | Listed _ -> None
  | Interned (layout, _, _) | Shards (layout, _) -> Some layout

let store_name ts =
  match ts.store with
  | Shards _ -> "sharded"
  | Interned _ -> "packed"
  | Listed _ -> "reference"

let fallback_reason ts = ts.fallback_reason

let shard_stats ts =
  match ts.store with
  | Shards (_, store) ->
    Some (Shard_store.spill_stats store)
  | Listed _ | Interned _ -> None

(* Ranks are read from what each store keeps: a BFS store's rank column
   and interning table, and the sharded store's columns (a spilled
   segment reloads transparently). *)
let no_layout () = invalid_arg "Ts: no layout ranks on a reference system"

let rank_of ts i =
  match ts.store with
  | Interned (_, ranks, _) -> ranks.(i)
  | Shards (_, store) -> Shard_store.rank_of store i
  | Listed _ -> no_layout ()

let index_of_rank ts r =
  match ts.store with
  | Interned (_, _, index) -> Rank_map.find index r
  | Shards (_, store) -> Shard_store.find store r
  | Listed _ -> no_layout ()

(* [f i rank] for every state [i] of a layout-built system, in id order. *)
let iter_ranks ts f =
  match ts.store with
  | Interned (_, ranks, _) -> Array.iteri f ranks
  | Shards (_, store) -> Shard_store.iter_ranks store f
  | Listed _ -> no_layout ()

(* A layout-built system decodes its states on demand. *)
let state ts i =
  match ts.store with
  | Listed (states, _) -> states.(i)
  | Interned (layout, _, _) | Shards (layout, _) ->
    Layout.unpack layout (rank_of ts i)

let states ts =
  match ts.store with
  | Listed (states, _) -> Array.to_list states
  | Interned (layout, _, _) | Shards (layout, _) ->
    let acc = ref [] in
    iter_ranks ts (fun _ rank -> acc := Layout.unpack layout rank :: !acc);
    List.rev !acc

let index_of ts st =
  match ts.store with
  | Listed (_, index) -> State_table.find_opt index st
  | Interned (layout, _, _) | Shards (layout, _) -> (
    match Layout.pack_opt layout st with
    | None -> None
    | Some rank ->
      let i = index_of_rank ts rank in
      if i < 0 then None else Some i)

let num_edges ts =
  match ts.store with
  | Shards (_, store) -> Shard_store.num_edges store
  | Listed _ | Interned _ -> ts.row_ptr.(num_states ts)

let edges_of ts i =
  match ts.store with
  | Shards (_, store) ->
    let acc = ref [] in
    Shard_store.iter_out store i (fun aid j -> acc := (aid, j) :: !acc);
    List.rev !acc
  | Listed _ | Interned _ ->
    let lo = ts.row_ptr.(i) and hi = ts.row_ptr.(i + 1) in
    let rec go k acc =
      if k < lo then acc
      else
        go (k - 1) ((label ts.edge_action k, target ts.edge_target k) :: acc)
    in
    go (hi - 1) []

let iter_out ts i f =
  match ts.store with
  | Shards (_, store) -> Shard_store.iter_out store i f
  | Listed _ | Interned _ ->
    let hi = ts.row_ptr.(i + 1) in
    for k = ts.row_ptr.(i) to hi - 1 do
      f (label ts.edge_action k) (target ts.edge_target k)
    done

(* A row is a target column, lent by the store: the flat store's own,
   or the row's segment's. *)
type row = Bytes.t

let row_target = target
let empty_row = Bytes.empty

let with_out_row ts i k =
  match ts.store with
  | Shards (_, store) -> Shard_store.with_out_row store i k
  | Listed _ | Interned _ ->
    k ts.edge_target ts.row_ptr.(i) ts.row_ptr.(i + 1)

let fold_out ts i f init =
  let acc = ref init in
  iter_out ts i (fun aid j -> acc := f !acc aid j);
  !acc

(* The index in [dst] of each state of [src], [-1] when [dst] does not
   hold it: read off the derivation when [src] was derived from [dst]'s
   rows, by rank when both systems have layouts of one signature (no
   state is built or hashed), otherwise by state. *)
let index_map ~src ~dst =
  match (src.derivation, layout src, layout dst) with
  | Some (span, old), _, _ when span = dst.uid -> Array.get old
  | _, Some a, Some b when Layout.has_signature b (Layout.signature a) ->
    fun i -> index_of_rank dst (rank_of src i)
  | _ -> (
    fun i -> match index_of dst (state src i) with Some j -> j | None -> -1)

let action_id ts name =
  let found = ref None in
  Array.iteri
    (fun i ac -> if String.equal (Action.name ac) name then found := Some i)
    ts.actions;
  !found

(* Ids of actions whose names are in [names]; used to separate fault actions
   from program actions in a composed system. *)
let action_ids_of_names ts names =
  let module S = Set.Make (String) in
  let set = S.of_list names in
  let ids = ref [] in
  Array.iteri
    (fun i ac -> if S.mem (Action.name ac) set then ids := i :: !ids)
    ts.actions;
  List.rev !ids

let iter_edges ts f =
  match ts.store with
  | Shards (_, store) -> Shard_store.iter_edges store f
  | Listed _ | Interned _ ->
    for i = 0 to num_states ts - 1 do
      Detcor_robust.Budget.tick ();
      for k = ts.row_ptr.(i) to ts.row_ptr.(i + 1) - 1 do
        f i (label ts.edge_action k) (target ts.edge_target k)
      done
    done

let fold_edges ts f init =
  let acc = ref init in
  iter_edges ts (fun i aid j -> acc := f !acc i aid j);
  !acc

(* ------------------------------------------------------------------ *)
(* Seeds.                                                              *)
(* ------------------------------------------------------------------ *)

(* What a construction starts from: explicit states ([build]), the
   states of an explored system, or those of them in a bitset
   ([build_within]), or the product states satisfying a predicate
   ([of_pred]). *)
type seeds =
  | States of State.t list
  | Within of t * Bitset.t option
  | Satisfying of Pred.t

(* The indices of [span] in [keep] (all of them without one). *)
let kept span keep =
  let n = num_states span in
  match keep with
  | None -> Array.init n Fun.id
  | Some bits ->
    let idx = Array.make (Bitset.cardinal bits) 0 and k = ref 0 in
    Bitset.iter_set bits (fun i ->
        idx.(!k) <- i;
        incr k);
    idx

(* The ranks of [span]'s states in [keep], ascending.  Ranks that fill a
   quarter of [layout]'s space or more are ordered by one pass over a
   bitset of that space; sparser ones are sorted. *)
let kept_ranks span layout keep =
  let ranks = Array.map (rank_of span) (kept span keep) in
  let space = Layout.space layout in
  if Array.length ranks >= space / 4 then begin
    let held = Bitset.create space in
    Array.iter (Bitset.set held) ranks;
    let k = ref 0 in
    Bitset.iter_set held (fun r ->
        ranks.(!k) <- r;
        incr k)
  end
  else Array.stable_sort Int.compare ranks;
  ranks

let within_states span keep =
  Array.fold_right (fun i acc -> state span i :: acc) (kept span keep) []

(* The seeds as ascending, duplicate-free ranks.  Rank order is
   [State.compare] order (the [Layout] invariant), so seeds are numbered
   exactly as the reference engine numbers them.  A span whose layout has
   [target]'s signature gives its rank column, sorted.  Every seed is a
   state of the build, so an enumeration stops past [limit] states
   instead of listing a product that cannot fit.
   @raise Layout.Unrepresentable if an explicit state escapes the layout.
   @raise Too_large past [limit] satisfying states. *)
let rec seed_ranks ~limit target = function
  | States from ->
    List.map (Layout.pack target) from
    |> List.sort_uniq Int.compare |> Array.of_list
  | Within (span, keep) -> (
    match layout span with
    | Some a when Layout.has_signature target (Layout.signature a) ->
      kept_ranks span target keep
    | _ -> seed_ranks ~limit target (States (within_states span keep)))
  | Satisfying pred ->
    let buf = ref [] and n = ref 0 in
    Compiled.iter_satisfying target pred (fun rank ->
        incr n;
        if !n > limit then raise (Too_large limit);
        buf := rank :: !buf);
    Array.of_list (List.rev !buf)

(* The reference engine's seed list: the same set, unranked.  The
   product is filtered as it is enumerated, so only the satisfying states
   are ever held. *)
let seed_states program = function
  | States from -> from
  | Within (span, keep) -> within_states span keep
  | Satisfying pred ->
    List.rev
      (Program.fold_states
         (fun acc st -> if Pred.holds pred st then st :: acc else acc)
         [] program)

let satisfying_states ?(engine = Auto) program pred =
  let seeds = Satisfying pred in
  match (engine, Layout.of_program program) with
  | Auto, Some layout ->
    Array.fold_right
      (fun r acc -> Layout.unpack layout r :: acc)
      (seed_ranks ~limit:max_int layout seeds)
      []
  | Reference, _ | Auto, None -> seed_states program seeds

(* ------------------------------------------------------------------ *)
(* The dispatcher.                                                     *)
(* ------------------------------------------------------------------ *)

let default_engine = Auto

let engine_name = function Auto -> "auto" | Reference -> "reference"

let overflow_reason = "product space size overflows the packed rank range"

let escape_message () =
  match Layout.escape_reason () with
  | Some e -> Fmt.str "%a" Layout.pp_escape e
  | None -> "a state escaped the declared layout"

(* Record an Auto→Reference fallback on the built system and in Obs. *)
let fell_back reason ts =
  ts.fallback_reason <- Some reason;
  if Obs.on () then begin
    Metrics.incr m_fallbacks;
    Obs.event "ts.fallback" ~level:Attr.Warn
      ~attrs:[ Attr.str "reason" reason ]
  end;
  ts

let ran_compiled ts aid = ts.compiled.(aid)

let count_compiled ts =
  Array.fold_left (fun n c -> if c then n + 1 else n) 0 ts.compiled

(* Every construction: refuse a program with more actions than a label
   column holds, pick the store, seed it, and annotate the [ts.build]
   span, on completion, with the size of what was built and how many of
   its actions ran compiled.
   [Auto] runs the flat store, or the shard store when a spill directory
   is set, and falls back to the reference engine when the product
   overflows the rank range or a state steps outside the declared
   domains. *)
let construct op ~limit ~engine program seeds =
  let num_actions = List.length (Program.actions program) in
  if num_actions > max_actions then
    Detcor_robust.Error.type_error
      "Ts.%s %s: %d actions exceed the ceiling of %d actions a system can \
       label"
      op (Program.name program) num_actions max_actions;
  Obs.span "ts.build"
    ~attrs:
      [
        Attr.str "op" op;
        Attr.str "program" (Program.name program);
        Attr.str "engine" (engine_name engine);
      ]
  @@ fun () ->
  let reference () =
    build_reference ~limit program ~from:(seed_states program seeds)
  in
  let closure_guards = ref 0 in
  let kernel layout =
    let k = kernel layout program in
    closure_guards := k.closure_guards;
    k
  in
  let ranked layout =
    let seeds = seed_ranks ~limit layout seeds in
    let kern = kernel layout in
    match fst !spill_params with
    | None -> build_packed ~limit kern program seeds
    | Some spill_dir -> build_sharded ~limit ~spill_dir kern program seeds
  in
  let ts =
    match engine with
    | Reference -> reference ()
    | Auto -> (
      match Layout.of_program program with
      | None -> fell_back overflow_reason (reference ())
      | Some layout -> (
        try ranked layout
        with Layout.Unrepresentable ->
          fell_back (escape_message ()) (reference ())))
  in
  if Obs.on () then
    Obs.annotate
      [
        Attr.int "states" (num_states ts);
        Attr.int "edges" (num_edges ts);
        Attr.bool "packed" (layout ts <> None);
        Attr.int "actions" (Array.length ts.actions);
        Attr.int "compiled" (count_compiled ts);
        Attr.int "closure_guards"
          (if layout ts = None then 0 else !closure_guards);
      ];
  ts

let build ?(limit = default_limit) ?(engine = default_engine) program ~from =
  construct "build" ~limit ~engine program (States from)

let of_pred ?(limit = default_limit) ?(engine = default_engine) program ~from =
  construct "of_pred" ~limit ~engine program (Satisfying from)

(* ------------------------------------------------------------------ *)
(* Reverse adjacency.                                                  *)
(* ------------------------------------------------------------------ *)

(* Reverse CSR over a class of actions: the in-edges of each state whose
   action id passes [keep], in a label and a source column.  Built in two
   O(edges) sweeps with [keep] asked once per action, into a table;
   backward fixpoints (the synthesizer's [ms]) iterate predecessors
   without per-state lists or re-deriving successors. *)
type reverse = {
  rev_ptr : int array; (* in-edges of state j occupy [rev_ptr.(j) .. rev_ptr.(j+1)) *)
  rev_action : Bytes.t;
  rev_source : Bytes.t;
}

let reverse ?(keep = fun _ -> true) ts =
  let n = num_states ts in
  let kept = Array.init (num_actions ts) keep in
  let counts = Array.make (n + 1) 0 in
  iter_edges ts (fun _ aid j ->
      if Array.unsafe_get kept aid then counts.(j + 1) <- counts.(j + 1) + 1);
  for j = 1 to n do
    counts.(j) <- counts.(j) + counts.(j - 1)
  done;
  let rev_ptr = Array.copy counts in
  let rev_action = Csr.labels counts.(n)
  and rev_source = Csr.targets counts.(n) in
  let cursor = counts in
  iter_edges ts (fun i aid j ->
      if Array.unsafe_get kept aid then begin
        let k = cursor.(j) in
        Csr.set16 rev_action (2 * k) aid;
        Csr.set32 rev_source (4 * k) (Int32.of_int i);
        cursor.(j) <- k + 1
      end);
  { rev_ptr; rev_action; rev_source }

let iter_in rev j f =
  let hi = rev.rev_ptr.(j + 1) in
  for k = rev.rev_ptr.(j) to hi - 1 do
    f (label rev.rev_action k) (target rev.rev_source k)
  done

(* ------------------------------------------------------------------ *)
(* Cached predicate and guard queries.                                 *)
(* ------------------------------------------------------------------ *)

(* One sweep of [pred] over every state, in id order.  On a layout-built
   system a predicate that compiles runs on each state's rank, with only
   the slots its expression reads decoded into slot codes; one that reads
   no slot and no rank (a constant: the [true] of every [eventually]) runs
   once and fills the set.  Any other is evaluated on each rank decoded
   into one scratch buffer.  None allocates per visit, and spilled
   segments stream through.  The reference engine evaluates it on its own
   states. *)
let sweep ts pred =
  let n = num_states ts in
  let bits = Bitset.create n in
  match ts.store with
  | Listed (states, _) ->
    Array.iteri
      (fun i st -> if Pred.holds pred st then Bitset.set bits i)
      states;
    bits
  | Interned (layout, _, _) | Shards (layout, _) -> (
    match Compiled.pred layout pred with
    | Some (Compiled.Ranks test) ->
      iter_ranks ts (fun i rank -> if test rank then Bitset.set bits i);
      bits
    | Some t -> (
      let codes = Array.make (Layout.num_vars layout) 0 in
      match (t, Compiled.slots_read layout pred) with
      | Compiled.Codes f, [||] -> if n > 0 && f codes then Bitset.full n else bits
      | t, slots ->
        iter_ranks ts (fun i rank ->
            Layout.decode_slots layout rank codes slots;
            if Compiled.holds t ~codes ~rank then Bitset.set bits i);
        bits)
    | None ->
      let sc = Layout.scratch layout in
      iter_ranks ts (fun i rank ->
          Layout.unpack_into layout sc rank;
          if Pred.holds pred (State.scratch_view sc) then Bitset.set bits i);
      bits)

(* [pred_bitset ts pred]: the bitset of states satisfying [pred], swept
   once per predicate instance and cached. *)
let pred_bitset ts pred =
  let key = Pred.id pred in
  match Hashtbl.find_opt ts.pred_cache key with
  | Some bits ->
    if Obs.on () then Metrics.incr m_pred_hits;
    bits
  | None ->
    if Obs.on () then Metrics.incr m_pred_misses;
    let bits = sweep ts pred in
    Hashtbl.add ts.pred_cache key bits;
    bits

let holds_at ts pred i = Bitset.get (pred_bitset ts pred) i

let components ts decompose =
  match ts.components with
  | Some c -> c
  | None ->
    let c = decompose ts in
    ts.components <- Some c;
    c

(* Fill the enabled cache of every compiled action at once, in one pass
   over the edges.  A compiled action's guard holds at [i] exactly when
   [i] has an edge labelled with it: [Compiled.successors] tests the
   guard, and then a move yields one outcome and an update list at least
   one, since every wildcard ranges over a non-empty domain.  A closure
   statement may yield no outcome where its guard holds ([Action.choose
   []]), so closure-built actions keep the guard sweep. *)
let read_labels ts =
  let n = num_states ts in
  let fresh =
    Array.mapi
      (fun aid compiled ->
        if compiled && ts.enabled_cache.(aid) = None then Some (Bitset.create n)
        else None)
      ts.compiled
  in
  iter_edges ts (fun i aid _ ->
      match Array.unsafe_get fresh aid with
      | Some bits -> Bitset.set bits i
      | None -> ());
  Array.iteri
    (fun aid bits -> if bits <> None then ts.enabled_cache.(aid) <- bits)
    fresh

(* [enabled_bitset ts aid]: the states where action [aid]'s guard holds,
   cached per action id.  A compiled action's set is read off the edge
   labels (a hit: the build already decided it); any other action's
   guard is swept (a miss). *)
let enabled_bitset ts aid =
  match ts.enabled_cache.(aid) with
  | Some bits ->
    if Obs.on () then Metrics.incr m_enabled_hits;
    bits
  | None when ts.compiled.(aid) ->
    if Obs.on () then Metrics.incr m_enabled_hits;
    read_labels ts;
    Option.get ts.enabled_cache.(aid)
  | None ->
    if Obs.on () then Metrics.incr m_enabled_misses;
    let bits = sweep ts (Action.guard ts.actions.(aid)) in
    ts.enabled_cache.(aid) <- Some bits;
    bits

(* [enabled ts i aid]: is action [aid] enabled at state [i]? *)
let enabled ts i aid = Bitset.get (enabled_bitset ts aid) i

let rec disabled_from ts i aid =
  aid >= Array.length ts.actions
  || ((not (enabled ts i aid)) && disabled_from ts i (aid + 1))

(* With every action compiled, a state is deadlocked exactly when its edge
   row is empty. *)
let deadlocked ts i =
  if ts.all_compiled then with_out_row ts i (fun _ lo hi -> lo = hi)
  else disabled_from ts i 0

let satisfying ts pred =
  let bits = pred_bitset ts pred in
  let result = ref [] in
  for i = num_states ts - 1 downto 0 do
    if Bitset.get bits i then result := i :: !result
  done;
  !result

(* ------------------------------------------------------------------ *)
(* A program over an explored system.                                  *)
(* ------------------------------------------------------------------ *)

(* [actions] is a physical prefix of [span]'s actions. *)
let prefix_of actions span =
  let rec go aid = function
    | [] -> true
    | ac :: rest ->
      aid < Array.length span.actions
      && span.actions.(aid) == ac
      && go (aid + 1) rest
  in
  go 0 actions

(* The layout to derive [program] over [span] with: [program]'s, when the
   span is a flat store of that signature whose actions begin with
   [program]'s ([Fault.compose] puts them there), so that the span's
   edge rows restricted to those actions are [program]'s successors. *)
let derivable ~engine program span =
  match (engine, span.store) with
  | Auto, Interned (a, _, _) when prefix_of (Program.actions program) span ->
    Option.bind (Layout.of_program program) (fun layout ->
        if Layout.has_signature layout (Layout.signature a) then Some layout
        else None)
  | _ -> None

(* [program] over [span], derived from the span's rows: the exploration
   loop over a store in RAM keyed by span index, whose source is the
   span's rows with the edges of the other actions dropped, from the
   kept span states in rank order.  Numbering, limit, budget and live
   counter are an exploration's, so the system is [build_within]'s
   exploration, byte for byte, at the cost of one pass over the rows it
   keeps.  The builder's keys map each new id back to its span index,
   [fresh] the other way. *)
let derive ~limit ~layout program ~span ~keep =
  Obs.span "ts.derive" ~attrs:[ Attr.str "program" (Program.name program) ]
  @@ fun () ->
  let ranks =
    match span.store with
    | Interned (_, ranks, _) -> ranks
    | Listed _ | Shards _ -> invalid_arg "Ts.derive: not a flat store"
  in
  let np = List.length (Program.actions program) in
  let seeds = kept_ranks span layout keep in
  let index =
    Rank_map.create ~expect:(Array.length seeds) ~space:(Layout.space layout) ()
  in
  let csr = Csr.create () and fresh = Array.make (num_states span) (-1) in
  let intern j =
    let i = fresh.(j) in
    if i >= 0 then i
    else begin
      let i = add ~limit csr j in
      Rank_map.add index ranks.(j) i;
      fresh.(j) <- i;
      i
    end
  in
  Array.iter (fun r -> ignore (intern (index_of_rank span r))) seeds;
  (* A row lists its edges in action order, so [program]'s come first. *)
  let expand j emit =
    let k = ref span.row_ptr.(j) and hi = span.row_ptr.(j + 1) in
    while !k < hi && label span.edge_action !k < np do
      emit (label span.edge_action !k) (target span.edge_target !k);
      incr k
    done
  in
  explore ~counter:m_derived (in_ram csr intern) expand;
  let old = Csr.keys csr in
  let ts =
    finish ~derivation:(span.uid, old) csr ~program
      ~actions:(Array.sub span.actions 0 np)
      ~initials:(List.init (Array.length seeds) Fun.id)
      ~store:(Interned (layout, Array.map (Array.get ranks) old, index))
      ~compiled:(Array.sub span.compiled 0 np)
  in
  if Obs.on () then
    Obs.annotate
      [ Attr.int "states" (num_states ts); Attr.int "edges" (num_edges ts) ];
  ts

(* [build_within p ~span]: [p] explored from the states of [span] — those
   satisfying [where], when given, read through [span]'s cached bitset —
   and numbered as [build p ~from:] of the same set.  Over a flat span
   whose actions begin with [p]'s (p over the span of p [] F) the system
   is derived from the span's rows; otherwise it is explored, seeded by
   the span's sorted rank column when [p]'s layout has [span]'s
   signature, with no state built, packed or compared. *)
let build_within ?(limit = default_limit) ?(engine = default_engine) ?where
    program ~span =
  let keep = Option.map (pred_bitset span) where in
  match derivable ~engine program span with
  | Some layout -> derive ~limit ~layout program ~span ~keep
  | None ->
    construct "build" ~limit ~engine program (Within (span, keep))

let pp_stats ppf ts =
  Fmt.pf ppf "%d states, %d transitions, %d actions" (num_states ts)
    (num_edges ts) (num_actions ts)

