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
   - the results land in a flat store (CSR arrays and a rank column,
     states interned by rank in a [Rank_map]) or in the shard store
     ([Shard_store]: one arena segment per BFS level, spilling to disk,
     states interned in one [Rank_map] as well).  Both stores run one
     sequential breadth-first loop that interns each successor as it is
     found.

   Edges live in two compact columns the GC never scans: action ids as
   16-bit and target ids as 32-bit native-endian words in [Bytes].  A BFS
   builder appends edges to blocks of those columns and concatenates them
   once, at the end, into columns of exact length; the reverse CSR uses
   the same columns.  The widths are ceilings: a system has at most
   [max_actions] actions and [max_states] states, and is refused, never
   wrapped, past either.

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

   [build_reference], the seed list-based path (map-keyed interning of the
   states themselves), stays as the fallback for programs whose actions
   step outside their declared domains and as the oracle of the
   differential tests; it is the only store that holds [State.t]s.  Every
   engine numbers seeds in [State.compare] order and expands states in id
   order, so all produce identical state numbering, edge arrays and
   initials. *)

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

(* ------------------------------------------------------------------ *)
(* Edge columns.                                                       *)
(* ------------------------------------------------------------------ *)

(* A label column holds action ids as native-endian 16-bit words, a
   target column state ids as 32-bit words: 6 bytes an edge in [Bytes],
   which the GC never scans.  The unchecked primitives read and write
   them unboxed; every index is a CSR offset below the column's length. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let max_actions = 0xFFFF
let max_states = 0x7FFF_FFFF
let labels n = Bytes.create (2 * n)
let targets n = Bytes.create (4 * n)
let label col k = get16 col (2 * k)
let target col k = Int32.to_int (get32 col (4 * k))
let set_label col k aid = set16 col (2 * k) aid
let set_target col k j = set32 col (4 * k) (Int32.of_int j)

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

(* ------------------------------------------------------------------ *)
(* Growable buffers shared by every builder.                          *)
(* ------------------------------------------------------------------ *)

(* Edge rows grow in blocks of the two columns: the open block fills, is
   sealed, and the next one opens twice as large, up to [max_block]
   edges.  No edge is copied while the build runs; [finish] concatenates
   the blocks once into columns of exact length. *)
let first_block = 4096
let max_block = 32_768

(* [keys.(i)] identifies state [i]: its rank in a BFS store, the state
   itself on the reference path. *)
type 'k builder = {
  mutable keys : 'k array;
  mutable count : int;
  mutable ea : Bytes.t; (* the open block's label column *)
  mutable et : Bytes.t; (* the open block's target column *)
  mutable fill : int; (* edges in the open block *)
  mutable room : int; (* edges the open block holds *)
  mutable sealed_ea : Bytes.t list; (* full blocks, newest first *)
  mutable sealed_et : Bytes.t list;
  mutable elen : int; (* edges in all blocks *)
  mutable rows : int array; (* rows.(i+1) = end offset of state i's edges *)
  mutable expanded : int; (* states with closed rows: 0..expanded-1 *)
  limit : int; (* at most [max_states] *)
}

let new_builder ~limit =
  {
    keys = [||];
    count = 0;
    ea = labels first_block;
    et = targets first_block;
    fill = 0;
    room = first_block;
    sealed_ea = [];
    sealed_et = [];
    elen = 0;
    rows = [| 0 |];
    expanded = 0;
    limit = min limit max_states;
  }

(* Add one more state, counted against the limit (never above
   [max_states], the ids a target column holds), the live counter and the
   budget. *)
let add_state b key =
  let i = b.count in
  if i >= b.limit then raise (Too_large b.limit);
  if Obs.on () || Progress.armed () then live_state_interned ();
  Detcor_robust.Budget.count_state ();
  b.count <- i + 1;
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
  i

(* The keys of the states added so far. *)
let keys b = Array.sub b.keys 0 b.count

let seal b =
  b.sealed_ea <- b.ea :: b.sealed_ea;
  b.sealed_et <- b.et :: b.sealed_et;
  let size = min max_block (2 * b.room) in
  b.ea <- labels size;
  b.et <- targets size;
  b.room <- size;
  b.fill <- 0

let push_edge b aid j =
  if b.fill = b.room then seal b;
  set_label b.ea b.fill aid;
  set_target b.et b.fill j;
  b.fill <- b.fill + 1;
  b.elen <- b.elen + 1

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

(* Mark the end of state [i]'s edge row (states are expanded in id order).
   [expanded] trails it: everything below is a consistent CSR prefix, which
   is exactly what a checkpoint capture may persist. *)
let close_row b i =
  b.rows.(i + 1) <- b.elen;
  b.expanded <- i + 1

(* ------------------------------------------------------------------ *)
(* Checkpoint payloads for the packed BFS.                             *)
(* ------------------------------------------------------------------ *)

(* A capture persists the closed-row CSR prefix plus the packed rank of
   every state interned so far.  Captures fire from [Budget] checkpoints:
   at those points states [0..count) are fully written and edges beyond
   [rows.(expanded)] belong to a half-expanded row, so the prefix below
   is consistent by construction.  Restoring re-interns the
   ranks in id order and resumes expansion at [expanded]; everything
   downstream is deterministic, so the finished system is byte-identical
   to an uninterrupted build. *)
type build_snap = {
  s_ranks : int array; (* rank of state i *)
  s_rows : int array; (* rows.(0 .. expanded) *)
  s_ea : Bytes.t; (* the closed edges' label column *)
  s_et : Bytes.t; (* and their target column *)
  s_expanded : int;
}

let snap_of_builder b =
  let closed = b.rows.(b.expanded) in
  {
    s_ranks = keys b;
    s_rows = Array.sub b.rows 0 (b.expanded + 1);
    s_ea = label_column b closed;
    s_et = target_column b closed;
    s_expanded = b.expanded;
  }

(* The snapshot's closed edges become the first sealed block. *)
let restore_edges b snap =
  let closed = snap.s_rows.(snap.s_expanded) in
  if closed > 0 then begin
    b.sealed_ea <- [ snap.s_ea ];
    b.sealed_et <- [ snap.s_et ]
  end;
  b.elen <- closed;
  Array.blit snap.s_rows 0 b.rows 0 (snap.s_expanded + 1);
  b.expanded <- snap.s_expanded

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

let finish ?(counter = m_builds) ?derivation b ~program ~actions ~initials
    ~store ~compiled =
  let n = b.count in
  if Obs.on () || Progress.armed () then live_flush ();
  count_build counter ~states:n ~edges:b.elen;
  let columns =
    (Array.sub b.rows 0 (n + 1), label_column b b.elen, target_column b b.elen)
  in
  (* The build's heap peaks here, between ticks: the blocks are still
     live next to the columns they were copied into. *)
  Detcor_robust.Budget.check ();
  make_system ?derivation ~program ~actions ~initials ~store ~compiled columns

(* ------------------------------------------------------------------ *)
(* Reference engine: the seed list-based path.                         *)
(* ------------------------------------------------------------------ *)

let build_reference ~limit program ~from =
  let actions = Array.of_list (Program.actions program) in
  let index = State_table.create 1024 in
  let b = new_builder ~limit in
  let intern st =
    match State_table.find_opt index st with
    | Some i -> i
    | None ->
      let i = add_state b st in
      State_table.add index st i;
      i
  in
  let initials = List.map intern (List.sort_uniq State.compare from) in
  (* Expansion in id order is exactly the seed's FIFO breadth-first order:
     every new state receives the next id and is appended. *)
  let cursor = ref 0 in
  Progress.with_phase "engine.bfs"
    (fun () ->
      [ ("states", b.count); ("frontier", b.count - !cursor) ])
    (fun () ->
      while !cursor < b.count do
        Detcor_robust.Budget.tick ();
        let i = !cursor in
        let st = b.keys.(i) in
        Array.iteri
          (fun aid ac ->
            List.iter
              (fun st' -> push_edge b aid (intern st'))
              (Action.execute ac st))
          actions;
        close_row b i;
        incr cursor
      done);
  finish b ~program ~actions ~initials ~store:(Listed (keys b, index))
    ~compiled:(Array.make (Array.length actions) false)

(* ------------------------------------------------------------------ *)
(* The construction pipeline: the successor kernel.                   *)
(* ------------------------------------------------------------------ *)

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

(* A slot-code buffer for [successors]; one per build. *)
let codes_buffer k = Array.make (Layout.num_vars k.k_layout) 0

(* Load [codes] with the slot codes of [rank], when compiled actions read
   them. *)
let decode k rank codes =
  if k.num_compiled > 0 then Layout.decode k.k_layout rank codes

(* [f aid rank'] for each statement outcome [st'] of action [aid];
   top-level, so the kernel allocates no closure per action. *)
let rec emit layout ~rank st aid f = function
  | [] -> ()
  | st' :: rest ->
    f aid (Layout.pack_from layout ~src_rank:rank st st');
    emit layout ~rank st aid f rest

(* The successor kernel: [f aid rank'] for every successor of the state
   [st] of rank [rank], in action order and then statement order — the
   edge order of every engine.  [codes] holds the slot codes of [rank]
   (see [decode]); [st] is only read by interpreted actions and closure
   guards ([k.needs_state]).  No closure or allocation of its own per
   edge. *)
let successors k ~codes ~rank st f =
  Detcor_robust.Budget.tick ();
  for aid = 0 to Array.length k.k_actions - 1 do
    match Array.unsafe_get k.k_compiled aid with
    | Some c -> Compiled.successors c ~codes ~rank st aid f
    | None ->
      emit k.k_layout ~rank st aid f (Action.execute k.k_actions.(aid) st)
  done

(* The source state of [rank] for [successors]: decoded only when some
   action reads it. *)
let source k rank =
  if k.needs_state then Layout.unpack k.k_layout rank else State.empty

(* ------------------------------------------------------------------ *)
(* Flat store: rank-interned BFS.                                      *)
(* ------------------------------------------------------------------ *)

(* Breadth-first exploration from the seed ranks, interning states by
   rank in a [Rank_map], expanding frontiers in id order.  The builder's
   keys are the rank column: no state is built unless an action reads
   its source. *)
let build_packed ~limit k program seeds =
  let layout = k.k_layout in
  let index =
    Rank_map.create ~expect:(Array.length seeds) ~space:(Layout.space layout) ()
  in
  let b = new_builder ~limit in
  let intern rank =
    let i = Rank_map.find index rank in
    if i >= 0 then i
    else begin
      let i = add_state b rank in
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
    let snap : build_snap = Marshal.from_string data 0 in
    (* Re-intern in id order: the snapshot's rank sequence is the
       discovery order, so ids land exactly where they were.  The seeds
       already occupy the prefix. *)
    Array.iteri
      (fun i rank -> if i >= b.count then ignore (intern rank))
      snap.s_ranks;
    restore_edges b snap
  | None -> ());
  let capture () = Marshal.to_string (snap_of_builder b) [] in
  Detcor_robust.Checkpoint.set_capture phase capture;
  let codes = codes_buffer k in
  let on_edge aid r = push_edge b aid (intern r) in
  let level = ref 0 in
  Progress.with_phase "engine.bfs"
    (fun () -> [ ("states", b.count); ("frontier", b.count - b.expanded) ])
    (fun () ->
      while b.expanded < b.count do
        let lo = b.expanded and hi = b.count in
        if Obs.on () then begin
          Metrics.observe h_frontier (hi - lo);
          Obs.event "ts.frontier" ~level:Attr.Debug
            ~attrs:[ Attr.int "depth" !level; Attr.int "width" (hi - lo) ];
          incr level
        end;
        for i = lo to hi - 1 do
          let rank = b.keys.(i) in
          decode k rank codes;
          successors k ~codes ~rank (source k rank) on_edge;
          close_row b i
        done
      done);
  let ranks = keys b in
  let ts =
    finish b ~program ~actions:k.k_actions
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
        s_ranks = ranks;
        s_rows = ts.row_ptr;
        s_ea = ts.edge_action;
        s_et = ts.edge_target;
        s_expanded = b.count;
      }
    in
    Detcor_robust.Checkpoint.complete_with phase (fun () ->
        Marshal.to_string snap [])
  end;
  ts

(* ------------------------------------------------------------------ *)
(* Shard store: level-segmented, disk-spillable arenas.                *)
(* ------------------------------------------------------------------ *)

(* Process-wide parameters of the shard store — threaded here rather
   than through every [?engine] signature in [Tolerance]/[Synthesize];
   [dcheck] sets them once from its flags before dispatching.  A spill
   directory is what selects the store. *)
let spill_params = ref ((None : string option), 512)

let set_spill_defaults ~spill_dir ~arena_budget_mb =
  spill_params := (spill_dir, max 0 arena_budget_mb)

let set_shard_defaults ~shards:_ = set_spill_defaults
let spill_defaults () = !spill_params

(* BFS over the shard store.  The exploration order is identical to the
   flat BFS's — seeds interned in ascending rank order, frontier
   sources expanded in gid order, each successor interned as it is
   found — so the numbering, edge arrays and initials are byte-identical
   where both stores can run.  What changes is residency: state and CSR
   arenas live in per-level segments that spill to checksummed files
   under the configured directory once the resident bytes exceed the
   arena budget.

   Checkpointing: the store itself is the capture.  Snapshots are only
   consistent at level barriers (mid-level, the open CSR accumulators
   are not serializable), so the capture closure returns the snapshot
   taken at the last completed barrier; resume restores the store there
   and replays the lost level deterministically.  Spill files the
   snapshot names are reused, never rewritten. *)
let build_sharded ~limit ~spill_dir kern program ~seeds =
  let layout = kern.k_layout in
  let limit = min limit max_states in
  let budget_mb = snd !spill_params in
  let arena_budget = budget_mb * 1024 * 1024 in
  let fingerprint =
    Detcor_robust.Checkpoint.digest
      [
        "ts.shard";
        Program.name program;
        string_of_int (Layout.space layout);
      ]
  in
  let on_intern () =
    if Obs.on () || Progress.armed () then live_state_interned ()
  in
  let phase = Detcor_robust.Checkpoint.enter ~kind:"ts.shard" in
  let store =
    match Detcor_robust.Checkpoint.resume_data phase with
    | Some (Detcor_robust.Checkpoint.Midway data)
    | Some (Detcor_robust.Checkpoint.Done data) ->
      Shard_store.restore ~on_intern ~layout ~limit ~spill_dir ~arena_budget
        ~fingerprint data
    | None ->
      let store =
        Shard_store.create ~on_intern ~layout ~limit ~spill_dir
          ~arena_budget ~fingerprint ()
      in
      Array.iter (fun r -> ignore (Shard_store.intern store r)) seeds;
      store
  in
  (* Barrier snapshots cost a full manifest walk; only maintain them
     when a checkpoint session wants captures. *)
  let track = Detcor_robust.Checkpoint.active () in
  let latest = ref (if track then Shard_store.snapshot store else "") in
  Detcor_robust.Checkpoint.set_capture phase (fun () -> !latest);
  let frontier_width = ref 0 in
  let level = ref 0 in
  let codes = codes_buffer kern in
  let src = ref 0 in
  let on_edge aid rank =
    let tgt = Shard_store.intern store rank in
    Shard_store.add_edge store ~src:!src ~aid ~tgt
  in
  (try
     Progress.with_phase "engine.bfs"
       (fun () ->
         let spills, _, _ = Shard_store.spill_stats store in
         [
           ("states", Shard_store.num_states store);
           ("frontier", !frontier_width);
           ("spills", spills);
         ])
       (fun () ->
         let continue = ref true in
         while !continue do
           let lo, hi = Shard_store.begin_level store in
           if lo >= hi then continue := false
           else begin
             frontier_width := hi - lo;
             if Obs.on () then begin
               Metrics.observe h_frontier (hi - lo);
               Obs.event "ts.frontier" ~level:Attr.Debug
                 ~attrs:
                   [ Attr.int "depth" !level; Attr.int "width" (hi - lo) ];
               incr level
             end;
             for g = lo to hi - 1 do
               let rank = Shard_store.rank_of store g in
               src := g;
               decode kern rank codes;
               successors kern ~codes ~rank (source kern rank) on_edge
             done;
             Shard_store.end_level store;
             if track then latest := Shard_store.snapshot store
           end
         done)
   with Shard_store.Limit n -> raise (Too_large n));
  Detcor_robust.Checkpoint.complete phase
    (if track then !latest else "");
  if Obs.on () || Progress.armed () then live_flush ();
  count_build m_builds ~states:(Shard_store.num_states store)
    ~edges:(Shard_store.num_edges store);
  make_system ~program ~actions:kern.k_actions
    ~initials:(List.init (Array.length seeds) Fun.id)
    ~store:(Shards (layout, store))
    ~compiled:(Array.map Option.is_some kern.k_compiled)
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

let out_degree ts i =
  match ts.store with
  | Shards (_, store) -> Shard_store.out_degree store i
  | Listed _ | Interned _ -> ts.row_ptr.(i + 1) - ts.row_ptr.(i)

(* A row is a target column: the flat store lends its own, the shard
   store a copy of the row, filled from the segment. *)
type row = Bytes.t

let row_target = target
let empty_row = Bytes.empty

let with_out_row ts i k =
  match ts.store with
  | Shards (_, store) ->
    let row = targets (Shard_store.out_degree store i) and e = ref 0 in
    Shard_store.iter_out store i (fun _ j ->
        set_target row !e j;
        incr e);
    k row 0 !e
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
    | Some spill_dir -> build_sharded ~limit ~spill_dir kern program ~seeds
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
  let rev_action = labels counts.(n) and rev_source = targets counts.(n) in
  let cursor = counts in
  iter_edges ts (fun i aid j ->
      if Array.unsafe_get kept aid then begin
        let k = cursor.(j) in
        set_label rev_action k aid;
        set_target rev_source k i;
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
  if ts.all_compiled then out_degree ts i = 0 else disabled_from ts i 0

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

(* [program] over [span], derived from the span's rows: a breadth-first
   walk of the rows with the edges of the other actions dropped, from the
   kept span states in rank order.  It runs the builder of [build_packed]
   (numbering, limit, budget and live counter alike), so the system is
   [build_within]'s exploration, byte for byte, at the cost of one pass
   over the rows it keeps.  [fresh] maps a span id to its new id, [old]
   back. *)
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
  let b = new_builder ~limit in
  let n = num_states span in
  let fresh = Array.make n (-1) and old = Array.make n 0 in
  let intern j =
    let i = fresh.(j) in
    if i >= 0 then i
    else begin
      let i = add_state b ranks.(j) in
      Rank_map.add index ranks.(j) i;
      fresh.(j) <- i;
      old.(i) <- j;
      i
    end
  in
  Array.iter (fun r -> ignore (intern (index_of_rank span r))) seeds;
  (* A row lists its edges in action order, so [program]'s come first. *)
  while b.expanded < b.count do
    Detcor_robust.Budget.tick ();
    let i = b.expanded in
    let j = old.(i) in
    let k = ref span.row_ptr.(j) and hi = span.row_ptr.(j + 1) in
    while !k < hi && label span.edge_action !k < np do
      push_edge b (label span.edge_action !k)
        (intern (target span.edge_target !k));
      incr k
    done;
    close_row b i
  done;
  let ts =
    finish ~counter:m_derived
      ~derivation:(span.uid, Array.sub old 0 b.count)
      b ~program
      ~actions:(Array.sub span.actions 0 np)
      ~initials:(List.init (Array.length seeds) Fun.id)
      ~store:(Interned (layout, keys b, index))
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

