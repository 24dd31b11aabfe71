(* Explicit-state transition systems.

   A transition system is the semantic graph of a program: nodes are states,
   edges are (action, successor) pairs.  All decision procedures of the
   library (closure, convergence, leads-to, fairness, safety) run on it.

   Every construction — [build] from explicit states, [of_pred] from the
   product states satisfying a predicate, [full] over the whole product,
   [build_within] from the states of another explored system — runs one
   pipeline:

   - one dispatcher ([construct]) picks the store for the requested engine
     and owns the [Auto] fallback;
   - one seed enumerator ([seed_ranks]) yields the seeds as ascending,
     duplicate-free [Layout] ranks (rank order is [State.compare] order);
   - one successor kernel ([successors]) yields (action, successor rank)
     for a source state of known rank, in action order.  Actions built
     from update lists (every guarded-command program) run compiled
     ([Compiled]): guards read slot codes and successor ranks are
     computed arithmetically, with no successor state; closure-built
     actions run the interpreter and [Layout.pack_from];
   - the results land in a flat store (CSR arrays, states interned by rank
     and materialized only when a rank is new; the full product skips
     interning, a state's index being its rank) or
     in the shard store ([Shard_store]: hash-partitioned arenas that spill
     to disk).  Wide frontiers of the flat store fan out over OCaml 5
     domains through one chunk runner whose in-order merge keeps the
     numbering independent of the worker count.

   Predicate and guard sweeps over either store are cached in per-system
   bitsets, so [holds_at] and [enabled] answer in O(1) after one sweep; a
   predicate with an expression is swept compiled, over ranks.

   [build_reference], the seed list-based path (map-keyed interning,
   evaluation on every query), stays as the fallback for programs whose
   actions step outside their declared domains and as the oracle of the
   differential tests.  Every engine numbers seeds in [State.compare] order
   and expands states in id order, so all produce identical state
   numbering, edge arrays and initials. *)

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
   measurable on small hot builds.  The pending cell's races across
   domains are benign: a lost batch only makes the live view lag, and
   [finish] flushes the remainder. *)
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

let count_build ~states ~edges =
  Metrics.incr m_builds;
  Metrics.incr ~by:states m_states;
  Metrics.incr ~by:edges m_edges

let m_pred_hits = Metrics.counter "engine.pred_cache.hits"
let m_pred_misses = Metrics.counter "engine.pred_cache.misses"
let m_enabled_hits = Metrics.counter "engine.enabled_cache.hits"
let m_enabled_misses = Metrics.counter "engine.enabled_cache.misses"
let m_fallbacks = Metrics.counter "engine.fallbacks"
let m_par_expanded = Metrics.counter "engine.parallel.states_expanded"
let h_frontier = Metrics.histogram "engine.frontier_width"
let h_worker_chunk = Metrics.histogram "engine.worker_chunk"

(* Lost-worker degradation: counted unconditionally (a retried chunk is a
   correctness-relevant event, not a tuning signal). *)
let m_worker_retries = Metrics.counter "robust.worker_retries"

module State_table = Hashtbl.Make (struct
  type t = State.t

  let equal = State.equal
  let hash = State.hash
end)

type engine = Auto | Packed | Reference | Sharded

type t = {
  program : Program.t;
  states : State.t array;
  actions : Action.t array;
  (* CSR adjacency: edges of state [i] occupy [row_ptr.(i) .. row_ptr.(i+1))
     of [edge_action]/[edge_target]. *)
  row_ptr : int array;
  edge_action : int array;
  edge_target : int array;
  initials : int list;
  lookup : State.t -> int option;
  layout : Layout.t option; (* Some iff built by the packed engine *)
  (* Rank of each state of a flat BFS store; empty when state [i] has rank
     [i] (the full product) or there is no flat layout store. *)
  ranks : int array;
  (* Rank -> index of a flat BFS store: the interning table. *)
  rank_index : (int, int) Hashtbl.t option;
  compiled : int; (* actions that ran compiled *)
  closure_guards : int; (* compiled actions whose guard is a closure *)
  (* Bitset caches; only consulted when [cached] (packed engine). *)
  cached : bool;
  pred_cache : (int, Bitset.t) Hashtbl.t; (* keyed by Pred.id *)
  enabled_cache : Bitset.t option array; (* per action id *)
  (* The out-of-core store, present iff built by the sharded engine; the
     flat arrays above are then empty and every accessor dispatches. *)
  shard : Shard_store.t option;
  (* Set when [Auto] dispatch fell back to the reference engine: the
     diagnosed reason (domain escape, product overflow).  Surfaced by
     `dcheck info` and the Obs metrics. *)
  mutable fallback_reason : string option;
}

exception Too_large of int

let default_limit = 2_000_000

(* ------------------------------------------------------------------ *)
(* Growable buffers shared by both engines.                            *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable states_buf : State.t array;
  mutable count : int;
  mutable ea : int array; (* edge action ids *)
  mutable et : int array; (* edge targets *)
  mutable elen : int;
  mutable rows : int array; (* rows.(i+1) = end offset of state i's edges *)
  mutable expanded : int; (* states with closed rows: 0..expanded-1 *)
  mutable expect : int; (* final state count when known up front, else 0 *)
  limit : int;
}

let new_builder ~limit =
  {
    states_buf = Array.make 1024 State.empty;
    count = 0;
    ea = Array.make 4096 0;
    et = Array.make 4096 0;
    elen = 0;
    rows = Array.make 1025 0;
    expanded = 0;
    expect = 0;
    limit;
  }

let add_state b st =
  let i = b.count in
  if i >= b.limit then raise (Too_large b.limit);
  if Obs.on () || Progress.armed () then live_state_interned ();
  Detcor_robust.Budget.count_state ();
  let cap = Array.length b.states_buf in
  if i >= cap then begin
    let states' = Array.make (2 * cap) State.empty in
    Array.blit b.states_buf 0 states' 0 cap;
    b.states_buf <- states';
    let rows' = Array.make ((2 * cap) + 1) 0 in
    Array.blit b.rows 0 rows' 0 (cap + 1);
    b.rows <- rows'
  end;
  b.states_buf.(i) <- st;
  b.count <- i + 1;
  i

(* Room for [n] edges.  When the final state count is known ([expect]),
   growth extrapolates the mean out-degree of the closed rows: one or two
   reallocations of about the final size instead of a doubling chain,
   each of which copies every edge so far. *)
let ensure_edges b n =
  let cap = Array.length b.ea in
  if n > cap then begin
    let target =
      if b.expect > 0 && b.expanded > 0 then
        let projected = b.elen * b.expect / b.expanded in
        max (cap + (cap / 4)) (projected + (projected / 16))
      else 2 * cap
    in
    let cap' = max n target in
    let ea' = Array.make cap' 0 and et' = Array.make cap' 0 in
    Array.blit b.ea 0 ea' 0 b.elen;
    Array.blit b.et 0 et' 0 b.elen;
    b.ea <- ea';
    b.et <- et'
  end

let push_edge b aid j =
  if b.elen >= Array.length b.ea then ensure_edges b (b.elen + 1);
  b.ea.(b.elen) <- aid;
  b.et.(b.elen) <- j;
  b.elen <- b.elen + 1

(* Mark the end of state [i]'s edge row (states are expanded in id order).
   [expanded] trails it: everything below is a consistent CSR prefix, which
   is exactly what a checkpoint capture may persist. *)
let close_row b i =
  b.rows.(i + 1) <- b.elen;
  b.expanded <- i + 1

(* ------------------------------------------------------------------ *)
(* Checkpoint payloads for the packed construction loops.               *)
(* ------------------------------------------------------------------ *)

(* A capture persists the closed-row CSR prefix plus (for the BFS, which
   discovers states as it goes) the packed rank of every state interned
   so far.  Captures fire from [Budget] checkpoints on the orchestrating
   domain only: at those points states [0..count) are fully written and
   edges beyond [rows.(expanded)] belong to a half-merged row, so the
   prefix below is consistent by construction.  Restoring re-interns the
   ranks in id order and resumes expansion at [expanded]; everything
   downstream is deterministic, so the finished system is byte-identical
   to an uninterrupted build. *)
type build_snap = {
  s_ranks : int array; (* rank of state i; empty for the full walk *)
  s_rows : int array; (* rows.(0 .. expanded) *)
  s_ea : int array; (* closed edges only *)
  s_et : int array;
  s_expanded : int;
}

let snap_of_builder ?(ranks = [||]) b =
  let closed = b.rows.(b.expanded) in
  {
    s_ranks = ranks;
    s_rows = Array.sub b.rows 0 (b.expanded + 1);
    s_ea = Array.sub b.ea 0 closed;
    s_et = Array.sub b.et 0 closed;
    s_expanded = b.expanded;
  }

let restore_edges b snap =
  let closed = snap.s_rows.(snap.s_expanded) in
  ensure_edges b closed;
  Array.blit snap.s_ea 0 b.ea 0 closed;
  Array.blit snap.s_et 0 b.et 0 closed;
  b.elen <- closed;
  Array.blit snap.s_rows 0 b.rows 0 (snap.s_expanded + 1);
  b.expanded <- snap.s_expanded

let make_system ~program ~actions ~initials ~lookup ~layout ~ranks
    ~rank_index ~compiled ~closure_guards ~cached ~shard
    (states, row_ptr, edge_action, edge_target) =
  {
    program;
    states;
    actions;
    row_ptr;
    edge_action;
    edge_target;
    initials;
    lookup;
    layout;
    ranks;
    rank_index;
    compiled;
    closure_guards;
    cached;
    shard;
    pred_cache = Hashtbl.create 16;
    enabled_cache = Array.make (Array.length actions) None;
    fallback_reason = None;
  }

(* Edges are read through [row_ptr] only, so edge arrays keep a small
   capacity slack rather than being copied to their exact length. *)
let trim a len = if Array.length a - len > len / 8 then Array.sub a 0 len else a

let finish b ~program ~actions ~initials ~lookup ~layout ~ranks ~rank_index
    ~compiled ~closure_guards ~cached =
  let n = b.count in
  if Obs.on () || Progress.armed () then live_flush ();
  count_build ~states:n ~edges:b.elen;
  make_system ~program ~actions ~initials ~lookup ~layout ~ranks ~rank_index
    ~compiled ~closure_guards ~cached ~shard:None
    ( Array.sub b.states_buf 0 n,
      Array.sub b.rows 0 (n + 1),
      trim b.ea b.elen,
      trim b.et b.elen )

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
      [ ("states", b.count); ("frontier", b.count - !cursor); ("workers", 1) ])
    (fun () ->
      while !cursor < b.count do
        Detcor_robust.Budget.tick ();
        let i = !cursor in
        let st = b.states_buf.(i) in
        Array.iteri
          (fun aid ac ->
            List.iter
              (fun st' -> push_edge b aid (intern st'))
              (Action.execute ac st))
          actions;
        close_row b i;
        incr cursor
      done);
  finish b ~program ~actions ~initials
    ~lookup:(fun st -> State_table.find_opt index st)
    ~layout:None ~ranks:[||] ~rank_index:None ~compiled:0 ~closure_guards:0
    ~cached:false

(* ------------------------------------------------------------------ *)
(* The construction pipeline: seeds, successor kernel, chunk runner.   *)
(* ------------------------------------------------------------------ *)

(* What a construction starts from: explicit states ([build]), the
   product states satisfying a predicate ([of_pred]), or the whole
   product ([full]). *)
type seeds = States of State.t list | Satisfying of Pred.t | Everything

(* The seeds as ascending, duplicate-free ranks.  Rank order is
   [State.compare] order (the [Layout] invariant), so seeds are numbered
   exactly as the reference engine numbers them.  Explicit seeds keep
   their states, aligned with the ranks, so the flat store interns the
   caller's states instead of decoding copies.
   @raise Layout.Unrepresentable if an explicit state escapes the layout. *)
let seed_ranks layout = function
  | States from ->
    let ranked =
      List.map (fun st -> (Layout.pack layout st, st)) from
      |> List.sort_uniq (fun (r, _) (r', _) -> Int.compare r r')
    in
    ( Array.of_list (List.map fst ranked),
      Some (Array.of_list (List.map snd ranked)) )
  | Satisfying pred ->
    let buf = ref [] in
    Compiled.iter_satisfying layout pred (fun rank -> buf := rank :: !buf);
    (Array.of_list (List.rev !buf), None)
  | Everything -> (Array.init (Layout.space layout) Fun.id, None)

(* The reference engine's seed list: the same set, unranked. *)
let seed_states program = function
  | States from -> from
  | Satisfying pred -> List.filter (Pred.holds pred) (Program.states program)
  | Everything -> Program.states program

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

(* A slot-code buffer for [successors]; one per domain. *)
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
   edge; pure apart from [f], so it runs on worker domains too. *)
let successors k ~codes ~rank st f =
  Detcor_robust.Budget.tick ();
  for aid = 0 to Array.length k.k_actions - 1 do
    match Array.unsafe_get k.k_compiled aid with
    | Some c -> Compiled.successors c ~codes ~rank st aid f
    | None ->
      emit k.k_layout ~rank st aid f (Action.execute k.k_actions.(aid) st)
  done

(* Run [f w] for w = 0..n-1 on fresh domains; join them in order. *)
let spawn_join n f =
  List.init n (fun w ->
      Stdlib.Domain.spawn (fun () -> try Ok (f w) with e -> Error e))
  |> List.map Stdlib.Domain.join

(* The parallel chunk runner: [expand] the states [lo, hi) on [workers]
   domains, one contiguous chunk each, and [merge] the per-state results
   back on this domain in id order, so the numbering never depends on
   the worker count.

   A worker that dies with anything other than a tripped budget (the
   deliberate cancellation path) is degraded, not fatal: its chunk is
   recomputed here at the point its results would have merged, so
   ordering — and therefore the numbering — is unchanged.  Returns the
   number of lost workers so the caller can shrink the pool. *)
let run_chunks ~workers ~lo ~hi ~expand ~merge =
  let chunk = (hi - lo + workers - 1) / workers in
  let bounds w = (lo + (w * chunk), min hi (lo + ((w + 1) * chunk))) in
  let expand_chunk w =
    let start, stop = bounds w in
    Array.init (max 0 (stop - start)) (fun k -> expand (start + k))
  in
  let results =
    spawn_join workers (fun w ->
        Detcor_robust.Failpoint.hit "engine.worker";
        let per_state = expand_chunk w in
        (* Incremented from the worker domain: the counters must be
           atomic under parallel exploration (tested). *)
        if Obs.on () then
          Metrics.incr ~by:(Array.length per_state) m_par_expanded;
        per_state)
  in
  if Obs.on () then
    for w = 0 to workers - 1 do
      let start, stop = bounds w in
      if stop > start then Metrics.observe h_worker_chunk (stop - start)
    done;
  let cursor = ref lo in
  let consume =
    Array.iter (fun r ->
        Detcor_robust.Budget.tick ();
        merge !cursor r;
        incr cursor)
  in
  let lost = ref 0 in
  List.iteri
    (fun w -> function
      | Ok per_state -> consume per_state
      | Error (Detcor_robust.Error.(Detcor_error (Resource _)) as e) -> raise e
      | Error e ->
        incr lost;
        Metrics.incr m_worker_retries;
        if Obs.on () then
          Obs.event "ts.worker_retry" ~level:Attr.Warn
            ~attrs:[ Attr.str "exn" (Printexc.to_string e) ];
        consume (expand_chunk w))
    results;
  !lost

(* Parallel expansion pays off only on frontiers this wide. *)
let parallel ~workers width = workers > 1 && width >= max 2 (workers * 8)

(* ------------------------------------------------------------------ *)
(* Flat store: rank-interned BFS and the identity-rank full product.   *)
(* ------------------------------------------------------------------ *)

(* Breadth-first exploration from the seed ranks, interning states by
   rank in a hashtable, expanding frontiers in id order.  A state is
   materialized only when its rank is new. *)
let build_packed ~limit ~workers k program (seeds, seed_states) =
  let layout = k.k_layout in
  let index : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let b = new_builder ~limit in
  let ranks = ref (Array.make 1024 0) in
  let intern ?st rank =
    match Hashtbl.find index rank with
    | i -> i
    | exception Not_found ->
      let st =
        match st with Some st -> st | None -> Layout.unpack layout rank
      in
      let i = add_state b st in
      if i >= Array.length !ranks then begin
        let ranks' = Array.make (2 * i) 0 in
        Array.blit !ranks 0 ranks' 0 i;
        ranks := ranks'
      end;
      !ranks.(i) <- rank;
      Hashtbl.add index rank i;
      i
  in
  (match seed_states with
  | Some states ->
    Array.iteri (fun i rank -> ignore (intern ~st:states.(i) rank)) seeds
  | None -> Array.iter (fun rank -> ignore (intern rank)) seeds);
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
  let capture () =
    Marshal.to_string (snap_of_builder b ~ranks:(Array.sub !ranks 0 b.count)) []
  in
  Detcor_robust.Checkpoint.set_capture phase capture;
  let expand i =
    let acc = ref [] and codes = codes_buffer k and rank = !ranks.(i) in
    decode k rank codes;
    successors k ~codes ~rank b.states_buf.(i) (fun aid r ->
        acc := (aid, r) :: !acc);
    List.rev !acc
  in
  let merge i succs =
    List.iter (fun (aid, r) -> push_edge b aid (intern r)) succs;
    close_row b i
  in
  let codes = codes_buffer k in
  let on_edge aid r = push_edge b aid (intern r) in
  (* A lost worker shrinks the pool for the rest of the build. *)
  let eff_workers = ref workers in
  let level = ref 0 in
  Progress.with_phase "engine.bfs"
    (fun () ->
      [
        ("states", b.count);
        ("frontier", b.count - b.expanded);
        ("workers", !eff_workers);
      ])
    (fun () ->
      while b.expanded < b.count do
        let lo = b.expanded and hi = b.count in
        if Obs.on () then begin
          Metrics.observe h_frontier (hi - lo);
          Obs.event "ts.frontier" ~level:Attr.Debug
            ~attrs:[ Attr.int "depth" !level; Attr.int "width" (hi - lo) ];
          incr level
        end;
        if parallel ~workers:!eff_workers (hi - lo) then begin
          let lost = run_chunks ~workers:!eff_workers ~lo ~hi ~expand ~merge in
          eff_workers := max 1 (!eff_workers - lost)
        end
        else
          for i = lo to hi - 1 do
            let rank = !ranks.(i) in
            decode k rank codes;
            successors k ~codes ~rank b.states_buf.(i) on_edge;
            close_row b i
          done
      done);
  (* Without a checkpoint session there is no one to hand the capture to,
     and it copies and marshals every edge. *)
  if Detcor_robust.Checkpoint.active () then
    Detcor_robust.Checkpoint.complete phase (capture ());
  finish b ~program ~actions:k.k_actions
    ~initials:(List.init (Array.length seeds) Fun.id)
    ~lookup:(fun st ->
      match Layout.pack_opt layout st with
      | None -> None
      | Some rank -> Hashtbl.find_opt index rank)
    ~layout:(Some layout)
    ~ranks:(Array.sub !ranks 0 b.count)
    ~rank_index:(Some index) ~compiled:k.num_compiled
    ~closure_guards:k.closure_guards ~cached:true

(* Packed [full]: every product state is present, so a state's index IS
   its rank — no interning table at all.  States are materialized in rank
   order (= State.compare order = the reference numbering) and each
   successor's rank is its index. *)
let full_packed ~limit ~workers k program =
  let layout = k.k_layout in
  let b = new_builder ~limit in
  (* The exact state count is known up front: size the state buffers
     once, and let the edge buffers grow by projection. *)
  let space = Layout.space layout in
  if space > Array.length b.states_buf && space <= limit then begin
    b.states_buf <- Array.make space State.empty;
    b.rows <- Array.make (space + 1) 0;
    b.expect <- space
  end;
  Layout.iter_scratch layout (fun sc ->
      ignore (add_state b (State.scratch_copy sc)));
  let n = b.count in
  let phase = Detcor_robust.Checkpoint.enter ~kind:"ts.full" in
  (match Detcor_robust.Checkpoint.resume_data phase with
  | Some (Detcor_robust.Checkpoint.Midway data)
  | Some (Detcor_robust.Checkpoint.Done data) ->
    (* State i IS rank i here: the materialization above already rebuilt
       every state, so only the edge prefix needs restoring. *)
    restore_edges b (Marshal.from_string data 0 : build_snap)
  | None -> ());
  let capture () = Marshal.to_string (snap_of_builder b) [] in
  Detcor_robust.Checkpoint.set_capture phase capture;
  let base = b.expanded in
  Progress.with_phase "engine.full"
    (fun () -> [ ("expanded", b.expanded); ("states", n) ])
    (fun () ->
      if parallel ~workers (n - base) then
        ignore
          (run_chunks ~workers ~lo:base ~hi:n
             ~expand:(fun i ->
               let acc = ref [] and codes = codes_buffer k in
               decode k i codes;
               successors k ~codes ~rank:i b.states_buf.(i) (fun aid r ->
                   acc := (aid, r) :: !acc);
               List.rev !acc)
             ~merge:(fun i succs ->
               List.iter (fun (aid, r) -> push_edge b aid r) succs;
               close_row b i))
      else begin
        (* Ranks run in order: step the codes instead of decoding. *)
        let codes = codes_buffer k in
        decode k base codes;
        let on_edge aid r = push_edge b aid r in
        for i = base to n - 1 do
          successors k ~codes ~rank:i b.states_buf.(i) on_edge;
          close_row b i;
          Layout.advance layout codes
        done
      end);
  (* Without a checkpoint session there is no one to hand the capture to,
     and it copies and marshals every edge. *)
  if Detcor_robust.Checkpoint.active () then
    Detcor_robust.Checkpoint.complete phase (capture ());
  finish b ~program ~actions:k.k_actions
    ~initials:(List.init n Fun.id)
    ~lookup:(fun st -> Layout.pack_opt layout st)
    ~layout:(Some layout) ~ranks:[||] ~rank_index:None
    ~compiled:k.num_compiled ~closure_guards:k.closure_guards ~cached:true

(* ------------------------------------------------------------------ *)
(* Shard store: hash-partitioned, disk-spillable arenas.               *)
(* ------------------------------------------------------------------ *)

(* Process-wide parameters for the sharded engine — threaded here rather
   than through every [?engine] signature in [Tolerance]/[Synthesize];
   [dcheck] sets them once from its flags before dispatching. *)
let shard_params = ref (4, (None : string option), 512)

let set_shard_defaults ~shards ~spill_dir ~arena_budget_mb =
  shard_params := (max 1 shards, spill_dir, max 0 arena_budget_mb)

let shard_defaults () = !shard_params

(* Frontier window: sources expanded between outbox merges.  Bounds the
   outbox bytes in flight without adding a barrier per source. *)
let shard_window = 32_768

(* BFS over the shard store.  The exploration order is identical to the
   flat BFS's — seeds interned in ascending rank order, frontier
   sources expanded in gid order, successors merged in (source,
   position) order — so the numbering, edge arrays and initials are
   byte-identical where both stores can run.  What changes is
   residency: state and CSR arenas live in per-shard segments that
   spill to checksummed files under the configured directory once the
   resident bytes exceed the arena budget.

   Checkpointing: the store itself is the capture.  Snapshots are only
   consistent at level barriers (mid-level, the open CSR accumulators
   and outboxes are not serializable), so the capture closure returns
   the snapshot taken at the last completed barrier; resume restores
   the store there and replays the lost level deterministically.  Spill
   files written by the interrupted run are content-identical and are
   reused, never rewritten. *)
let build_sharded ~limit ~workers kern program ~seeds =
  let layout = kern.k_layout in
  let shards, spill_dir, budget_mb = !shard_params in
  let k = min shards Shard_store.max_shards in
  let arena_budget = budget_mb * 1024 * 1024 in
  let fingerprint =
    Detcor_robust.Checkpoint.digest
      [
        "ts.shard";
        Program.name program;
        string_of_int (Layout.space layout);
        string_of_int k;
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
        Shard_store.create ~on_intern ~k ~layout ~limit ~spill_dir
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
  (* Expand the sources in [lo, hi) whose producer shard is [part] modulo
     [stride] into the outbox.  Pure appends: each (producer, owner) lane
     is written by exactly one caller. *)
  let expand_sources ob ~lo ~hi ~stride ~part =
    let codes = codes_buffer kern in
    let gid = ref 0 and producer = ref 0 and pos = ref 0 in
    let on_edge aid rank =
      Shard_store.Outbox.put ob ~producer:!producer ~gid:!gid ~pos:!pos ~aid
        ~rank;
      incr pos
    in
    for g = lo to hi - 1 do
      let p = Shard_store.shard_of store g in
      if p mod stride = part then begin
        let rank = Shard_store.rank_of store g in
        gid := g;
        producer := p;
        pos := 0;
        let st =
          if kern.needs_state then Layout.unpack layout rank else State.empty
        in
        decode kern rank codes;
        successors kern ~codes ~rank st on_edge
      end
    done
  in
  (* Parallel windows: one domain per producer-shard group.  Frontier
     segments are resident until sealed, so worker reads never fault a
     reload; lanes stay single-writer because each producer shard is
     expanded by exactly one domain.  Worker failures propagate (a
     half-written lane is not recoverable the way a flat chunk is). *)
  let expand_window ob lo hi =
    if parallel ~workers (hi - lo) then begin
      let w = min workers k in
      spawn_join w (fun part ->
          expand_sources ob ~lo ~hi ~stride:w ~part;
          if Obs.on () then Metrics.incr ~by:(hi - lo) m_par_expanded)
      |> List.iter (function Ok () -> () | Error e -> raise e)
    end
    else expand_sources ob ~lo ~hi ~stride:1 ~part:0
  in
  let ob = Shard_store.Outbox.create store in
  (try
     Progress.with_phase "engine.bfs"
       (fun () ->
         let spills, _, _ = Shard_store.spill_stats store in
         [
           ("states", Shard_store.num_states store);
           ("frontier", !frontier_width);
           ("shards", k);
           ("spills", spills);
           ("workers", max 1 workers);
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
             let w = ref lo in
             while !w < hi do
               let wend = min hi (!w + shard_window) in
               expand_window ob !w wend;
               Shard_store.merge store ob ~lo:!w ~hi:wend;
               w := wend
             done;
             Shard_store.end_level store;
             if track then latest := Shard_store.snapshot store
           end
         done)
   with Shard_store.Limit n -> raise (Too_large n));
  Detcor_robust.Checkpoint.complete phase
    (if track then !latest else "");
  if Obs.on () || Progress.armed () then live_flush ();
  count_build ~states:(Shard_store.num_states store)
    ~edges:(Shard_store.num_edges store);
  make_system ~program ~actions:kern.k_actions
    ~initials:(List.init (Array.length seeds) Fun.id)
    ~lookup:(fun st ->
      match Layout.pack_opt layout st with
      | None -> None
      | Some rank -> Shard_store.find store rank)
    ~layout:(Some layout) ~ranks:[||] ~rank_index:None
    ~compiled:kern.num_compiled ~closure_guards:kern.closure_guards
    ~cached:true ~shard:(Some store)
    ([||], [| 0 |], [||], [||])

(* ------------------------------------------------------------------ *)
(* Accessors.                                                          *)
(* ------------------------------------------------------------------ *)

let program ts = ts.program

let num_states ts =
  match ts.shard with
  | Some store -> Shard_store.num_states store
  | None -> Array.length ts.states

(* Sharded access decodes on the fly: the rank comes from the store (a
   spilled segment reloads transparently), the state from the layout. *)
let state ts i =
  match ts.shard with
  | Some store ->
    Layout.unpack (Option.get ts.layout) (Shard_store.rank_of store i)
  | None -> ts.states.(i)

let states ts =
  match ts.shard with
  | Some store ->
    let layout = Option.get ts.layout in
    let acc = ref [] in
    Shard_store.iter_ranks store (fun _ rank ->
        acc := Layout.unpack layout rank :: !acc);
    List.rev !acc
  | None -> Array.to_list ts.states

let initials ts = ts.initials
let actions ts = ts.actions
let num_actions ts = Array.length ts.actions
let action ts i = ts.actions.(i)
let layout ts = ts.layout

let engine_of ts =
  match (ts.shard, ts.layout) with
  | Some _, _ -> Sharded
  | None, Some _ -> Packed
  | None, None -> Reference

let fallback_reason ts = ts.fallback_reason

let shard_stats ts =
  match ts.shard with
  | None -> None
  | Some store ->
    let spills, bytes, reloads = Shard_store.spill_stats store in
    Some (Shard_store.k store, spills, bytes, reloads)

let num_edges ts =
  match ts.shard with
  | Some store -> Shard_store.num_edges store
  | None -> ts.row_ptr.(Array.length ts.states)

let edges_of ts i =
  match ts.shard with
  | Some store ->
    let acc = ref [] in
    Shard_store.iter_out store i (fun aid j -> acc := (aid, j) :: !acc);
    List.rev !acc
  | None ->
    let lo = ts.row_ptr.(i) and hi = ts.row_ptr.(i + 1) in
    let rec go k acc =
      if k < lo then acc
      else go (k - 1) ((ts.edge_action.(k), ts.edge_target.(k)) :: acc)
    in
    go (hi - 1) []

let iter_out ts i f =
  match ts.shard with
  | Some store -> Shard_store.iter_out store i f
  | None ->
    let hi = ts.row_ptr.(i + 1) in
    for k = ts.row_ptr.(i) to hi - 1 do
      f ts.edge_action.(k) ts.edge_target.(k)
    done

let out_degree ts i =
  match ts.shard with
  | Some store -> Shard_store.out_degree store i
  | None -> ts.row_ptr.(i + 1) - ts.row_ptr.(i)

let fold_out ts i f init =
  let acc = ref init in
  iter_out ts i (fun aid j -> acc := f !acc aid j);
  !acc

let index_of ts st = ts.lookup st

(* Ranks are read from what each store keeps: the sharded store's
   columns, a BFS store's rank array and interning table, and the
   identity of the full product. *)
let no_layout () = invalid_arg "Ts: no layout ranks on a reference system"

let rank_of ts i =
  match (ts.shard, ts.layout) with
  | Some store, _ -> Shard_store.rank_of store i
  | None, None -> no_layout ()
  | None, Some _ -> if Array.length ts.ranks = 0 then i else ts.ranks.(i)

let index_of_rank ts r =
  match (ts.shard, ts.rank_index, ts.layout) with
  | Some store, _, _ -> (
    match Shard_store.find store r with Some i -> i | None -> -1)
  | None, Some index, _ -> (
    match Hashtbl.find_opt index r with Some i -> i | None -> -1)
  | None, None, Some _ -> if r >= 0 && r < num_states ts then r else -1
  | None, None, None -> no_layout ()

(* The index in [dst] of each state of [src], [-1] when [dst] does not
   hold it: by rank when both systems have layouts of one signature (no
   state is built or hashed), otherwise by state. *)
let index_map ~src ~dst =
  match (src.layout, dst.layout) with
  | Some a, Some b when Layout.has_signature b (Layout.signature a) ->
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
  match ts.shard with
  | Some store -> Shard_store.iter_edges store f
  | None ->
    for i = 0 to num_states ts - 1 do
      Detcor_robust.Budget.tick ();
      for k = ts.row_ptr.(i) to ts.row_ptr.(i + 1) - 1 do
        f i ts.edge_action.(k) ts.edge_target.(k)
      done
    done

let fold_edges ts f init =
  let acc = ref init in
  iter_edges ts (fun i aid j -> acc := f !acc i aid j);
  !acc

(* ------------------------------------------------------------------ *)
(* The dispatcher.                                                     *)
(* ------------------------------------------------------------------ *)

let default_engine = Auto

let engine_name = function
  | Auto -> "auto"
  | Packed -> "packed"
  | Reference -> "reference"
  | Sharded -> "sharded"

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

(* Every construction: pick the store for [engine], seed it, and annotate
   the [ts.build] span, on completion, with the size of what was built and
   how many of its actions ran compiled.
   [Auto] runs the flat store and falls back to the reference engine when
   the product overflows the rank range or a state steps outside the
   declared domains; [Packed] and [Sharded] raise instead. *)
let construct op ~limit ~engine ~workers program seeds =
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
  let flat layout =
    let k = kernel layout program in
    match seeds with
    | Everything -> full_packed ~limit ~workers k program
    | _ -> build_packed ~limit ~workers k program (seed_ranks layout seeds)
  in
  let ts =
    match engine with
    | Reference -> reference ()
    | Auto | Packed | Sharded -> (
      match (engine, Layout.of_program program) with
      | Auto, None -> fell_back overflow_reason (reference ())
      | _, None -> raise Layout.Unrepresentable
      | Sharded, Some layout ->
        build_sharded ~limit ~workers (kernel layout program) program
          ~seeds:(fst (seed_ranks layout seeds))
      | Packed, Some layout -> flat layout
      | _, Some layout -> (
        try flat layout
        with Layout.Unrepresentable ->
          fell_back (escape_message ()) (reference ())))
  in
  if Obs.on () then
    Obs.annotate
      [
        Attr.int "states" (num_states ts);
        Attr.int "edges" (num_edges ts);
        Attr.bool "packed" (ts.layout <> None);
        Attr.int "actions" (Array.length ts.actions);
        Attr.int "compiled" ts.compiled;
        Attr.int "closure_guards" ts.closure_guards;
      ];
  ts

let build ?(limit = default_limit) ?(engine = default_engine) ?(workers = 1)
    program ~from =
  construct "build" ~limit ~engine ~workers program (States from)

let full ?(limit = default_limit) ?(engine = default_engine) ?(workers = 1)
    program =
  if Program.space_size program > limit then raise (Too_large limit);
  construct "full" ~limit ~engine ~workers program Everything

let of_pred ?(limit = default_limit) ?(engine = default_engine) ?(workers = 1)
    program ~from =
  construct "of_pred" ~limit ~engine ~workers program (Satisfying from)

(* ------------------------------------------------------------------ *)
(* Reverse adjacency.                                                  *)
(* ------------------------------------------------------------------ *)

(* Reverse CSR over a class of actions: the in-edges of each state whose
   action id passes [keep], in two prefix-summed arrays.  Built in two
   O(edges) sweeps; backward fixpoints (the synthesizer's [ms]) iterate
   predecessors without per-state lists or re-deriving successors. *)
type reverse = {
  rev_ptr : int array; (* in-edges of state j occupy [rev_ptr.(j) .. rev_ptr.(j+1)) *)
  rev_action : int array;
  rev_source : int array;
}

let reverse ?(keep = fun _ -> true) ts =
  let n = num_states ts in
  let counts = Array.make (n + 1) 0 in
  let total = ref 0 in
  iter_edges ts (fun _ aid j ->
      if keep aid then begin
        counts.(j + 1) <- counts.(j + 1) + 1;
        incr total
      end);
  for j = 1 to n do
    counts.(j) <- counts.(j) + counts.(j - 1)
  done;
  let rev_ptr = Array.copy counts in
  let rev_action = Array.make !total 0 in
  let rev_source = Array.make !total 0 in
  let cursor = Array.copy counts in
  iter_edges ts (fun i aid j ->
      if keep aid then begin
        let k = cursor.(j) in
        rev_action.(k) <- aid;
        rev_source.(k) <- i;
        cursor.(j) <- k + 1
      end);
  { rev_ptr; rev_action; rev_source }

let iter_in rev j f =
  let hi = rev.rev_ptr.(j + 1) in
  for k = rev.rev_ptr.(j) to hi - 1 do
    f rev.rev_action.(k) rev.rev_source.(k)
  done

(* ------------------------------------------------------------------ *)
(* Cached predicate and guard queries.                                 *)
(* ------------------------------------------------------------------ *)

(* [f i rank] for every state [i] of a layout-built system, in id order. *)
let iter_ranks ts f =
  match ts.shard with
  | Some store -> Shard_store.iter_ranks store f
  | None when Array.length ts.ranks = 0 ->
    for i = 0 to num_states ts - 1 do
      f i i
    done
  | None -> Array.iteri f ts.ranks

(* One sweep of [pred] over every state, in id order.  A predicate that
   compiles runs on each state's rank, decoded into slot codes unless
   only its rank form reads them; otherwise, on a shard store, ranks
   decode into a scratch buffer.  Neither allocates per visit, and spilled
   segments stream through. *)
let sweep ts pred =
  let bits = Bitset.create (num_states ts) in
  let compiled =
    Option.bind ts.layout (fun layout ->
        Option.map (fun holds -> (layout, holds)) (Compiled.pred layout pred))
  in
  (match (compiled, ts.shard) with
  | Some (_, Compiled.Ranks test), _ ->
    iter_ranks ts (fun i rank -> if test rank then Bitset.set bits i)
  | Some (layout, t), None when Array.length ts.ranks = 0 ->
    (* The full product: state i has rank i, so the codes step. *)
    let codes = Array.make (Layout.num_vars layout) 0 in
    for i = 0 to num_states ts - 1 do
      if Compiled.holds t ~codes ~rank:i then Bitset.set bits i;
      Layout.advance layout codes
    done
  | Some (layout, t), _ ->
    let codes = Array.make (Layout.num_vars layout) 0 in
    iter_ranks ts (fun i rank ->
        Layout.decode layout rank codes;
        if Compiled.holds t ~codes ~rank then Bitset.set bits i)
  | None, Some store ->
    let layout = Option.get ts.layout in
    let sc = Layout.scratch layout in
    Shard_store.iter_ranks store (fun gid rank ->
        Layout.unpack_into layout sc rank;
        if Pred.holds pred (State.scratch_view sc) then Bitset.set bits gid)
  | None, None ->
    Array.iteri
      (fun i st -> if Pred.holds pred st then Bitset.set bits i)
      ts.states);
  bits

(* [pred_bitset ts pred]: the bitset of states satisfying [pred].  On a
   packed or sharded system the sweep runs once per predicate instance and
   is cached; on a reference system a fresh bitset is computed on every
   call (the reference engine preserves the seed path's evaluate-on-query
   behavior for [holds_at]). *)
let pred_bitset ts pred =
  if not ts.cached then sweep ts pred
  else
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

let holds_at ts pred i =
  if ts.cached then Bitset.get (pred_bitset ts pred) i
  else Pred.holds pred ts.states.(i)

(* [enabled_bitset ts aid]: the [pred_bitset] of action [aid]'s guard,
   cached per action id. *)
let enabled_bitset ts aid =
  if not ts.cached then sweep ts (Action.guard ts.actions.(aid))
  else
    match ts.enabled_cache.(aid) with
    | Some bits ->
      if Obs.on () then Metrics.incr m_enabled_hits;
      bits
    | None ->
      if Obs.on () then Metrics.incr m_enabled_misses;
      let bits = sweep ts (Action.guard ts.actions.(aid)) in
      ts.enabled_cache.(aid) <- Some bits;
      bits

(* [enabled ts i aid]: is action [aid] enabled at state [i]?  Computed from
   the guard, not from edges: an enabled action always yields at least one
   successor in this framework, but checking the guard is cheaper than
   scanning edges and also correct for actions with empty statements. *)
let enabled ts i aid =
  if ts.cached then Bitset.get (enabled_bitset ts aid) i
  else Action.enabled ts.actions.(aid) ts.states.(i)

let deadlocked ts i =
  let n = Array.length ts.actions in
  let rec go aid =
    if aid >= n then true else (not (enabled ts i aid)) && go (aid + 1)
  in
  go 0

let satisfying ts pred =
  if ts.cached then begin
    let bits = pred_bitset ts pred in
    let result = ref [] in
    for i = num_states ts - 1 downto 0 do
      if Bitset.get bits i then result := i :: !result
    done;
    !result
  end
  else begin
    let result = ref [] in
    Array.iteri
      (fun i st -> if Pred.holds pred st then result := i :: !result)
      ts.states;
    List.rev !result
  end

(* ------------------------------------------------------------------ *)
(* A program over an explored system.                                  *)
(* ------------------------------------------------------------------ *)

(* [build_within p ~span]: [p] explored from the states of [span] — those
   satisfying [where], when given, read through [span]'s cached bitset.
   The seeds are [span]'s own states, so the flat store interns them
   instead of decoding copies; seeds are numbered by rank either way, so
   the numbering is [build p ~from:] of the same set. *)
let build_within ?limit ?engine ?workers ?where program ~span =
  let from =
    match where with
    | None -> states span
    | Some pred -> List.map (state span) (satisfying span pred)
  in
  build ?limit ?engine ?workers program ~from

let pp_stats ppf ts =
  Fmt.pf ppf "%d states, %d transitions, %d actions" (num_states ts)
    (num_edges ts) (num_actions ts)

