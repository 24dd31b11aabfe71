(* Automated addition of fault-tolerance components.

   The paper's companion method (its reference [4], later mechanized by
   Kulkarni & Arora as "automating the addition of fault-tolerance")
   transforms a fault-intolerant program into a tolerant one by adding
   detectors and correctors.  On finite-state programs the transformation
   is computable, and this module implements it:

   - [add_failsafe] strengthens each action's guard with (a subset of) its
     weakest detection predicate: the program may execute an action only
     from states where doing so maintains safety and cannot be pushed by
     faults alone into violating it.  The added components are exactly the
     detectors of Section 3.

   - [add_nonmasking] adds a corrector: recovery actions that converge
     from the fault span back to the invariant (Section 4), synthesized by
     backward layering so convergence is by construction cycle-free.

   - [add_masking] composes both: fail-safe restriction first, then
     recovery that itself avoids unsafe transitions (Section 5's thesis
     that masking = detectors + correctors).

   The [ms]/[mt] fixpoints follow the Kulkarni-Arora formulation: [ms] is
   the set of states from which fault actions alone can violate safety;
   [mt] the transitions a safe program must never take.

   Layering alone is not a complete procedure: the ranked recovery action
   converges level by level, but (a) the fail-safe restriction can
   deadlock the whole original invariant (the kill cascade reaches the
   empty set even though a different, specification-equivalent invariant
   exists), (b) a target state the program cannot leave stalls the
   composed program inside the target region, and (c) a recovery step the
   program can immediately undo seeds a fair cycle — the corrector races
   the program under interleaving fairness.  Three repairs close those
   gaps: an invariant-weakening search over the ms-complement (the
   ideal-stabilization view: recovery must re-establish a legitimacy
   predicate, not the original invariant verbatim), a deadlock-target
   repair pass plus an anti-undo veto inside the layering, and a bounded
   counterexample-guided loop that feeds fair-cycle and deadlock
   witnesses from the verification report back into the layering as edge
   bans and forced moves.  Final verification remains the soundness gate
   for all three.

   The fail-safe front end explores the fault span Reach(S, p [] F) of
   the invariant states, where the result lives, and widens only for the
   invariant-weakening search, to what the non-bad states reach (see
   [failsafe_core]).

   Each phase has one implementation, over the {!Ts} API by state index,
   whichever engine built the explored system: [ms] is a bitset-seeded
   backward fixpoint over the reverse fault-edge CSR, detection guards are
   per-action bitsets consulted by state index (false at unexplored
   product states; the semantic closure remains only for states outside
   the product), invariant recomputation is a counter-based deadlock
   pruning worklist over the explored system's own edges, and recovery
   layering ranks states in [int] arrays with an [int]-array frontier,
   recomputing candidate steps into one reused buffer.  Every worklist,
   frontier and buffer is allocated once per call, none per state.
   [?engine] only chooses the {!Ts} builder, so the
   reference builder stays a differential oracle for the whole pipeline:
   synthesis over reference-, packed- and sharded-built systems yields
   identical programs, invariants and reports. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec
open Detcor_core
open Detcor_obs

type failure =
  | Empty_invariant
  | Unrecoverable_state of State.t
  | Verification_failed of Tolerance.report
  | Exhausted of Detcor_robust.Error.resource

type 'a outcome = ('a, failure) result

let pp_failure ppf = function
  | Empty_invariant ->
    Fmt.string ppf "no invariant state survives the fail-safe restriction"
  | Unrecoverable_state st ->
    Fmt.pf ppf "no safe recovery path from %a" State.pp st
  | Verification_failed r ->
    Fmt.pf ppf "synthesized program failed verification:@,%a"
      Tolerance.pp_report r
  | Exhausted r ->
    Fmt.pf ppf "synthesis undecided: %a" Detcor_robust.Error.pp_resource r

type result = {
  program : Program.t;
  invariant : Pred.t;
  report : Tolerance.report; (* verification of the synthesized program *)
  added_detectors : (string * Pred.t) list;
      (* per restricted action: the added detection guard *)
  recovery_states : int; (* states given a recovery transition *)
  repair_iterations : int;
      (* counterexample-guided relayering rounds before verification *)
}

(* A budget trip inside a synthesis fixpoint surfaces as an [Exhausted]
   outcome rather than an escaping exception, mirroring the per-obligation
   [Unknown] of {!Tolerance}: the caller always gets a value stating
   whether synthesis succeeded, failed, or was left undecided. *)
let surface_exhaustion f =
  try f () with
  | Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Resource r) ->
    Error (Exhausted r)
  | Ts.Too_large n ->
    Error
      (Exhausted
         {
           Detcor_robust.Error.kind = Detcor_robust.Error.States;
           spent = n;
           budget = n;
         })

(* ------------------------------------------------------------------ *)
(* Bad states and bad transitions by state index                      *)
(* ------------------------------------------------------------------ *)

(* The bad states of [sspec] among the states of [ts].  A decomposed
   specification is the union of its bad-state predicates' cached
   [Ts.pred_bitset]s (compiled sweeps on a layout system); an opaque one
   is one [Ts.pred_bitset] sweep of its closure, which builds no state on
   a layout system. *)
let bad_states ts sspec =
  match Safety.decompose sspec with
  | Some { bad_states; _ } ->
    let bad = Bitset.create (Ts.num_states ts) in
    List.iter
      (fun p -> Bitset.union_into ~into:bad (Ts.pred_bitset ts p))
      bad_states;
    bad
  | None -> Ts.pred_bitset ts (Pred.make "bad" (Safety.bad_state sspec))

(* [bad_transition ts sspec i j]: the step from state [i] to state [j] of
   [ts] is bad.  A decomposed pair [(l, r)] is [l(i) ∧ ¬r(j)], two bitset
   probes; an opaque specification runs its closure on the two states. *)
let bad_transition ts sspec =
  match Safety.decompose sspec with
  | Some { bad_pairs; _ } ->
    let pairs =
      List.map
        (fun (l, r) -> (Ts.pred_bitset ts l, Ts.pred_bitset ts r))
        bad_pairs
    in
    let rec bad i j = function
      | [] -> false
      | (l, r) :: rest ->
        (Bitset.get l i && not (Bitset.get r j)) || bad i j rest
    in
    fun i j -> bad i j pairs
  | None ->
    fun i j -> Safety.bad_transition sspec (Ts.state ts i) (Ts.state ts j)

(* ------------------------------------------------------------------ *)
(* ms / mt                                                             *)
(* ------------------------------------------------------------------ *)

(* A source column of 32-bit state ids, read and written unboxed and
   unchecked: every offset is a CSR offset below the column's length. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* [ms]: the states from which the fault actions alone can reach a safety
   violation — the backward fixpoint over fault edges seeded with the bad
   states and the sources of bad fault transitions ([bad_tr]).  Membership
   lives in a bitset, and predecessors come from a reverse fault-edge CSR
   (pointers, and sources in a 32-bit column the GC never scans) built in
   two edge sweeps.  The first, which counts in-edges, also seeds the
   sources of bad fault transitions, so the (possibly expensive)
   bad-transition predicate runs on fault edges from sources not yet
   marked alone, and no third sweep is needed; when no state is marked,
   the second, which fills the CSR, is skipped.  The worklist is one
   [int] array: a state enters it once, when it is marked. *)
let compute_ms ts_pf ~is_fault ~bad ~bad_tr =
  Obs.span "synth.compute_ms" @@ fun () ->
  let n = Ts.num_states ts_pf in
  let phase = Detcor_robust.Checkpoint.enter ~kind:"synth.ms" in
  match Detcor_robust.Checkpoint.resume_data phase with
  | Some (Detcor_robust.Checkpoint.Done data) ->
    (* The fixpoint finished in the snapshotted run: its result is the
       whole answer, no reverse CSR needed. *)
    Bitset.of_string n data
  | resumed ->
    (* Mid-fixpoint state: membership bits plus the open frontier.
       Seeding is subsumed — every seed is marked or processed. *)
    let midway =
      match resumed with
      | Some (Detcor_robust.Checkpoint.Midway data) ->
        Some (Marshal.from_string data 0 : string * int array)
      | _ -> None
    in
    let ms =
      match midway with
      | Some (bits, _) -> Bitset.of_string n bits
      | None -> Bitset.create n
    in
    let work = Array.make n 0 in
    let head = ref 0 and tail = ref 0 in
    let add i =
      if not (Bitset.get ms i) then begin
        Bitset.set ms i;
        work.(!tail) <- i;
        incr tail
      end
    in
    (* [ptr.(j + 1)] counts [j]'s fault in-edges; after the prefix sums
       [ptr.(j)] is where they start, and the fill advances it to where
       they end, so one shift restores the starts.  The counting sweep
       also seeds the sources of bad fault transitions. *)
    let ptr = Array.make (n + 1) 0 in
    let seed = midway = None in
    Ts.iter_edges ts_pf (fun i aid j ->
        if is_fault.(aid) then begin
          ptr.(j + 1) <- ptr.(j + 1) + 1;
          if seed && (not (Bitset.get ms i)) && bad_tr i j then add i
        end);
    (match midway with
    | Some (_, frontier) ->
      Array.iter
        (fun i ->
          work.(!tail) <- i;
          incr tail)
        frontier
    | None ->
      for i = 0 to n - 1 do
        if Bitset.get bad i then add i
      done);
    (* With nothing marked left to propagate, [ms] is what is marked: no
       predecessor is ever read, so the reverse CSR is not filled. *)
    if !tail > 0 then begin
      for j = 1 to n do
        ptr.(j) <- ptr.(j) + ptr.(j - 1)
      done;
      let source = Bytes.create (4 * ptr.(n)) in
      Ts.iter_edges ts_pf (fun i aid j ->
          if is_fault.(aid) then begin
            let k = ptr.(j) in
            set32 source (4 * k) (Int32.of_int i);
            ptr.(j) <- k + 1
          end);
      for j = n downto 1 do
        ptr.(j) <- ptr.(j - 1)
      done;
      ptr.(0) <- 0;
      (* The loop's only budget checkpoint is at its top, where the
         marked set and the open worklist are a closed pair — exactly
         what a capture may persist. *)
      Detcor_robust.Checkpoint.set_capture phase (fun () ->
          Marshal.to_string
            (Bitset.to_string ms, Array.sub work !head (!tail - !head))
            []);
      Progress.with_phase "synth.ms"
        (fun () -> [ ("iterations", !head); ("queue", !tail - !head) ])
        (fun () ->
          while !head < !tail do
            Detcor_robust.Budget.tick ();
            let j = work.(!head) in
            incr head;
            for k = ptr.(j) to ptr.(j + 1) - 1 do
              add (Int32.to_int (get32 source (4 * k)))
            done
          done)
    end;
    Detcor_robust.Checkpoint.complete_with phase (fun () ->
        Bitset.to_string ms);
    ms

(* [ms] membership of a state, by its index in the explored system [ts]
   over which [ms] was computed; a state outside [ts] was never analysed
   and counts as outside [ms]. *)
let ms_at ts ms st =
  match Ts.index_of ts st with Some i -> Bitset.get ms i | None -> false

(* [mt]: a transition a safe program must never take — already a bad
   transition, or into a bad state, or into [ms]. *)
let make_mt ts_pf ~ms ~sspec s s' =
  Safety.bad_transition sspec s s'
  || Safety.bad_state sspec s'
  || ms_at ts_pf ms s'

(* ------------------------------------------------------------------ *)
(* Fail-safe                                                           *)
(* ------------------------------------------------------------------ *)

(* The detection guard added to action [ac]: executing [ac] here neither
   violates safety nor lands in [ms].  This is the weakest detection
   predicate of [ac] for the [mt]-extended safety specification.

   One edge sweep marks, per program action, the states from which some
   [ac]-step is an mt transition; each guard is then a single bitset
   probe.  The explored system is the fault span R = Reach(S, p [] F) (or
   Reach(¬bad, p [] F) once the front end widens), and every later build,
   check or recovery layering starts inside it and stays there, so the
   probe answers every query synthesis itself makes.  At an [unexplored]
   state — a product state outside R, when R lies inside the product —
   the guard is [false]: the detector never analysed it.  Any other state
   outside R (outside the declared domains, or over another variable set
   when R itself does not fit the product, as with auxiliary fault
   variables) keeps the semantic formula, with [ms] known on R only.

   On a layout-built R each guard also has a rank form (see
   [Pred.of_ranks]): the probe reached through [Ts.index_of_rank], false
   at a rank R does not hold, which is what the closure answers at every
   in-layout state.  Builds over a layout of R's signature then run the
   guard without building or hashing a state. *)
let detection_guards ts_pf ~sspec ~bad ~bad_tr ~ms ~unexplored p =
  let n = Ts.num_states ts_pf in
  let acts = Program.actions p in
  let pos_of = Array.make (Ts.num_actions ts_pf) (-1) in
  List.iteri
    (fun k ac ->
      match Ts.action_id ts_pf (Action.name ac) with
      | Some aid -> pos_of.(aid) <- k
      | None -> ())
    acts;
  let bad_step = Array.init (List.length acts) (fun _ -> Bitset.create n) in
  Ts.iter_edges ts_pf (fun i aid j ->
      let k = pos_of.(aid) in
      if k >= 0
         && (Bitset.get bad j || Bitset.get ms j || bad_tr i j)
      then Bitset.set bad_step.(k) i);
  let oks =
    Array.map
      (fun bad_step ->
        Bitset.of_fn n (fun i ->
            (not (Bitset.get bad i))
            && (not (Bitset.get ms i))
            && not (Bitset.get bad_step i)))
      bad_step
  in
  let guards =
    List.mapi
      (fun k ac ->
        let ok = oks.(k) in
        let name = Fmt.str "wdp(%s)" (Action.name ac) in
        let eval st =
          match Ts.index_of ts_pf st with
          | Some i -> Bitset.get ok i
          | None ->
            (not (unexplored st))
            && (not (Safety.bad_state sspec st))
            && List.for_all
                 (fun st' -> not (make_mt ts_pf ~ms ~sspec st st'))
                 (Action.execute ac st)
        in
        let guard =
          match Ts.layout ts_pf with
          | None -> Pred.make name eval
          | Some layout ->
            Pred.of_ranks name (Layout.signature layout)
              (fun r ->
                let i = Ts.index_of_rank ts_pf r in
                i >= 0 && Bitset.get ok i)
              eval
        in
        (ac, guard))
      acts
  in
  (pos_of, oks, guards)

let restrict_with guards p =
  let restricted =
    List.map (fun (ac, g) -> (Action.name ac, g, Action.restrict g ac)) guards
  in
  let program =
    Program.make
      ~name:(Fmt.str "failsafe(%s)" (Program.name p))
      ~vars:(Program.var_decls p)
      ~actions:(List.map (fun (_, _, ac) -> ac) restricted)
  in
  let added = List.map (fun (name, g, _) -> (name, g)) restricted in
  (program, added)

(* The fail-safe analysis of one explored [p [] F] system: [ms] and the
   detection guards, by state index.  [pos_of.(aid)] is the position of
   action [aid] among [p]'s actions ([-1] for a fault action), and
   [ok.(k)] the detection guard of [p]'s [k]th action as a bitset. *)
type front = {
  ts : Ts.t;
  ms : Bitset.t;
  pos_of : int array;
  ok : Bitset.t array;
  guards : (Action.t * Pred.t) list;
}

(* [fault_actions ts faults]: per action id of [ts], whether it is one of
   [faults]' actions. *)
let fault_actions ts faults =
  let is_fault = Array.make (Ts.num_actions ts) false in
  List.iter
    (fun aid -> is_fault.(aid) <- true)
    (Ts.action_ids_of_names ts (Fault.action_names faults));
  is_fault

let analyse ts ~sspec ~faults ~unexplored p =
  let bad = bad_states ts sspec in
  let bad_tr = bad_transition ts sspec in
  let ms = compute_ms ts ~is_fault:(fault_actions ts faults) ~bad ~bad_tr in
  let pos_of, ok, guards =
    detection_guards ts ~sspec ~bad ~bad_tr ~ms ~unexplored p
  in
  { ts; ms; pos_of; ok; guards }

(* [closure_disabled ts ~program]: the test that no closure-built action
   [aid] with [program.(aid)] is enabled at a state of [ts].  A state is a
   deadlock of the program when its out-row holds no program edge and
   this test holds: an action labelling an edge there is enabled, and a
   compiled action is enabled only where it labels an edge (see
   [Ts.enabled_bitset]), but a closure-built one can be enabled with no
   edge.  So only closure-built actions' enabled sets are read, each swept
   once, on first need: the actions that did not run compiled when [ts]
   was built ({!Ts.ran_compiled}), every action on a reference-built
   one. *)
let closure_disabled ts ~program =
  let closure_built =
    List.filter
      (fun aid -> program.(aid) && not (Ts.ran_compiled ts aid))
      (List.init (Ts.num_actions ts) Fun.id)
  in
  fun i -> List.for_all (fun aid -> not (Ts.enabled ts i aid)) closure_built

(* Recompute the invariant: start from a candidate set, then iteratively
   drop states that the restriction newly deadlocked (states that could
   move in [p] but cannot in the restricted program within the shrinking
   set).  The candidates are [front] indices [cand.(0 .. m - 1)]: the
   original invariant states outside [ms] for plain recomputation, or the
   whole ms-complement for the weakening search.  Returns which of them
   stay.

   The greatest fixpoint runs as a deadlock-pruning worklist over the
   front's own rows: a restricted successor of candidate [i] is the target
   of an edge of [i] labelled with [p]'s [k]th action where guard [k]
   holds at [i] (the restricted action's guard is that detection guard and
   [p]'s).  Each live candidate counts its restricted successors inside
   the candidate set, and dies when the count reaches zero.  A successor
   outside the candidate set never counts, in particular one that escapes
   the declared domains.  A reverse CSR over the counted edges makes each
   pruning step O(in-degree) instead of a whole-set rescan; it is filled
   by a second walk of the candidates' rows, so nothing is allocated per
   state. *)
let recompute_invariant front cand m =
  let ts = front.ts in
  let local = Array.make (Ts.num_states ts) (-1) in
  for k = 0 to m - 1 do
    local.(cand.(k)) <- k
  done;
  let closure_disabled =
    closure_disabled ts ~program:(Array.map (fun pos -> pos >= 0) front.pos_of)
  in
  let always_keep = Array.make m false in
  let cnt = Array.make m 0 in
  (* Pointers of the reverse CSR, counted then shifted as in [compute_ms]. *)
  let ptr = Array.make (m + 1) 0 in
  let preds = ref [||] in
  let filling = ref false in
  let src = ref 0 in
  let labelled = ref false in
  let on_edge aid j =
    let pos = front.pos_of.(aid) in
    if pos >= 0 then begin
      labelled := true;
      let l = local.(j) in
      if l >= 0 && Bitset.get front.ok.(pos) cand.(!src) then
        if !filling then begin
          !preds.(ptr.(l)) <- !src;
          ptr.(l) <- ptr.(l) + 1
        end
        else begin
          cnt.(!src) <- cnt.(!src) + 1;
          ptr.(l + 1) <- ptr.(l + 1) + 1
        end
    end
  in
  for k = 0 to m - 1 do
    Detcor_robust.Budget.tick ();
    src := k;
    labelled := false;
    Ts.iter_out ts cand.(k) on_edge;
    if (not !labelled) && closure_disabled cand.(k) then
      always_keep.(k) <- true
  done;
  for l = 1 to m do
    ptr.(l) <- ptr.(l) + ptr.(l - 1)
  done;
  preds := Array.make ptr.(m) 0;
  filling := true;
  for k = 0 to m - 1 do
    src := k;
    Ts.iter_out ts cand.(k) on_edge
  done;
  for l = m downto 1 do
    ptr.(l) <- ptr.(l - 1)
  done;
  ptr.(0) <- 0;
  let preds = !preds in
  let alive = Array.make m true in
  let queue = Array.make m 0 in
  let head = ref 0 and killed = ref 0 in
  let kill k =
    if alive.(k) then begin
      alive.(k) <- false;
      queue.(!killed) <- k;
      incr killed
    end
  in
  for k = 0 to m - 1 do
    if (not always_keep.(k)) && cnt.(k) = 0 then kill k
  done;
  (* The kill cascade is where closure under computation is enforced:
     heartbeats report how much of the candidate invariant has been
     discarded so far. *)
  Progress.with_phase "synth.prune"
    (fun () -> [ ("killed", !killed); ("states", m) ])
    (fun () ->
      while !head < !killed do
        Detcor_robust.Budget.tick ();
        let j = queue.(!head) in
        incr head;
        for e = ptr.(j) to ptr.(j + 1) - 1 do
          let k = preds.(e) in
          if alive.(k) && not always_keep.(k) then begin
            cnt.(k) <- cnt.(k) - 1;
            if cnt.(k) = 0 then kill k
          end
        done
      done);
  alive

(* The recomputed invariant from candidates given as ascending ranks of
   [p]'s [layout], fed by [iter]: the candidates are those with an index
   in [front] and outside [ms], pruned by [recompute_invariant].  A rank
   finds its index by [Ts.index_of_rank] when [front]'s layout has
   [layout]'s signature; otherwise (a reference-built front, or faults
   with auxiliary variables) through its state.  A candidate [front] does
   not hold was never analysed, so it is none.  Returns the survivors'
   states and ranks, ascending, and a state is built for survivors
   only. *)
let recompute front layout iter =
  let ts = front.ts in
  let index =
    match Ts.layout ts with
    | Some l when Layout.has_signature l (Layout.signature layout) ->
      Ts.index_of_rank ts
    | _ -> (
      fun r ->
        match Ts.index_of ts (Layout.unpack layout r) with
        | Some i -> i
        | None -> -1)
  in
  (* Distinct ranks have distinct indices: at most one candidate per
     state of [front]. *)
  let n = Ts.num_states ts in
  let cand = Array.make n 0 and ranks = Array.make n 0 in
  let m = ref 0 in
  iter (fun r ->
      let i = index r in
      if i >= 0 && not (Bitset.get front.ms i) then begin
        cand.(!m) <- i;
        ranks.(!m) <- r;
        incr m
      end);
  let alive = recompute_invariant front cand !m in
  let states = ref [] and kept = ref [] in
  for k = !m - 1 downto 0 do
    if alive.(k) then begin
      states := Layout.unpack layout ranks.(k) :: !states;
      kept := ranks.(k) :: !kept
    end
  done;
  (!states, Array.of_list !kept)

(* The recomputed invariant as a predicate: membership of its state set,
   with a rank form over [layout]'s signature (a lookup in a rank table),
   so a sweep over a layout of that signature neither unpacks nor hashes
   a state.  The state-set closure, built on first use, stays the
   semantics everywhere else. *)
let invariant_pred layout ~name states ranks =
  let table =
    Rank_map.create ~expect:(Array.length ranks) ~space:(Layout.space layout)
      ()
  in
  Array.iteri (fun k r -> Rank_map.add table r k) ranks;
  let members = lazy (Pred.fn (Pred.of_states ~name states)) in
  Pred.of_ranks name (Layout.signature layout)
    (fun r -> Rank_map.find table r >= 0)
    (fun st -> Lazy.force members st)

(* Widenings of the fail-safe front end from the fault span to what the
   non-bad states reach (see [failsafe_core]). *)
let m_widenings = Metrics.counter "synth.widenings"

(* The fail-safe front end shared by [add_failsafe] and [add_masking]:
   ms, the restricted program, and the recomputed invariant, named [name]
   or, when the invariant had to be weakened, [name ^ "_weakened"].
   Returns the analysis the masking path's recovery restriction probes
   too.

   The analysis runs on the fault span R = Reach(S, p [] F) of the
   invariant states S, not on the whole product.  It is exact there:
   every fault successor of an R state is in R, so [ms ∩ R] is a closed
   backward fixpoint, and p-successors of R states stay in R, so the
   detection guards are exact at every state that recomputation, the
   recovery span and final verification can reach — they all start
   inside S.  The recomputed invariant is S itself minus [ms], pruned;
   the product is swept once, by [Tolerance.init_states].

   When the recomputation kill-cascades to the empty set, the
   invariant-weakening search reseeds the same greatest fixpoint from the
   whole ms-complement (every non-bad state outside [ms]) instead of from
   the original invariant: the largest set the restricted program stays
   live in while still excluding [ms].  The weakened invariant is not in
   general a subset of the original one — the ideal-stabilization view,
   where recovery re-establishes a specification-equivalent legitimacy
   predicate rather than the original invariant verbatim; the final
   verification of the synthesized program remains the soundness gate.
   Only this search reads beyond R, so only then does the front end widen
   — unless R already holds every in-domain product state (counted by
   layout rank: a reference-built R may also hold states that escape the
   declared domains).  It widens to W = Reach(¬bad, p [] F), not to the
   whole product, and is exact there for the same reason: W is closed
   under p and F, so [ms] and every guard bit agree with the product's on
   W; every in-domain state outside W is bad, so its guard is false
   either way; and the candidates, the recomputed invariant, the
   recovery span and the final check all start inside W.

   [p]'s layout compiles whenever S could be enumerated: it only fails
   when the product space overflows the rank range. *)
let failsafe_core ?limit ~engine ~sspec ~name p ~invariant ~faults =
  let layout =
    match Layout.of_program p with
    | Some layout -> layout
    | None ->
      Detcor_robust.Error.internal "Synthesize: no layout for %s"
        (Program.name p)
  in
  let composed = Fault.compose p faults in
  let product = Layout.of_program composed in
  let in_domain st =
    match product with
    | Some l -> Layout.pack_opt l st <> None
    | None -> false
  in
  let init = Tolerance.init_states ~engine p ~invariant in
  let reach = Ts.build ?limit ~engine composed ~from:init in
  (* R's states that have a rank in the product layout: all of them on a
     layout-built R, and on a reference-built one those not escaping. *)
  let ranked =
    match Ts.layout reach with
    | Some _ -> Ts.num_states reach
    | None -> List.length (List.filter in_domain (Ts.states reach))
  in
  (* A product state outside R was never analysed; the guard says so
     there only when R lies inside the product (see [detection_guards]). *)
  let unexplored =
    if ranked = Ts.num_states reach then in_domain else fun _ -> false
  in
  let front = analyse reach ~sspec ~faults ~unexplored p in
  let restricted, added = restrict_with front.guards p in
  let invariant states ranks weakened =
    invariant_pred layout states ranks
      ~name:(if weakened then name ^ "_weakened" else name)
  in
  match
    recompute front layout (fun f ->
        List.iter (fun st -> f (Layout.pack layout st)) init)
  with
  | (_ :: _ as inv_states), ranks ->
    (restricted, added, inv_states, invariant inv_states ranks false, front)
  | [], _ ->
    (* With an expression for every bad-state predicate the seed
       enumeration prunes; an opaque specification keeps its closure. *)
    let not_bad =
      match Safety.decompose sspec with
      | Some { bad_states; _ }
        when List.for_all (fun p -> Pred.expr p <> None) bad_states ->
        Pred.not_ (Pred.disj bad_states)
      | _ -> Pred.make "not-bad" (fun st -> not (Safety.bad_state sspec st))
    in
    let covered =
      match product with Some l -> ranked = Layout.space l | None -> false
    in
    let front, restricted, added =
      if covered then (front, restricted, added)
      else begin
        Metrics.incr m_widenings;
        if Obs.on () then
          Obs.event "synth.widen"
            ~attrs:
              [
                Attr.int "reach" (Ts.num_states reach);
                Attr.int "space" (Program.space_size composed);
              ];
        let front =
          analyse
            (Ts.of_pred ?limit ~engine composed ~from:not_bad)
            ~sspec ~faults ~unexplored:(fun _ -> false) p
        in
        let restricted, added = restrict_with front.guards p in
        (front, restricted, added)
      end
    in
    let inv_states, ranks =
      recompute front layout (Compiled.iter_satisfying layout not_bad)
    in
    (restricted, added, inv_states, invariant inv_states ranks true, front)

let add_failsafe ?limit ?(engine = Ts.Auto) ?workers:_ p ~spec ~invariant
    ~faults =
  Obs.span "synth.add_failsafe" ~attrs:[ Attr.str "program" (Program.name p) ]
  @@ fun () ->
  surface_exhaustion @@ fun () ->
  let sspec = Spec.safety (Spec.smallest_safety_containing spec) in
  let restricted, added, inv_states, invariant', _ =
    failsafe_core ?limit ~engine ~sspec ~name:"S_failsafe" p ~invariant
      ~faults
  in
  if inv_states = [] then Error Empty_invariant
  else begin
    let report =
      Tolerance.check_with ?limit ~engine restricted ~spec
        ~invariant:invariant' ~init:inv_states ~faults ~tol:Spec.Failsafe
    in
    if Tolerance.verdict report then
      Ok
        {
          program = restricted;
          invariant = invariant';
          report;
          added_detectors = added;
          recovery_states = 0;
          repair_iterations = 0;
        }
    else Error (Verification_failed report)
  end

(* ------------------------------------------------------------------ *)
(* Recovery synthesis (the corrector).                                 *)
(* ------------------------------------------------------------------ *)

module State_tbl = Hashtbl.Make (struct
  type t = State.t

  let equal = State.equal
  let hash = State.hash
end)

(* The corrector's own detection predicate: the span states from which the
   program alone, under weak fairness, is NOT guaranteed to reach [target]
   — some maximal fair program-only computation stays in ¬target forever
   (ending in a deadlock or cycling through a fair SCC).  Ranked recovery
   is gated to exactly these states: where the program already converges,
   an added recovery action is not a corrector but a competitor — it races
   the program's own convergence under interleaving fairness and seeds
   fair cycles the repair loop then has to ban one by one.  The
   distributed-reset protocol is the extreme case: it is its own corrector
   (every span state self-converges), so the synthesized recovery is
   empty.

   This is {!Fairness.trapped} on p over the span with region ¬target: a
   fixpoint-defined set, hence extensionally identical whichever engine
   built [ts_p].  It is returned as a bitset over the span's indices. *)
let needs_recovery ?limit ~engine p ~target ts_span =
  Obs.span "synth.needs_recovery" @@ fun () ->
  let ts_p = Ts.build_within ?limit ~engine p ~span:ts_span in
  let reached = Ts.pred_bitset ts_p target in
  let trapped =
    Fairness.trapped ts_p ~region:(fun i -> not (Bitset.get reached i))
  in
  let needs = Bitset.create (Ts.num_states ts_span) in
  let to_span = Ts.index_map ~src:ts_p ~dst:ts_span in
  Array.iteri
    (fun j doomed ->
      if doomed then
        let i = to_span j in
        if i >= 0 then Bitset.set needs i)
    trapped;
  needs

(* Rank-0 seed for the layering, by span index: the target itself plus
   every self-convergent state. *)
let gated_rank0 ts_span ~target needs =
  let n = Ts.num_states ts_span in
  if not (Bitset.any needs) then Bitset.of_fn n (fun _ -> true)
  else begin
    let target_bits = Ts.pred_bitset ts_span target in
    Bitset.of_fn n (fun i ->
        Bitset.get target_bits i || not (Bitset.get needs i))
  end

(* Candidate recovery steps change at most [step_vars] variables — local
   corrections rather than global resets.  Backward layering from the
   target assigns each state a rank; the synthesized recovery action moves
   to a strictly smaller rank, so convergence is cycle-free by
   construction.  The order is the tie-breaking order of the layering
   (first qualifying candidate wins), so it must be deterministic; the
   two-variable composition is deduplicated because a second step over the
   same variable re-emits one-variable states (or the origin itself), and
   different step orders reach the same state twice.  The steps come as a
   sequence, so a scan that stops at its first qualifying step builds no
   state past it; each traversal deduplicates afresh. *)
let neighbor_seq ~step_vars p st =
  let decls = List.to_seq (Program.var_decls p) in
  let single_from base =
    Seq.flat_map
      (fun (x, d) ->
        Seq.filter_map
          (fun value ->
            if Value.equal (State.get base x) value then None
            else Some (State.set base x value))
          (List.to_seq (Domain.values d)))
      decls
  in
  if step_vars <= 1 then single_from st
  else fun () ->
    let seen = State_tbl.create 64 in
    State_tbl.replace seen st ();
    let fresh st' =
      (not (State_tbl.mem seen st'))
      && begin
           State_tbl.replace seen st' ();
           true
         end
    in
    Seq.filter fresh
      (Seq.append (single_from st) (Seq.flat_map single_from (single_from st)))
      ()

let neighbors ~step_vars p st = List.of_seq (neighbor_seq ~step_vars p st)

(* [neighbors] by rank arithmetic on a layout-built span.  Each of [p]'s
   declared variables, in declaration order, is an axis: its stride and
   domain size in the layout and the layout codes of its declared values,
   in domain order.  Changing axis [x] from code [c] to [c'] moves rank
   [r] to [r + (c' - c) · stride], so no neighbor state is built.  The
   two-variable composition emits, for each one-variable step on axis
   [x], the steps on the axes declared after [x]: exactly the states the
   state-based deduplication keeps first (a second step on [x] re-emits
   a one-variable state or the origin, and a step on an earlier axis
   re-emits a state that axis already produced), in the same order. *)
type axis = { stride : int; size : int; codes : int array }

(* [p]'s axes in [layout], or [None] when a declared variable has no slot
   or a declared value no code there. *)
let axes layout p =
  let axis (x, d) =
    match Layout.slot layout x with
    | None -> None
    | Some k ->
      let codes = List.map (Layout.code layout k) (Domain.values d) in
      if List.mem (-1) codes then None
      else
        Some
          {
            stride = Layout.stride layout k;
            size = List.length (Layout.domain_values layout k);
            codes = Array.of_list codes;
          }
  in
  let rec all acc = function
    | [] -> Some (Array.of_list (List.rev acc))
    | decl :: rest -> (
      match axis decl with Some a -> all (a :: acc) rest | None -> None)
  in
  all [] (Program.var_decls p)

(* Raised by [emit] when [stop] accepts a step. *)
exception Stop

(* [emit ts buf k stop r']: when [ts] holds the state of rank [r'], write
   its index to [buf.(k)] and raise [Stop] if [stop] accepts it; the new
   length. *)
let emit ts buf k stop r' =
  let j = Ts.index_of_rank ts r' in
  if j < 0 then k
  else begin
    buf.(k) <- j;
    if stop j then raise_notrace Stop;
    k + 1
  end

(* Write the span indices of the in-span neighbors of the state of rank
   [r] into [buf], in [neighbors] order, until [stop] accepts one.
   Returns how many were written, or [lnot k] when [stop] accepted
   [buf.(k)].  Plain loops over the axes, so nothing is allocated. *)
let rank_neighbors axes ~step_vars ts r buf stop =
  let n = Array.length axes in
  let k = ref 0 in
  try
    for x = 0 to n - 1 do
      let a = axes.(x) in
      let c = r / a.stride mod a.size in
      for t = 0 to Array.length a.codes - 1 do
        let c' = a.codes.(t) in
        if c' <> c then k := emit ts buf !k stop (r + ((c' - c) * a.stride))
      done
    done;
    if step_vars > 1 then
      for x = 0 to n - 1 do
        let a = axes.(x) in
        let c = r / a.stride mod a.size in
        for t = 0 to Array.length a.codes - 1 do
          let c' = a.codes.(t) in
          if c' <> c then begin
            let r1 = r + ((c' - c) * a.stride) in
            for y = x + 1 to n - 1 do
              let b = axes.(y) in
              let cb = r / b.stride mod b.size in
              for u = 0 to Array.length b.codes - 1 do
                let c'' = b.codes.(u) in
                if c'' <> cb then
                  k := emit ts buf !k stop (r1 + ((c'' - cb) * b.stride))
              done
            done
          end
        done
      done;
    !k
  with Stop -> lnot !k

type steps = {
  capacity : int;
  fill : int -> int array -> int;
  first : int -> int array -> (int -> bool) -> int;
  outside : (int -> bool) option;
}

(* The most candidate steps a state of [p] can have: one per declared
   value of each variable, plus one per pair of values of two distinct
   variables when [step_vars] exceeds 1. *)
let capacity ~step_vars p =
  let sizes = List.map (fun (_, d) -> Domain.size d) (Program.var_decls p) in
  let single = List.fold_left ( + ) 0 sizes in
  let rec pairs acc = function
    | [] -> acc
    | s :: rest -> pairs (acc + (s * List.fold_left ( + ) 0 rest)) rest
  in
  if step_vars <= 1 then single else single + pairs 0 sizes

(* [candidate_steps ~step_vars p ts]: [fill i buf] writes the indices of
   state [i]'s [neighbors] that [ts] holds into [buf], in order, and
   returns how many ([buf] needs [capacity] slots); [first i buf ok] is
   the first of them that [ok] accepts ([-1]: none), enumerating no step
   past it; [outside] tests a state index for a value outside [p]'s
   declared domains, [None] when every declared domain covers its layout
   slot (then no state of [ts] does).  Rank arithmetic on a layout-built
   system; the state-based [neighbors] and domain test only for a system
   without layout ranks (the reference engine). *)
let candidate_steps ~step_vars p ts =
  let capacity = capacity ~step_vars p in
  let axes = Option.bind (Ts.layout ts) (fun layout -> axes layout p) in
  let scan =
    match axes with
    | Some axes ->
      fun i buf stop ->
        rank_neighbors axes ~step_vars ts (Ts.rank_of ts i) buf stop
    | None ->
      fun i buf stop ->
        let rec go k steps =
          match steps () with
          | Seq.Nil -> k
          | Seq.Cons (st, rest) -> (
            match Ts.index_of ts st with
            | None -> go k rest
            | Some j ->
              buf.(k) <- j;
              if stop j then lnot k else go (k + 1) rest)
        in
        go 0 (neighbor_seq ~step_vars p (Ts.state ts i))
  in
  let outside =
    match axes with
    | Some axes ->
      if Array.for_all (fun a -> Array.length a.codes = a.size) axes then None
      else
        Some
          (fun i ->
            let r = Ts.rank_of ts i in
            Array.exists
              (fun a -> not (Array.mem (r / a.stride mod a.size) a.codes))
              axes)
    | None ->
      let decls = Program.var_decls p in
      Some
        (fun i ->
          let st = Ts.state ts i in
          List.exists (fun (x, d) -> not (Domain.mem (State.get st x) d)) decls)
  in
  {
    capacity;
    fill = (fun i buf -> scan i buf (fun _ -> false));
    first =
      (fun i buf ok ->
        let k = scan i buf ok in
        if k < 0 then buf.(lnot k) else -1);
    outside;
  }

type recovery = {
  moves : int; (* states given a recovery transition *)
  action : Action.t;
  move_to : int -> int;
      (* the chosen recovery step from a span state, by index ([-1]: none)
         — the repair loop reads it to turn cycle witnesses into edge
         bans *)
}

(* The corrector: "move one layer closer", [move.(i)] being the chosen
   step from span state [i] ([-1]: none).  The closures over states are
   its semantics; on a layout-built span the guard also has a rank form
   and the statement a rank -> rank move table, so builds over a layout
   of the span's signature run it compiled. *)
let recovery_action ts_span move =
  let at st =
    match Ts.index_of ts_span st with Some i -> move.(i) | None -> -1
  in
  let holds st = at st >= 0 in
  let step st =
    let j = at st in
    if j >= 0 then Ts.state ts_span j else st
  in
  match Ts.layout ts_span with
  | None ->
    Action.deterministic "recovery" (Pred.make "needs-recovery" holds) step
  | Some layout ->
    let sg = Layout.signature layout in
    let at_rank r =
      let i = Ts.index_of_rank ts_span r in
      if i >= 0 then move.(i) else -1
    in
    let guard =
      Pred.of_ranks "needs-recovery" sg (fun r -> at_rank r >= 0) holds
    in
    Action.of_moves "recovery" guard sg
      (fun r ->
        let j = at_rank r in
        if j >= 0 then Ts.rank_of ts_span j else r)
      step

(* [synthesize_recovery ~allowed ~target p ts_span]: rank the span states
   by backward BFS from the target set over allowed candidate steps, then
   build the recovery action "move one layer closer".  Returns the least
   state (by [State.compare]) that cannot reach the target, if any, and
   whether the anti-undo veto rejected any otherwise-qualifying
   candidate.

   [banned] is the repair loop's hard edge veto.  [use_undo] additionally
   vetoes any step [s -> t] the program can immediately undo (the program
   has the span transition [t -> s]): such a step is the seed of a fair
   cycle in which the corrector races the program forever.  After
   ranking, the deadlock-target repair pass gives every target state the
   program cannot leave (and every state in [forced], fed back from
   deadlock witnesses) a move to another target state — preferring
   targets the program can leave; a move between two stalled targets is a
   last resort kept acyclic by the repair loop's bans.  Those moves start
   inside the target region, i.e. in fault-free behavior, so they must
   satisfy [repair_allowed] (defaults to [allowed]) even where ranked
   recovery is unrestricted.

   Ranks and chosen moves live in [int] arrays indexed by span state, and
   so do [banned], [forced] and [rank0].  A state's candidate steps are
   recomputed into one reused buffer whenever they are needed (by rank
   arithmetic on a layout-built span, see [candidate_steps]), not cached,
   and the frontier, a level's candidates and their chosen moves are
   preallocated [int] arrays: nothing is allocated per state.  Each
   level scans only the frontier — the unranked neighbors of the states
   ranked at the previous level — instead of rescanning the whole span.
   The candidate relation is symmetric on in-domain span states (a one-
   or two-variable change backwards is one forwards), so a state's scan
   outcome can only change when one of its neighbors acquires a rank,
   which is exactly when the frontier re-queues it; the ranks and chosen
   moves therefore coincide with those of a full rescan per level.
   Ranks are only written once a level's scans are done, and the loop
   stops once every state is ranked (then no state can be a candidate:
   with every state self-convergent, the target's rank-0 seed is the
   whole span). *)
let synthesize_recovery ?(step_vars = 1) ?(banned = fun _ _ -> false)
    ?(use_undo = false) ?(forced = fun _ -> false) ?repair_allowed ~rank0
    ~is_fault ~closure_disabled ~allowed ~target p ts_span =
  Obs.span "synth.recovery"
    ~attrs:[ Attr.int "states" (Ts.num_states ts_span) ]
  @@ fun () ->
  let n = Ts.num_states ts_span in
  let unranked = max_int in
  let rank = Array.make n unranked in
  let move = Array.make n (-1) in
  let undo_fired = ref false in
  (* [undone i j]: the program has the span transition [j -> i].  The
     span is closed under the composed program, so its non-fault edges
     are exactly the program's successor pairs: scan [j]'s out-edges. *)
  let undo_to = ref 0 and undo_seen = ref false in
  let on_undo_edge aid k =
    if k = !undo_to && not is_fault.(aid) then undo_seen := true
  in
  let undone i j =
    use_undo
    && begin
         undo_to := i;
         undo_seen := false;
         Ts.iter_out ts_span j on_undo_edge;
         !undo_seen
       end
  in
  let steps = candidate_steps ~step_vars p ts_span in
  let buf = Array.make steps.capacity 0 in
  (* [first_step i qualifies]: the first of [i]'s candidate steps [j] that
     [qualifies i j], is not banned and is not undone ([-1]: none); a
     vetoed undo is recorded.  The test reads its source and condition
     from two cells, so it is allocated once. *)
  let source = ref 0 and condition = ref (fun _ _ -> false) in
  let accepts j =
    let i = !source in
    !condition i j
    && (not (banned i j))
    &&
    if undone i j then begin
      undo_fired := true;
      false
    end
    else true
  in
  let first_step i qualifies =
    source := i;
    condition := qualifies;
    steps.first i buf accepts
  in
  (* Symmetry fails at span states holding a value outside [p]'s declared
     domains: they see in-domain neighbors that cannot see them back, so
     no frontier would queue them.  Every level rescans them instead, as
     a full rescan would.  A layout-built span whose slots the declared
     domains cover has none. *)
  let one_way =
    match steps.outside with
    | None -> [||]
    | Some outside ->
      let acc = ref [] in
      for i = n - 1 downto 0 do
        if outside i then acc := i :: !acc
      done;
      Array.of_list !acc
  in
  let phase = Detcor_robust.Checkpoint.enter ~kind:"synth.recovery" in
  (* The frontier: the states ranked at the previous level. *)
  let front = Array.make n 0 and front_len = ref 0 in
  let level = ref 0 in
  (* Both payloads carry [undo_fired]: the attempt ladder reads it to
     decide whether the relaxed attempt runs, so a resumed layering must
     report the veto it had fired. *)
  (match Detcor_robust.Checkpoint.resume_data phase with
  | Some (Detcor_robust.Checkpoint.Done data) ->
    let r, m, fired =
      (Marshal.from_string data 0 : int array * int array * bool)
    in
    Array.blit r 0 rank 0 n;
    Array.blit m 0 move 0 n;
    undo_fired := fired
  | Some (Detcor_robust.Checkpoint.Midway data) ->
    (* Ranks through level [ld] plus the frontier of states ranked [ld]:
       the layering loop continues from the next level. *)
    let r, m, f, ld, fired =
      (Marshal.from_string data 0
        : int array * int array * int array * int * bool)
    in
    Array.blit r 0 rank 0 n;
    Array.blit m 0 move 0 n;
    Array.blit f 0 front 0 (Array.length f);
    front_len := Array.length f;
    level := ld;
    undo_fired := fired
  | None ->
    for i = 0 to n - 1 do
      if Bitset.get rank0 i then begin
        rank.(i) <- 0;
        front.(!front_len) <- i;
        incr front_len
      end
    done);
  (* Captures fire from the level's ticks, which run with [level]
     pre-incremented for a level whose rank writes have not yet happened
     and with [front] still holding the previous level's states — so
     ranks-through-[level - 1] and that frontier are a consistent pair.
     The veto flag only ever turns on, and the replayed level turns it on
     again wherever the interrupted one did. *)
  Detcor_robust.Checkpoint.set_capture phase (fun () ->
      Marshal.to_string
        (rank, move, Array.sub front 0 !front_len, !level - 1, !undo_fired)
        []);
  (* A level's candidates in queueing order, and the move each chose. *)
  let cands = Array.make n 0 and chosen = Array.make n 0 in
  let num_cands = ref 0 in
  let queued = Array.make n (-1) in
  let enqueue i =
    if rank.(i) = unranked && queued.(i) <> !level then begin
      queued.(i) <- !level;
      cands.(!num_cands) <- i;
      incr num_cands
    end
  in
  let descends i j = rank.(j) < !level && allowed i j in
  let ranked = ref 0 in
  Array.iter (fun r -> if r <> unranked then incr ranked) rank;
  (Progress.with_phase "synth.recovery"
     (fun () -> [ ("ranked", !ranked); ("levels", !level) ])
   @@ fun () ->
   while !front_len > 0 && !ranked < n do
     incr level;
     num_cands := 0;
     for f = 0 to !front_len - 1 do
       Detcor_robust.Budget.tick ();
       let len = steps.fill front.(f) buf in
       for t = 0 to len - 1 do
         enqueue buf.(t)
       done
     done;
     Array.iter enqueue one_way;
     for c = 0 to !num_cands - 1 do
       Detcor_robust.Budget.tick ();
       chosen.(c) <- first_step cands.(c) descends
     done;
     front_len := 0;
     for c = 0 to !num_cands - 1 do
       if chosen.(c) >= 0 then begin
         let i = cands.(c) in
         rank.(i) <- !level;
         move.(i) <- chosen.(c);
         incr ranked;
         front.(!front_len) <- i;
         incr front_len
       end
     done
   done);
  (* The completed payload is the pure ranking, marshalled only by a save
     that persists it; the repair pass below writes [move] again, so a
     session keeps a copy.  The repair reruns deterministically on
     resume. *)
  let ranked_moves =
    if Detcor_robust.Checkpoint.active () then Array.copy move else move
  in
  let fired = !undo_fired in
  Detcor_robust.Checkpoint.complete_with phase (fun () ->
      Marshal.to_string (rank, ranked_moves, fired) []);
  (* Deadlock-target repair (see the function comment).  Both passes make
     per-state decisions that depend only on the precomputed [stalled]
     set, so the iteration order is immaterial. *)
  let repair_allowed =
    match repair_allowed with Some f -> f | None -> allowed
  in
  (* [p] is deadlocked at span state [i] when none of the span's
     non-fault actions (exactly [p]'s) is enabled there: its row holds no
     program edge and no closure-built program action is enabled (see
     [closure_disabled], built once per span by the caller). *)
  let program_edge = ref false in
  let on_edge aid _ = if not is_fault.(aid) then program_edge := true in
  let deadlocked i =
    program_edge := false;
    Ts.iter_out ts_span i on_edge;
    (not !program_edge) && closure_disabled i
  in
  let stalled = Array.make n false in
  for i = 0 to n - 1 do
    if rank.(i) = 0 && move.(i) < 0 then begin
      Detcor_robust.Budget.tick ();
      if forced i || deadlocked i then stalled.(i) <- true
    end
  done;
  let target_bits = Ts.pred_bitset ts_span target in
  let repair_pass ~relax =
    (* Destinations must satisfy the real target (not merely rank 0): a
       repaired move starts inside the target region, and a step to a
       self-convergent state outside it would break the invariant's
       closure. *)
    let qualifies i j =
      Bitset.get target_bits j
      && (relax || not stalled.(j))
      && repair_allowed i j
    in
    for i = 0 to n - 1 do
      if stalled.(i) && move.(i) < 0 then begin
        let j = first_step i qualifies in
        if j >= 0 then move.(i) <- j
      end
    done
  in
  repair_pass ~relax:false;
  repair_pass ~relax:true;
  (* The least unranked state: by rank on a layout-built span, whose rank
     order is [State.compare] order (see [Layout]), so one state is
     built; by [State.compare] on a reference-built span, which holds its
     states. *)
  let before =
    match Ts.layout ts_span with
    | Some _ -> fun i j -> Ts.rank_of ts_span i < Ts.rank_of ts_span j
    | None ->
      fun i j -> State.compare (Ts.state ts_span i) (Ts.state ts_span j) < 0
  in
  let least = ref (-1) in
  for i = 0 to n - 1 do
    if rank.(i) = unranked && (!least < 0 || before i !least) then least := i
  done;
  let unrecoverable =
    if !least < 0 then None else Some (Ts.state ts_span !least)
  in
  let moves =
    Array.fold_left (fun acc m -> if m >= 0 then acc + 1 else acc) 0 move
  in
  ( { moves; action = recovery_action ts_span move; move_to = Array.get move },
    unrecoverable,
    !undo_fired )

(* ------------------------------------------------------------------ *)
(* Counterexample-guided repair                                        *)
(* ------------------------------------------------------------------ *)

(* Bound on the relayering rounds driven by verification witnesses.
   Every round adds at least one new edge ban or forced move, so the
   loop terminates on its own on any finite span; the cap bounds
   pathological instances, and every round still runs under the ambient
   {!Detcor_robust.Budget}. *)
let max_repair_rounds = 16

(* One synthesis attempt: layer with the anti-undo veto first; if that
   leaves unrecoverable states and the veto actually rejected a
   candidate, relax it (convergence through an undoable step beats no
   convergence — the repair loop can still ban the step if it does race);
   if the span is still not fully ranked with one-variable moves,
   escalate to two-variable moves.  [synth] is the engine-specific
   layering closure; the ladder is engine-independent, so both engines
   walk the same attempt sequence. *)
let attempt_ladder ~step_vars ~synth =
  let attempts =
    [ (true, step_vars); (false, step_vars) ]
    @ (if step_vars <= 1 then [ (true, 2); (false, 2) ] else [])
  in
  let rec go last = function
    | [] -> (
      match last with Some st -> Error st | None -> assert false)
    | (use_undo, sv) :: rest -> (
      let recovery, unrecoverable, undo_fired =
        synth ~use_undo ~step_vars:sv
      in
      match unrecoverable with
      | None -> Ok recovery
      | Some _ ->
        (* Dropping the veto can only change the outcome if the veto
           rejected something. *)
        let rest =
          if use_undo && not undo_fired then
            List.filter (fun (u, v) -> u || v <> sv) rest
          else rest
        in
        go unrecoverable rest)
  in
  go None attempts

(* Turn a failed verification into a layering repair.  A fair-cycle
   witness (the corrector races the program) bans the recovery edges
   inside the cycle, so the next layering routes around it; a deadlock
   witness at a state without a recovery move forces the repair pass to
   give it one.  Returns false when the report holds no witness the
   layering can act on — the failure is then terminal.

   Bans and forces are keyed by span index ([index] maps a witness state
   to it).  The synthesized program is verified from the span's own
   initial states and its recovery moves stay inside the span, so every
   witness state lies in the span. *)
let apply_witness (report : Tolerance.report) ~index ~move_to ~bans ~forces =
  let progress = ref false in
  List.iter
    (fun (it : Tolerance.item) ->
      if not !progress then
        match it.Tolerance.outcome with
        | Check.Fails (Check.Fair_cycle states) ->
          let cycle = List.filter_map index states in
          let in_cycle = Hashtbl.create 16 in
          List.iter (fun i -> Hashtbl.replace in_cycle i ()) cycle;
          List.iter
            (fun i ->
              let j = move_to i in
              if
                j >= 0
                && Hashtbl.mem in_cycle j
                && not (Hashtbl.mem bans (i, j))
              then begin
                Hashtbl.replace bans (i, j) ();
                progress := true
              end)
            cycle
        | Check.Fails (Check.Deadlock st) -> (
          match index st with
          | Some i when move_to i < 0 && not (Hashtbl.mem forces i) ->
            Hashtbl.replace forces i ();
            progress := true
          | _ -> ())
        | _ -> ())
    report.Tolerance.items;
  !progress

(* The repair loop shared by nonmasking and masking addition: layer,
   verify, and while the verdict is negative feed the witness back into
   the layering as bans and forced moves. *)
let repair_loop ~step_vars ~synth ~build ~verify ~index ~bans ~forces =
  let rec go round =
    Detcor_robust.Budget.tick ();
    match attempt_ladder ~step_vars ~synth with
    | Error st -> Error (Unrecoverable_state st)
    | Ok recovery -> (
      let program = build recovery in
      let report = verify program in
      if Tolerance.verdict report then Ok (recovery, program, report, round)
      else if
        round >= max_repair_rounds
        || not
             (apply_witness report ~index ~move_to:recovery.move_to ~bans
                ~forces)
      then Error (Verification_failed report)
      else begin
        if Obs.on () then
          Obs.event "synth.repair_round"
            ~attrs:
              [
                Attr.int "round" (round + 1);
                Attr.int "bans" (Hashtbl.length bans);
                Attr.int "forces" (Hashtbl.length forces);
              ];
        go (round + 1)
      end)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Nonmasking                                                          *)
(* ------------------------------------------------------------------ *)

let add_nonmasking ?limit ?(engine = Ts.Auto) ?workers:_ ?(step_vars = 1)
    p ~spec ~invariant ~faults =
  Obs.span "synth.add_nonmasking"
    ~attrs:[ Attr.str "program" (Program.name p) ]
  @@ fun () ->
  surface_exhaustion @@ fun () ->
  let init = Tolerance.init_states ~engine p ~invariant in
  if init = [] then Error Empty_invariant
  else begin
    let sspec = Spec.safety (Spec.smallest_safety_containing spec) in
    let ts_span =
      Ts.build ?limit ~engine (Fault.compose p faults) ~from:init
    in
    let bans = Hashtbl.create 8 in
    let forces = Hashtbl.create 8 in
    let banned i j = Hashtbl.length bans > 0 && Hashtbl.mem bans (i, j) in
    let forced i = Hashtbl.length forces > 0 && Hashtbl.mem forces i in
    (* Ranked nonmasking recovery is unrestricted (the paper's corrector
       may violate safety on the way back), but repaired moves start from
       target states — fault-free behavior — so they must respect the
       safety specification. *)
    let bad_span = bad_states ts_span sspec in
    let bad_tr = bad_transition ts_span sspec in
    let repair_allowed i j =
      (not (Bitset.get bad_span j)) && not (bad_tr i j)
    in
    let needs =
      needs_recovery ?limit ~engine p ~target:invariant ts_span
    in
    let rank0 = gated_rank0 ts_span ~target:invariant needs in
    let is_fault = fault_actions ts_span faults in
    let closure_disabled =
      closure_disabled ts_span ~program:(Array.map not is_fault)
    in
    let synth ~use_undo ~step_vars =
      synthesize_recovery ~step_vars ~banned ~use_undo ~forced ~repair_allowed
        ~rank0 ~is_fault ~closure_disabled ~allowed:(fun _ _ -> true)
        ~target:invariant p ts_span
    in
    let build recovery =
      Program.add_actions p [ recovery.action ]
      |> Program.with_name (Fmt.str "nonmasking(%s)" (Program.name p))
    in
    let verify program =
      Tolerance.check_with ?limit ~engine program ~spec ~invariant ~init
        ~faults ~tol:Spec.Nonmasking
    in
    let index = Ts.index_of ts_span in
    match
      repair_loop ~step_vars ~synth ~build ~verify ~index ~bans ~forces
    with
    | Error f -> Error f
    | Ok (recovery, program, report, rounds) ->
      Ok
        {
          program;
          invariant;
          report;
          added_detectors = [];
          recovery_states = recovery.moves;
          repair_iterations = rounds;
        }
  end

(* ------------------------------------------------------------------ *)
(* Masking                                                             *)
(* ------------------------------------------------------------------ *)

(* Fail-safe restriction first (with the invariant-weakening fallback);
   then recovery from the restricted span back to a target predicate
   (default: the recomputed invariant), where every recovery step must
   itself avoid [mt] — the corrector must not break the detector's
   guarantee (Section 5). *)
let add_masking ?limit ?(engine = Ts.Auto) ?workers:_ ?(step_vars = 1)
    ?target p ~spec ~invariant ~faults =
  Obs.span "synth.add_masking" ~attrs:[ Attr.str "program" (Program.name p) ]
  @@ fun () ->
  surface_exhaustion @@ fun () ->
  let sspec = Spec.safety (Spec.smallest_safety_containing spec) in
  let restricted, added, inv_states, invariant', front =
    failsafe_core ?limit ~engine ~sspec ~name:"S_masking" p ~invariant
      ~faults
  in
  if inv_states = [] then Error Empty_invariant
  else begin
    let target = match target with Some t -> t | None -> invariant' in
    let ts_span =
      Ts.build ?limit ~engine
        (Fault.compose restricted faults)
        ~from:inv_states
    in
    let bans = Hashtbl.create 8 in
    let forces = Hashtbl.create 8 in
    let banned i j = Hashtbl.length bans > 0 && Hashtbl.mem bans (i, j) in
    let forced i = Hashtbl.length forces > 0 && Hashtbl.mem forces i in
    let needs =
      needs_recovery ?limit ~engine restricted ~target ts_span
    in
    let rank0 = gated_rank0 ts_span ~target needs in
    (* Resolve ms/bad for every span state up front; an allowed step
       (one avoiding [mt]) then costs bitset probes only. *)
    let nspan = Ts.num_states ts_span in
    let bad_span = bad_states ts_span sspec in
    let bad_tr = bad_transition ts_span sspec in
    let to_front = Ts.index_map ~src:ts_span ~dst:front.ts in
    let ms_span =
      Bitset.of_fn nspan (fun i ->
          let j = to_front i in
          j >= 0 && Bitset.get front.ms j)
    in
    let allowed i j =
      (not (Bitset.get bad_span j))
      && (not (Bitset.get ms_span j))
      && not (bad_tr i j)
    in
    let is_fault = fault_actions ts_span faults in
    let closure_disabled =
      closure_disabled ts_span ~program:(Array.map not is_fault)
    in
    let synth ~use_undo ~step_vars =
      synthesize_recovery ~step_vars ~banned ~use_undo ~forced ~rank0
        ~is_fault ~closure_disabled ~allowed ~target restricted ts_span
    in
    let build recovery =
      Program.add_actions restricted [ recovery.action ]
      |> Program.with_name (Fmt.str "masking(%s)" (Program.name p))
    in
    let verify program =
      Tolerance.check_with ?limit ~engine program ~spec
        ~invariant:invariant' ~init:inv_states ~faults ~tol:Spec.Masking
    in
    let index = Ts.index_of ts_span in
    match
      repair_loop ~step_vars ~synth ~build ~verify ~index ~bans ~forces
    with
    | Error f -> Error f
    | Ok (recovery, program, report, rounds) ->
      Ok
        {
          program;
          invariant = invariant';
          report;
          added_detectors = added;
          recovery_states = recovery.moves;
          repair_iterations = rounds;
        }
  end
