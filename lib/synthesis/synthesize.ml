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
   the invariant states, where the result lives, and widens to the whole
   product only for the invariant-weakening search (see [failsafe_core]).

   Each phase has one implementation, over the {!Ts} API by state index,
   whichever engine built the explored system: [ms] is a bitset-seeded
   backward fixpoint over the reverse fault-edge CSR, detection guards are
   per-action bitsets consulted by state index (false at unexplored
   product states; the semantic closure remains only for states outside
   the product), invariant recomputation is a counter-based deadlock
   pruning worklist, and recovery layering ranks states in [int] arrays
   with a frontier queue whose candidate scans can fan out over OCaml
   domains ([?workers]).  [?engine] only chooses the {!Ts} builder, so the
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

(* [ms]: the states from which the fault actions alone can reach a safety
   violation — the backward fixpoint over fault edges seeded with the bad
   states and the sources of bad fault transitions ([bad_tr]).  Membership
   lives in a bitset and predecessor iteration runs over the reverse
   fault-edge CSR. *)
let compute_ms ts_pf ~fault_ids ~bad ~bad_tr =
  Obs.span "synth.compute_ms" @@ fun () ->
  let n = Ts.num_states ts_pf in
  let phase = Detcor_robust.Checkpoint.enter ~kind:"synth.ms" in
  match Detcor_robust.Checkpoint.resume_data phase with
  | Some (Detcor_robust.Checkpoint.Done data) ->
    (* The fixpoint finished in the snapshotted run: its result is the
       whole answer, no reverse CSR needed. *)
    Bitset.of_string n data
  | resumed ->
    let is_fault = Array.make (Ts.num_actions ts_pf) false in
    List.iter (fun i -> is_fault.(i) <- true) fault_ids;
    let rev = Ts.reverse ~keep:(fun aid -> is_fault.(aid)) ts_pf in
    let ms = ref (Bitset.create n) in
    let queue = Queue.create () in
    let add i =
      if not (Bitset.get !ms i) then begin
        Bitset.set !ms i;
        Queue.add i queue
      end
    in
    (match resumed with
    | Some (Detcor_robust.Checkpoint.Midway data) ->
      (* Mid-fixpoint state: membership bits plus the open frontier.
         Seeding is subsumed — every seed is marked or processed. *)
      let bits, frontier = (Marshal.from_string data 0 : string * int array) in
      ms := Bitset.of_string n bits;
      Array.iter (fun i -> Queue.add i queue) frontier
    | _ ->
      (* Seed from bad fault transitions by walking the reverse CSR: it
         holds exactly the fault edges, so the (possibly expensive)
         bad-transition predicate runs on those alone rather than on
         every product edge. *)
      for j = 0 to n - 1 do
        Ts.iter_in rev j (fun _aid i -> if bad_tr i j then add i)
      done;
      for i = 0 to n - 1 do
        if Bitset.get bad i then add i
      done);
    (* The loop's only budget checkpoint is at its top, where the marked
       set and the frontier are a closed pair — exactly what a capture
       may persist. *)
    Detcor_robust.Checkpoint.set_capture phase (fun () ->
        Marshal.to_string
          (Bitset.to_string !ms, Array.of_seq (Queue.to_seq queue))
          []);
    let processed = ref 0 in
    Progress.with_phase "synth.ms"
      (fun () -> [ ("iterations", !processed); ("queue", Queue.length queue) ])
      (fun () ->
        while not (Queue.is_empty queue) do
          Detcor_robust.Budget.tick ();
          let j = Queue.pop queue in
          incr processed;
          Ts.iter_in rev j (fun _ i -> add i)
        done);
    Detcor_robust.Checkpoint.complete phase (Bitset.to_string !ms);
    !ms

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
   the whole product once the front end widens), and every later build,
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
  List.mapi
    (fun k ac ->
      let ok =
        Bitset.of_fn n (fun i ->
            (not (Bitset.get bad i))
            && (not (Bitset.get ms i))
            && not (Bitset.get bad_step.(k) i))
      in
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

(* Recompute the invariant: start from a candidate set, then iteratively
   drop states that the restriction newly deadlocked (states that could
   move in [p] but cannot in the restricted program within the shrinking
   set).  The candidates arrive in rank (= [State.compare]) order: the
   original invariant states outside [ms] for plain recomputation, or the
   whole ms-complement for the weakening search.

   The greatest fixpoint runs as a deadlock-pruning worklist.  Each live
   candidate counts its restricted successors inside the candidate set,
   and dies when the count reaches zero.  A successor that escapes the
   declared domains has no rank, so it never counts.  Per-occurrence
   reverse lists make each pruning step O(in-degree) instead of a
   whole-set rescan. *)
let recompute_invariant ~layout p restricted candidates =
  let states = Array.of_list candidates in
  let n = Array.length states in
  let local_of_rank =
    Rank_map.create ~expect:n ~space:(Layout.space layout) ()
  in
  Array.iteri
    (fun k st -> Rank_map.add local_of_rank (Layout.pack layout st) k)
    states;
  let always_keep = Array.make n false in
  let succ = Array.make n [||] in
  Array.iteri
    (fun k st ->
      Detcor_robust.Budget.tick ();
      if Program.deadlocked p st then always_keep.(k) <- true
      else
        succ.(k) <-
          Program.successors restricted st
          |> List.filter_map (fun (_, st') ->
                 match Layout.pack_opt layout st' with
                 | Some r ->
                   let k = Rank_map.find local_of_rank r in
                   if k < 0 then None else Some k
                 | None -> None)
          |> Array.of_list)
    states;
  let cnt = Array.make n 0 in
  let preds = Array.make n [] in
  for k = 0 to n - 1 do
    if not always_keep.(k) then
      Array.iter
        (fun j ->
          cnt.(k) <- cnt.(k) + 1;
          preds.(j) <- k :: preds.(j))
        succ.(k)
  done;
  let alive = Array.make n true in
  let queue = Queue.create () in
  let killed = ref 0 in
  let kill k =
    if alive.(k) then begin
      alive.(k) <- false;
      incr killed;
      Queue.add k queue
    end
  in
  for k = 0 to n - 1 do
    if (not always_keep.(k)) && cnt.(k) = 0 then kill k
  done;
  (* The kill cascade is where closure under computation is enforced:
     heartbeats report how much of the candidate invariant has been
     discarded so far. *)
  Progress.with_phase "synth.prune"
    (fun () -> [ ("killed", !killed); ("states", n) ])
    (fun () ->
      while not (Queue.is_empty queue) do
        Detcor_robust.Budget.tick ();
        let j = Queue.pop queue in
        List.iter
          (fun k ->
            if alive.(k) && not always_keep.(k) then begin
              cnt.(k) <- cnt.(k) - 1;
              if cnt.(k) = 0 then kill k
            end)
          preds.(j)
      done);
  let out = ref [] in
  for k = n - 1 downto 0 do
    if alive.(k) then out := states.(k) :: !out
  done;
  !out

(* Widenings of the fail-safe front end from the fault span to the whole
   product (see [failsafe_core]). *)
let m_widenings = Metrics.counter "synth.widenings"

(* The fail-safe analysis of one explored [p [] F] system: [ms] and the
   detection guards, by state index. *)
type front = { ts : Ts.t; ms : Bitset.t; guards : (Action.t * Pred.t) list }

let analyse ts ~sspec ~faults ~unexplored p =
  let fault_ids = Ts.action_ids_of_names ts (Fault.action_names faults) in
  let bad = bad_states ts sspec in
  let bad_tr = bad_transition ts sspec in
  let ms = compute_ms ts ~fault_ids ~bad ~bad_tr in
  { ts; ms; guards = detection_guards ts ~sspec ~bad ~bad_tr ~ms ~unexplored p }

let not_ms front st = not (ms_at front.ts front.ms st)

(* The fail-safe front end shared by [add_failsafe] and [add_masking]:
   ms, the restricted program, and the recomputed invariant.  Returns the
   analysis the masking path's recovery restriction probes, and whether
   the invariant had to be weakened.

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
   to [Ts.full] — unless R already holds every in-domain product state
   (counted by layout rank: a reference-built R may also hold states
   that escape the declared domains).

   [p]'s layout compiles whenever S could be enumerated: it only fails
   when the product space overflows the rank range. *)
let failsafe_core ?limit ~engine ~workers ~sspec p ~invariant ~faults =
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
  let reach = Ts.build ?limit ~engine ~workers composed ~from:init in
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
  match
    recompute_invariant ~layout p restricted (List.filter (not_ms front) init)
  with
  | _ :: _ as inv_states -> (restricted, added, inv_states, front, false)
  | [] ->
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
          analyse (Ts.full ?limit ~engine ~workers composed) ~sspec ~faults
            ~unexplored:(fun _ -> false) p
        in
        let restricted, added = restrict_with front.guards p in
        (front, restricted, added)
      end
    in
    (* With an expression for every bad-state predicate the seed
       enumeration prunes; an opaque specification keeps its closure. *)
    let not_bad =
      match Safety.decompose sspec with
      | Some { bad_states; _ }
        when List.for_all (fun p -> Pred.expr p <> None) bad_states ->
        Pred.not_ (Pred.disj bad_states)
      | _ -> Pred.make "not-bad" (fun st -> not (Safety.bad_state sspec st))
    in
    let acc = ref [] in
    Compiled.iter_satisfying layout not_bad (fun rank ->
        let st = Layout.unpack layout rank in
        if not_ms front st then acc := st :: !acc);
    ( restricted,
      added,
      recompute_invariant ~layout p restricted (List.rev !acc),
      front,
      true )

let add_failsafe ?limit ?(engine = Ts.Auto) ?(workers = 1) p ~spec ~invariant
    ~faults =
  Obs.span "synth.add_failsafe" ~attrs:[ Attr.str "program" (Program.name p) ]
  @@ fun () ->
  surface_exhaustion @@ fun () ->
  let sspec = Spec.safety (Spec.smallest_safety_containing spec) in
  let restricted, added, inv_states, _, weakened =
    failsafe_core ?limit ~engine ~workers ~sspec p ~invariant ~faults
  in
  if inv_states = [] then Error Empty_invariant
  else begin
    let invariant' =
      Pred.of_states
        ~name:(if weakened then "S_failsafe_weakened" else "S_failsafe")
        inv_states
    in
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
let needs_recovery ?limit ~engine ~workers p ~target ts_span =
  Obs.span "synth.needs_recovery" @@ fun () ->
  let ts_p = Ts.build_within ?limit ~engine ~workers p ~span:ts_span in
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
   construction.  The list order is the tie-breaking order of the layering
   (first qualifying candidate wins), so it must be deterministic; the
   two-variable composition is deduplicated because a second step over the
   same variable re-emits one-variable states (or the origin itself), and
   different step orders reach the same state twice. *)
let neighbors ~step_vars p st =
  let decls = Program.var_decls p in
  let single_from base =
    List.concat_map
      (fun (x, d) ->
        List.filter_map
          (fun value ->
            if Value.equal (State.get base x) value then None
            else Some (State.set base x value))
          (Domain.values d))
      decls
  in
  let single = single_from st in
  if step_vars <= 1 then single
  else begin
    let seen = State_tbl.create 64 in
    State_tbl.replace seen st ();
    let emit acc st' =
      if State_tbl.mem seen st' then acc
      else begin
        State_tbl.replace seen st' ();
        st' :: acc
      end
    in
    let acc = List.fold_left emit [] single in
    let acc =
      List.fold_left
        (fun acc st1 -> List.fold_left emit acc (single_from st1))
        acc single
    in
    List.rev acc
  end

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

(* The span indices of the in-span neighbors of the state of rank [r], in
   [neighbors] order.  Allocates its own list: worker domains call it
   concurrently. *)
let rank_neighbors axes ~step_vars ts r =
  let acc = ref [] in
  let emit r' =
    let j = Ts.index_of_rank ts r' in
    if j >= 0 then acc := j :: !acc
  in
  let code a = r / a.stride mod a.size in
  let steps a c from f =
    Array.iter
      (fun c' -> if c' <> c then f (from + ((c' - c) * a.stride)))
      a.codes
  in
  let n = Array.length axes in
  Array.iter (fun a -> steps a (code a) r emit) axes;
  if step_vars > 1 then
    for x = 0 to n - 1 do
      let a = axes.(x) in
      steps a (code a) r (fun r1 ->
          for y = x + 1 to n - 1 do
            let b = axes.(y) in
            steps b (code b) r1 emit
          done)
    done;
  Array.of_list (List.rev !acc)

(* [candidate_steps ~step_vars p ts]: for each state index of [ts], the
   indices of its [neighbors] that [ts] holds, in order; and the test of
   a state index holding a value outside [p]'s declared domains, [None]
   when every declared domain covers its layout slot (then no state of
   [ts] does).  Rank arithmetic on a layout-built system; the state-based
   [neighbors] and domain test only for a system without layout ranks
   (the reference engine). *)
let candidate_steps ~step_vars p ts =
  match Option.bind (Ts.layout ts) (fun layout -> axes layout p) with
  | Some axes ->
    let outside i =
      let r = Ts.rank_of ts i in
      Array.exists
        (fun a -> not (Array.mem (r / a.stride mod a.size) a.codes))
        axes
    in
    ( (fun i -> rank_neighbors axes ~step_vars ts (Ts.rank_of ts i)),
      if Array.for_all (fun a -> Array.length a.codes = a.size) axes then None
      else Some outside )
  | None ->
    let decls = Program.var_decls p in
    let outside i =
      let st = Ts.state ts i in
      List.exists (fun (x, d) -> not (Domain.mem (State.get st x) d)) decls
    in
    ( (fun i ->
        neighbors ~step_vars p (Ts.state ts i)
        |> List.filter_map (Ts.index_of ts)
        |> Array.of_list),
      Some outside )

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
   build the recovery action "move one layer closer".  Returns the states
   that cannot reach the target (minimal first) and whether the anti-undo
   veto rejected any otherwise-qualifying candidate.

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
   so do [banned], [forced] and [rank0].  Neighbor lists are resolved to
   index arrays once (memoized; by rank arithmetic on a layout-built span,
   see [candidate_steps]), and each
   level scans only the frontier — the unranked neighbors of the states
   ranked at the previous level — instead of rescanning the whole span.
   The candidate relation is symmetric on in-domain span states (a one-
   or two-variable change backwards is one forwards), so a state's scan
   outcome can only change when one of its neighbors acquires a rank,
   which is exactly when the frontier re-queues it; the ranks and chosen
   moves therefore coincide with those of a full rescan per level.
   [workers] > 1 fans the per-candidate scans out over OCaml domains;
   ranks are only written between phases, so the result is identical to
   the sequential scan. *)
let synthesize_recovery ?(step_vars = 1) ?(banned = fun _ _ -> false)
    ?(use_undo = false) ?(forced = fun _ -> false) ?repair_allowed ~rank0
    ~workers ~fault_ids ~allowed ~target p ts_span =
  Obs.span "synth.recovery"
    ~attrs:[ Attr.int "states" (Ts.num_states ts_span) ]
  @@ fun () ->
  let n = Ts.num_states ts_span in
  let unranked = max_int in
  let rank = Array.make n unranked in
  let move = Array.make n (-1) in
  let neigh = Array.make n None in
  let undo_fired = Atomic.make false in
  let is_fault = Array.make (Ts.num_actions ts_span) false in
  List.iter (fun a -> is_fault.(a) <- true) fault_ids;
  (* [undone i j]: the program has the span transition [j -> i].  The
     span is closed under the composed program, so its non-fault edges
     are exactly the program's successor pairs: scan [j]'s out-edges. *)
  let undone i j =
    use_undo
    && Ts.fold_out ts_span j
         (fun found aid k -> found || (k = i && not is_fault.(aid)))
         false
  in
  let steps, outside = candidate_steps ~step_vars p ts_span in
  let fill_neighbors i =
    if neigh.(i) = None then begin
      Detcor_robust.Budget.tick ();
      neigh.(i) <- Some (steps i)
    end
  in
  let neighbors_of i =
    fill_neighbors i;
    match neigh.(i) with Some a -> a | None -> assert false
  in
  (* Symmetry fails at span states holding a value outside [p]'s declared
     domains: they see in-domain neighbors that cannot see them back, so
     no frontier would queue them.  Every level rescans them instead, as
     a full rescan would.  A layout-built span whose slots the declared
     domains cover has none. *)
  let one_way =
    match outside with
    | None -> []
    | Some outside ->
      let acc = ref [] in
      for i = n - 1 downto 0 do
        if outside i then acc := i :: !acc
      done;
      !acc
  in
  (* The engine's chunk runner, for both neighbor generation and
     candidate scans.  Distinct iterations touch distinct array slots, so
     the only sharing between domains is read-only — which also makes a
     lost worker recoverable: its chunk reruns on this domain,
     idempotently.  A tripped budget still cancels the whole build. *)
  let parallel_iter arr f =
    let len = Array.length arr in
    if workers <= 1 || len < 64 then Array.iter f arr
    else
      ignore
        (Ts.run_chunks ~site:"synth" ~workers ~lo:0 ~hi:len
           ~expand:(fun k -> f arr.(k))
           ~merge:(fun _ () -> ()))
  in
  let phase = Detcor_robust.Checkpoint.enter ~kind:"synth.recovery" in
  let frontier = ref [] in
  let level = ref 0 in
  (match Detcor_robust.Checkpoint.resume_data phase with
  | Some (Detcor_robust.Checkpoint.Done data) ->
    let r, m = (Marshal.from_string data 0 : int array * int array) in
    Array.blit r 0 rank 0 n;
    Array.blit m 0 move 0 n
  | Some (Detcor_robust.Checkpoint.Midway data) ->
    (* Ranks through level [ld] plus the frontier of states ranked [ld]:
       the layering loop continues from the next level. *)
    let r, m, front, ld =
      (Marshal.from_string data 0 : int array * int array * int array * int)
    in
    Array.blit r 0 rank 0 n;
    Array.blit m 0 move 0 n;
    frontier := Array.to_list front;
    level := ld
  | None ->
    for i = n - 1 downto 0 do
      if Bitset.get rank0 i then begin
        rank.(i) <- 0;
        frontier := i :: !frontier
      end
    done);
  (* Captures fire from [fill_neighbors] ticks, which always run with
     [level] pre-incremented for a level whose rank writes have not yet
     happened — so ranks-through-[level - 1] and the previous frontier
     are a consistent pair. *)
  Detcor_robust.Checkpoint.set_capture phase (fun () ->
      Marshal.to_string
        (Array.copy rank, Array.copy move, Array.of_list !frontier, !level - 1)
        []);
  let queued = Array.make n (-1) in
  let ranked = ref 0 in
  Array.iter (fun r -> if r <> unranked then incr ranked) rank;
  (Progress.with_phase "synth.recovery"
     (fun () -> [ ("ranked", !ranked); ("levels", !level) ])
   @@ fun () ->
   while !frontier <> [] do
     incr level;
     let lvl = !level in
     let front = Array.of_list !frontier in
     parallel_iter front fill_neighbors;
     let candidates = ref [] in
     let enqueue i =
       if rank.(i) = unranked && queued.(i) <> lvl then begin
         queued.(i) <- lvl;
         candidates := i :: !candidates
       end
     in
     Array.iter (fun j -> Array.iter enqueue (neighbors_of j)) front;
     List.iter enqueue one_way;
     let cands = Array.of_list !candidates in
     let chosen = Array.make (Array.length cands) (-1) in
     let scan_slot k =
       let i = cands.(k) in
       fill_neighbors i;
       let nb = neighbors_of i in
       let len = Array.length nb in
       let rec first t =
         if t >= len then -1
         else
           let j = nb.(t) in
           if rank.(j) < lvl && allowed i j && not (banned i j) then
             if undone i j then begin
               Atomic.set undo_fired true;
               first (t + 1)
             end
             else j
           else first (t + 1)
       in
       chosen.(k) <- first 0
     in
     parallel_iter (Array.init (Array.length cands) (fun k -> k)) scan_slot;
     let newly = ref [] in
     Array.iteri
       (fun k i ->
         if chosen.(k) >= 0 then begin
           rank.(i) <- lvl;
           move.(i) <- chosen.(k);
           incr ranked;
           newly := i :: !newly
         end)
       cands;
     frontier := !newly
   done);
  Detcor_robust.Checkpoint.complete phase (Marshal.to_string (rank, move) []);
  (* Deadlock-target repair (see the function comment).  Both passes make
     per-state decisions that depend only on the precomputed [stalled]
     set, so the iteration order is immaterial.  The completed checkpoint
     holds the pure ranking, and the repair reruns deterministically on
     resume. *)
  let repair_allowed =
    match repair_allowed with Some f -> f | None -> allowed
  in
  (* [p] is deadlocked at span state [i] when none of the span's
     non-fault actions (exactly [p]'s) is enabled there. *)
  let program_ids =
    List.filter
      (fun aid -> not is_fault.(aid))
      (List.init (Ts.num_actions ts_span) Fun.id)
  in
  let deadlocked i =
    List.for_all (fun aid -> not (Ts.enabled ts_span i aid)) program_ids
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
    for i = 0 to n - 1 do
      if stalled.(i) && move.(i) < 0 then begin
        fill_neighbors i;
        let nb = neighbors_of i in
        let len = Array.length nb in
        let rec first t =
          if t >= len then -1
          else
            let j = nb.(t) in
            (* Destinations must satisfy the real target (not merely
               rank 0): a repaired move starts inside the target region,
               and a step to a self-convergent state outside it would
               break the invariant's closure. *)
            if
              Bitset.get target_bits j
              && (relax || not stalled.(j))
              && repair_allowed i j
              && not (banned i j)
            then
              if undone i j then begin
                Atomic.set undo_fired true;
                first (t + 1)
              end
              else j
            else first (t + 1)
        in
        let j = first 0 in
        if j >= 0 then move.(i) <- j
      end
    done
  in
  repair_pass ~relax:false;
  repair_pass ~relax:true;
  let unrecoverable = ref [] in
  for i = n - 1 downto 0 do
    if rank.(i) = unranked then
      unrecoverable := Ts.state ts_span i :: !unrecoverable
  done;
  let unrecoverable = List.sort State.compare !unrecoverable in
  let moves =
    Array.fold_left (fun acc m -> if m >= 0 then acc + 1 else acc) 0 move
  in
  ( { moves; action = recovery_action ts_span move; move_to = Array.get move },
    unrecoverable,
    Atomic.get undo_fired )

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
      match last with Some (st :: _) -> Error st | _ -> assert false)
    | (use_undo, sv) :: rest -> (
      let recovery, unrecoverable, undo_fired =
        synth ~use_undo ~step_vars:sv
      in
      match unrecoverable with
      | [] -> Ok recovery
      | _ :: _ ->
        (* Dropping the veto can only change the outcome if the veto
           rejected something. *)
        let rest =
          if use_undo && not undo_fired then
            List.filter (fun (u, v) -> u || v <> sv) rest
          else rest
        in
        go (Some unrecoverable) rest)
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

let add_nonmasking ?limit ?(engine = Ts.Auto) ?(workers = 1) ?(step_vars = 1)
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
      Ts.build ?limit ~engine ~workers (Fault.compose p faults) ~from:init
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
      needs_recovery ?limit ~engine ~workers p ~target:invariant ts_span
    in
    let rank0 = gated_rank0 ts_span ~target:invariant needs in
    let fault_ids =
      Ts.action_ids_of_names ts_span (Fault.action_names faults)
    in
    let synth ~use_undo ~step_vars =
      synthesize_recovery ~step_vars ~banned ~use_undo ~forced ~repair_allowed
        ~rank0 ~workers ~fault_ids
        ~allowed:(fun _ _ -> true)
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
let add_masking ?limit ?(engine = Ts.Auto) ?(workers = 1) ?(step_vars = 1)
    ?target p ~spec ~invariant ~faults =
  Obs.span "synth.add_masking" ~attrs:[ Attr.str "program" (Program.name p) ]
  @@ fun () ->
  surface_exhaustion @@ fun () ->
  let sspec = Spec.safety (Spec.smallest_safety_containing spec) in
  let restricted, added, inv_states, front, weakened =
    failsafe_core ?limit ~engine ~workers ~sspec p ~invariant ~faults
  in
  if inv_states = [] then Error Empty_invariant
  else begin
    let invariant' =
      Pred.of_states
        ~name:(if weakened then "S_masking_weakened" else "S_masking")
        inv_states
    in
    let target = match target with Some t -> t | None -> invariant' in
    let ts_span =
      Ts.build ?limit ~engine ~workers
        (Fault.compose restricted faults)
        ~from:inv_states
    in
    let bans = Hashtbl.create 8 in
    let forces = Hashtbl.create 8 in
    let banned i j = Hashtbl.length bans > 0 && Hashtbl.mem bans (i, j) in
    let forced i = Hashtbl.length forces > 0 && Hashtbl.mem forces i in
    let needs =
      needs_recovery ?limit ~engine ~workers restricted ~target ts_span
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
    let span_fault_ids =
      Ts.action_ids_of_names ts_span (Fault.action_names faults)
    in
    let synth ~use_undo ~step_vars =
      synthesize_recovery ~step_vars ~banned ~use_undo ~forced ~rank0
        ~workers ~fault_ids:span_fault_ids ~allowed ~target restricted ts_span
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
