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

   Each phase has one implementation, over the {!Ts} API by state index,
   whichever engine built the explored system: [ms] is a bitset-seeded
   backward fixpoint over the reverse fault-edge CSR, detection guards are
   per-action bitsets consulted by state index (the semantic closure
   remains only as the fallback for states outside the explored product),
   invariant recomputation is a counter-based deadlock pruning worklist,
   and recovery layering ranks states in [int] arrays with a frontier
   queue whose candidate scans can fan out over OCaml domains
   ([?workers]).  [?engine] only chooses the {!Ts} builder, so the
   reference builder stays a differential oracle for the whole pipeline:
   synthesis over reference-, packed- and sharded-built systems yields
   identical programs, invariants and reports. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec
open Detcor_core
open Detcor_obs

(* Shared with the engine's counter of the same name (lost workers whose
   chunks were retried sequentially). *)
let m_worker_retries = Metrics.counter "robust.worker_retries"

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
   evaluates its closure on every state. *)
let bad_states ts sspec =
  let n = Ts.num_states ts in
  match Safety.decompose sspec with
  | Some { bad_states; _ } ->
    let bad = Bitset.create n in
    List.iter
      (fun p -> Bitset.union_into ~into:bad (Ts.pred_bitset ts p))
      bad_states;
    bad
  | None -> Bitset.of_fn n (fun i -> Safety.bad_state sspec (Ts.state ts i))

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

(* [mt]: a transition a safe program must never take — already a bad
   transition, or into a bad state, or into [ms].  [in_ms_at] answers ms
   membership by state index. *)
let make_mt ts_pf ~in_ms_at ~sspec s s' =
  Safety.bad_transition sspec s s'
  || Safety.bad_state sspec s'
  ||
  match Ts.index_of ts_pf s' with Some j -> in_ms_at j | None -> false

(* ------------------------------------------------------------------ *)
(* Fail-safe                                                           *)
(* ------------------------------------------------------------------ *)

(* The detection guard added to action [ac]: executing [ac] here neither
   violates safety nor lands in [ms].  This is the weakest detection
   predicate of [ac] for the [mt]-extended safety specification.

   One edge sweep marks, per program action, the states from which some
   [ac]-step is an mt transition; each guard is then a single bitset
   probe.  States outside the explored system (it covers the whole product
   space, so only states over a different variable set, or out-of-domain
   states no step reaches) fall back to the semantic formula. *)
let detection_guards ts_pf ~sspec ~bad ~bad_tr ~ms p =
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
  let in_ms_at = Bitset.get ms in
  List.mapi
    (fun k ac ->
      let ok =
        Bitset.of_fn n (fun i ->
            (not (Bitset.get bad i))
            && (not (Bitset.get ms i))
            && not (Bitset.get bad_step.(k) i))
      in
      let guard =
        Pred.make
          (Fmt.str "wdp(%s)" (Action.name ac))
          (fun st ->
            match Ts.index_of ts_pf st with
            | Some i -> Bitset.get ok i
            | None ->
              (not (Safety.bad_state sspec st))
              && List.for_all
                   (fun st' -> not (make_mt ts_pf ~in_ms_at ~sspec st st'))
                   (Action.execute ac st))
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
   set).  The candidate is the original invariant minus [ms] for plain
   recomputation, or the whole ms-complement for the weakening search:
   the states satisfying [candidate] (a compiled sweep when it has an
   expression) that [keep] accepts.

   The greatest fixpoint runs as a deadlock-pruning worklist.  Candidate
   states stream through the program's layout in rank (= [State.compare])
   order; each live state counts its restricted successors inside the
   candidate set, and dies when the count reaches zero.  A successor that
   escapes the declared domains has no rank, so it never counts.
   Per-occurrence reverse lists make each pruning step O(in-degree)
   instead of a whole-set rescan. *)
let recompute_invariant ~candidate ~keep ~layout p restricted =
  let acc = ref [] in
  Compiled.iter_satisfying layout candidate (fun rank ->
      let st = Layout.unpack layout rank in
      if keep st then acc := st :: !acc);
  let states = Array.of_list (List.rev !acc) in
  let n = Array.length states in
  let local_of_rank = Hashtbl.create (max 16 (2 * n)) in
  Array.iteri
    (fun k st -> Hashtbl.replace local_of_rank (Layout.pack layout st) k)
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
                 | Some r -> Hashtbl.find_opt local_of_rank r
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

(* The fail-safe front end shared by [add_failsafe] and [add_masking]:
   ms, the restricted program, and the recomputed invariant.  Returns the
   index-level ms oracle for the masking path's recovery restriction, and
   whether the invariant had to be weakened.

   The program's own layout always compiles here: [Ts.full] of [p [] F]
   succeeded, so the product space of [p] (a projection of it) fits the
   limit, and declared domains are never empty.

   When the recomputation kill-cascades to the empty set, the
   invariant-weakening search reseeds the same greatest fixpoint from the
   whole ms-complement (every non-bad state outside [ms]) instead of from
   the original invariant: the largest set the restricted program stays
   live in while still excluding [ms].  The weakened invariant is not in
   general a subset of the original one — the ideal-stabilization view,
   where recovery re-establishes a specification-equivalent legitimacy
   predicate rather than the original invariant verbatim; the final
   verification of the synthesized program remains the soundness gate. *)
let failsafe_core ts_pf ~sspec ~fault_ids p ~invariant =
  let layout =
    match Layout.of_program p with
    | Some layout -> layout
    | None ->
      Detcor_robust.Error.internal "Synthesize: no layout for %s"
        (Program.name p)
  in
  let bad = bad_states ts_pf sspec in
  let bad_tr = bad_transition ts_pf sspec in
  let ms = compute_ms ts_pf ~fault_ids ~bad ~bad_tr in
  let in_ms_at = Bitset.get ms in
  let not_ms st =
    match Ts.index_of ts_pf st with
    | Some i -> not (in_ms_at i)
    | None -> true
  in
  let guards = detection_guards ts_pf ~sspec ~bad ~bad_tr ~ms p in
  let restricted, added = restrict_with guards p in
  let inv_states =
    recompute_invariant ~candidate:invariant ~keep:not_ms ~layout p restricted
  in
  let inv_states, weakened =
    if inv_states <> [] then (inv_states, false)
    else
      ( recompute_invariant
          ~candidate:
            (Pred.make "not-bad" (fun st -> not (Safety.bad_state sspec st)))
          ~keep:not_ms ~layout p restricted,
        true )
  in
  (restricted, added, inv_states, in_ms_at, weakened)

let add_failsafe ?limit ?(engine = Ts.Auto) ?(workers = 1) p ~spec ~invariant
    ~faults =
  Obs.span "synth.add_failsafe" ~attrs:[ Attr.str "program" (Program.name p) ]
  @@ fun () ->
  surface_exhaustion @@ fun () ->
  let sspec = Spec.safety (Spec.smallest_safety_containing spec) in
  let composed = Fault.compose p faults in
  let ts_pf = Ts.full ?limit ~engine ~workers composed in
  let fault_ids = Ts.action_ids_of_names ts_pf (Fault.action_names faults) in
  let restricted, added, inv_states, _, weakened =
    failsafe_core ts_pf ~sspec ~fault_ids p ~invariant
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

   Computed over the {!Ts} API, so one implementation serves both engines;
   the result is a fixpoint-defined set, hence extensionally identical
   whichever engine built [ts_p]. *)
let needs_recovery_tbl ?limit ~engine ~workers p ~target states =
  Obs.span "synth.needs_recovery" @@ fun () ->
  let ts_p = Ts.build ?limit ~engine ~workers p ~from:states in
  let n = Ts.num_states ts_p in
  let not_q = Array.init n (fun i -> not (Ts.holds_at ts_p target i)) in
  let seeds = ref [] in
  for i = 0 to n - 1 do
    if not_q.(i) && Ts.deadlocked ts_p i then seeds := i :: !seeds
  done;
  List.iter
    (fun (scc : Graph.scc) -> seeds := scc.Graph.members @ !seeds)
    (Fairness.fair_sccs ~mask:(fun i -> not_q.(i)) ts_p);
  let tbl = Hashtbl.create 64 in
  if !seeds <> [] then begin
    let preds = Array.make n [] in
    Ts.iter_edges ts_p (fun i _ j ->
        if not_q.(i) && not_q.(j) then preds.(j) <- i :: preds.(j));
    let seen = Array.make n false in
    let queue = Queue.create () in
    let add i =
      if not seen.(i) then begin
        seen.(i) <- true;
        Queue.add i queue
      end
    in
    List.iter add !seeds;
    while not (Queue.is_empty queue) do
      Detcor_robust.Budget.tick ();
      let j = Queue.pop queue in
      Hashtbl.replace tbl (State.to_string (Ts.state ts_p j)) ();
      List.iter add preds.(j)
    done
  end;
  tbl

(* Rank-0 seed for the layering: the target itself plus every
   self-convergent state. *)
let gated_rank0 ~target needs =
  if Hashtbl.length needs = 0 then Pred.true_
  else
    Pred.make "target-or-self-convergent" (fun st ->
        Pred.holds target st || not (Hashtbl.mem needs (State.to_string st)))

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

type recovery = {
  moves : int; (* states given a recovery transition *)
  action : Action.t;
  move_to : State.t -> State.t option;
      (* the chosen recovery step from a state, if any — the repair loop
         reads it to turn cycle witnesses into edge bans *)
}

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

   Ranks and chosen moves live in [int] arrays indexed by span state,
   neighbor lists are resolved to index arrays once (memoized), and each
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
    ?(use_undo = false) ?(forced = fun _ -> false) ?repair_allowed ?rank0
    ~workers ~fault_ids ~allowed ~target p ts_span =
  Obs.span "synth.recovery"
    ~attrs:[ Attr.int "states" (Ts.num_states ts_span) ]
  @@ fun () ->
  let rank0 = match rank0 with Some r -> r | None -> target in
  let n = Ts.num_states ts_span in
  let unranked = max_int in
  let rank = Array.make n unranked in
  let move = Array.make n (-1) in
  let neigh = Array.make n None in
  let undo_fired = Atomic.make false in
  (* Program (non-fault) span edges, keyed [src * n + dst]: the span is
     closed under the composed program, so these are exactly the
     program's successor pairs. *)
  let undo_tbl =
    if not use_undo then Hashtbl.create 1
    else begin
      let is_fault = Array.make (Ts.num_actions ts_span) false in
      List.iter (fun a -> is_fault.(a) <- true) fault_ids;
      let t = Hashtbl.create (max 64 (4 * n)) in
      Ts.iter_edges ts_span (fun i aid j ->
          if not is_fault.(aid) then Hashtbl.replace t ((i * n) + j) ());
      t
    end
  in
  let undone i j = use_undo && Hashtbl.mem undo_tbl ((j * n) + i) in
  let banned_ix i j = banned (Ts.state ts_span i) (Ts.state ts_span j) in
  let fill_neighbors i =
    if neigh.(i) = None then begin
      Detcor_robust.Budget.tick ();
      let arr =
        neighbors ~step_vars p (Ts.state ts_span i)
        |> List.filter_map (Ts.index_of ts_span)
        |> Array.of_list
      in
      neigh.(i) <- Some arr
    end
  in
  let neighbors_of i =
    fill_neighbors i;
    match neigh.(i) with Some a -> a | None -> assert false
  in
  (* Symmetry fails at span states holding a value outside [p]'s declared
     domains (only a system built without a layout has them): they see
     in-domain neighbors that cannot see them back, so no frontier would
     queue them.  Every level rescans them instead, as a full rescan
     would. *)
  let one_way =
    let decls = Program.var_decls p in
    let escaped st =
      List.exists (fun (x, d) -> not (Domain.mem (State.get st x) d)) decls
    in
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if escaped (Ts.state ts_span i) then acc := i :: !acc
    done;
    !acc
  in
  (* Chunked fan-out used for both neighbor generation and candidate
     scans.  Distinct iterations touch distinct array slots, so the only
     sharing between domains is read-only — which also makes a lost
     worker recoverable: its chunk reruns on this domain, idempotently.
     A tripped budget still cancels the whole build. *)
  let parallel_iter arr f =
    let len = Array.length arr in
    if workers <= 1 || len < 64 then Array.iter f arr
    else begin
      let chunk = (len + workers - 1) / workers in
      let bounds w = (w * chunk, min len ((w + 1) * chunk)) in
      let spawn w =
        let lo, hi = bounds w in
        Stdlib.Domain.spawn (fun () ->
            try
              Detcor_robust.Failpoint.hit "engine.worker";
              for k = lo to hi - 1 do
                f arr.(k)
              done;
              None
            with e -> Some e)
      in
      let domains = List.init workers spawn in
      let results = List.map Stdlib.Domain.join domains in
      List.iteri
        (fun w result ->
          match result with
          | None -> ()
          | Some
              (Detcor_robust.Error.Detcor_error
                 (Detcor_robust.Error.Resource _) as e) ->
            raise e
          | Some e ->
            Metrics.incr m_worker_retries;
            if Obs.on () then
              Obs.event "synth.worker_retry" ~level:Attr.Warn
                ~attrs:[ Attr.str "exn" (Printexc.to_string e) ];
            let lo, hi = bounds w in
            for k = lo to hi - 1 do
              f arr.(k)
            done)
        results
    end
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
    let rank0_bits = Ts.pred_bitset ts_span rank0 in
    for i = n - 1 downto 0 do
      if Bitset.get rank0_bits i then begin
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
           if rank.(j) < lvl && allowed i j && not (banned_ix i j) then
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
  let stalled = Array.make n false in
  for i = 0 to n - 1 do
    if rank.(i) = 0 && move.(i) < 0 then begin
      Detcor_robust.Budget.tick ();
      let st = Ts.state ts_span i in
      if forced st || Program.deadlocked p st then stalled.(i) <- true
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
              && not (banned_ix i j)
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
  let guard =
    Pred.make "needs-recovery" (fun st ->
        match Ts.index_of ts_span st with
        | Some i -> move.(i) >= 0
        | None -> false)
  in
  let action =
    Action.deterministic "recovery" guard (fun st ->
        match Ts.index_of ts_span st with
        | Some i when move.(i) >= 0 -> Ts.state ts_span move.(i)
        | _ -> st)
  in
  let move_to st =
    match Ts.index_of ts_span st with
    | Some i when move.(i) >= 0 -> Some (Ts.state ts_span move.(i))
    | _ -> None
  in
  ( { moves; action; move_to },
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

let skey = State.to_string

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
   layering can act on — the failure is then terminal. *)
let apply_witness (report : Tolerance.report) ~move_to ~bans ~forces =
  let progress = ref false in
  List.iter
    (fun (it : Tolerance.item) ->
      if not !progress then
        match it.Tolerance.outcome with
        | Check.Fails (Check.Fair_cycle states) ->
          let in_cycle = Hashtbl.create 16 in
          List.iter (fun s -> Hashtbl.replace in_cycle (skey s) ()) states;
          List.iter
            (fun s ->
              match move_to s with
              | Some t when Hashtbl.mem in_cycle (skey t) ->
                let k = (skey s, skey t) in
                if not (Hashtbl.mem bans k) then begin
                  Hashtbl.replace bans k ();
                  progress := true
                end
              | _ -> ())
            states
        | Check.Fails (Check.Deadlock st) -> (
          match move_to st with
          | Some _ -> ()
          | None ->
            let k = skey st in
            if not (Hashtbl.mem forces k) then begin
              Hashtbl.replace forces k ();
              progress := true
            end)
        | _ -> ())
    report.Tolerance.items;
  !progress

(* The repair loop shared by nonmasking and masking addition: layer,
   verify, and while the verdict is negative feed the witness back into
   the layering as bans and forced moves. *)
let repair_loop ~step_vars ~synth ~build ~verify ~bans ~forces =
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
        || not (apply_witness report ~move_to:recovery.move_to ~bans ~forces)
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
    let banned s t =
      Hashtbl.length bans > 0 && Hashtbl.mem bans (skey s, skey t)
    in
    let forced st =
      Hashtbl.length forces > 0 && Hashtbl.mem forces (skey st)
    in
    (* Ranked nonmasking recovery is unrestricted (the paper's corrector
       may violate safety on the way back), but repaired moves start from
       target states — fault-free behavior — so they must respect the
       safety specification. *)
    let repair_allowed i j =
      let s = Ts.state ts_span i and t = Ts.state ts_span j in
      (not (Safety.bad_state sspec t))
      && not (Safety.bad_transition sspec s t)
    in
    let needs =
      needs_recovery_tbl ?limit ~engine ~workers p ~target:invariant
        (Ts.states ts_span)
    in
    let rank0 = gated_rank0 ~target:invariant needs in
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
    match repair_loop ~step_vars ~synth ~build ~verify ~bans ~forces with
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
  let composed = Fault.compose p faults in
  let ts_pf = Ts.full ?limit ~engine ~workers composed in
  let fault_ids = Ts.action_ids_of_names ts_pf (Fault.action_names faults) in
  let restricted, added, inv_states, in_ms_at, weakened =
    failsafe_core ts_pf ~sspec ~fault_ids p ~invariant
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
    let banned s t =
      Hashtbl.length bans > 0 && Hashtbl.mem bans (skey s, skey t)
    in
    let forced st =
      Hashtbl.length forces > 0 && Hashtbl.mem forces (skey st)
    in
    let needs =
      needs_recovery_tbl ?limit ~engine ~workers restricted ~target
        (Ts.states ts_span)
    in
    let rank0 = gated_rank0 ~target needs in
    (* Resolve ms/bad for every span state up front; an allowed step
       (one avoiding [mt]) then costs bitset probes only. *)
    let nspan = Ts.num_states ts_span in
    let bad_span = bad_states ts_span sspec in
    let bad_tr = bad_transition ts_span sspec in
    let ms_span =
      Bitset.of_fn nspan (fun i ->
          match Ts.index_of ts_pf (Ts.state ts_span i) with
          | Some gi -> in_ms_at gi
          | None -> false)
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
    match repair_loop ~step_vars ~synth ~build ~verify ~bans ~forces with
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
