(* Extraction of detector and corrector components from fault-tolerant
   programs — the constructive content of Theorems 3.4 and 4.1.

   Theorem 3.4 proves that a program p' refining a safety specification
   contains, for each action ac of the underlying intolerant program p, a
   detector of a detection predicate of ac.  Its proof constructs a witness
   predicate Z (the guard of the refined action) and a detection predicate
   X obtained from the weakest detection predicate of ac by removing the
   states that would break Stability or Progress.  [detector_for_action]
   computes exactly that: it starts from X₀ = g ∧ sf and iteratively
   removes
   - Stability violators: X-states that are targets of transitions from a
     Z-state to a ¬Z-state (so that "Z ∨ ¬X" holds after the step), and
   - Progress violators: X∧¬Z-states from which some fair maximal
     computation stays in X∧¬Z forever (removing them turns the escape
     into "¬X").
   Both removals shrink X monotonically, so the fixpoint exists; Safeness
   (Z ⇒ X) is then checked — it holds exactly when p' really does refine
   the safety specification, which is the theorem's premise.

   Theorem 4.1's corrector extraction is direct: X = S (an invariant
   predicate of p) and Z = S ∧ (reachable from T in p'). *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec

type extracted_detector = {
  for_action : string; (* the base-program action *)
  refined_action : string; (* the corresponding action of p' *)
  detector : Detector.t;
  outcome : Check.outcome; (* p' refines 'Z detects X' from the init states *)
}

type extracted_corrector = {
  corrector : Corrector.t;
  outcome : Check.outcome;
}

(* Find the action of [refined] that encapsulates [ac]: an action tagged
   [based_on ac], or the action with the same name. *)
let refined_action_for ~refined ac =
  let name = Action.name ac in
  match
    List.find_opt
      (fun ac' -> Action.based_on ac' = Some name)
      (Program.actions refined)
  with
  | Some ac' -> Some ac'
  | None -> Program.find_action refined name

(* The fixpoint described above, over an explored system [ts] of p'.

   [extra_transitions] are additional state pairs that X must be stable
   against — the fault transitions when extracting a *tolerant* detector,
   whose Stability must also hold across fault steps (the Progress side
   ignores them: faults are finitely many, Assumption 2). *)
let shrink_to_detects ?(extra_transitions = []) ts ~witness:z ~x0 =
  let n = Ts.num_states ts in
  let x = Array.init n (Ts.holds_at ts x0) in
  let z_at = Array.init n (Ts.holds_at ts z) in
  let extra_indexed =
    List.filter_map
      (fun (s, s') ->
        match (Ts.index_of ts s, Ts.index_of ts s') with
        | Some i, Some j -> Some (i, j)
        | _ -> None)
      extra_transitions
  in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Stability: remove targets of Z -> ¬Z transitions from X. *)
    let stability_step i j =
      if z_at.(i) && (not z_at.(j)) && x.(j) then begin
        x.(j) <- false;
        changed := true
      end
    in
    Ts.iter_edges ts (fun i _aid j -> stability_step i j);
    List.iter (fun (i, j) -> stability_step i j) extra_indexed;
    (* Progress: remove X∧¬Z states from which a fair computation can stay
       in X∧¬Z forever (via a fair cycle or a deadlock inside it). *)
    let doomed = Fairness.trapped ts ~region:(fun i -> x.(i) && not z_at.(i)) in
    for i = 0 to n - 1 do
      if doomed.(i) then begin
        x.(i) <- false;
        changed := true
      end
    done
  done;
  let members = ref [] in
  for i = n - 1 downto 0 do
    if x.(i) then members := Ts.state ts i :: !members
  done;
  !members

(* [detector_for_action ~base ~sspec ts ac]: extract the detector that p'
   (explored as [ts]) contains for action [ac] of [base], following the
   proof of Theorem 3.4. *)
let detector_for_action ?(extra_transitions = []) ~base:_ ~sspec ts ac =
  let refined = Ts.program ts in
  match refined_action_for ~refined ac with
  | None ->
    let d =
      Detector.make
        ~name:(Fmt.str "missing refinement of %s" (Action.name ac))
        ~witness:Pred.false_ ~detection:Pred.false_ ()
    in
    {
      for_action = Action.name ac;
      refined_action = "<none>";
      detector = d;
      outcome =
        Check.Fails
          (Check.Not_implied
             (match Ts.states ts with s :: _ -> s | [] -> State.empty));
    }
  | Some ac' ->
    let z = Action.guard ac' in
    let sf = Detection_predicate.weakest ~sspec ac in
    let x0 = Pred.and_ (Action.guard ac) sf in
    let x_states = shrink_to_detects ~extra_transitions ts ~witness:z ~x0 in
    let x =
      Pred.of_states
        ~name:(Fmt.str "X(%s)" (Action.name ac))
        x_states
    in
    let detector =
      Detector.make
        ~name:(Fmt.str "detector for %s" (Action.name ac))
        ~witness:z ~detection:x ()
    in
    let outcome = Detector.satisfies_ts ts detector in
    {
      for_action = Action.name ac;
      refined_action = Action.name ac';
      detector;
      outcome;
    }

(* All detectors of p' for the actions of the base program
   (Theorem 3.4's universally quantified conclusion). *)
let detectors ?extra_transitions ~base ~sspec ts =
  List.map
    (detector_for_action ?extra_transitions ~base ~sspec ts)
    (Program.actions base)

(* The fault transitions of an explored [p [] F] system, for the Stability
   side of tolerant-detector extraction. *)
let fault_transitions ts_pf ~faults =
  let fault_ids = Ts.action_ids_of_names ts_pf (Fault.action_names faults) in
  let is_fault = Array.make (Ts.num_actions ts_pf) false in
  List.iter (fun i -> is_fault.(i) <- true) fault_ids;
  Ts.fold_edges ts_pf
    (fun acc i aid j ->
      if is_fault.(aid) then (Ts.state ts_pf i, Ts.state ts_pf j) :: acc
      else acc)
    []

(* The fail-safe variant (Lemma 3.5): only Safeness and Stability are
   required of the extracted component. *)
let failsafe_detectors ~base ~sspec ts =
  List.map
    (fun ac ->
      let e = detector_for_action ~base ~sspec ts ac in
      let safety_only = Detector.safety_spec e.detector in
      { e with outcome = Spec.refines ts safety_only })
    (Program.actions base)

(* Corrector extraction (Theorem 4.1): X = S, Z = S ∧ reachable. *)
let corrector_for_invariant ts ~invariant:s =
  let reach =
    Pred.of_states ~name:"reach" (Ts.states ts)
  in
  let z = Pred.and_ s reach in
  let corrector =
    Corrector.make
      ~name:(Fmt.str "corrector of %s" (Pred.name s))
      ~witness:z ~correction:s ()
  in
  { corrector; outcome = Corrector.satisfies_ts ts corrector }

(* Nonmasking corrector extraction (Lemma 4.2): X = S, Z = R. *)
let nonmasking_corrector ts ~invariant:s ~recovery:r =
  let corrector =
    Corrector.make
      ~name:
        (Fmt.str "nonmasking corrector of %s via %s" (Pred.name s)
           (Pred.name r))
      ~witness:r ~correction:s ()
  in
  (* Obligations of Lemma 4.2: convergence to R, then 'Z corrects X'
     from R. *)
  let convergence = Check.eventually ts r in
  let from_r = Ts.build_within ~where:r (Ts.program ts) ~span:ts in
  let corrects = Corrector.satisfies_ts from_r corrector in
  { corrector; outcome = Check.all [ convergence; corrects ] }

(* S_p of Lemma 5.4: the projection of S on the base variables — the states
   of p' whose base-variable projection agrees with some S-state. *)
let project_invariant ~base ts ~invariant:s =
  let base_vars = Program.variables base in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun st ->
      if Pred.holds s st then
        Hashtbl.replace tbl (State.to_string (State.project st base_vars)) ())
    (Ts.states ts);
  Pred.make
    (Fmt.str "%s_p" (Pred.name s))
    (fun st -> Hashtbl.mem tbl (State.to_string (State.project st base_vars)))
