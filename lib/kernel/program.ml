(* Programs (Section 2.1) and program compositions (Section 2.1.1).

   A program is a set of variables with finite domains and a finite set of
   actions.  The three compositions of the paper are provided:

   - parallel composition  p [] q   : union of actions;
   - restriction           Z ∧ p    : each action guarded by Z;
   - sequential            p ;_Z q  : p [] (Z ∧ q).

   [states] enumerates the full product state space; it is the universe over
   which the semantic checks of the other libraries run. *)

type var_decl = {
  var_name : string;
  domain : Domain.t;
}

type t = {
  name : string;
  vars : var_decl list;
  actions : Action.t list;
}

let make ~name ~vars ~actions =
  let var_names = List.map (fun (x, _) -> x) vars in
  let sorted = List.sort_uniq String.compare var_names in
  if List.length sorted <> List.length var_names then
    Detcor_robust.Error.internal "Program.make %s: duplicate variable declaration"
      name;
  let action_names = List.map Action.name actions in
  let sorted_actions = List.sort_uniq String.compare action_names in
  if List.length sorted_actions <> List.length action_names then
    Detcor_robust.Error.internal "Program.make %s: duplicate action name" name;
  {
    name;
    vars = List.map (fun (x, d) -> { var_name = x; domain = d }) vars;
    actions;
  }

let name p = p.name
let actions p = p.actions
let variables p = List.map (fun vd -> vd.var_name) p.vars

let var_decls p = List.map (fun vd -> (vd.var_name, vd.domain)) p.vars

let find_action p name =
  List.find_opt (fun ac -> String.equal (Action.name ac) name) p.actions

let with_name name p = { p with name }

let add_actions p actions =
  make ~name:p.name
    ~vars:(var_decls p)
    ~actions:(p.actions @ actions)

(* Union of variable declarations; domains of shared variables must agree. *)
let merge_vars ~context vs1 vs2 =
  let extend acc vd =
    match List.find_opt (fun v -> String.equal v.var_name vd.var_name) acc with
    | None -> acc @ [ vd ]
    | Some existing ->
      if Domain.values existing.domain = Domain.values vd.domain then acc
      else
        Detcor_robust.Error.internal
          "%s: variable %s declared with two different domains" context
          vd.var_name
  in
  List.fold_left extend vs1 vs2

(* Parallel composition p [] q (written p || q in the paper). *)
let parallel p q =
  let vars = merge_vars ~context:"Program.parallel" p.vars q.vars in
  {
    name = Fmt.str "(%s [] %s)" p.name q.name;
    vars;
    actions = p.actions @ q.actions;
  }

let parallel_list = function
  | [] -> Detcor_robust.Error.internal "Program.parallel_list: empty list"
  | p :: ps -> List.fold_left parallel p ps

(* Restriction Z ∧ p. *)
let restrict z p =
  {
    p with
    name = Fmt.str "(%s /\\ %s)" (Pred.name z) p.name;
    actions = List.map (Action.restrict z) p.actions;
  }

(* Sequential composition p ;_Z q = p [] (Z ∧ q). *)
let sequential p z q = parallel p (restrict z q)

(* Number of states in the full product space. *)
let space_size p =
  List.fold_left (fun acc vd -> acc * Domain.size vd.domain) 1 p.vars

(* Full product state space.  The fold enumerates lazily so callers can stop
   early; [states] materializes the whole space. *)
let fold_states f init p =
  let rec go acc st = function
    | [] ->
      Detcor_robust.Budget.tick ();
      f acc st
    | vd :: rest ->
      List.fold_left
        (fun acc v -> go acc (State.set st vd.var_name v) rest)
        acc (Domain.values vd.domain)
  in
  go init State.empty p.vars

let states p = List.rev (fold_states (fun acc st -> st :: acc) [] p)

(* Successor states of [st] under any action of [p], tagged by action. *)
let successors p st =
  List.concat_map
    (fun ac -> List.map (fun st' -> (ac, st')) (Action.execute ac st))
    p.actions

let enabled_actions p st = List.filter (fun ac -> Action.enabled ac st) p.actions

(* A state is a deadlock of p when no action is enabled (the guard of each
   action is false): exactly the condition under which a maximal computation
   may be finite (Section 2.1). *)
let deadlocked p st = enabled_actions p st = []

(* [well_formed p] checks that every action maps in-domain states to
   in-domain states; returns the list of violations. *)
let well_formed p =
  let universe = states p in
  let in_domain st =
    List.for_all (fun vd -> Domain.mem (State.get st vd.var_name) vd.domain) p.vars
  in
  let check_action ac =
    List.concat_map
      (fun st ->
        List.filter_map
          (fun st' ->
            if in_domain st' then None
            else
              Some
                (Fmt.str "action %s maps %s out of domain (%s)"
                   (Action.name ac) (State.to_string st) (State.to_string st')))
          (Action.execute ac st))
      universe
  in
  List.concat_map check_action p.actions

(* ------------------------------------------------------------------ *)
(* Encapsulation (Section 2.1, Encapsulates).                          *)
(* ------------------------------------------------------------------ *)

type encapsulation_violation = {
  offending_action : string;
  at_state : State.t;
  reason : string;
}

(* [encapsulation_violations ~base p' ~universe]: p' encapsulates p iff each
   action of p' that updates variables of p is of the form
   [g ∧ g' -> st || st'] for an action [g -> st] of p.  Semantically, over
   every state of the universe: whenever such an action of p' is enabled and
   executes, (i) the guard of the underlying base action holds, and (ii) the
   effect projected on the variables of p coincides with the base action's
   effect.  Actions with a [based_on] tag are checked against that action;
   untagged actions must leave the base variables unchanged. *)
let encapsulation_violations ~base p' ~universe =
  let base_vars = variables base in
  let violation ac st reason =
    { offending_action = Action.name ac; at_state = st; reason }
  in
  let changes_base_vars st st' = not (State.agree_on st st' base_vars) in
  let check_untagged ac st =
    List.filter_map
      (fun st' ->
        if changes_base_vars st st' then
          Some
            (violation ac st
               "updates base variables but is not based on a base action")
        else None)
      (Action.execute ac st)
  in
  let check_tagged ac base_name st =
    match find_action base base_name with
    | None ->
      if Action.enabled ac st then
        [ violation ac st (Fmt.str "based on unknown action %s" base_name) ]
      else []
    | Some base_ac ->
      if not (Action.enabled ac st) then []
      else if not (Action.enabled base_ac st) then
        [
          violation ac st
            (Fmt.str "enabled while base guard of %s is false" base_name);
        ]
      else
        let base_succs =
          List.map (fun s -> State.project s base_vars) (Action.execute base_ac st)
        in
        List.filter_map
          (fun st' ->
            let proj = State.project st' base_vars in
            if List.exists (State.equal proj) base_succs then None
            else
              Some
                (violation ac st
                   (Fmt.str "effect on base variables differs from %s" base_name)))
          (Action.execute ac st)
  in
  let check_action ac =
    List.concat_map
      (fun st ->
        match Action.based_on ac with
        | None -> check_untagged ac st
        | Some base_name -> check_tagged ac base_name st)
      universe
  in
  List.concat_map check_action p'.actions

let encapsulates ~base p' ~universe =
  encapsulation_violations ~base p' ~universe = []

let pp ppf p =
  Fmt.pf ppf "@[<v>program %s@,vars:@,  @[<v>%a@]@,actions:@,  @[<v>%a@]@]"
    p.name
    Fmt.(list ~sep:cut (fun ppf vd ->
        Fmt.pf ppf "%s : %a" vd.var_name Domain.pp vd.domain))
    p.vars
    Fmt.(list ~sep:cut Action.pp)
    p.actions
