(* The refines relation between programs (Section 2.2.1).

   p' refines p from S iff S is closed in p' and every computation of p'
   from S projects (on the variables of p) to a computation of p.  On
   finite systems we check this transition-wise, admitting stuttering steps
   (transitions of p' that leave the variables of p unchanged), in the
   spirit of the Abadi–Lamport composition framework the paper builds on:
   the added detector/corrector machinery of p' moves its own variables
   without taking a step of p. *)

open Detcor_kernel
open Detcor_semantics

type step_violation = {
  source : State.t;
  action : string;
  target : State.t;
}

type result = {
  closure : Check.outcome;
  bad_steps : step_violation list;
  (* Fair infinite runs of p' that stutter on p's variables forever would
     make the projection a non-maximal sequence; [divergence] reports a
     witness SCC if one exists. *)
  divergence : Check.outcome;
}

let ok r =
  Check.holds r.closure && r.bad_steps = [] && Check.holds r.divergence

(* [project_step base s s']: classify a transition of p' with respect to p:
   [`Stutter] when p's variables are unchanged, [`Step] when some action of
   p enabled at [s] produces the same effect on p's variables, [`Bad]
   otherwise. *)
let project_step base s s' =
  let base_vars = Program.variables base in
  if State.agree_on s s' base_vars then `Stutter
  else
    let matches =
      List.exists
        (fun ac ->
          List.exists
            (fun t -> State.agree_on t s' base_vars)
            (Action.execute ac s))
        (Program.actions base)
    in
    if matches then `Step else `Bad

(* Check [super refines base from s] given the explored system of [super]
   from the [s]-states. *)
let check_ts ~base ts ~from:s =
  Detcor_obs.Obs.span "refinement.check"
    ~attrs:[ Detcor_obs.Attr.str "base" (Program.name base) ]
  @@ fun () ->
  let closure = Check.closed ts s in
  (* Projection reads states, twice per edge: decode each state once. *)
  let states = Array.init (Ts.num_states ts) (Ts.state ts) in
  let bad_steps = ref [] in
  Ts.iter_edges ts (fun i aid j ->
      let st = states.(i) and st' = states.(j) in
      match project_step base st st' with
      | `Stutter | `Step -> ()
      | `Bad ->
        bad_steps :=
          {
            source = st;
            action = Action.name (Ts.action ts aid);
            target = st';
          }
          :: !bad_steps);
  (* Divergence: a fair infinite run all of whose steps stutter on p's
     variables projects to an endless repetition of a single base state x
     (stutters preserve the base variables, and internal connectivity
     makes the projection constant).  That projection is a computation of
     p only when p itself has a self-loop at x, and an acceptable finite
     maximal one only when p deadlocks at x.  We therefore flag a fair SCC
     whose internal edges are all stutters unless the base self-loops or
     deadlocks at the common projection. *)
  let base_vars = Program.variables base in
  let base_self_loop_or_deadlock st =
    let enabled = Program.enabled_actions base st in
    enabled = []
    || List.exists
         (fun ac ->
           List.exists
             (fun t -> State.agree_on t st base_vars)
             (Action.execute ac st))
         enabled
  in
  let stutter_scc =
    let sccs = Fairness.fair_sccs ts in
    List.find_opt
      (fun (scc : Graph.scc) ->
        let in_scc = Hashtbl.create (List.length scc.members) in
        List.iter (fun v -> Hashtbl.replace in_scc v ()) scc.members;
        let all_stutter =
          List.for_all
            (fun v ->
              Ts.fold_out ts v
                (fun acc _aid j ->
                  acc
                  && ((not (Hashtbl.mem in_scc j))
                     || State.agree_on states.(v) states.(j) base_vars))
                true)
            scc.members
        in
        all_stutter
        &&
        match scc.members with
        | v :: _ -> not (base_self_loop_or_deadlock states.(v))
        | [] -> false)
      sccs
  in
  let divergence =
    match stutter_scc with
    | None -> Check.Holds
    | Some scc ->
      Check.Fails (Check.Fair_cycle (List.map (Array.get states) scc.members))
  in
  { closure; bad_steps = List.rev !bad_steps; divergence }

let check ?limit ~base super ~from =
  let ts = Ts.of_pred ?limit super ~from in
  check_ts ~base ts ~from

let outcome r =
  if not (Check.holds r.closure) then r.closure
  else
    match r.bad_steps with
    | { source; action; target } :: _ ->
      Check.Fails (Check.Bad_transition (source, action, target))
    | [] -> r.divergence

let pp ppf r =
  if ok r then Fmt.string ppf "refines"
  else
    Fmt.pf ppf "does not refine: %a" Check.pp_outcome (outcome r)
