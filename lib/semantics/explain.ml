(* Counterexample explanation: turn a checker violation into an executable
   witness — a shortest trace from the system's initial states to the
   offending state or transition, plus the looping states for fairness
   violations. *)

open Detcor_kernel

type t = {
  prefix : Trace.t; (* from an initial state to the violation site *)
  cycle : State.t list; (* nonempty for fair-cycle violations *)
  description : string;
}

let trace_of_path ts (start, steps) =
  let trace_steps =
    List.map
      (fun (aid, j) ->
        { Trace.action = Action.name (Ts.action ts aid); target = Ts.state ts j })
      steps
  in
  Trace.make (Ts.state ts start) trace_steps

(* Shortest path from the initials to a target state. *)
let to_state ts st =
  match Ts.index_of ts st with
  | None -> None
  | Some goal ->
    Option.map (trace_of_path ts)
      (Graph.shortest_path ts ~from:(Ts.initials ts) ~target:(fun i -> i = goal))

(* Extend a trace by one concrete transition when the system has it. *)
let with_step ts trace ~action ~target =
  ignore ts;
  Trace.append trace ~action ~target

let violation ts (v : Check.violation) =
  match v with
  | Check.Bad_state st ->
    Option.map
      (fun prefix ->
        { prefix; cycle = []; description = "reaches a bad state" })
      (to_state ts st)
  | Check.Not_implied st ->
    Option.map
      (fun prefix ->
        { prefix; cycle = []; description = "reaches a state refuting the implication" })
      (to_state ts st)
  | Check.Deadlock st ->
    Option.map
      (fun prefix -> { prefix; cycle = []; description = "reaches a deadlock" })
      (to_state ts st)
  | Check.Bad_transition (s, action, s') ->
    Option.map
      (fun prefix ->
        {
          prefix = with_step ts prefix ~action ~target:s';
          cycle = [];
          description = "takes a bad transition";
        })
      (to_state ts s)
  | Check.Fair_cycle states -> (
    match states with
    | [] -> None
    | first :: _ ->
      Option.map
        (fun prefix ->
          {
            prefix;
            cycle = states;
            description = "reaches a fair cycle it can follow forever";
          })
        (to_state ts first))

let pp ppf e =
  Fmt.pf ppf "@[<v>%s:@,%a%a@]" e.description Trace.pp e.prefix
    Fmt.(
      if e.cycle = [] then nop
      else fun ppf () ->
        pf ppf "@,loop: {%a}" (list ~sep:(any "; ") State.pp) e.cycle)
    ()
