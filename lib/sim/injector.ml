(* Fault-injection policies.

   Faults occur finitely often (the paper's Assumption 2); every policy
   bounds the number of injected fault actions. *)

open Detcor_core

type policy =
  | At_steps of int list (* inject at these step numbers (one fault each) *)
  | Random of {
      probability : float; (* per-step injection probability *)
      max_faults : int;
    }
  | None_

type t = {
  policy : policy;
  faults : Fault.t;
  actions : int list; (* the fault actions' indices, 0 .. k-1 *)
  mutable injected : int;
}

let make policy faults =
  {
    policy;
    faults;
    actions = List.mapi (fun i _ -> i) (Fault.actions faults);
    injected = 0;
  }

let injected t = t.injected
let faults t = t.faults

(* [inject t ~rng ~step ~enabled ~execute]: if the policy fires at this
   step and some fault action is enabled, execute one (uniformly chosen)
   and return its index with a uniformly chosen successor.  Fault action
   [j] (in [Fault.actions] order) is read through [enabled j] and
   [execute j], so the draws — the injection test, then the fault pick,
   then the successor pick — are the same whatever the states are. *)
let inject t ~rng ~step ~enabled ~execute =
  let should_fire =
    match t.policy with
    | None_ -> false
    | At_steps steps -> List.mem step steps
    | Random { probability; max_faults } ->
      t.injected < max_faults && Random.State.float rng 1.0 < probability
  in
  if not should_fire then None
  else begin
    match List.filter enabled t.actions with
    | [] -> None
    | enabled -> (
      let j = List.nth enabled (Random.State.int rng (List.length enabled)) in
      match execute j with
      | [] -> None
      | succs ->
        let st' = List.nth succs (Random.State.int rng (List.length succs)) in
        t.injected <- t.injected + 1;
        Some (j, st'))
  end
