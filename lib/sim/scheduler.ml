(* Schedulers for the simulation environment (the SIEFAST role sketched in
   the paper's concluding remarks).

   A scheduler picks the next program action among the enabled ones.  Both
   provided schedulers are weakly fair in the long run: the uniform random
   scheduler almost surely executes every continuously enabled action, and
   the round-robin scheduler does so deterministically. *)

type t =
  | Uniform_random
  | Round_robin

(* [pick sched ~rng ~step enabled]: choose one of the enabled actions,
   given as ascending action indices; [step] drives round-robin
   rotation. *)
let pick sched ~rng ~step enabled =
  match enabled with
  | [] -> None
  | _ :: _ -> (
    match sched with
    | Uniform_random ->
      Some (List.nth enabled (Random.State.int rng (List.length enabled)))
    | Round_robin ->
      (* Rotate by the step counter over the action indices so each
         continuously enabled action is served within one rotation. *)
      Some (List.nth enabled (step mod List.length enabled)))

(* [choose_successor ~rng succs]: nondeterministic statements yield several
   successor states; pick one uniformly. *)
let choose_successor ~rng = function
  | [] -> None
  | succs -> Some (List.nth succs (Random.State.int rng (List.length succs)))

let pp ppf = function
  | Uniform_random -> Fmt.string ppf "uniform-random"
  | Round_robin -> Fmt.string ppf "round-robin"
