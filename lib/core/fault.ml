(* Fault classes (Section 2.3).

   A fault class for a program [p] is a set of actions over the variables of
   [p] (possibly extended with auxiliary variables, as with the Byzantine
   flags [b.j]).  Composing [p [] F] yields the system whose computations
   are the computations of [p] in the presence of [F]; such computations
   are only p-fair and p-maximal, which the checkers respect by running
   liveness obligations on [p] alone (faults are finitely many,
   Assumption 2). *)

open Detcor_kernel

type t = {
  name : string;
  actions : Action.t list;
  (* Auxiliary variables introduced by the fault class (e.g. the Byzantine
     mode bits), with their domains. *)
  aux_vars : (string * Domain.t) list;
}

let make ?(aux_vars = []) name actions = { name; actions; aux_vars }

let name f = f.name
let actions f = f.actions
let aux_vars f = f.aux_vars
let action_names f = List.map Action.name f.actions

let none = make "no-fault" []

let union a b =
  make
    ~aux_vars:(a.aux_vars @ b.aux_vars)
    (Fmt.str "(%s + %s)" a.name b.name)
    (a.actions @ b.actions)

(* [corrupt_variable x d]: a transient fault that sets [x] to any value of
   its domain. *)
let corrupt_variable ?(guard = Pred.true_) x d =
  make (Fmt.str "corrupt-%s" x) [ Action.corrupt (Fmt.str "F:corrupt-%s" x) guard x d ]

(* [p [] F] (the paper's overloaded [] for programs and faults). *)
let compose p f =
  let fault_prog =
    Program.make ~name:(Fmt.str "F:%s" f.name) ~vars:f.aux_vars
      ~actions:f.actions
  in
  Program.with_name
    (Fmt.str "(%s [] %s)" (Program.name p) f.name)
    (Program.parallel p fault_prog)

let pp ppf f =
  Fmt.pf ppf "fault-class %s (%d actions)" f.name (List.length f.actions)
