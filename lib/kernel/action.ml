(* Guarded actions (Section 2.1).

   An action is [name :: guard -> statement]; executing the statement
   atomically updates zero or more variables.  Statements are
   nondeterministic ([State.t -> State.t list]) so that Byzantine behavior
   and corruption faults are expressible as ordinary actions (Section 2.3).

   [based_on] records provenance when an action of a refined program [p'] is
   of the form [g ∧ g' -> st || st'] for an action [g -> st] of the base
   program [p]; the encapsulation checks in [Program] use it.

   An action built by [update] also records its statement as data: the
   list of (target, right-hand side) updates.  [stmt] is then the
   interpreter of that list, and the transition-system layer may compile
   the same list into rank arithmetic instead.

   An action built by [of_moves] records its deterministic statement as a
   rank -> rank move table over a layout signature (see [Pred.signature]),
   which the transition-system layer runs on layouts of that signature;
   the statement closure stays the semantics. *)

type rhs = Expr of Expr.t | Any of Domain.t

type t = {
  name : string;
  guard : Pred.t;
  stmt : State.t -> State.t list;
  updates : (string * rhs) list option;
  moves : (Pred.signature * (int -> int)) option;
  based_on : string option;
}

let make ?based_on name guard stmt =
  { name; guard; stmt; updates = None; moves = None; based_on }

(* The simultaneous assignment [x, y, ... := e, ?, ...]: right-hand sides
   read the pre-state, and each [?] fans out over its domain, the first
   wildcard of the list varying slowest. *)
let run_updates updates st =
  let rec expand acc = function
    | [] -> [ acc ]
    | (x, Expr e) :: rest -> expand ((x, Expr.eval st e) :: acc) rest
    | (x, Any d) :: rest ->
      List.concat_map (fun v -> expand ((x, v) :: acc) rest) (Domain.values d)
  in
  List.map (State.update_many st) (expand [] updates)

let update ?based_on name guard updates =
  let targets = List.sort String.compare (List.map fst updates) in
  let rec dup = function
    | a :: (b :: _ as rest) -> if String.equal a b then Some a else dup rest
    | [ _ ] | [] -> None
  in
  (match dup targets with
  | Some x -> invalid_arg (Fmt.str "Action.update %s: %s assigned twice" name x)
  | None -> ());
  {
    name;
    guard;
    stmt = run_updates updates;
    updates = Some updates;
    moves = None;
    based_on;
  }

let deterministic ?based_on name guard f =
  make ?based_on name guard (fun st -> [ f st ])

let of_moves ?based_on name guard signature move f =
  { (deterministic ?based_on name guard f) with moves = Some (signature, move) }

let choose ?based_on name guard alternatives =
  make ?based_on name guard (fun st ->
      List.map (fun f -> f st) alternatives)

(* [corrupt name guard x domain] nondeterministically sets [x] to any value
   of [domain]; the archetypal fault action. *)
let corrupt ?based_on name guard x domain =
  make ?based_on name guard (fun st ->
      List.map (fun v -> State.set st x v) (Domain.values domain))

let skip name = deterministic name Pred.true_ (fun st -> st)

let name ac = ac.name
let guard ac = ac.guard
let based_on ac = ac.based_on
let updates ac = ac.updates
let moves ac = ac.moves

let enabled ac st = Pred.holds ac.guard st

(* Successors of [st] under [ac]; empty when the guard is false. *)
let execute ac st = if enabled ac st then ac.stmt st else []

(* Restriction of an action by a state predicate:  Z ∧ (g -> st)  is
   (Z ∧ g -> st)  (Section 2.1.1, ∧-composition).  The statement, and so
   its recorded updates or move table, is unchanged. *)
let restrict z ac = { ac with guard = Pred.and_ z ac.guard }

let rename name ac = { ac with name }

(* [preserves ac t ~universe]: execution of [ac] in any state where [t] is
   true results in a state where [t] is true (Section 2.3, Preserves). *)
let preserves ac t ~universe =
  List.for_all
    (fun st ->
      (not (Pred.holds t st))
      || List.for_all (Pred.holds t) (execute ac st))
    universe

let pp ppf ac =
  Fmt.pf ppf "%s :: %a -> <stmt>%a" ac.name Pred.pp ac.guard
    Fmt.(option (fun ppf b -> Fmt.pf ppf " (based on %s)" b))
    ac.based_on
