(* State predicates (Section 2.1).

   A state predicate is characterized by the set of states in which it is
   true; the paper uses predicates and state sets interchangeably, and so do
   we: the working representation is a semantic function [State.t -> bool]
   carrying a name for diagnostics.  Boolean connectives on predicates are
   exactly set operations.

   A predicate built from an expression keeps it ([expr]), and the
   connectives keep the combined expression when every operand has one,
   so the transition-system layer can compile it against a layout; [eval]
   is always the interpreter of that expression. *)

type t = {
  id : int;
  name : string;
  eval : State.t -> bool;
  expr : Expr.t option;
}

(* Unique per predicate instance; the transition-system caches key their
   bitsets on it.  Atomic so predicates may be constructed from worker
   domains during parallel exploration. *)
let counter = Atomic.make 0

let with_expr expr name eval =
  { id = Atomic.fetch_and_add counter 1; name; eval; expr }

let make name eval = with_expr None name eval

let id p = p.id
let expr p = p.expr

let holds p st = p.eval st

(* The raw closure, for batch compilers that hoist it out of the record
   once instead of re-entering [holds] per query. *)
let fn p = p.eval

let name p = p.name

let of_expr ?name:n e =
  let name = match n with Some s -> s | None -> Expr.to_string e in
  with_expr (Some e) name (fun st -> Expr.eval_bool st e)

let true_ = with_expr (Some Expr.true_) "true" (fun _ -> true)
let false_ = with_expr (Some Expr.false_) "false" (fun _ -> false)

(* The expression of a connective, when both operands have one. *)
let both f a b =
  match (a.expr, b.expr) with Some ea, Some eb -> Some (f ea eb) | _ -> None

let not_ p =
  with_expr
    (Option.map Expr.not_ p.expr)
    (Fmt.str "!(%s)" p.name)
    (fun st -> not (p.eval st))

let and_ a b =
  with_expr
    (both (fun ea eb -> Expr.and_ [ ea; eb ]) a b)
    (Fmt.str "(%s && %s)" a.name b.name)
    (fun st -> a.eval st && b.eval st)

let or_ a b =
  with_expr
    (both (fun ea eb -> Expr.or_ [ ea; eb ]) a b)
    (Fmt.str "(%s || %s)" a.name b.name)
    (fun st -> a.eval st || b.eval st)

let implies a b =
  with_expr (both Expr.implies a b)
    (Fmt.str "(%s => %s)" a.name b.name)
    (fun st -> (not (a.eval st)) || b.eval st)

let conj ps = List.fold_left and_ true_ ps
let disj ps = List.fold_left or_ false_ ps

(* Membership is a hashed set over the states themselves: a query costs
   one structural hash instead of rendering the state to a string. *)
module State_set = Hashtbl.Make (struct
  type t = State.t

  let equal = State.equal
  let hash = State.hash
end)

let of_states ?(name = "<state-set>") states =
  let tbl = State_set.create (max 16 (List.length states)) in
  List.iter (fun st -> State_set.replace tbl st ()) states;
  make name (fun st -> State_set.mem tbl st)

(* Semantic comparisons are relative to an explicit universe of states. *)

let holds_everywhere p universe = List.for_all p.eval universe

let implies_on ~universe a b =
  List.for_all (fun st -> (not (a.eval st)) || b.eval st) universe

let equal_on ~universe a b =
  List.for_all (fun st -> a.eval st = b.eval st) universe

let satisfying ~universe p = List.filter p.eval universe

let count ~universe p = List.length (satisfying ~universe p)

let pp ppf p = Fmt.string ppf p.name
