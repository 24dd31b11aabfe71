(** Guards, predicates and statements compiled against a {!Layout}.

    A compiled predicate reads a state as its slot codes (see
    {!Layout.decode}) and allocates nothing; a compiled action computes its
    successors' ranks arithmetically from the source rank, without building
    a successor state.  Compilation is total on the guarded-command
    language's well-kinded expressions and update lists, and on rank forms
    ({!Pred.of_ranks}, {!Action.of_moves}) tagged with the layout's own
    signature; anything else ([Pred.make] closures, [Action.make]
    statements, kind errors, variables outside the layout, rank forms
    computed on a layout of another signature) is refused, and the caller
    keeps the interpreter.

    Compiled code raises what the interpreter raises, where it raises it:
    [Value.Type_error "modulo by zero"], and a domain escape of an assigned
    value through {!Layout.escape}, naming the lowest-slot escaping
    variable exactly as {!Layout.pack} would. *)

open Detcor_kernel

(** A compiled predicate: a test on a state's slot codes, on its rank, or
    on both. *)
type test =
  | Codes of (int array -> bool)
  | Ranks of (int -> bool)
  | Both of (int array -> int -> bool)

(** [holds t ~codes ~rank] runs [t] on the state of rank [rank] whose
    slot codes are [codes]. *)
val holds : test -> codes:int array -> rank:int -> bool

(** [pred layout p] compiles [p]: its expression ({!Pred.expr}) into a
    test on slot codes; otherwise its rank form ({!Pred.ranked}) when
    tagged with [layout]'s signature; otherwise, for a conjunction
    ({!Pred.operands}), both operands, evaluated left to right with the
    interpreter's short circuit.  [None] when any part does not compile
    (an opaque closure, a rank form of another signature). *)
val pred : Layout.t -> Pred.t -> test option

(** [iter_satisfying layout p f] calls [f rank] for every rank of the
    product space, ascending, whose state satisfies [p]: compiled when [p]
    compiles, otherwise [p] runs on a scratch state.  Builds no state. *)
val iter_satisfying : Layout.t -> Pred.t -> (int -> unit) -> unit

(** An action compiled against a layout. *)
type action

(** [action layout ac] compiles an action built by {!Action.update} (its
    update list) or by {!Action.of_moves} (its move table, when tagged with
    [layout]'s signature), and its guard when the guard's predicate
    compiles (otherwise the guard stays a closure over the state).  [None]
    for actions with an opaque statement, a move table of another
    signature or an update list that does not compile. *)
val action : Layout.t -> Action.t -> action option

(** The guard is a closure: {!successors} reads the source state. *)
val needs_state : action -> bool

(** [successors a ~codes ~rank st aid f] calls [f aid rank'] for every
    successor of the source state of rank [rank], whose slot codes are
    [codes] and whose state is [st] (only read when {!needs_state}), in
    the interpreter's statement order; nothing when the guard is false.
    @raise Layout.Unrepresentable on a domain escape. *)
val successors :
  action ->
  codes:int array ->
  rank:int ->
  State.t ->
  int ->
  (int -> int -> unit) ->
  unit
