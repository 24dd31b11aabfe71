(** Guards, predicates and statements compiled against a {!Layout}.

    A compiled predicate reads a state as its slot codes (see
    {!Layout.decode}) and allocates nothing; a compiled action computes its
    successors' ranks arithmetically from the source rank, without building
    a successor state.  Compilation is total on the guarded-command
    language's well-kinded expressions and update lists; anything else
    ([Pred.make] closures, [Action.make] statements, kind errors, variables
    outside the layout) is refused, and the caller keeps the interpreter.

    Compiled code raises what the interpreter raises, where it raises it:
    [Value.Type_error "modulo by zero"], and a domain escape of an assigned
    value through {!Layout.escape}, naming the lowest-slot escaping
    variable exactly as {!Layout.pack} would. *)

open Detcor_kernel

(** [pred layout p] compiles the expression of [p] ({!Pred.expr}) into a
    test on slot codes, or [None] when [p] has no expression or it does not
    compile. *)
val pred : Layout.t -> Pred.t -> (int array -> bool) option

(** [iter_satisfying layout p f] calls [f rank] for every rank of the
    product space, ascending, whose state satisfies [p]: compiled when [p]
    compiles, otherwise [p] runs on a scratch state.  Builds no state. *)
val iter_satisfying : Layout.t -> Pred.t -> (int -> unit) -> unit

(** An action compiled against a layout. *)
type action

(** [action layout ac] compiles an action built by {!Action.update}: its
    update list always, its guard when the guard's predicate compiles
    (otherwise the guard stays a closure over the state).  [None] for
    actions with an opaque statement or an update list that does not
    compile. *)
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
