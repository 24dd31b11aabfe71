(** Guarded actions (Section 2.1).

    An action is [name :: guard -> statement], executed atomically.
    Statements are nondeterministic so Byzantine behavior and corruption
    faults are ordinary actions. *)

type t

(** [make name guard stmt] builds an action with a nondeterministic
    statement.  [based_on] records, for an action of a refined program of the
    form [g ∧ g' -> st || st'], the name of the underlying base-program
    action [g -> st]; encapsulation checks use it. *)
val make :
  ?based_on:string -> string -> Pred.t -> (State.t -> State.t list) -> t

val deterministic :
  ?based_on:string -> string -> Pred.t -> (State.t -> State.t) -> t

(** [assign name guard [(x, e); ...]] is the simultaneous assignment
    [x, ... := e, ...]. *)
val assign :
  ?based_on:string -> string -> Pred.t -> (string * Expr.t) list -> t

(** Like {!assign} but with semantic right-hand sides. *)
val assign_pred :
  ?based_on:string ->
  string ->
  Pred.t ->
  (string * (State.t -> Value.t)) list ->
  t

(** The right-hand side of one update: an expression over the pre-state,
    or [?], any value of the given domain. *)
type rhs = Expr of Expr.t | Any of Domain.t

(** [update name guard [(x, rhs); ...]] is the simultaneous assignment
    [x, ... := rhs, ...] of the guarded-command language: every right-hand
    side reads the pre-state, and each [Any d] fans out over the values of
    [d] (ascending), the first wildcard of the list varying slowest.  The
    action records the update list ({!updates}) so the transition-system
    layer can compile it.
    @raise Invalid_argument if a variable is assigned twice. *)
val update :
  ?based_on:string -> string -> Pred.t -> (string * rhs) list -> t

(** [of_moves name guard sg move f] is [deterministic name guard f] with a
    rank form of its statement: where the guard holds, the successor of
    the state of rank [r] under any layout of signature [sg] (see
    {!Pred.signature}) has rank [move r].  The transition system runs
    [move] on layouts of signature [sg] and [f] on any other; [f] stays
    the semantics.  A synthesized corrector is built this way: its move
    table is computed over an explored state space. *)
val of_moves :
  ?based_on:string ->
  string ->
  Pred.t ->
  Pred.signature ->
  (int -> int) ->
  (State.t -> State.t) ->
  t

(** [choose name guard fs] nondeterministically applies one of [fs]. *)
val choose :
  ?based_on:string -> string -> Pred.t -> (State.t -> State.t) list -> t

(** [corrupt name guard x d] nondeterministically sets [x] to any value of
    [d] — the archetypal fault action (Section 2.3). *)
val corrupt : ?based_on:string -> string -> Pred.t -> string -> Domain.t -> t

val skip : string -> t

val name : t -> string
val guard : t -> Pred.t
val based_on : t -> string option

(** The update list of an action built by {!update} (kept by {!restrict}
    and {!rename}); [None] for actions with an opaque statement. *)
val updates : t -> (string * rhs) list option

(** The move table of an action built by {!of_moves} (kept by {!restrict}
    and {!rename}); [None] otherwise. *)
val moves : t -> (Pred.signature * (int -> int)) option

(** [enabled ac st]: the guard of [ac] is true in [st]. *)
val enabled : t -> State.t -> bool

(** [execute ac st] is the list of successor states, empty if disabled. *)
val execute : t -> State.t -> State.t list

(** [restrict z ac] is the ∧-composition [z ∧ ac] (Section 2.1.1). *)
val restrict : Pred.t -> t -> t

val rename : string -> t -> t

(** [preserves ac t ~universe]: executing [ac] anywhere [t] holds yields a
    state where [t] holds (Section 2.3). *)
val preserves : t -> Pred.t -> universe:State.t list -> bool

val pp : t Fmt.t
