(** State predicates (Section 2.1).

    A state predicate is characterized by the set of states where it holds;
    the paper uses predicates and state sets interchangeably.  The working
    representation is a semantic function with a display name.  Semantic
    comparisons ([implies_on], [equal_on]) are relative to an explicit finite
    universe of states, typically produced by state-space exploration. *)

type t

val make : string -> (State.t -> bool) -> t
val holds : t -> State.t -> bool

(** The predicate's raw semantic function — the compilation hook for batch
    evaluators (e.g. the simulator's syndrome compiler), which pull the
    closure out once per predicate instead of re-entering {!holds} on
    every query. *)
val fn : t -> State.t -> bool

val name : t -> string

(** Unique id of this predicate instance (two predicates built by separate
    [make] calls have different ids even when extensionally equal).  Used by
    the transition-system layer to key per-system bitset caches. *)
val id : t -> int

(** [of_expr e] interprets a boolean expression as a predicate. *)
val of_expr : ?name:string -> Expr.t -> t

(** The boolean expression this predicate evaluates, when it has one:
    [of_expr], [true_], [false_], and the connectives [not_], [and_],
    [or_], [implies] (and so [conj], [disj]) when every operand has one.
    [make] and [of_states] predicates are opaque ([None]).  Compilers use
    it to evaluate the predicate without building a state. *)
val expr : t -> Expr.t option

(** {1 Rank forms}

    A layout (see [Detcor_semantics.Layout]) numbers the states binding
    exactly its variables to values of their domains by mixed-radix rank.
    Its signature is what fixes that numbering: the variables in slot
    (ascending name) order, each with its domain values in code
    (ascending {!Value.compare}) order.  Two layouts of equal signature
    give every state the same rank. *)

type signature = (string * Value.t list) list

(** [of_ranks name sg test eval] is the predicate [make name eval] with a
    rank form: at the state of rank [r] under any layout of signature
    [sg], [test r] must equal [eval] there.  Compilers run [test] on
    layouts of signature [sg] and refuse it on any other layout, where
    [eval] runs; [eval] stays the semantics everywhere (other layouts,
    states outside every layout, the reference engine). *)
val of_ranks : string -> signature -> (int -> bool) -> (State.t -> bool) -> t

(** The rank form of an {!of_ranks} predicate ([None] for every other
    constructor). *)
val ranked : t -> (signature * (int -> bool)) option

(** The operands of an {!and_} predicate ([None] for every other
    constructor): a conjunction whose operands have no common
    expression, such as a rank form restricting a guard, still compiles
    operand by operand. *)
val operands : t -> (t * t) option

val true_ : t
val false_ : t
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val implies : t -> t -> t
val conj : t list -> t
val disj : t list -> t

(** [of_states states] is the predicate "member of [states]". *)
val of_states : ?name:string -> State.t list -> t

(** [implies_on ~universe a b] checks [a ⇒ b] over every state of the
    universe. *)
val implies_on : universe:State.t list -> t -> t -> bool

val equal_on : universe:State.t list -> t -> t -> bool
val satisfying : universe:State.t list -> t -> State.t list
val count : universe:State.t list -> t -> int
val pp : t Fmt.t
