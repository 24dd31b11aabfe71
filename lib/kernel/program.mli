(** Programs (Section 2.1) and the paper's program compositions
    (Section 2.1.1): parallel ([[]]), restriction ([Z ∧ p]), and
    sequential ([p ;_Z q = p [] (Z ∧ q)]). *)

type t

(** [make ~name ~vars ~actions] builds a program from variable declarations
    (variable, finite domain) and actions.
    @raise Invalid_argument on duplicate variable or action names. *)
val make : name:string -> vars:(string * Domain.t) list -> actions:Action.t list -> t

val name : t -> string
val actions : t -> Action.t list
val variables : t -> string list
val var_decls : t -> (string * Domain.t) list
val find_action : t -> string -> Action.t option
val with_name : string -> t -> t
val add_actions : t -> Action.t list -> t

(** Parallel composition [p [] q]: union of the actions
    (Section 2.1.1).  Shared variables must be declared with equal
    domains. *)
val parallel : t -> t -> t

val parallel_list : t list -> t

(** Restriction [Z ∧ p]: every action [g -> st] becomes [Z ∧ g -> st]. *)
val restrict : Pred.t -> t -> t

(** Sequential composition [p ;_Z q = p [] (Z ∧ q)]. *)
val sequential : t -> Pred.t -> t -> t

(** Size of the full product state space. *)
val space_size : t -> int

(** The full product state space — the universe for semantic checks. *)
val states : t -> State.t list

val fold_states : ('a -> State.t -> 'a) -> 'a -> t -> 'a

(** [successors p st]: successor states under every enabled action. *)
val successors : t -> State.t -> (Action.t * State.t) list

val enabled_actions : t -> State.t -> Action.t list

(** No action enabled: a maximal computation may stop here
    (Section 2.1, Maximality). *)
val deadlocked : t -> State.t -> bool

(** Checks all actions stay within declared domains; returns violations. *)
val well_formed : t -> string list

type encapsulation_violation = {
  offending_action : string;
  at_state : State.t;
  reason : string;
}

(** Semantic check of the paper's [encapsulates] relation (Section 2.1):
    each action of [p'] updating variables of [base] must execute only when
    the corresponding base action's guard holds and must have the base
    action's effect on the base variables. *)
val encapsulation_violations :
  base:t -> t -> universe:State.t list -> encapsulation_violation list

val encapsulates : base:t -> t -> universe:State.t list -> bool

val pp : t Fmt.t
