(** Fault classes (Section 2.3): sets of actions over the program's
    variables, possibly with auxiliary variables (e.g. Byzantine mode
    bits). *)

open Detcor_kernel

type t

val make : ?aux_vars:(string * Domain.t) list -> string -> Action.t list -> t
val name : t -> string
val actions : t -> Action.t list
val aux_vars : t -> (string * Domain.t) list
val action_names : t -> string list

(** The empty fault class. *)
val none : t

val union : t -> t -> t

(** Transient corruption: sets [x] to an arbitrary value of [d]. *)
val corrupt_variable : ?guard:Pred.t -> string -> Domain.t -> t

(** [compose p f] is [p [] F] — the union of actions; its computations are
    only p-fair and p-maximal, which the tolerance checkers respect. *)
val compose : Program.t -> t -> Program.t

val pp : t Fmt.t
