(** Counterexample explanation: turn a checker violation into an
    executable witness trace from the system's initial states. *)

open Detcor_kernel

type t = {
  prefix : Trace.t;  (** from an initial state to the violation site *)
  cycle : State.t list;  (** nonempty for fair-cycle violations *)
  description : string;
}

(** Shortest trace from the initials to the given state, if reachable. *)
val to_state : Ts.t -> State.t -> Trace.t option

(** Witness for a violation found on this system. *)
val violation : Ts.t -> Check.violation -> t option

val pp : t Fmt.t
