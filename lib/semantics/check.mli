(** Decision procedures for the temporal notions of Section 2, over
    explicit transition systems.  Every check returns [Holds] or a
    counterexample-bearing violation.  {!leads_to} is the one leads-to
    procedure: detector Progress, corrector Convergence and liveness
    under finitely many faults ([~via]) all call it. *)

open Detcor_kernel

type violation =
  | Bad_state of State.t
  | Bad_transition of State.t * string * State.t
  | Deadlock of State.t
  | Fair_cycle of State.t list
  | Not_implied of State.t

type outcome =
  | Holds
  | Fails of violation
  | Unknown of Detcor_robust.Error.resource
      (** a resource budget ran out before the obligation was decided *)

(** [Holds] only: [Fails] and [Unknown] are both [false]. *)
val holds : outcome -> bool

(** [Holds] or [Fails]: was the obligation decided within budget? *)
val known : outcome -> bool
val pp_violation : violation Fmt.t
val pp_outcome : outcome Fmt.t

(** [closed ts s]: no reachable transition falsifies [s] — "[s] is closed in
    [p]" (Section 2.2.1) over the explored graph. *)
val closed : Ts.t -> Pred.t -> outcome

(** [closed_under_actions ~universe actions s]: every action preserves [s]
    from anywhere in the universe — "s is closed in F" (Section 2.3). *)
val closed_under_actions :
  universe:State.t list -> Action.t list -> Pred.t -> outcome

(** Generalized Hoare triple [{pre} p {post}] (Section 2.2.1): every
    reachable transition from a [pre]-state lands in a [post]-state. *)
val hoare_triple : Ts.t -> pre:Pred.t -> post:Pred.t -> outcome

(** Safety as bad states + bad transitions over the reachable graph. *)
val safety :
  Ts.t ->
  bad_state:(State.t -> bool) ->
  bad_transition:(State.t -> State.t -> bool) ->
  outcome

(** Decomposed safety: bad-state predicates plus bad (source, target)
    predicate pairs, evaluated through the engine's {!Ts.pred_bitset}
    cache — one pass over the states, and the edge sweep is skipped
    when [bad_pairs] is empty.  Verdict (and first violation) identical
    to {!safety} on the corresponding closures. *)
val safety_parts :
  Ts.t ->
  bad_states:Pred.t list ->
  bad_pairs:(Pred.t * Pred.t) list ->
  outcome

(** [leads_to ts p q] under weak fairness: every [p]-state along every fair
    maximal computation is eventually followed by a [q]-state.  The
    [p ∧ ¬q] starts and the reach within [¬q] are taken in [via] (default
    [ts]), the deadlocks and fair SCCs in [ts]: [~via:ts_pf] over [p]'s
    system decides leads-to on [p [] F] under finitely many faults. *)
val leads_to : ?via:Ts.t -> Ts.t -> Pred.t -> Pred.t -> outcome

(** [eventually ts q] = [leads_to ts true q]. *)
val eventually : Ts.t -> Pred.t -> outcome

(** [converges ts s r]: "S converges to R in p" (Section 2.2) — [cl s],
    [cl r], and [s] leads to [r]. *)
val converges : Ts.t -> Pred.t -> Pred.t -> outcome

(** [implies ts a b]: [a ⇒ b] at every explored state. *)
val implies : Ts.t -> Pred.t -> Pred.t -> outcome

(** No reachable deadlock inside the region. *)
val deadlock_free : Ts.t -> inside:Pred.t -> outcome

(** Conjunction: first failure wins. *)
val all : outcome list -> outcome
