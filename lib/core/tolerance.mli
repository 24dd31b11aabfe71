(** F-tolerance of a program to a specification (Section 2.4).

    [p] is masking (fail-safe, nonmasking) F-tolerant to SPEC from S iff
    [p] refines SPEC from S and [p [] F] refines the corresponding
    tolerance specification of SPEC from some [T ⊇ S].  The checkers use
    the F-span of S (forward closure under [p [] F]) as T — the smallest,
    hence complete, candidate — and split safety/liveness obligations the
    way the paper's proofs use Assumption 2 (finitely many faults).
    Liveness under faults is {!Check.leads_to} [~via]: the reach within
    [¬Q] in [p [] F], the deadlocks and fair cycles in [p] over the span
    ({!Ts.build_within}).  A {!session} owns the span's systems. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec

type item = {
  label : string;
  outcome : Check.outcome;
}

type report = {
  subject : string;
  tol : Spec.tolerance;
  span_size : int;
  invariant_size : int;
  items : item list;
}

(** [verdict r] is true iff every obligation holds; an [Unknown]
    obligation (resource budget exhausted mid-check) makes the verdict
    false but is reported distinctly — see {!unknowns}. *)
val verdict : report -> bool

(** The obligations that definitely fail (excludes [Unknown] ones). *)
val failures : report -> item list

(** The obligations left undecided by resource exhaustion. *)
val unknowns : report -> item list

(** The first exhausted-resource payload in the report, if any. *)
val first_unknown : report -> Detcor_robust.Error.resource option

val pp_report : report Fmt.t

type span = {
  pred : Pred.t;
  states : State.t list;
  ts_pf : Ts.t;  (** the explored [p [] F] system over the span *)
}

(** The F-span of [p] from [from] (Section 2.3): forward closure of the
    [from]-states under [p [] F], seeded with the [from]-states of the
    composed product (so an auxiliary fault variable takes every value).
    The one constructor of a predicate-seeded span; a span seeded with
    explicit states belongs to a {!session}. *)
val fault_span :
  ?limit:int ->
  ?engine:Ts.engine ->
  Program.t ->
  faults:Fault.t ->
  from:Pred.t ->
  span

(** [refines_from p ~spec ~invariant]: S closed in p and every computation
    from S in SPEC; also returns the explored system. *)
val refines_from :
  ?limit:int ->
  ?engine:Ts.engine ->
  Program.t ->
  spec:Spec.t ->
  invariant:Pred.t ->
  Ts.t * Check.outcome

(** The product-space states satisfying the invariant, enumerated as
    {!Ts.of_pred} enumerates its seeds ({!Ts.satisfying_states}).  Recorded as the [tolerance.init_states] span, annotated with
    [states] (|S|) and [nodes] (the enumeration nodes visited). *)
val init_states :
  ?engine:Ts.engine ->
  Program.t ->
  invariant:Pred.t ->
  State.t list

(** {2 Verification sessions}

    The F-span of S under [p [] F] depends only on [p], F and S; the
    fail-safe, nonmasking and masking classes differ only in which
    obligations they check over it.  A session shares that work across
    classes: it builds the invariant states, [p] from S, the span system,
    [p] over the span ({!Ts.build_within}) and [p] from the span's
    R-states at most once each, when a report first needs them, and it
    decides each obligation at most once.  It owns the span's systems:
    {!span_system} and {!program_system} hand them to callers that read
    them after the report (witnesses, Theorems 3.6, 4.3 and 5.5).

    Budget semantics.  One exhaustion cell serves every class.  When the
    ambient {!Detcor_robust.Budget} (or [limit]) runs out, the obligation
    being decided and every later undecided one report [Unknown] with the
    same resource, in this report and in every later one; obligations
    decided before the trip keep their verdicts.  A later class therefore
    reuses a verdict instead of tripping again.  Because shared systems
    are built and counted once, a state budget that used to be exhausted
    by repeated builds may now leave later classes with a verdict where
    independent {!check} calls report [Unknown]. *)

type session

(** [session p ~spec ~invariant ~faults] prepares a lazily evaluated
    verification of [p]; nothing is explored until the first {!report}.
    [init], when given, are the invariant states (skipping the
    product-space sweep); [recover] is as for {!check}. *)
val session :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?recover:Pred.t ->
  ?init:State.t list ->
  Program.t ->
  spec:Spec.t ->
  invariant:Pred.t ->
  faults:Fault.t ->
  session

(** The report for one class, checking its obligations in report order and
    reusing every structure and verdict earlier reports of the session
    already computed.  Byte-identical (under {!pp_report}) to an
    independent {!check} of the same class when no budget trips. *)
val report : session -> Spec.tolerance -> report

(** The session's explored [p [] F] system over the fault span, built now
    if no report needed it yet; [None] when exploring it (or the
    invariant) ran out of budget.  Numbered exactly as
    [(fault_span p ~faults ~from:invariant).ts_pf]. *)
val span_system : session -> Ts.t option

(** The session's system of [p] alone over the fault span, built now if no
    report needed it yet; [None] when exploring it, the span or the
    invariant ran out of budget. *)
val program_system : session -> Ts.t option

(** The exhausted resource the session recorded, if a budget (or the
    exploration limit) tripped in any report or system it built. *)
val exhausted : session -> Detcor_robust.Error.resource option

(** Full tolerance check for a given class.  [recover] (nonmasking only,
    default: the invariant) is the predicate computations converge to and
    refine SPEC from — the R of Theorem 4.3.  [workers] is ignored: every
    build is sequential, and the parameter remains only so that existing
    callers that pass it still compile. *)
val check :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?workers:int ->
  ?recover:Pred.t ->
  Program.t ->
  spec:Spec.t ->
  invariant:Pred.t ->
  faults:Fault.t ->
  tol:Spec.tolerance ->
  report

(** As {!check}, with explicit initial states.  {!check}, {!check_with},
    the [is_*] checkers and {!classify} are wrappers over {!session}. *)
val check_with :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?recover:Pred.t ->
  Program.t ->
  spec:Spec.t ->
  invariant:Pred.t ->
  init:State.t list ->
  faults:Fault.t ->
  tol:Spec.tolerance ->
  report

val is_failsafe :
  ?limit:int ->
  ?engine:Ts.engine ->
  Program.t -> spec:Spec.t -> invariant:Pred.t -> faults:Fault.t -> report

val is_nonmasking :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?recover:Pred.t ->
  Program.t -> spec:Spec.t -> invariant:Pred.t -> faults:Fault.t -> report

val is_masking :
  ?limit:int ->
  ?engine:Ts.engine ->
  Program.t -> spec:Spec.t -> invariant:Pred.t -> faults:Fault.t -> report

(** Reports for all three classes, masking first, from one session. *)
val classify :
  ?limit:int ->
  ?engine:Ts.engine ->
  ?recover:Pred.t ->
  Program.t ->
  spec:Spec.t ->
  invariant:Pred.t ->
  faults:Fault.t ->
  (Spec.tolerance * report) list
