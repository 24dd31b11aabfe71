(** Automated addition of fault tolerance — the companion transformation
    method the paper builds on (its ref. [4]): add detectors (guard
    strengthening to weakest detection predicates) for fail-safe, add a
    corrector (ranked recovery) for nonmasking, and both for masking.
    Every synthesized program is re-verified with {!Detcor_core.Tolerance}
    before being returned.

    Layering alone is not a complete procedure, so three repairs back it
    up: when the fail-safe restriction kill-cascades the invariant to the
    empty set, an {e invariant-weakening search} reseeds the same greatest
    fixpoint from the whole ms-complement (the largest set the restricted
    program stays live in while excluding [ms] — the ideal-stabilization
    view, where recovery re-establishes a specification-equivalent
    legitimacy predicate rather than the original invariant verbatim); an
    {e anti-undo veto} plus a deadlock-target repair pass keep ranked
    recovery from seeding fair cycles or stalling inside the target
    region, escalating to two-variable moves when one-variable layering
    cannot rank the span; and a bounded {e counterexample-guided loop}
    turns fair-cycle and deadlock witnesses from the verification report
    into layering edge bans and forced moves.  Final verification remains
    the soundness gate.

    Each phase has one implementation: the [ms]/[mt] fixpoints, detection
    guards, invariant recomputation and recovery layering run on integer
    state indices and layout ranks (bitsets, reverse-CSR adjacency,
    [int]-array worklists and frontiers) over the {!Detcor_semantics.Ts}
    API,
    whichever engine built the explored system.  [?engine] (with the
    spill directory of {!Detcor_semantics.Ts.set_spill_defaults}) only
    chooses that builder, so synthesis over the reference, packed and
    sharded builders yields identical programs and reports. *)

open Detcor_kernel
open Detcor_spec
open Detcor_core

type failure =
  | Empty_invariant
  | Unrecoverable_state of State.t
  | Verification_failed of Tolerance.report
  | Exhausted of Detcor_robust.Error.resource
      (** a resource budget ran out inside a synthesis fixpoint: the
          outcome is undecided, not negative *)

type 'a outcome = ('a, failure) result

val pp_failure : failure Fmt.t

type result = {
  program : Program.t;
  invariant : Pred.t;
      (** the recomputed invariant — named [S_*_weakened] when the
          weakening search replaced the original one *)
  report : Tolerance.report;  (** verification of the synthesized program *)
  added_detectors : (string * Pred.t) list;
      (** per action: the detection guard that was conjoined *)
  recovery_states : int;  (** states given a recovery transition *)
  repair_iterations : int;
      (** counterexample-guided relayering rounds before the verified
          program was reached (0: first layering verified) *)
}

(** Candidate recovery steps from a state: the states differing from it
    in at most [step_vars] (1 or 2) of [p]'s declared variables, within
    their declared domains, deduplicated and excluding the state itself.
    The list order is the layering tie-break order (deterministic). *)
val neighbors : step_vars:int -> Program.t -> State.t -> State.t list

(** A state's candidate recovery steps, by state index of one system. *)
type steps = {
  capacity : int;
      (** no state has more candidate steps: the length [fill] needs *)
  fill : int -> int array -> int;
      (** [fill i buf] writes the indices of
          [neighbors ~step_vars p (Ts.state ts i)] that [ts] holds into
          [buf], from slot 0 and in the same order, and returns how many;
          it allocates nothing on a system with a layout *)
  first : int -> int array -> (int -> bool) -> int;
      (** [first i buf ok]: the first index [fill i buf] would write that
          [ok] accepts, or [-1]; it enumerates no step past that one, and
          uses [buf] as [fill] does *)
  outside : (int -> bool) option;
      (** whether state [i] holds a value outside [p]'s declared domains;
          [None] when every declared domain of [p] covers its slot of
          [ts]'s layout (then no state of [ts] does) *)
}

(** [candidate_steps ~step_vars p ts]: the candidate steps of [ts]'s
    states.  On a system with a layout the steps and the test are rank
    arithmetic, [rank + (c' - c) · stride] per changed variable, and
    build no state; on a system without one (the reference engine) the
    steps are {!neighbors} resolved through
    {!Detcor_semantics.Ts.index_of}, and [outside] is [Some]. *)
val candidate_steps :
  step_vars:int -> Program.t -> Detcor_semantics.Ts.t -> steps

(** Strengthen every action with its weakest detection predicate for the
    [ms/mt]-extended safety specification; recompute the invariant.
    The analysis explores the fault span of the invariant,
    Reach(S, p [] F), and the whole [p [] F] product only when the
    invariant-weakening search needs it; [limit] bounds the states each
    exploration visits.  [engine] chooses the {!Detcor_semantics.Ts}
    builder of every explored system (default [Auto]); the synthesis
    algorithm is the same for all of them.  [workers] is ignored:
    synthesis is sequential, and the parameter remains only so that
    existing callers that pass it still compile. *)
val add_failsafe :
  ?limit:int ->
  ?engine:Detcor_semantics.Ts.engine ->
  ?workers:int ->
  Program.t ->
  spec:Spec.t ->
  invariant:Pred.t ->
  faults:Fault.t ->
  result outcome

(** Add a ranked recovery corrector converging from the fault span back to
    the invariant.  [step_vars] bounds how many variables one ranked
    recovery step may write (default 1 — local corrections; the attempt
    ladder escalates to 2 on its own when 1 cannot rank the span).
    [workers] is ignored, as in {!add_failsafe}. *)
val add_nonmasking :
  ?limit:int ->
  ?engine:Detcor_semantics.Ts.engine ->
  ?workers:int ->
  ?step_vars:int ->
  Program.t ->
  spec:Spec.t ->
  invariant:Pred.t ->
  faults:Fault.t ->
  result outcome

(** Fail-safe restriction (with the invariant-weakening fallback) followed
    by safety-respecting recovery to [target] (default: the recomputed
    invariant).  [workers] is ignored, as in {!add_failsafe}. *)
val add_masking :
  ?limit:int ->
  ?engine:Detcor_semantics.Ts.engine ->
  ?workers:int ->
  ?step_vars:int ->
  ?target:Pred.t ->
  Program.t ->
  spec:Spec.t ->
  invariant:Pred.t ->
  faults:Fault.t ->
  result outcome
