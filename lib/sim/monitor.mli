(** Online monitors over simulation traces.

    Measures the component-level quantities the theory predicts:
    detection latency (the Progress obligation of 'Z detects X'),
    correction latency (the Convergence obligation of 'Z corrects X'),
    and the index of the first safety violation, per
    {!Runner.run}.

    {!report} and {!Compiled} evaluate the whole witness family through
    one {!Syndrome} batch per run and read the scans off bit columns.
    The reference functions below query one predicate closure at a time;
    they compute the same quantities and serve as the test oracle. *)

open Detcor_kernel
open Detcor_spec
open Detcor_core

(** Per maximal interval where the detection predicate X holds
    continuously, the number of steps to the first state where the
    witness Z holds; intervals that end unwitnessed are skipped
    (Progress permits escape through ¬X). *)
val detection_latency : Runner.run -> Detector.t -> int list

(** Steps from one past the last injected fault until the correction
    predicate holds; [None] if it never does within the trace. *)
val correction_latency : Runner.run -> Corrector.t -> int option

(** Index of the first state violating the safety specification (bad
    state there, or bad transition into it). *)
val first_safety_violation : Runner.run -> Safety.t -> int option

(** The syndrome-batched monitor: detector, corrector, and (decomposed)
    safety obligations compiled into one {!Syndrome} family, evaluated
    per run as bit columns.  A decomposable specification is read from
    its columns: one for the disjunction of its bad states, one or two
    per transition obligation; an opaque one is scanned the reference
    way. *)
module Compiled : sig
  type t

  (** [make ?program ~detector ~corrector ~sspec ()] compiles the family;
      [program] enables rank-memoized evaluation (see
      {!Syndrome.compile}). *)
  val make :
    ?program:Program.t ->
    detector:Detector.t ->
    corrector:Corrector.t ->
    sspec:Safety.t ->
    unit ->
    t

  (** Same results as the reference functions above, computed from
      syndrome columns. *)
  val detection_latency : t -> Runner.run -> int list

  val correction_latency : t -> Runner.run -> int option
  val first_safety_violation : t -> Runner.run -> int option

  (** {!first_safety_violation} of a run in rank form, from one
      {!Syndrome.of_ranks} batch; an opaque specification decodes the
      run ({!Stream.decode}) and scans it the reference way. *)
  val first_safety_violation_ranked : t -> Stream.ranked -> int option

  (** [safety ?program ?invariant sspec] compiles the safety columns
      alone, plus the invariant when given: the family behind
      [dcheck simulate]'s safety and settling counts and
      [dcheck monitor]'s per-run safety line.  Only
      {!first_safety_violation} and (given [invariant]) {!outcomes}
      apply to it. *)
  val safety : ?program:Program.t -> ?invariant:Pred.t -> Safety.t -> t

  type outcome = {
    violation : int option;  (** as {!first_safety_violation} *)
    settled : int option;
        (** Steps to re-enter the invariant: the index one past the last
            state outside it, [Some 0] when every state is inside, [None]
            when the final state is outside. *)
  }

  (** Both outcomes of each run, read from one batch per run, inside a
      [sim.safety_scan] span.  Needs a family built by {!safety} with an
      invariant. *)
  val outcomes : t -> Runner.run list -> outcome list
end

type report = {
  runs : int;
  detection : Stats.summary option;
  correction : Stats.summary option;
  safety_violations : int;
  corrected_runs : int;
}

(** Aggregate the monitors over a batch of runs, one {!Syndrome} batch
    per run through {!Compiled}.  [program] enables rank-memoized
    evaluation; results are identical with or without it. *)
val report :
  ?program:Program.t ->
  Runner.run list ->
  detector:Detector.t ->
  corrector:Corrector.t ->
  sspec:Safety.t ->
  report

val pp_report : report Fmt.t
