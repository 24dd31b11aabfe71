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

(** The syndrome-batched monitor: the caller's predicates and the
    (decomposed) safety obligations compiled into one {!Syndrome}
    family, evaluated as bit columns.  A decomposable specification is
    read from its columns: one for the disjunction of its bad states, one
    or two per transition obligation; an opaque one is scanned the
    reference way.  The scans return what the reference functions above
    return. *)
module Compiled : sig
  type t

  (** [make ?program columns sspec] compiles one family: [columns], in
      order, as its leading columns (column [j] of every batch is the
      [j]th predicate of [columns]), then the columns of [sspec].
      [program] enables rank-memoized evaluation (see
      {!Syndrome.compile}). *)
  val make : ?program:Program.t -> Pred.t list -> Safety.t -> t

  (** The compiled family, from which batches are built
      ({!Syndrome.of_trace}, {!Syndrome.of_ranks}). *)
  val family : t -> Syndrome.t

  (** The batch of a whole run. *)
  val eval : t -> Runner.run -> Syndrome.batch

  (** {!detection_latency} of the run whose batch is given, with X in
      column [x] and Z in column [z]. *)
  val detection_latency : Syndrome.batch -> x:int -> z:int -> int list

  (** {!correction_latency} of [run], whose batch is given, with the
      correction predicate in column [c]. *)
  val correction_latency : Syndrome.batch -> c:int -> Runner.run -> int option

  (** Steps to re-enter the invariant, in column [invariant] of a run's
      batch: the index one past the last state outside it, [Some 0] when
      every state is inside, [None] when the final state is outside. *)
  val settled : Syndrome.batch -> invariant:int -> int option

  (** [first_safety_violation t ~trace batches]: {!first_safety_violation}
      of a run given as its consecutive batches, in order, read from the
      specification's columns.  Only an opaque specification calls
      [trace], for the run to scan the reference way. *)
  val first_safety_violation :
    t -> trace:(unit -> Detcor_semantics.Trace.t) -> Syndrome.batch list ->
    int option

  type outcome = {
    violation : int option;  (** as {!first_safety_violation} *)
    settled : int option;  (** as {!settled} *)
  }

  (** Both outcomes of each run, read from one batch per run, inside a
      [sim.safety_scan] span; the invariant is column [invariant]. *)
  val outcomes : t -> invariant:int -> Runner.run list -> outcome list
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
