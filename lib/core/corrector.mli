(** Correctors (Section 4): ['Z corrects X in c from U'] iff [c] refines
    the ['Z corrects X'] specification from [U] — the detector conditions
    plus Convergence.  The tolerant-corrector check and its report are
    {!Detector}'s. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec

type t

val make : ?name:string -> witness:Pred.t -> correction:Pred.t -> unit -> t
val name : t -> string
val witness : t -> Pred.t
val correction : t -> Pred.t

(** Corrector with witness = correction predicate: the Arora–Gouda
    closure-and-convergence special case (remark in Section 4.1). *)
val of_invariant : Pred.t -> t

val spec : t -> Spec.t

(** The underlying detector [Z detects X]. *)
val as_detector : t -> Detector.t

(** Safeness + Stability + closure of X — the fail-safe tolerance
    specification of ['Z corrects X']. *)
val safety_spec : t -> Spec.t

(** Convergence alone: X closed and eventually reached. *)
val convergence : Ts.t -> t -> Check.outcome

val satisfies_ts : Ts.t -> t -> Check.outcome
val satisfies : ?limit:int -> Program.t -> t -> from:Pred.t -> Check.outcome

type tolerant_report = Detector.tolerant_report

val verdict : tolerant_report -> bool
val pp_report : tolerant_report Fmt.t

(** Tolerant-corrector check in the presence of faults:
    {!Detector.tolerant_check} with Progress and Convergence as the masking
    liveness obligations (Lemma 4.2 / Theorem 4.3 for nonmasking). *)
val tolerant :
  ?limit:int ->
  ?recover:Pred.t ->
  Program.t ->
  t ->
  faults:Fault.t ->
  tol:Spec.tolerance ->
  from:Pred.t ->
  tolerant_report

val pp : t Fmt.t
