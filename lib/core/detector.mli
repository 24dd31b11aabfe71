(** Detectors (Section 3): ['Z detects X in d from U'] iff [d] refines the
    ['Z detects X'] specification from [U].  Tolerant detectors and
    tolerant correctors (Sections 3.1 and 4.1) share one check,
    {!tolerant_check}, and one report type. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec

type t

val make : ?name:string -> witness:Pred.t -> detection:Pred.t -> unit -> t
val name : t -> string

(** The witness predicate Z. *)
val witness : t -> Pred.t

(** The detection predicate X. *)
val detection : t -> Pred.t

(** The full ['Z detects X'] specification (Safeness, Stability,
    Progress). *)
val spec : t -> Spec.t

(** Safeness + Stability only — the fail-safe tolerance specification of
    ['Z detects X']. *)
val safety_spec : t -> Spec.t

(** The Progress obligation alone, on a given system. *)
val progress : Ts.t -> t -> Check.outcome

(** [satisfies_ts ts d]: the system refines ['Z detects X']. *)
val satisfies_ts : Ts.t -> t -> Check.outcome

(** [satisfies program d ~from]: [Z detects X in program from [from]]. *)
val satisfies : ?limit:int -> Program.t -> t -> from:Pred.t -> Check.outcome

type tolerant_report = {
  component : string;  (** "detector" or "corrector", for {!pp_report} *)
  tol : Spec.tolerance;
  span : Pred.t;
  items : (string * Check.outcome) list;
}

val verdict : tolerant_report -> bool
val pp_report : tolerant_report Fmt.t

(** The body of {!tolerant} and {!Corrector.tolerant}: the safety part of
    [spec] on [p [] F] over the F-span of [from]; for masking also each
    [(what, check)] of [liveness] on [p] over the span; for nonmasking,
    convergence of [p] from the span to [recover] (default [from]) and
    [spec] from [recover] (Assumption 2, Lemma 4.2). *)
val tolerant_check :
  ?limit:int ->
  ?recover:Pred.t ->
  Program.t ->
  component:string ->
  name:string ->
  spec:Spec.t ->
  liveness:(string * (Ts.t -> Check.outcome)) list ->
  faults:Fault.t ->
  tol:Spec.tolerance ->
  from:Pred.t ->
  tolerant_report

(** [tolerant program d ~faults ~tol ~from] checks that [program] is a
    [tol]-tolerant detector for ['Z detects X'] from [from] in the presence
    of [faults]: {!tolerant_check} with Progress as the masking liveness
    obligation. *)
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
