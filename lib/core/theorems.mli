(** The paper's theorems as machine-checkable schemas: every premise is
    decided on the finite system, the proof's witness components are
    constructed, and every conclusion is decided.  [validates] expresses
    the soundness contract (premises ⇒ conclusions); the test suite checks
    it on the paper's systems and on perturbed/negative variants.

    Theorems 3.6, 4.3 and 5.5 run one {!Tolerance.session} from the states
    of p' from R.  Its report is their first conclusion; its span system
    (T under p' [] F) and program system (p' over T) are what the
    component extraction reads.  When [limit] or the ambient budget trips
    in that session, they raise the exhausted resource
    ({!Detcor_robust.Error.Resource}) instead of returning a schema. *)

open Detcor_kernel
open Detcor_spec

type schema = {
  theorem : string;
  premises : (string * Detcor_semantics.Check.outcome) list;
  conclusions : (string * Detcor_semantics.Check.outcome) list;
}

val premises_hold : schema -> bool
val conclusions_hold : schema -> bool
val holds : schema -> bool

(** Premises hold ⇒ conclusions hold. *)
val validates : schema -> bool

val pp_schema : schema Fmt.t

(** Theorem 3.4: programs refining a safety specification contain
    detectors — one per action of the base program. *)
val theorem_3_4 :
  ?limit:int ->
  base:Program.t ->
  refined:Program.t ->
  sspec:Safety.t ->
  invariant:Pred.t ->
  unit ->
  schema

(** Lemma 3.5: encapsulation + safety refinement give fail-safe tolerant
    detectors. *)
val lemma_3_5 :
  ?limit:int ->
  base:Program.t ->
  refined:Program.t ->
  sspec:Safety.t ->
  invariant:Pred.t ->
  unit ->
  schema

(** Theorem 3.6: fail-safe F-tolerant programs contain fail-safe
    F-tolerant detectors. *)
val theorem_3_6 :
  ?limit:int ->
  base:Program.t ->
  refined:Program.t ->
  spec:Spec.t ->
  faults:Fault.t ->
  invariant_s:Pred.t ->
  invariant_r:Pred.t ->
  unit ->
  schema

(** Theorem 4.1: programs that eventually refine a specification contain
    correctors. *)
val theorem_4_1 :
  ?limit:int ->
  base:Program.t ->
  refined:Program.t ->
  spec:Spec.t ->
  invariant_s:Pred.t ->
  from_t:Pred.t ->
  unit ->
  schema

(** Lemma 4.2: recovery through R ⊆ S gives a nonmasking corrector. *)
val lemma_4_2 :
  ?limit:int ->
  base:Program.t ->
  refined:Program.t ->
  spec:Spec.t ->
  invariant_s:Pred.t ->
  invariant_r:Pred.t ->
  from_t:Pred.t ->
  unit ->
  schema

(** Theorem 4.3: nonmasking F-tolerant programs contain nonmasking
    F-tolerant correctors. *)
val theorem_4_3 :
  ?limit:int ->
  base:Program.t ->
  refined:Program.t ->
  spec:Spec.t ->
  faults:Fault.t ->
  invariant_s:Pred.t ->
  invariant_r:Pred.t ->
  unit ->
  schema

(** Theorem 5.2: safety from T + convergence to S + correctness from S
    imply the masking tolerance specification from T. *)
val theorem_5_2 :
  ?limit:int ->
  program:Program.t ->
  spec:Spec.t ->
  invariant_s:Pred.t ->
  from_t:Pred.t ->
  unit ->
  schema

(** Theorem 5.5: masking F-tolerant programs contain masking tolerant
    detectors and correctors (the latter nonmasking F-tolerant). *)
val theorem_5_5 :
  ?limit:int ->
  base:Program.t ->
  refined:Program.t ->
  spec:Spec.t ->
  faults:Fault.t ->
  invariant_s:Pred.t ->
  invariant_r:Pred.t ->
  unit ->
  schema
