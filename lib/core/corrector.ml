(* Correctors (Section 4).

   'Z corrects X in c from U' iff c refines the 'Z corrects X'
   specification from U: the detector conditions (Safeness, Progress,
   Stability) plus Convergence — X is eventually reached and preserved. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec

type t = {
  cname : string;
  witness : Pred.t; (* Z *)
  correction : Pred.t; (* X *)
}

let make ?name ~witness ~correction () =
  let cname =
    match name with
    | Some n -> n
    | None ->
      Fmt.str "%s corrects %s" (Pred.name witness) (Pred.name correction)
  in
  { cname; witness; correction }

let name c = c.cname
let witness c = c.witness
let correction c = c.correction

(* A corrector whose witness equals its correction predicate — the
   Arora–Gouda closure-and-convergence special case noted in Section 4.1. *)
let of_invariant x = make ~witness:x ~correction:x ()

let spec c = Spec.corrects ~witness:c.witness ~detection:c.correction

let as_detector c =
  Detector.make ~name:(Fmt.str "detector of %s" c.cname) ~witness:c.witness
    ~detection:c.correction ()

let safety_spec c = Spec.smallest_safety_containing (spec c)

let convergence ts c =
  Check.all
    [ Check.closed ts c.correction; Check.eventually ts c.correction ]

let satisfies_ts ts c = Spec.refines ts (spec c)

let satisfies ?limit program c ~from =
  satisfies_ts (Ts.of_pred ?limit program ~from) c

(* ------------------------------------------------------------------ *)
(* Tolerant correctors (Section 4.1).                                  *)
(* ------------------------------------------------------------------ *)

(* Same proof structure as tolerant detectors; see Detector.tolerant_check.
   For nonmasking — the paper's main use (Theorem 4.3) — the obligations
   follow Lemma 4.2: the program converges from the F-span to [recover],
   and from [recover] it refines 'Z corrects X'. *)

type tolerant_report = Detector.tolerant_report

let verdict = Detector.verdict
let pp_report = Detector.pp_report

let tolerant ?limit ?recover program c ~faults ~tol ~from =
  Detector.tolerant_check ?limit ?recover program ~component:"corrector"
    ~name:c.cname ~spec:(spec c)
    ~liveness:
      [
        ("progress", fun ts -> Detector.progress ts (as_detector c));
        ("convergence", fun ts -> Check.eventually ts c.correction);
      ]
    ~faults ~tol ~from

let pp ppf c = Fmt.string ppf c.cname
