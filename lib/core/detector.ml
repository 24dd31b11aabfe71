(* Detectors (Section 3).

   'Z detects X in d from U' iff d refines the 'Z detects X' specification
   from U.  A tolerant detector refines the corresponding tolerance
   specification of 'Z detects X' (Section 3.1). *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec

type t = {
  dname : string;
  witness : Pred.t; (* Z *)
  detection : Pred.t; (* X *)
}

let make ?name ~witness ~detection () =
  let dname =
    match name with
    | Some n -> n
    | None ->
      Fmt.str "%s detects %s" (Pred.name witness) (Pred.name detection)
  in
  { dname; witness; detection }

let name d = d.dname
let witness d = d.witness
let detection d = d.detection

let spec d = Spec.detects ~witness:d.witness ~detection:d.detection

(* The safety part (Safeness + Stability) and the liveness part
   (Progress) of the detects specification, as separate specifications —
   the tolerance-specific checks need them separately. *)
let safety_spec d = Spec.smallest_safety_containing (spec d)

let progress ts d =
  Check.leads_to ts d.detection (Pred.or_ d.witness (Pred.not_ d.detection))

(* [satisfies_ts ts d]: d (the program underlying ts) refines
   'Z detects X' from the states ts was built from. *)
let satisfies_ts ts d = Spec.refines ts (spec d)

let satisfies ?limit program d ~from =
  satisfies_ts (Ts.of_pred ?limit program ~from) d

(* ------------------------------------------------------------------ *)
(* Tolerant detectors (Section 3.1).                                   *)
(* ------------------------------------------------------------------ *)

(* d is a fail-safe (resp. nonmasking, masking) tolerant detector for
   'Z detects X' from U iff d refines the corresponding tolerance
   specification of 'Z detects X' from U.

   In the presence of a fault class F the check follows the structure of
   the paper's proofs (finitely many faults, Assumption 2):
   - the safety obligations (Safeness, Stability) are checked on the full
     [p [] F] system over the F-span of U;
   - the liveness obligations (Progress; a corrector adds Convergence) are
     checked on p alone from the F-span, because after faults stop the
     computation is a computation of p (Theorem 5.5, Part 2);
   - nonmasking requires a suffix in the specification: p alone converges
     from the F-span to a recovery predicate [recover] (default U) from
     which the whole specification holds (Lemma 4.2's shape).

   Tolerant correctors (Section 4.1) have the same proof structure, so
   {!tolerant_check} serves both components. *)

type tolerant_report = {
  component : string; (* "detector" or "corrector", for the header *)
  tol : Spec.tolerance;
  span : Pred.t; (* the F-span used *)
  items : (string * Check.outcome) list;
}

let verdict r = List.for_all (fun (_, o) -> Check.holds o) r.items

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%a-tolerant %s check (span %s):@,%a@]"
    Spec.pp_tolerance r.tol r.component (Pred.name r.span)
    Fmt.(
      list ~sep:cut (fun ppf (l, o) ->
          Fmt.pf ppf "  %-40s %a" l Check.pp_outcome o))
    r.items

let tolerant_check ?limit ?recover program ~component ~name ~spec ~liveness
    ~faults ~tol ~from =
  let { Tolerance.pred = span; ts_pf; _ } =
    Tolerance.fault_span ?limit program ~faults ~from
  in
  let ts_p = Ts.build_within ?limit program ~span:ts_pf in
  let recover = Option.value recover ~default:from in
  let safety () =
    ( Fmt.str "safety of '%s' on p[]F from span" name,
      Spec.refines ts_pf (Spec.smallest_safety_containing spec) )
  in
  let items =
    match tol with
    | Spec.Failsafe -> [ safety () ]
    | Spec.Masking ->
      safety ()
      :: List.map
           (fun (what, check) ->
             (Fmt.str "%s of '%s' on p from span" what name, check ts_p))
           liveness
    | Spec.Nonmasking ->
      let ts_rec = Ts.of_pred ?limit program ~from:recover in
      [
        (Fmt.str "p converges from span to %s" (Pred.name recover),
         Check.eventually ts_p recover);
        (Fmt.str "'%s' holds from %s" name (Pred.name recover),
         Spec.refines ts_rec spec);
      ]
  in
  { component; tol; span; items }

let tolerant ?limit ?recover program d ~faults ~tol ~from =
  tolerant_check ?limit ?recover program ~component:"detector" ~name:d.dname
    ~spec:(spec d)
    ~liveness:[ ("progress", fun ts -> progress ts d) ]
    ~faults ~tol ~from

let pp ppf d = Fmt.string ppf d.dname
