(* The paper's theorems as machine-checkable schemas.

   Each function takes the ingredients of a theorem's premises, decides
   every premise on the finite system, builds the witness components the
   proof constructs, and decides the conclusions.  A schema instance
   therefore both *validates the theory* on a concrete system (premises
   hold ⇒ conclusions hold) and *extracts* the detector/corrector
   components whose existence the theorem asserts.

   Premises marked "(premise)" must hold for the theorem to apply;
   conclusions marked "(conclusion)" are what the theorem promises.  On
   any instance where all premises hold but a conclusion fails, the
   implementation (or the theory) would be refuted — the test suite checks
   this never happens on the paper's systems and on randomized ones. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec

type schema = {
  theorem : string;
  premises : (string * Check.outcome) list;
  conclusions : (string * Check.outcome) list;
}

let premises_hold s = List.for_all (fun (_, o) -> Check.holds o) s.premises
let conclusions_hold s = List.for_all (fun (_, o) -> Check.holds o) s.conclusions
let holds s = premises_hold s && conclusions_hold s

(* The soundness contract: premises hold ⇒ conclusions hold. *)
let validates s = (not (premises_hold s)) || conclusions_hold s

let pp_schema ppf s =
  let pp_items ppf items =
    Fmt.(
      list ~sep:cut (fun ppf (l, o) ->
          Fmt.pf ppf "  %-56s %a" l Check.pp_outcome o))
      ppf items
  in
  Fmt.pf ppf "@[<v>%s@,premises:@,%a@,conclusions:@,%a@,=> %s@]" s.theorem
    pp_items s.premises pp_items s.conclusions
    (if holds s then "holds"
     else if not (premises_hold s) then "not applicable (premise fails)"
     else "REFUTED")

(* Premise "p' encapsulates p", decided over the states of [ts]. *)
let encapsulation ~base ~refined ts =
  let universe = Ts.states ts in
  if Program.encapsulates ~base refined ~universe then Check.Holds
  else
    Check.Fails
      (Check.Not_implied
         (match universe with s :: _ -> s | [] -> State.empty))

(* The premises Lemma 4.2 and Theorems 3.6, 4.3 and 5.5 open with — p
   refines SPEC from S, R ⇒ S, p' refines p from R — and the system of p'
   from R they are decided on. *)
let shared_premises ?limit ~base ~refined ~spec ~invariant_s ~invariant_r () =
  let _, base_refines =
    Tolerance.refines_from ?limit base ~spec ~invariant:invariant_s
  in
  let ts_r = Ts.of_pred ?limit refined ~from:invariant_r in
  let r_implies_s = Check.implies ts_r invariant_r invariant_s in
  let refinement = Refinement.check_ts ~base ts_r ~from:invariant_r in
  ( ts_r,
    [
      ("p refines SPEC from S (premise)", base_refines);
      ("R => S (premise)", r_implies_s);
      ("p' refines p from R (premise)", Refinement.outcome refinement);
    ] )

(* Conclusion 1 of Theorems 3.6, 4.3 and 5.5 — p' is [tol] F-tolerant for
   SPEC from R — from one tolerance session seeded with the states of p'
   from R, together with the session's systems over the fault span T:
   p' [] F and p' alone, which the component extraction reads.  A budget
   trip anywhere in the session raises the exhausted resource: no schema
   is returned over a span that was not explored. *)
let tolerance_conclusion ?limit ~refined ~spec ~faults ~invariant_r ts_r tol =
  let session =
    Tolerance.session ?limit refined ~spec ~invariant:invariant_r
      ~init:(Ts.states ts_r) ~faults
  in
  let report = Tolerance.report session tol in
  let ts_pf = Tolerance.span_system session in
  let ts_p = Tolerance.program_system session in
  match (Tolerance.exhausted session, ts_pf, ts_p) with
  | None, Some ts_pf, Some ts_p ->
    let outcome =
      match Tolerance.failures report with
      | [] -> Check.Holds
      | i :: _ -> i.outcome
    in
    (outcome, ts_pf, ts_p)
  | Some r, _, _ ->
    Detcor_robust.Error.resource ~kind:r.kind ~spent:r.spent ~budget:r.budget
  | None, _, _ ->
    Detcor_robust.Error.internal "Theorems: span of %s not explored"
      (Program.name refined)

(* Conclusion 2 of Theorems 3.6 and 5.5: for each base action, the
   detector extracted over the span T (where the component must keep
   operating), with fault steps on the Stability side.  Safeness and
   Stability must then hold over T under p' [] F; a masking detector's
   Progress must hold on p' alone from T. *)
let tolerant_detectors ~base ~sspec ~faults ~ts_pf ~ts_p tol =
  let extra_transitions = Extraction.fault_transitions ts_pf ~faults in
  List.map
    (fun ac ->
      let e =
        Extraction.detector_for_action ~extra_transitions ~base ~sspec ts_p ac
      in
      let safety = Spec.refines ts_pf (Detector.safety_spec e.detector) in
      let progress =
        if tol = Spec.Masking then [ Detector.progress ts_p e.detector ] else []
      in
      ( Fmt.str "p' is a %a F-tolerant detector for %s (conclusion)"
          Spec.pp_tolerance tol e.for_action,
        Check.all (e.outcome :: safety :: progress) ))
    (Program.actions base)

(* ------------------------------------------------------------------ *)
(* Theorem 3.4: programs that refine a safety specification contain     *)
(* detectors.                                                           *)
(* ------------------------------------------------------------------ *)

let theorem_3_4 ?limit ~base ~refined ~sspec ~invariant () =
  let ts = Ts.of_pred ?limit refined ~from:invariant in
  let refinement = Refinement.check_ts ~base ts ~from:invariant in
  let encapsulation = encapsulation ~base ~refined ts in
  let safety =
    Spec.refines ts (Spec.make ~name:(Safety.name sspec) ~safety:sspec ())
  in
  let extracted = Extraction.detectors ~base ~sspec ts in
  {
    theorem = "Theorem 3.4 (safety refinement contains detectors)";
    premises =
      [
        ("p' refines p from S (premise)", Refinement.outcome refinement);
        ("p' encapsulates p (premise)", encapsulation);
        ("p' refines SSPEC from S (premise)", safety);
      ];
    conclusions =
      List.map
        (fun (e : Extraction.extracted_detector) ->
          ( Fmt.str "p' is a detector for %s (conclusion)" e.for_action,
            e.outcome ))
        extracted;
  }

(* Lemma 3.5: encapsulation + safety refinement give fail-safe tolerant
   detectors (Safeness and Stability only). *)
let lemma_3_5 ?limit ~base ~refined ~sspec ~invariant () =
  let ts = Ts.of_pred ?limit refined ~from:invariant in
  let encapsulation = encapsulation ~base ~refined ts in
  let safety =
    Spec.refines ts (Spec.make ~name:(Safety.name sspec) ~safety:sspec ())
  in
  let extracted = Extraction.failsafe_detectors ~base ~sspec ts in
  {
    theorem = "Lemma 3.5 (fail-safe tolerant detectors)";
    premises =
      [
        ("p' encapsulates p (premise)", encapsulation);
        ("p' refines SSPEC from S (premise)", safety);
      ];
    conclusions =
      List.map
        (fun (e : Extraction.extracted_detector) ->
          ( Fmt.str "p' is a fail-safe tolerant detector for %s (conclusion)"
              e.for_action,
            e.outcome ))
        extracted;
  }

(* ------------------------------------------------------------------ *)
(* Theorem 3.6: fail-safe F-tolerant programs contain fail-safe         *)
(* F-tolerant detectors.                                                *)
(* ------------------------------------------------------------------ *)

let theorem_3_6 ?limit ~base ~refined ~spec ~faults ~invariant_s ~invariant_r
    () =
  let sspec = Spec.safety (Spec.smallest_safety_containing spec) in
  let ts_r, premises =
    shared_premises ?limit ~base ~refined ~spec ~invariant_s ~invariant_r ()
  in
  let encapsulation = encapsulation ~base ~refined ts_r in
  (* Conclusion 1: p' is fail-safe F-tolerant for SPEC from R; the session
     explores the span T of R. *)
  let failsafe_outcome, ts_pf, ts_p_span =
    tolerance_conclusion ?limit ~refined ~spec ~faults ~invariant_r ts_r
      Spec.Failsafe
  in
  (* Premise: p' [] F refines SSPEC from T. *)
  let span_safety =
    Spec.refines ts_pf (Spec.make ~name:"SSPEC" ~safety:sspec ())
  in
  let detector_conclusions =
    tolerant_detectors ~base ~sspec ~faults ~ts_pf ~ts_p:ts_p_span
      Spec.Failsafe
  in
  {
    theorem = "Theorem 3.6 (fail-safe tolerance contains tolerant detectors)";
    premises =
      premises
      @ [
          ("p' encapsulates p (premise)", encapsulation);
          ("p'[]F refines SSPEC from T (premise)", span_safety);
        ];
    conclusions =
      ("p' is fail-safe F-tolerant for SPEC from R (conclusion)",
       failsafe_outcome)
      :: detector_conclusions;
  }

(* ------------------------------------------------------------------ *)
(* Theorem 4.1: programs that eventually refine a specification         *)
(* contain correctors.                                                  *)
(* ------------------------------------------------------------------ *)

let theorem_4_1 ?limit ~base ~refined ~spec ~invariant_s ~from_t () =
  let _, base_refines =
    Tolerance.refines_from ?limit base ~spec ~invariant:invariant_s
  in
  let ts_t = Ts.of_pred ?limit refined ~from:from_t in
  let ts_s = Ts.of_pred ?limit refined ~from:invariant_s in
  let refinement = Refinement.check_ts ~base ts_s ~from:invariant_s in
  (* Premise: p' refines (true)*(p'|S) from T — every computation from T
     reaches S. *)
  let eventually_s = Check.eventually ts_t invariant_s in
  let extracted = Extraction.corrector_for_invariant ts_t ~invariant:invariant_s in
  {
    theorem = "Theorem 4.1 (eventual refinement contains correctors)";
    premises =
      [
        ("p refines SPEC from S (premise)", base_refines);
        ("p' refines p from S (premise)", Refinement.outcome refinement);
        ("p' refines (true)*(p'|S) from T (premise)", eventually_s);
      ];
    conclusions =
      [
        ( "p' is a corrector of an invariant predicate of p (conclusion)",
          extracted.outcome );
      ];
  }

(* Lemma 4.2: p' behaves like p only from R ⊆ S: nonmasking corrector. *)
let lemma_4_2 ?limit ~base ~refined ~spec ~invariant_s ~invariant_r ~from_t ()
    =
  let _, premises =
    shared_premises ?limit ~base ~refined ~spec ~invariant_s ~invariant_r ()
  in
  let ts_t = Ts.of_pred ?limit refined ~from:from_t in
  let eventually_r = Check.eventually ts_t invariant_r in
  let extracted =
    Extraction.nonmasking_corrector ts_t ~invariant:invariant_s
      ~recovery:invariant_r
  in
  {
    theorem = "Lemma 4.2 (nonmasking corrector)";
    premises =
      premises
      @ [ ("p' refines (true)*(p'|R) from T (premise)", eventually_r) ];
    conclusions =
      [
        ( "p' is a nonmasking corrector of an invariant of p (conclusion)",
          extracted.outcome );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Theorem 4.3: nonmasking F-tolerant programs contain nonmasking       *)
(* tolerant correctors.                                                 *)
(* ------------------------------------------------------------------ *)

let theorem_4_3 ?limit ~base ~refined ~spec ~faults ~invariant_s ~invariant_r
    () =
  let ts_r, premises =
    shared_premises ?limit ~base ~refined ~spec ~invariant_s ~invariant_r ()
  in
  (* Conclusion 1: p' is nonmasking F-tolerant for SPEC from R; the
     session explores the span T of R. *)
  let nonmasking_outcome, _, ts_p_span =
    tolerance_conclusion ?limit ~refined ~spec ~faults ~invariant_r ts_r
      Spec.Nonmasking
  in
  (* Premise: p' [] F refines (true)*(p'|R) from T — with finitely many
     faults, p' alone converges from the span to R. *)
  let converges_to_r = Check.eventually ts_p_span invariant_r in
  (* Conclusion 2: nonmasking F-tolerant corrector (Z = R, X = S). *)
  let extracted =
    Extraction.nonmasking_corrector ts_p_span ~invariant:invariant_s
      ~recovery:invariant_r
  in
  {
    theorem =
      "Theorem 4.3 (nonmasking tolerance contains tolerant correctors)";
    premises =
      premises
      @ [ ("p'[]F refines (true)*(p'|R) from T (premise)", converges_to_r) ];
    conclusions =
      [
        ( "p' is nonmasking F-tolerant for SPEC from R (conclusion)",
          nonmasking_outcome );
        ( "p' is a nonmasking F-tolerant corrector (conclusion)",
          extracted.outcome );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Theorem 5.2: safety from T + convergence to S + correctness from S   *)
(* = masking from T.                                                    *)
(* ------------------------------------------------------------------ *)

let theorem_5_2 ?limit ~program ~spec ~invariant_s ~from_t () =
  let sspec = Spec.smallest_safety_containing spec in
  let _, refines_s =
    Tolerance.refines_from ?limit program ~spec ~invariant:invariant_s
  in
  let ts_t = Ts.of_pred ?limit program ~from:from_t in
  let t_safety = Spec.refines ts_t sspec in
  let eventually_s = Check.eventually ts_t invariant_s in
  (* Conclusion, checked directly: p refines SPEC (the masking tolerance
     specification of SPEC) from T. *)
  let masking = Spec.refines ts_t spec in
  {
    theorem = "Theorem 5.2 (fail-safe + nonmasking = masking)";
    premises =
      [
        ("p refines SPEC from S (premise)", refines_s);
        ("p refines SSPEC from T (premise)", t_safety);
        ("p refines (true)*(p|S) from T (premise)", eventually_s);
      ];
    conclusions =
      [ ("p refines masking spec of SPEC from T (conclusion)", masking) ];
  }

(* ------------------------------------------------------------------ *)
(* Theorem 5.5: masking F-tolerant programs contain masking tolerant    *)
(* detectors and correctors.                                            *)
(* ------------------------------------------------------------------ *)

let theorem_5_5 ?limit ~base ~refined ~spec ~faults ~invariant_s ~invariant_r
    () =
  let sspec = Spec.safety (Spec.smallest_safety_containing spec) in
  let ts_r, premises =
    shared_premises ?limit ~base ~refined ~spec ~invariant_s ~invariant_r ()
  in
  let encapsulation = encapsulation ~base ~refined ts_r in
  (* Conclusion 1: masking F-tolerance from T, the span of R explored by
     the session. *)
  let masking_outcome, ts_pf, ts_p_span =
    tolerance_conclusion ?limit ~refined ~spec ~faults ~invariant_r ts_r
      Spec.Masking
  in
  let converges_to_r = Check.eventually ts_p_span invariant_r in
  let span_safety =
    Spec.refines ts_pf (Spec.make ~name:"SSPEC" ~safety:sspec ())
  in
  let detector_conclusions =
    tolerant_detectors ~base ~sspec ~faults ~ts_pf ~ts_p:ts_p_span
      Spec.Masking
  in
  (* Conclusion 3: masking tolerant corrector with X = S_p, Z = R
     (Lemma 5.4, Part 2). *)
  let s_p =
    Extraction.project_invariant ~base ts_p_span ~invariant:invariant_s
  in
  let corrector =
    Corrector.make ~name:"masking corrector (Lemma 5.4)" ~witness:invariant_r
      ~correction:s_p ()
  in
  let corrector_outcome = Corrector.satisfies_ts ts_p_span corrector in
  (* Conclusion 4: the corrector is nonmasking F-tolerant — after faults
     stop, a suffix satisfies 'Z corrects X' (checked as convergence of p'
     alone from the span plus the corrector specification from R). *)
  let ts_from_r =
    Ts.build_within ?limit ~where:invariant_r refined ~span:ts_pf
  in
  let nonmasking_corrector_outcome =
    Check.all
      [ converges_to_r; Corrector.satisfies_ts ts_from_r corrector ]
  in
  {
    theorem =
      "Theorem 5.5 (masking tolerance contains tolerant detectors and \
       correctors)";
    premises =
      premises
      @ [
          ("p' encapsulates p (premise)", encapsulation);
          ("p'[]F refines (true)*(p'|R) from T (premise)", converges_to_r);
          ("p'[]F refines SSPEC from T (premise)", span_safety);
        ];
    conclusions =
      [
        ("p' is masking F-tolerant for SPEC from T (conclusion)",
         masking_outcome);
      ]
      @ detector_conclusions
      @ [
          ("p' is a masking tolerant corrector (conclusion)",
           corrector_outcome);
          ("the corrector is nonmasking F-tolerant (conclusion)",
           nonmasking_corrector_outcome);
        ];
  }
