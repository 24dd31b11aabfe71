(* Tests for Detcor_core on the paper's memory-access example
   (Sections 3.3, 4.3, 5.1 — Figures 1-3): tolerance verdicts, detection
   predicates, detector/corrector checks, refinement, fault spans,
   component extraction, and the theorem schemas with negative controls. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec
open Detcor_core
open Detcor_systems
open Detcor_obs

let verdict p tol =
  Tolerance.verdict
    (Tolerance.check p ~spec:Memory.spec ~invariant:Memory.s
       ~faults:Memory.page_fault ~tol)

(* The paper's Figure 1-3 verdict matrix. *)
let test_verdict_matrix () =
  let expect name p failsafe nonmasking masking =
    Alcotest.(check bool) (name ^ " failsafe") failsafe (verdict p Spec.Failsafe);
    Alcotest.(check bool) (name ^ " nonmasking") nonmasking (verdict p Spec.Nonmasking);
    Alcotest.(check bool) (name ^ " masking") masking (verdict p Spec.Masking)
  in
  expect "p" Memory.intolerant false false false;
  expect "pf" Memory.failsafe true false false;
  expect "pn" Memory.nonmasking false true false;
  expect "pm" Memory.masking true true true

let test_report_details () =
  let r =
    Tolerance.is_failsafe Memory.intolerant ~spec:Memory.spec
      ~invariant:Memory.s ~faults:Memory.page_fault
  in
  Alcotest.(check bool) "failure list nonempty" true (Tolerance.failures r <> []);
  Alcotest.(check bool) "span larger than invariant" true (r.span_size > r.invariant_size)

let test_classify () =
  let reports =
    Tolerance.classify Memory.masking ~spec:Memory.spec ~invariant:Memory.s
      ~faults:Memory.page_fault
  in
  Alcotest.(check int) "three classes" 3 (List.length reports);
  Alcotest.(check bool) "all hold for pm" true
    (List.for_all (fun (_, r) -> Tolerance.verdict r) reports)

let test_fault_span () =
  let span =
    Tolerance.fault_span Memory.failsafe ~faults:Memory.page_fault
      ~from:Memory.s
  in
  (* The span is closed under program and fault actions. *)
  Util.check_holds "span closed in p[]F"
    (Check.closed span.ts_pf span.pred);
  (* Every S state is in the span. *)
  Alcotest.(check bool) "S => span" true
    (List.for_all (Pred.holds span.pred)
       (List.filter (Pred.holds Memory.s) (Program.states Memory.failsafe)));
  (* The span contains post-fault states outside S. *)
  Alcotest.(check bool) "span exceeds S" true
    (List.exists (fun st -> not (Pred.holds Memory.s st)) span.states)

let test_weakest_detection_predicate () =
  let sspec = Spec.safety (Spec.smallest_safety_containing Memory.spec) in
  let read = Option.get (Program.find_action Memory.intolerant "p_read") in
  let wdp = Detection_predicate.weakest ~sspec read in
  let present_bot =
    State.of_list [ ("present", Value.bool true); ("data", Value.bot) ]
  in
  let absent_bot =
    State.of_list [ ("present", Value.bool false); ("data", Value.bot) ]
  in
  let absent_bad =
    State.of_list [ ("present", Value.bool false); ("data", Memory.bad) ]
  in
  Alcotest.(check bool) "safe when present" true (Pred.holds wdp present_bot);
  Alcotest.(check bool) "unsafe when absent" false (Pred.holds wdp absent_bot);
  (* Reading when data is already bad cannot *set* it bad: safe. *)
  Alcotest.(check bool) "vacuously safe when already bad" true
    (Pred.holds wdp absent_bad);
  (* X1 is a detection predicate of p_read (the paper's choice). *)
  Alcotest.(check bool) "X1 is a detection predicate" true
    (Detection_predicate.is_detection_predicate ~sspec read Memory.x1
       ~universe:(Program.states Memory.intolerant))

let test_detector_satisfies () =
  Util.check_holds "Z1 detects X1 in pf from U1"
    (Detector.satisfies Memory.failsafe Memory.pf_detector ~from:Memory.t);
  (* The intolerant program has no witness machinery: with Z1 = false the
     Progress obligation fails (X1 true forever, Z1 never). *)
  Util.check_fails "p is not that detector"
    (Detector.satisfies Memory.intolerant Memory.pf_detector ~from:Memory.t)

let test_detector_tolerant () =
  let r =
    Detector.tolerant Memory.failsafe Memory.pf_detector
      ~faults:Memory.page_fault ~tol:Spec.Failsafe ~from:Memory.t
  in
  Alcotest.(check bool) "pf fail-safe tolerant detector" true (Detector.verdict r);
  let m =
    Detector.tolerant Memory.masking Memory.pm_detector
      ~faults:Memory.page_fault ~tol:Spec.Masking ~from:Memory.t
  in
  Alcotest.(check bool) "pm masking tolerant detector" true (Detector.verdict m)

let test_corrector_satisfies () =
  Util.check_holds "X1 corrects X1 in pn from U1"
    (Corrector.satisfies Memory.nonmasking Memory.pn_corrector ~from:Memory.t);
  (* pf never restores the page: convergence fails. *)
  Util.check_fails "pf is not a corrector of X1"
    (Corrector.satisfies Memory.failsafe Memory.pn_corrector ~from:Memory.t)

let test_corrector_tolerant () =
  let r =
    Corrector.tolerant Memory.nonmasking Memory.pn_corrector
      ~faults:Memory.page_fault ~tol:Spec.Nonmasking ~from:Memory.s
  in
  Alcotest.(check bool) "pn nonmasking tolerant corrector" true (Corrector.verdict r)

let test_corrector_as_detector () =
  let d = Corrector.as_detector Memory.pn_corrector in
  Alcotest.(check bool) "witness preserved" true
    (Pred.holds (Detector.witness d) (State.of_list [ ("present", Value.bool true) ]))

let test_refinement () =
  let r = Refinement.check ~base:Memory.intolerant Memory.failsafe ~from:Memory.s in
  Alcotest.(check bool) "pf refines p from S" true (Refinement.ok r);
  let r2 = Refinement.check ~base:Memory.nonmasking Memory.masking ~from:Memory.s in
  Alcotest.(check bool) "pm refines pn from S" true (Refinement.ok r2);
  (* A program writing values p never writes does not refine p. *)
  let rogue =
    Program.make ~name:"rogue" ~vars:(Program.var_decls Memory.intolerant)
      ~actions:
        [
          Action.deterministic "w" Pred.true_ (fun st ->
              State.set st "data" Memory.bad);
        ]
  in
  let r3 = Refinement.check ~base:Memory.intolerant rogue ~from:Memory.s in
  Alcotest.(check bool) "rogue does not refine p" false (Refinement.ok r3)

let test_refinement_divergence () =
  (* A refined program that stutters forever on the base variables while
     the base must move: divergence must be flagged. *)
  let base =
    Program.make ~name:"mover"
      ~vars:[ ("x", Domain.range 0 1) ]
      ~actions:
        [
          Action.deterministic "go"
            (Pred.make "x=0" (fun st -> Value.equal (State.get st "x") (Value.int 0)))
            (fun st -> State.set st "x" (Value.int 1));
        ]
  in
  let lazy_ =
    Program.make ~name:"lazy"
      ~vars:[ ("x", Domain.range 0 1); ("t", Domain.boolean) ]
      ~actions:
        [
          Action.deterministic "tick" Pred.true_ (fun st ->
              State.set st "t"
                (Value.bool (not (Value.as_bool (State.get st "t")))));
        ]
  in
  let r = Refinement.check ~base lazy_ ~from:Pred.true_ in
  Alcotest.(check bool) "divergence flagged" false (Refinement.ok r)

let sspec_mem = Spec.safety (Spec.smallest_safety_containing Memory.spec)

let test_extraction_detector () =
  let ts = Ts.of_pred Memory.failsafe ~from:Memory.s in
  let extracted = Extraction.detectors ~base:Memory.intolerant ~sspec:sspec_mem ts in
  Alcotest.(check int) "one per base action" 1 (List.length extracted);
  let e = List.hd extracted in
  Alcotest.(check string) "for p_read" "p_read" e.for_action;
  Alcotest.(check string) "via pf2" "pf2" e.refined_action;
  Util.check_holds "extracted detector valid" e.outcome

let test_extraction_missing_action () =
  let empty =
    Program.make ~name:"empty" ~vars:(Program.var_decls Memory.failsafe)
      ~actions:[ Action.skip "noop" ]
  in
  let ts = Ts.of_pred empty ~from:Memory.s in
  let read = Option.get (Program.find_action Memory.intolerant "p_read") in
  let e = Extraction.detector_for_action ~base:Memory.intolerant ~sspec:sspec_mem ts read in
  Util.check_fails "missing refinement detected" e.outcome

let test_extraction_corrector () =
  let ts = Ts.of_pred Memory.nonmasking ~from:Memory.t in
  let e = Extraction.corrector_for_invariant ts ~invariant:Memory.x1 in
  Util.check_holds "corrector extracted from pn" e.outcome

let test_project_invariant () =
  let ts = Ts.of_pred Memory.masking ~from:Memory.t in
  let s_p = Extraction.project_invariant ~base:Memory.nonmasking ts ~invariant:Memory.s in
  (* S_p ignores the z1 variable: any state agreeing with an S state on
     present/data satisfies it. *)
  let st =
    State.of_list
      [ ("present", Value.bool true); ("data", Value.bot); ("z1", Value.bool false) ]
  in
  Alcotest.(check bool) "S_p holds modulo z1" true (Pred.holds s_p st)

(* ------------------------------------------------------------------ *)
(* Theorem schemas on the paper's systems.                             *)
(* ------------------------------------------------------------------ *)

let check_schema name schema =
  Alcotest.(check bool)
    (Fmt.str "%s: %a" name Theorems.pp_schema schema)
    true (Theorems.holds schema)

let test_theorem_3_4 () =
  check_schema "thm 3.4 on pf"
    (Theorems.theorem_3_4 ~base:Memory.intolerant ~refined:Memory.failsafe
       ~sspec:sspec_mem ~invariant:Memory.s ())

let test_lemma_3_5 () =
  check_schema "lemma 3.5 on pf"
    (Theorems.lemma_3_5 ~base:Memory.intolerant ~refined:Memory.failsafe
       ~sspec:sspec_mem ~invariant:Memory.s ())

let test_theorem_3_6 () =
  check_schema "thm 3.6 on pf"
    (Theorems.theorem_3_6 ~base:Memory.intolerant ~refined:Memory.failsafe
       ~spec:Memory.spec ~faults:Memory.page_fault ~invariant_s:Memory.s
       ~invariant_r:Memory.s ())

let test_theorem_4_1 () =
  check_schema "thm 4.1 on pn"
    (Theorems.theorem_4_1 ~base:Memory.intolerant ~refined:Memory.nonmasking
       ~spec:Memory.spec ~invariant_s:Memory.s ~from_t:Memory.t ())

let test_lemma_4_2 () =
  check_schema "lemma 4.2 on pn"
    (Theorems.lemma_4_2 ~base:Memory.intolerant ~refined:Memory.nonmasking
       ~spec:Memory.spec ~invariant_s:Memory.s ~invariant_r:Memory.s
       ~from_t:Memory.t ())

let test_theorem_4_3 () =
  check_schema "thm 4.3 on pn"
    (Theorems.theorem_4_3 ~base:Memory.intolerant ~refined:Memory.nonmasking
       ~spec:Memory.spec ~faults:Memory.page_fault ~invariant_s:Memory.s
       ~invariant_r:Memory.s ())

let test_theorem_5_2 () =
  check_schema "thm 5.2 on pm"
    (Theorems.theorem_5_2 ~program:Memory.masking ~spec:Memory.spec
       ~invariant_s:Memory.s ~from_t:Memory.t ())

let test_theorem_5_5 () =
  check_schema "thm 5.5 on pm over pn"
    (Theorems.theorem_5_5 ~base:Memory.nonmasking ~refined:Memory.masking
       ~spec:Memory.spec ~faults:Memory.page_fault ~invariant_s:Memory.s
       ~invariant_r:Memory.s ())

(* Negative controls: schemas on the wrong programs must report failed
   premises, and must never report premises-hold with failed conclusions
   (the soundness contract). *)

let test_schema_negative_controls () =
  let t36_wrong =
    Theorems.theorem_3_6 ~base:Memory.intolerant ~refined:Memory.nonmasking
      ~spec:Memory.spec ~faults:Memory.page_fault ~invariant_s:Memory.s
      ~invariant_r:Memory.s ()
  in
  Alcotest.(check bool) "pn premise fails for 3.6" false
    (Theorems.premises_hold t36_wrong);
  Alcotest.(check bool) "3.6 soundness contract" true (Theorems.validates t36_wrong);
  let t43_wrong =
    Theorems.theorem_4_3 ~base:Memory.intolerant ~refined:Memory.failsafe
      ~spec:Memory.spec ~faults:Memory.page_fault ~invariant_s:Memory.s
      ~invariant_r:Memory.s ()
  in
  Alcotest.(check bool) "pf premise fails for 4.3" false
    (Theorems.premises_hold t43_wrong);
  Alcotest.(check bool) "4.3 soundness contract" true (Theorems.validates t43_wrong)

(* The memory instances of Theorems 3.6, 4.3 and 5.5 (R = S), each with
   the systems it builds and an optional exploration limit. *)
let memory_span_theorems =
  let run thm ~base ~refined ?limit () =
    thm ?limit ~base ~refined ~spec:Memory.spec ~faults:Memory.page_fault
      ~invariant_s:Memory.s ~invariant_r:Memory.s ()
  in
  List.map
    (fun (name, builds, thm, base, refined) ->
      (name, builds, base, refined, run thm ~base ~refined))
    [
      ("theorem 3.6", 5, Theorems.theorem_3_6, Memory.intolerant,
       Memory.failsafe);
      ("theorem 4.3", 7, Theorems.theorem_4_3, Memory.intolerant,
       Memory.nonmasking);
      ("theorem 5.5", 6, Theorems.theorem_5_5, Memory.nonmasking,
       Memory.masking);
    ]

(* Each theorem takes the span T and p' over T from the one tolerance
   session that decides its first conclusion instead of exploring them
   again: p from S and p' from R, then the session's p' from R, T and
   p' over T, plus p' from the R-states of T for the nonmasking report
   (4.3) and for the corrector (4.3, 5.5). *)
let test_theorem_builds () =
  let builds () = Metrics.counter_value_by_name "engine.builds" in
  List.iter
    (fun (name, want, _, _, run) ->
      let before = builds () in
      ignore (run ?limit:None ());
      Alcotest.(check int) (name ^ " builds") want (builds () - before))
    memory_span_theorems

(* A limit that admits p from S and p' from R but not the span T: the
   session records the trip, and the theorem raises it instead of
   returning a schema. *)
let test_theorem_span_limit () =
  List.iter
    (fun (name, _, base, refined, run) ->
      let size p = Ts.num_states (Ts.of_pred p ~from:Memory.s) in
      let limit = max (size base) (size refined) in
      let span =
        Tolerance.fault_span refined ~faults:Memory.page_fault ~from:Memory.s
      in
      Alcotest.(check bool)
        (Fmt.str "%s: limit %d below span %d" name limit
           (Ts.num_states span.ts_pf))
        true
        (limit < Ts.num_states span.ts_pf);
      match run ?limit:(Some limit) () with
      | schema ->
        Alcotest.failf "%s returned a schema under limit %d:@.%a" name limit
          Theorems.pp_schema schema
      | exception
          Detcor_robust.Error.Detcor_error
            (Detcor_robust.Error.Resource
               { kind = Detcor_robust.Error.States; _ }) ->
        ())
    memory_span_theorems

(* A deliberately broken pf (detector removed: access unguarded) must lose
   its fail-safe verdict, and Theorem 3.6's premises must reject it. *)
let broken_pf =
  Program.make ~name:"pf-broken" ~vars:(Program.var_decls Memory.failsafe)
    ~actions:
      [
        Action.deterministic "pf1"
          (Pred.and_ Memory.x1 (Pred.not_ Memory.z1))
          (fun st -> State.set st "z1" (Value.bool true));
        (Option.get (Program.find_action Memory.intolerant "p_read")
        |> Action.rename "pf2");
      ]

let test_broken_detector () =
  Alcotest.(check bool) "broken pf not fail-safe" false
    (Tolerance.verdict
       (Tolerance.is_failsafe broken_pf ~spec:Memory.spec ~invariant:Memory.s
          ~faults:Memory.page_fault));
  let schema =
    Theorems.theorem_3_6 ~base:Memory.intolerant ~refined:broken_pf
      ~spec:Memory.spec ~faults:Memory.page_fault ~invariant_s:Memory.s
      ~invariant_r:Memory.s ()
  in
  Alcotest.(check bool) "premises reject broken pf" false
    (Theorems.premises_hold schema);
  Alcotest.(check bool) "soundness contract on broken pf" true
    (Theorems.validates schema)

(* A broken pn (corrector removed) must lose its nonmasking verdict. *)
let broken_pn =
  Program.make ~name:"pn-broken" ~vars:(Program.var_decls Memory.nonmasking)
    ~actions:
      [
        (Option.get (Program.find_action Memory.nonmasking "pn2")
        |> Action.rename "pn2");
      ]

let test_broken_corrector () =
  Alcotest.(check bool) "broken pn not nonmasking" false
    (Tolerance.verdict
       (Tolerance.is_nonmasking broken_pn ~spec:Memory.spec ~invariant:Memory.s
          ~faults:Memory.page_fault))

let test_fault_composition () =
  let composed = Fault.compose Memory.intolerant Memory.page_fault in
  Alcotest.(check int) "actions are unioned" 2
    (List.length (Program.actions composed));
  let u = Fault.union Memory.page_fault Fault.none in
  Alcotest.(check int) "union with none" 1 (List.length (Fault.actions u));
  Alcotest.(check (list string)) "action names" [ "F:page-fault" ]
    (Fault.action_names Memory.page_fault)

(* ------------------------------------------------------------------ *)
(* Verification sessions: one span, three classes.                     *)
(* ------------------------------------------------------------------ *)

let all_classes = [ Spec.Failsafe; Spec.Nonmasking; Spec.Masking ]

let report_str r = Fmt.str "%a" Tolerance.pp_report r

(* One session's reports, class by class, against independent checks. *)
let session_matches_checks p ~spec ~invariant ~faults =
  let s = Tolerance.session p ~spec ~invariant ~faults in
  List.for_all
    (fun tol ->
      String.equal
        (report_str (Tolerance.report s tol))
        (report_str (Tolerance.check p ~spec ~invariant ~faults ~tol)))
    all_classes

let corpus = "../examples/dc"

let load name = Detcor_lang.Elaborate.load_file (Filename.concat corpus name)

let test_session_corpus () =
  let files =
    Sys.readdir corpus |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dc")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "corpus found" true (List.length files >= 9);
  List.iter
    (fun file ->
      let e = load file in
      let s =
        Tolerance.session e.program ~spec:e.spec ~invariant:e.invariant
          ~faults:e.faults
      in
      List.iter
        (fun tol ->
          Alcotest.(check string)
            (Fmt.str "%s %a" file Spec.pp_tolerance tol)
            (report_str
               (Tolerance.check e.program ~spec:e.spec ~invariant:e.invariant
                  ~faults:e.faults ~tol))
            (report_str (Tolerance.report s tol)))
        all_classes)
    files

let prop_session_random =
  Util.qtest ~count:200 "one session reports like three independent checks"
    Test_random.program_arb (fun rp ->
      let p = Test_random.build rp in
      session_matches_checks p ~spec:(Test_random.spec_of rp)
        ~invariant:(Test_random.invariant_of rp p)
        ~faults:(Test_random.fault_of rp))

(* Three independent checks build 9 systems on byz4; a session shares p
   from S, the span and p over the span, leaving one build per
   structure. *)
let test_session_builds () =
  let e = load "byz4.dc" in
  let builds () = Metrics.counter_value_by_name "engine.builds" in
  let before = builds () in
  let s =
    Tolerance.session e.program ~spec:e.spec ~invariant:e.invariant
      ~faults:e.faults
  in
  List.iter (fun tol -> ignore (Tolerance.report s tol)) all_classes;
  let grown = builds () - before in
  Alcotest.(check bool)
    (Fmt.str "all-class byz4 session builds %d systems (at most 4)" grown)
    true (grown <= 4)

(* A state budget that trips while the first class explores the span:
   the verdict decided before the trip stands, and every class reports
   Unknown with that one resource instead of tripping again. *)
let test_session_budget () =
  let e = load "tmr.dc" in
  let full =
    Tolerance.check e.program ~spec:e.spec ~invariant:e.invariant
      ~faults:e.faults ~tol:Spec.Failsafe
  in
  let max_states = full.invariant_size + (full.span_size / 2) in
  let reports =
    Detcor_robust.Budget.with_budget
      (Detcor_robust.Budget.make ~max_states ())
      (fun () ->
        let s =
          Tolerance.session e.program ~spec:e.spec ~invariant:e.invariant
            ~faults:e.faults
        in
        List.map (Tolerance.report s) all_classes)
  in
  let resource r =
    match Tolerance.first_unknown r with
    | Some res ->
      Fmt.str "%s %d/%d"
        (Detcor_robust.Error.resource_kind_name res.kind)
        res.spent res.budget
    | None -> "none"
  in
  let first = resource (List.hd reports) in
  Alcotest.(check bool) "first class is undecided" true (first <> "none");
  List.iter
    (fun (r : Tolerance.report) ->
      Alcotest.(check string)
        (Fmt.str "%a: same resource" Spec.pp_tolerance r.tol)
        first (resource r);
      Alcotest.(check bool)
        (Fmt.str "%a: base verdict kept" Spec.pp_tolerance r.tol)
        true
        (Check.holds (List.hd r.items).outcome);
      Alcotest.(check int)
        (Fmt.str "%a: later obligations unknown" Spec.pp_tolerance r.tol)
        (List.length r.items - 1)
        (List.length (Tolerance.unknowns r)))
    reports

(* The spawned CLI: --explain finds its witnesses on the session's span,
   and the output is pinned to the bytes of independent per-class
   checks. *)
let dcheck_stdout args =
  let out = Filename.temp_file "detcor_verify" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Fmt.str "../bin/dcheck.exe %s >%s 2>/dev/null"
             (String.concat " " (List.map Filename.quote args))
             (Filename.quote out))
      in
      (code, In_channel.with_open_bin out In_channel.input_all))

let explain_memory_intolerant =
  {|memory_intolerant: fail-safe tolerance (invariant 3 states, span 6 states)
  p refines SPEC from S                                holds
  p[]F refines SSPEC from span                         fails: bad transition [data=bot present=false] -[read]-> [data=bad present=false]
=> VERDICT: FAILS

witness for "p[]F refines SSPEC from span":
takes a bad transition:
[data=bot present=true]
-[page]-> [data=bot present=false]
-[read]-> [data=bad present=false] ...

memory_intolerant: nonmasking tolerance (invariant 3 states, span 6 states)
  p refines SPEC from S                                holds
  p converges from span to invariant                   fails: fair cycle through {[data=bad present=false]}
  p refines SPEC from invariant                        holds
=> VERDICT: FAILS

witness for "p converges from span to invariant":
reaches a fair cycle it can follow forever:
[data=bad present=true]
-[page]-> [data=bad present=false] ...
loop: {[data=bad present=false]}

memory_intolerant: masking tolerance (invariant 3 states, span 6 states)
  p refines SPEC from S                                holds
  p[]F refines SSPEC from span                         fails: bad transition [data=bot present=false] -[read]-> [data=bad present=false]
  liveness of SPEC on p[]F from span                   fails: fair cycle through {[data=bad present=false]}
=> VERDICT: FAILS

witness for "p[]F refines SSPEC from span":
takes a bad transition:
[data=bot present=true]
-[page]-> [data=bot present=false]
-[read]-> [data=bad present=false] ...

witness for "liveness of SPEC on p[]F from span":
reaches a fair cycle it can follow forever:
[data=bad present=true]
-[page]-> [data=bad present=false] ...
loop: {[data=bad present=false]}

|}

let explain_tmr =
  {|tmr: fail-safe tolerance (invariant 4 states, span 20 states)
  p refines SPEC from S                                holds
  p[]F refines SSPEC from span                         holds
=> VERDICT: holds

tmr: nonmasking tolerance (invariant 4 states, span 20 states)
  p refines SPEC from S                                holds
  p converges from span to invariant                   fails: deadlock at [faulted=true out=v0 x=0 y=0 z=0]
  p refines SPEC from invariant                        holds
=> VERDICT: FAILS

witness for "p converges from span to invariant":
reaches a deadlock:
[faulted=false out=v0 x=0 y=0 z=0]
-[fx]-> [faulted=true out=v0 x=0 y=0 z=0] ...

tmr: masking tolerance (invariant 4 states, span 20 states)
  p refines SPEC from S                                holds
  p[]F refines SSPEC from span                         holds
  liveness of SPEC on p[]F from span                   holds
=> VERDICT: holds

|}

let test_session_cli () =
  List.iter
    (fun (file, want) ->
      let code, out =
        dcheck_stdout [ "verify"; "--explain"; Filename.concat corpus file ]
      in
      Alcotest.(check int) (file ^ " --explain exits 1") 1 code;
      Alcotest.(check string) (file ^ " --explain output") want out)
    [
      ("memory_intolerant.dc", explain_memory_intolerant);
      ("tmr.dc", explain_tmr);
    ];
  let code, _ =
    dcheck_stdout
      [ "verify"; "--timeout"; "0.01"; Filename.concat corpus "ring5.dc" ]
  in
  Alcotest.(check int) "exhausted --timeout exits 3" 3 code

let suite =
  ( "core (memory access, Figures 1-3)",
    [
      Alcotest.test_case "verdict matrix" `Quick test_verdict_matrix;
      Alcotest.test_case "report details" `Quick test_report_details;
      Alcotest.test_case "classify" `Quick test_classify;
      Alcotest.test_case "fault span" `Quick test_fault_span;
      Alcotest.test_case "weakest detection predicate" `Quick
        test_weakest_detection_predicate;
      Alcotest.test_case "detector satisfies" `Quick test_detector_satisfies;
      Alcotest.test_case "tolerant detector" `Quick test_detector_tolerant;
      Alcotest.test_case "corrector satisfies" `Quick test_corrector_satisfies;
      Alcotest.test_case "tolerant corrector" `Quick test_corrector_tolerant;
      Alcotest.test_case "corrector as detector" `Quick test_corrector_as_detector;
      Alcotest.test_case "refinement" `Quick test_refinement;
      Alcotest.test_case "refinement divergence" `Quick test_refinement_divergence;
      Alcotest.test_case "detector extraction" `Quick test_extraction_detector;
      Alcotest.test_case "extraction missing action" `Quick
        test_extraction_missing_action;
      Alcotest.test_case "corrector extraction" `Quick test_extraction_corrector;
      Alcotest.test_case "invariant projection" `Quick test_project_invariant;
      Alcotest.test_case "theorem 3.4" `Quick test_theorem_3_4;
      Alcotest.test_case "lemma 3.5" `Quick test_lemma_3_5;
      Alcotest.test_case "theorem 3.6" `Quick test_theorem_3_6;
      Alcotest.test_case "theorem 4.1" `Quick test_theorem_4_1;
      Alcotest.test_case "lemma 4.2" `Quick test_lemma_4_2;
      Alcotest.test_case "theorem 4.3" `Quick test_theorem_4_3;
      Alcotest.test_case "theorem 5.2" `Quick test_theorem_5_2;
      Alcotest.test_case "theorem 5.5" `Quick test_theorem_5_5;
      Alcotest.test_case "schema negative controls" `Quick
        test_schema_negative_controls;
      Alcotest.test_case "theorems 3.6/4.3/5.5 reuse the session span" `Quick
        test_theorem_builds;
      Alcotest.test_case "theorem span over the limit raises" `Quick
        test_theorem_span_limit;
      Alcotest.test_case "broken detector rejected" `Quick test_broken_detector;
      Alcotest.test_case "broken corrector rejected" `Quick test_broken_corrector;
      Alcotest.test_case "fault composition" `Quick test_fault_composition;
      Alcotest.test_case "session matches checks on the corpus" `Quick
        test_session_corpus;
      prop_session_random;
      Alcotest.test_case "session shares builds" `Quick test_session_builds;
      Alcotest.test_case "session budget semantics" `Quick test_session_budget;
      Alcotest.test_case "verify --explain on the session span" `Quick
        test_session_cli;
    ] )
