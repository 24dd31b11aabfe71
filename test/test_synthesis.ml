(* Tests for Detcor_synthesis: automated addition of fail-safe,
   nonmasking and masking tolerance, verified by the Detcor_core
   checkers (experiment E7). *)

open Detcor_kernel
open Detcor_spec
open Detcor_core
open Detcor_systems
open Detcor_synthesis

let get = function
  | Ok (r : Synthesize.result) -> r
  | Error f -> Alcotest.failf "synthesis failed: %a" Synthesize.pp_failure f

let test_mem_failsafe () =
  let r =
    get
      (Synthesize.add_failsafe Memory.intolerant ~spec:Memory.spec
         ~invariant:Memory.s ~faults:Memory.page_fault)
  in
  Alcotest.(check bool) "verified fail-safe" true (Tolerance.verdict r.report);
  Alcotest.(check int) "one detector added" 1 (List.length r.added_detectors);
  (* The added guard keeps reading whenever the page is present. *)
  let _, guard = List.hd r.added_detectors in
  Alcotest.(check bool) "guard allows present" true
    (Pred.holds guard
       (State.of_list [ ("present", Value.bool true); ("data", Value.bot) ]));
  Alcotest.(check bool) "guard blocks absent" false
    (Pred.holds guard
       (State.of_list [ ("present", Value.bool false); ("data", Value.bot) ]))

let test_mem_nonmasking () =
  let r =
    get
      (Synthesize.add_nonmasking Memory.intolerant ~spec:Memory.spec
         ~invariant:Memory.s ~faults:Memory.page_fault)
  in
  Alcotest.(check bool) "verified nonmasking" true (Tolerance.verdict r.report);
  Alcotest.(check bool) "recovery synthesized" true (r.recovery_states > 0)

let test_mem_masking () =
  let r =
    get
      (Synthesize.add_masking Memory.intolerant ~spec:Memory.spec
         ~invariant:Memory.s ~faults:Memory.page_fault)
  in
  Alcotest.(check bool) "verified masking" true (Tolerance.verdict r.report);
  Alcotest.(check bool) "detector and corrector both added" true
    (r.added_detectors <> [] && r.recovery_states > 0)

(* The synthesized fail-safe guard for TMR coincides with the paper's DR
   witness (x=y or x=z) wherever the action is enabled within the span —
   the synthesizer rediscovers the detector of Section 6.1. *)
let test_tmr_failsafe_rediscovers_dr () =
  let r =
    get
      (Synthesize.add_failsafe Tmr.intolerant ~spec:Tmr.spec
         ~invariant:Tmr.invariant ~faults:Tmr.one_corruption)
  in
  Alcotest.(check bool) "verified fail-safe" true (Tolerance.verdict r.report);
  let _, guard = List.hd r.added_detectors in
  let span =
    Tolerance.fault_span Tmr.intolerant ~faults:Tmr.one_corruption
      ~from:Tmr.invariant
  in
  List.iter
    (fun st ->
      if Pred.holds Tmr.out_bot st then
        Alcotest.(check bool)
          (Fmt.str "guard = DR witness at %a" State.pp st)
          (Pred.holds Tmr.dr_witness st)
          (Pred.holds guard st))
    span.states

let test_tmr_masking () =
  let r =
    get
      (Synthesize.add_masking ~target:Tmr.out_is_uncor Tmr.intolerant
         ~spec:Tmr.spec ~invariant:Tmr.invariant ~faults:Tmr.one_corruption)
  in
  Alcotest.(check bool) "verified masking" true (Tolerance.verdict r.report)

(* Idempotence: adding fail-safe tolerance to an already fail-safe program
   succeeds and preserves the verdict. *)
let test_idempotent () =
  let r =
    get
      (Synthesize.add_failsafe Memory.failsafe ~spec:Memory.spec
         ~invariant:Memory.s ~faults:Memory.page_fault)
  in
  Alcotest.(check bool) "still fail-safe" true (Tolerance.verdict r.report)

(* Unsynthesizable: a fault that directly violates the safety
   specification from inside the invariant leaves no invariant states
   ([ms] swallows S), so fail-safe addition must fail. *)
let test_unsynthesizable () =
  let bad_fault =
    Fault.make "poison"
      [
        Action.deterministic "F:poison" Pred.true_ (fun st ->
            State.set st "data" Memory.bad);
      ]
  in
  let spec =
    Spec.make ~name:"strict"
      ~safety:
        (Detcor_spec.Safety.never
           (Pred.make "data=bad" (fun st ->
                Value.equal (State.get st "data") Memory.bad)))
      ()
  in
  match
    Synthesize.add_failsafe Memory.intolerant ~spec ~invariant:Memory.s
      ~faults:bad_fault
  with
  | Error Synthesize.Empty_invariant -> ()
  | Error f -> Alcotest.failf "unexpected failure: %a" Synthesize.pp_failure f
  | Ok _ -> Alcotest.fail "expected Empty_invariant"

(* Unrecoverable: nonmasking synthesis with recovery restricted to zero
   moves... emulated by a target no 1-variable path can reach when the
   fault corrupts two variables at once. *)
let test_ring_nonmasking_synthesis () =
  (* Strip the ring of a process's move action; recovery synthesis must
     re-establish convergence. *)
  let cfg = Token_ring.make_config 3 in
  let crippled =
    Program.make ~name:"crippled-ring"
      ~vars:(Program.var_decls (Token_ring.program cfg))
      ~actions:
        (List.filter
           (fun ac -> Action.name ac <> "move_1")
           (Program.actions (Token_ring.program cfg)))
  in
  match
    Synthesize.add_nonmasking crippled ~spec:(Token_ring.spec cfg)
      ~invariant:(Token_ring.legitimate cfg)
      ~faults:(Token_ring.corruption cfg)
  with
  | Ok r -> Alcotest.(check bool) "verified" true (Tolerance.verdict r.report)
  | Error f ->
    (* Acceptable outcome: the checker explains why recovery is impossible
       (the crippled program keeps fighting the corrector). *)
    Alcotest.(check bool)
      (Fmt.str "explained failure: %a" Synthesize.pp_failure f)
      true
      (match f with
      | Synthesize.Verification_failed _ | Synthesize.Unrecoverable_state _ ->
        true
      | Synthesize.Empty_invariant | Synthesize.Exhausted _ -> false)

let outcome_tag = function
  | Ok _ -> "Ok"
  | Error f -> Fmt.str "%a" Synthesize.pp_failure f

(* The candidate-step generator: one-variable steps enumerate every other
   in-domain value; the two-variable composition is deduplicated (no
   origin, no re-emitted one-variable steps, no repeated states). *)
let test_neighbors_dedup () =
  let p =
    Program.make ~name:"nb"
      ~vars:[ ("x", Domain.range 0 2); ("y", Domain.range 0 1) ]
      ~actions:[ Action.deterministic "skip" Pred.false_ (fun st -> st) ]
  in
  let st = State.of_list [ ("x", Value.int 0); ("y", Value.int 0) ] in
  let one = Synthesize.neighbors ~step_vars:1 p st in
  Alcotest.(check int) "one-variable neighbors" 3 (List.length one);
  let two = Synthesize.neighbors ~step_vars:2 p st in
  (* 5 = the product space minus the origin *)
  Alcotest.(check int) "two-variable neighbors deduplicated" 5
    (List.length two);
  Alcotest.(check int) "no duplicates" (List.length two)
    (List.length (List.sort_uniq State.compare two));
  Alcotest.(check bool) "origin excluded" false
    (List.exists (State.equal st) two)

let bit = Domain.range 0 1

(* Fail-safe restriction can leave no invariant state: every invariant
   state is already bad, so ms swallows the invariant. *)
let test_failure_empty_invariant () =
  let x0 = Pred.make "x=0" (fun st -> Value.as_int (State.get st "x") = 0) in
  let p =
    Program.make ~name:"empty" ~vars:[ ("x", bit) ]
      ~actions:[ Action.deterministic "skip" Pred.false_ (fun st -> st) ]
  in
  let spec = Spec.make ~name:"bad0" ~safety:(Safety.never x0) () in
  let faults = Fault.corrupt_variable "x" bit in
  (match Synthesize.add_masking p ~spec ~invariant:x0 ~faults with
  | Error Synthesize.Empty_invariant -> ()
  | r -> Alcotest.failf "expected Empty_invariant, got %s" (outcome_tag r));
  (* nonmasking starting from an invariant with no states at all *)
  match Synthesize.add_nonmasking p ~spec ~invariant:Pred.false_ ~faults with
  | Error Synthesize.Empty_invariant -> ()
  | r -> Alcotest.failf "expected Empty_invariant, got %s" (outcome_tag r)

(* A fault jumps the program two variables away from the invariant; no
   one-variable step back stays inside the restricted span, but the
   attempt ladder escalates to two-variable moves on its own and heals
   the layering. *)
let test_step_vars_escalation_heals () =
  let getx st = Value.as_int (State.get st "x") in
  let gety st = Value.as_int (State.get st "y") in
  let inv = Pred.make "origin" (fun st -> getx st = 0 && gety st = 0) in
  let p =
    Program.make ~name:"diag-jump"
      ~vars:[ ("x", bit); ("y", bit) ]
      ~actions:[ Action.deterministic "skip" Pred.false_ (fun st -> st) ]
  in
  let spec =
    Spec.make ~name:"diag"
      ~safety:(Safety.make ~bad_state:(fun st -> getx st <> gety st) ())
      ()
  in
  let jump =
    Fault.make "jump"
      [
        Action.deterministic "F:jump" inv (fun st ->
            State.set (State.set st "x" (Value.int 1)) "y" (Value.int 1));
      ]
  in
  let r = get (Synthesize.add_masking p ~spec ~invariant:inv ~faults:jump) in
  Alcotest.(check bool) "verified masking" true (Tolerance.verdict r.report);
  Alcotest.(check int) "one recovery move (the diagonal)" 1 r.recovery_states

(* Truly unrecoverable: the fault jumps THREE variables at once, so even
   the two-variable escalation cannot re-enter the span — every ladder
   attempt leaves the jumped-to state unranked. *)
let test_failure_unrecoverable () =
  let v st n = Value.as_int (State.get st n) in
  let inv =
    Pred.make "origin" (fun st -> v st "x" = 0 && v st "y" = 0 && v st "z" = 0)
  in
  let p =
    Program.make ~name:"unrec"
      ~vars:[ ("x", bit); ("y", bit); ("z", bit) ]
      ~actions:[ Action.deterministic "skip" Pred.false_ (fun st -> st) ]
  in
  let spec =
    Spec.make ~name:"no-partial"
      ~safety:
        (Safety.make
           ~bad_state:(fun st ->
             let set = v st "x" + v st "y" + v st "z" in
             set = 1 || set = 2)
           ())
      ()
  in
  let jump =
    Fault.make "jump3"
      [
        Action.deterministic "F:jump3" inv (fun st ->
            State.update_many st
              [ ("x", Value.int 1); ("y", Value.int 1); ("z", Value.int 1) ]);
      ]
  in
  match Synthesize.add_masking p ~spec ~invariant:inv ~faults:jump with
  | Error (Synthesize.Unrecoverable_state st) ->
    Alcotest.(check int) "stuck at x=1" 1 (v st "x");
    Alcotest.(check int) "stuck at y=1" 1 (v st "y");
    Alcotest.(check int) "stuck at z=1" 1 (v st "z")
  | r -> Alcotest.failf "expected Unrecoverable_state, got %s" (outcome_tag r)

(* Invariant weakening: a fault poisons the original invariant (ms
   swallows it), but the restricted program is live in a different part
   of the ms-complement; the weakening search finds it instead of
   reporting Empty_invariant. *)
let test_invariant_weakening () =
  let getx st = Value.as_int (State.get st "x") in
  let x_is n = Pred.make (Fmt.str "x=%d" n) (fun st -> getx st = n) in
  let p =
    Program.make ~name:"weaken"
      ~vars:[ ("x", Domain.range 0 3) ]
      ~actions:
        [
          Action.deterministic "move" (x_is 1) (fun st ->
              State.set st "x" (Value.int 3));
        ]
  in
  let spec = Spec.make ~name:"never2" ~safety:(Safety.never (x_is 2)) () in
  let poison =
    Fault.make "poison"
      [
        Action.deterministic "F:poison" (x_is 0) (fun st ->
            State.set st "x" (Value.int 2));
      ]
  in
  let r =
    get (Synthesize.add_masking p ~spec ~invariant:(x_is 0) ~faults:poison)
  in
  Alcotest.(check bool) "verified masking" true (Tolerance.verdict r.report);
  Alcotest.(check string)
    "invariant marked as weakened" "S_masking_weakened"
    (Pred.name r.invariant);
  Alcotest.(check bool) "x=1 in weakened invariant" true
    (Pred.holds r.invariant (State.of_list [ ("x", Value.int 1) ]));
  Alcotest.(check bool) "x=3 in weakened invariant" true
    (Pred.holds r.invariant (State.of_list [ ("x", Value.int 3) ]));
  Alcotest.(check bool) "poisoned x=0 excluded" false
    (Pred.holds r.invariant (State.of_list [ ("x", Value.int 0) ]))

(* The corrector races the program: the first layering picks a recovery
   step the program immediately undoes (the anti-undo veto is relaxed
   because keeping it leaves the state unrecoverable), verification finds
   the fair cycle, and the repair loop bans the raced edge — forcing the
   two-variable escalation that jumps past the race. *)
let test_repair_breaks_cycle () =
  let getx st = Value.as_int (State.get st "x") in
  let gety st = Value.as_int (State.get st "y") in
  let inv = Pred.make "origin" (fun st -> getx st = 0 && gety st = 0) in
  let p =
    Program.make ~name:"racer"
      ~vars:[ ("x", bit); ("y", bit) ]
      ~actions:
        [
          Action.deterministic "push"
            (Pred.make "x=1,y=0" (fun st -> getx st = 1 && gety st = 0))
            (fun st -> State.set st "y" (Value.int 1));
        ]
  in
  let spec =
    Spec.make ~name:"come-home"
      ~liveness:(Liveness.eventually ~name:"eventually home" inv)
      ()
  in
  let jump =
    Fault.make "kick"
      [
        Action.deterministic "F:kick-corner" inv (fun st ->
            State.update_many st [ ("x", Value.int 1); ("y", Value.int 1) ]);
        Action.deterministic "F:kick-side" inv (fun st ->
            State.set st "x" (Value.int 1));
      ]
  in
  let r = get (Synthesize.add_nonmasking p ~spec ~invariant:inv ~faults:jump) in
  Alcotest.(check bool) "verified nonmasking" true (Tolerance.verdict r.report);
  Alcotest.(check bool)
    "counterexample-guided repair actually iterated" true
    (r.repair_iterations >= 1)

(* Recovery synthesis succeeds, but the synthesized program cannot meet
   the liveness obligation of the specification: the self-looping program
   never reaches x=1 from the invariant. *)
let test_failure_verification () =
  let x1 = Pred.make "x=1" (fun st -> Value.as_int (State.get st "x") = 1) in
  let p =
    Program.make ~name:"stuck" ~vars:[ ("x", bit) ]
      ~actions:[ Action.deterministic "stay" Pred.true_ (fun st -> st) ]
  in
  let spec =
    Spec.make ~name:"eventually-one"
      ~liveness:(Liveness.leads_to Pred.true_ x1)
      ()
  in
  let faults = Fault.corrupt_variable "x" bit in
  match
    Synthesize.add_nonmasking p ~spec ~invariant:(Pred.not_ x1) ~faults
  with
  | Error (Synthesize.Verification_failed report) ->
    Alcotest.(check bool) "verdict false" false (Tolerance.verdict report);
    Alcotest.(check bool)
      "a definite failure, not Unknown" true
      (Tolerance.failures report <> [])
  | r -> Alcotest.failf "expected Verification_failed, got %s" (outcome_tag r)

(* A state-count budget trips inside synthesis: the outcome is the
   undecided [Exhausted] failure, not a hang or an escaping exception. *)
let test_budget_trip () =
  let cfg = Token_ring.make_config 5 in
  let budget = Detcor_robust.Budget.make ~max_states:64 () in
  match
    Detcor_robust.Budget.with_budget budget (fun () ->
        Synthesize.add_nonmasking (Token_ring.program cfg)
          ~spec:(Token_ring.spec cfg)
          ~invariant:(Token_ring.legitimate cfg)
          ~faults:(Token_ring.corruption cfg))
  with
  | Error (Synthesize.Exhausted r) ->
    Alcotest.(check bool)
      "states dimension" true
      (r.Detcor_robust.Error.kind = Detcor_robust.Error.States)
  | r -> Alcotest.failf "expected Exhausted, got %s" (outcome_tag r)

(* A fault that writes outside the program's declared domain: [Ts] cannot
   pack the fault span, so [Auto] falls back to the reference builder and
   synthesis runs its index-based phases over that system.  The escaped
   state x=9 sees x=0 as a one-variable neighbor, but no in-domain state
   sees x=9 back, so recovery layering must still rank it.  The pinned
   figures are those of the list-based synthesis this system used to
   take. *)
let test_domain_escape_pinned () =
  let getx st = Value.as_int (State.get st "x") in
  let x_is n = Pred.make (Fmt.str "x=%d" n) (fun st -> getx st = n) in
  let p =
    Program.make ~name:"escape"
      ~vars:[ ("x", Domain.range 0 2); ("y", Domain.boolean) ]
      ~actions:
        [
          Action.deterministic "flip" (x_is 1) (fun st ->
              State.set st "y" (Value.bool (not (Value.as_bool (State.get st "y")))));
        ]
  in
  let spec = Spec.make ~name:"never1" ~safety:(Safety.never (x_is 1)) () in
  let faults =
    Fault.make "blowup"
      [
        Action.deterministic "F:escape" (x_is 0) (fun st ->
            State.set st "x" (Value.int 9));
        Action.deterministic "F:two" (x_is 0) (fun st ->
            State.set st "x" (Value.int 2));
      ]
  in
  let summary = function
    | Ok (r : Synthesize.result) ->
      Fmt.str "ok inv=%d span=%d recovery=%d detectors=%d"
        r.report.Tolerance.invariant_size r.report.Tolerance.span_size
        r.recovery_states
        (List.length r.added_detectors)
    | Error f -> Fmt.str "%a" Synthesize.pp_failure f
  in
  Alcotest.(check bool) "Auto falls back to the reference builder" true
    (Detcor_semantics.Ts.fallback_reason
       (Detcor_semantics.Ts.full (Fault.compose p faults))
    <> None);
  let check label expected r = Alcotest.(check string) label expected (summary r) in
  check "fail-safe" "ok inv=2 span=6 recovery=0 detectors=1"
    (Synthesize.add_failsafe p ~spec ~invariant:(x_is 0) ~faults);
  check "nonmasking" "ok inv=2 span=6 recovery=6 detectors=0"
    (Synthesize.add_nonmasking p ~spec ~invariant:(x_is 0) ~faults);
  check "masking" "ok inv=2 span=6 recovery=6 detectors=1"
    (Synthesize.add_masking p ~spec ~invariant:(x_is 0) ~faults)

let suite =
  ( "synthesis (E7)",
    [
      Alcotest.test_case "memory fail-safe" `Quick test_mem_failsafe;
      Alcotest.test_case "memory nonmasking" `Quick test_mem_nonmasking;
      Alcotest.test_case "memory masking" `Quick test_mem_masking;
      Alcotest.test_case "TMR rediscovers DR" `Quick test_tmr_failsafe_rediscovers_dr;
      Alcotest.test_case "TMR masking" `Quick test_tmr_masking;
      Alcotest.test_case "idempotent" `Quick test_idempotent;
      Alcotest.test_case "unsynthesizable" `Quick test_unsynthesizable;
      Alcotest.test_case "neighbors deduplicated" `Quick test_neighbors_dedup;
      Alcotest.test_case "empty invariant" `Quick test_failure_empty_invariant;
      Alcotest.test_case "step-vars escalation heals diagonal jump" `Quick
        test_step_vars_escalation_heals;
      Alcotest.test_case "unrecoverable state" `Quick
        test_failure_unrecoverable;
      Alcotest.test_case "invariant weakening" `Quick test_invariant_weakening;
      Alcotest.test_case "repair breaks recovery race" `Quick
        test_repair_breaks_cycle;
      Alcotest.test_case "verification failed" `Quick
        test_failure_verification;
      Alcotest.test_case "budget trip undecided" `Quick test_budget_trip;
      Alcotest.test_case "domain-escaping program pinned" `Quick
        test_domain_escape_pinned;
      Alcotest.test_case "crippled ring" `Slow test_ring_nonmasking_synthesis;
    ] )
