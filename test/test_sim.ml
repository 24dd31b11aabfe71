(* Tests for the simulation environment (the SIEFAST role, experiment
   E8): schedulers, injectors, runner determinism, online monitors. *)

open Detcor_kernel
open Detcor_systems
open Detcor_sim

let mem_init =
  State.of_list
    [
      ("present", Value.bool true);
      ("data", Value.bot);
      ("z1", Value.bool false);
    ]

let test_runner_deterministic () =
  let injector () = Injector.make (Injector.At_steps [ 3 ]) Memory.page_fault in
  let r1 = Runner.run Memory.masking ~injector:(injector ()) ~init:mem_init in
  let r2 = Runner.run Memory.masking ~injector:(injector ()) ~init:mem_init in
  Alcotest.(check int) "same length" (Detcor_semantics.Trace.length r1.trace)
    (Detcor_semantics.Trace.length r2.trace);
  Alcotest.(check bool) "same states" true
    (List.for_all2 State.equal
       (Detcor_semantics.Trace.states r1.trace)
       (Detcor_semantics.Trace.states r2.trace))

let test_runner_seeds_differ () =
  (* An illegitimate ring state enables several moves at once, so distinct
     seeds schedule distinct action sequences (almost surely). *)
  let cfg = Token_ring.make_config 4 in
  let init =
    State.of_list
      (List.init cfg.Token_ring.processes (fun i ->
           (Token_ring.xvar i, Value.int (i mod cfg.Token_ring.counter_values))))
  in
  let run seed =
    Runner.run
      ~config:{ Runner.default with seed; max_steps = 50 }
      (Token_ring.program cfg)
      ~injector:(Injector.make Injector.None_ (Token_ring.corruption cfg))
      ~init
  in
  let actions r =
    List.map
      (fun (s : Detcor_semantics.Trace.step) -> s.action)
      (Detcor_semantics.Trace.steps r.Runner.trace)
  in
  let schedules = List.map (fun seed -> actions (run seed)) (List.init 10 (fun i -> i + 1)) in
  let distinct = List.sort_uniq compare schedules in
  Alcotest.(check bool) "some schedules differ across 10 seeds" true
    (List.length distinct > 1)

let test_injector_bounds () =
  let runs =
    Runner.sample 20 Memory.masking ~faults:Memory.page_fault
      ~policy:(Injector.Random { probability = 0.5; max_faults = 2 })
      ~init:mem_init
  in
  Alcotest.(check bool) "at most 2 faults per run" true
    (List.for_all (fun (r : Runner.run) -> r.faults_injected <= 2) runs)

let test_sample_seeds_uncorrelated () =
  (* Regression: per-run seeds used to be [config.seed + i], so two
     overlapping samples shared almost every stream — base seed 1 run 1
     replayed base seed 2 run 0 exactly.  With splitmix-derived seeds the
     two samples must produce disjoint traces. *)
  let cfg = Token_ring.make_config 4 in
  let init =
    State.of_list
      (List.init cfg.Token_ring.processes (fun i ->
           (Token_ring.xvar i, Value.int (i mod cfg.Token_ring.counter_values))))
  in
  let sample seed =
    Runner.sample
      ~config:{ Runner.default with seed; max_steps = 40 }
      6 (Token_ring.program cfg) ~faults:(Token_ring.corruption cfg)
      ~policy:(Injector.Random { probability = 0.3; max_faults = 3 })
      ~init
  in
  let key (r : Runner.run) =
    String.concat ";"
      (List.map
         (fun (s : Detcor_semantics.Trace.step) -> s.action)
         (Detcor_semantics.Trace.steps r.trace))
  in
  let a = List.map key (sample 1) in
  let b = List.map key (sample 2) in
  Alcotest.(check bool) "overlapping samples share no trace" false
    (List.exists (fun k -> List.mem k a) b)

let test_injector_at_steps () =
  let injector = Injector.make (Injector.At_steps [ 0 ]) Memory.page_fault in
  let r = Runner.run Memory.masking ~injector ~init:mem_init in
  Alcotest.(check (list int)) "fault at step 0" [ 0 ] r.fault_steps

let test_round_robin_terminates () =
  let r =
    Runner.run
      ~config:{ Runner.default with scheduler = Scheduler.Round_robin }
      Memory.failsafe
      ~injector:(Injector.make Injector.None_ Memory.page_fault)
      ~init:mem_init
  in
  (* pf from S with no faults: keeps reading good data. *)
  Alcotest.(check bool) "no safety violation" true
    (Monitor.first_safety_violation r
       (Detcor_spec.Spec.safety
          (Detcor_spec.Spec.smallest_safety_containing Memory.spec))
    = None)

let test_monitor_detection_latency () =
  let injector = Injector.make Injector.None_ Memory.page_fault in
  let r = Runner.run Memory.masking ~injector ~init:mem_init in
  let latencies = Monitor.detection_latency r Memory.pm_detector in
  Alcotest.(check bool) "detection observed" true (latencies <> []);
  Alcotest.(check bool) "latencies nonnegative" true (List.for_all (fun l -> l >= 0) latencies)

let test_monitor_correction_latency () =
  let injector = Injector.make (Injector.At_steps [ 2 ]) Memory.page_fault in
  let r =
    Runner.run
      ~config:{ Runner.default with max_steps = 100 }
      Memory.nonmasking ~injector
      ~init:(State.of_list [ ("present", Value.bool true); ("data", Value.bot) ])
  in
  match Monitor.correction_latency r Memory.pn_corrector with
  | Some l -> Alcotest.(check bool) "corrected after fault" true (l >= 0)
  | None -> Alcotest.fail "pn failed to correct in simulation"

let test_monitor_safety_violation_detected () =
  (* The intolerant program under an early fault eventually writes bad
     data in some schedule; scan seeds until observed. *)
  let sspec =
    Detcor_spec.Spec.safety (Detcor_spec.Spec.smallest_safety_containing Memory.spec)
  in
  let violated =
    List.exists
      (fun seed ->
        let injector = Injector.make (Injector.At_steps [ 0 ]) Memory.page_fault in
        let r =
          Runner.run
            ~config:{ Runner.default with seed }
            Memory.intolerant ~injector
            ~init:(State.of_list [ ("present", Value.bool true); ("data", Value.bot) ])
        in
        Monitor.first_safety_violation r sspec <> None)
      (List.init 20 (fun i -> i + 1))
  in
  Alcotest.(check bool) "violation observed for intolerant p" true violated

let test_monitor_report () =
  let runs =
    Runner.sample 30 Memory.masking ~faults:Memory.page_fault
      ~policy:(Injector.Random { probability = 0.1; max_faults = 1 })
      ~init:mem_init
  in
  let report =
    Monitor.report runs ~detector:Memory.pm_detector ~corrector:Memory.pm_corrector
      ~sspec:
        (Detcor_spec.Spec.safety
           (Detcor_spec.Spec.smallest_safety_containing Memory.spec))
  in
  Alcotest.(check int) "all runs counted" 30 report.runs;
  Alcotest.(check int) "masking program never violates safety" 0
    report.safety_violations;
  Alcotest.(check bool) "corrections observed" true (report.corrected_runs > 0)

(* ------------------------------------------------------------------ *)
(* Monitor edge cases, on hand-built runs.                             *)
(* ------------------------------------------------------------------ *)

module Safety = Detcor_spec.Safety

let mk_run ?(fault_steps = []) states =
  match states with
  | [] -> assert false
  | init :: rest ->
    {
      Runner.trace =
        Detcor_semantics.Trace.make init
          (List.map
             (fun st -> { Detcor_semantics.Trace.action = "t"; target = st })
             rest);
      fault_steps;
      faults_injected = List.length fault_steps;
    }

let bvar name = Pred.make name (fun st -> Value.as_bool (State.get st name))
let xz x z = State.of_list [ ("x", Value.bool x); ("z", Value.bool z) ]

let edge_detector =
  Detcor_core.Detector.make ~witness:(bvar "z") ~detection:(bvar "x") ()

let edge_corrector =
  Detcor_core.Corrector.make ~witness:(bvar "z") ~correction:(bvar "z") ()

(* The compiled monitor must agree on every edge case; without a program
   its syndrome family evaluates by reference, so this pins the shared
   scan automata, not the packing. *)
let compiled_agrees (run : Runner.run) sspec =
  let comp =
    Monitor.Compiled.make
      [
        Detcor_core.Detector.detection edge_detector;
        Detcor_core.Detector.witness edge_detector;
        Detcor_core.Corrector.correction edge_corrector;
      ]
      sspec
  in
  let b = Monitor.Compiled.eval comp run in
  Alcotest.(check (list int))
    "compiled detection agrees"
    (Monitor.detection_latency run edge_detector)
    (Monitor.Compiled.detection_latency b ~x:0 ~z:1);
  Alcotest.(check (option int))
    "compiled correction agrees"
    (Monitor.correction_latency run edge_corrector)
    (Monitor.Compiled.correction_latency b ~c:2 run);
  Alcotest.(check (option int))
    "compiled violation agrees"
    (Monitor.first_safety_violation run sspec)
    (Monitor.Compiled.first_safety_violation comp
       ~trace:(fun () -> run.trace)
       [ b ])

let test_detection_open_interval () =
  (* X holds to the end of the trace without Z ever firing: Progress
     permits the open interval, so no latency is recorded. *)
  let run = mk_run [ xz false false; xz true false; xz true false ] in
  Alcotest.(check (list int))
    "open interval skipped" []
    (Monitor.detection_latency run edge_detector);
  (* A witnessed interval followed by an open one keeps only the first. *)
  let run2 = mk_run [ xz true false; xz true true; xz true false; xz true false ] in
  Alcotest.(check (list int))
    "witnessed then open" [ 1 ]
    (Monitor.detection_latency run2 edge_detector);
  compiled_agrees run (Safety.never (bvar "x"));
  compiled_agrees run2 (Safety.never (bvar "x"))

let test_detection_zero_latency () =
  (* X and Z truthified in the same state: latency 0. *)
  let run = mk_run [ xz false false; xz true true ] in
  Alcotest.(check (list int))
    "same-state witness" [ 0 ]
    (Monitor.detection_latency run edge_detector);
  compiled_agrees run (Safety.never (bvar "x"))

let test_correction_no_faults () =
  (* Empty fault schedule: the convergence scan starts at the first
     state. *)
  let run = mk_run [ xz false false; xz false true ] in
  Alcotest.(check (option int))
    "scan from state 0" (Some 1)
    (Monitor.correction_latency run edge_corrector);
  let run0 = mk_run [ xz false true; xz false false ] in
  Alcotest.(check (option int))
    "already corrected" (Some 0)
    (Monitor.correction_latency run0 edge_corrector);
  (* A fault on the final step puts the scan start past the trace end. *)
  let run_end = mk_run ~fault_steps:[ 1 ] [ xz false true; xz false true ] in
  Alcotest.(check (option int))
    "scan start beyond trace" None
    (Monitor.correction_latency run_end edge_corrector);
  compiled_agrees run (Safety.never (bvar "x"));
  compiled_agrees run_end (Safety.never (bvar "x"))

let test_safety_violation_at_start () =
  (* The very first state is bad: index 0, before any transition. *)
  let run = mk_run [ xz true false; xz false false ] in
  let sspec = Safety.never (bvar "x") in
  Alcotest.(check (option int))
    "violation at state 0" (Some 0)
    (Monitor.first_safety_violation run sspec);
  (* And a transition violation reports the target index. *)
  let pair = Safety.generalized_pair (bvar "x") (bvar "z") in
  let run2 = mk_run [ xz false false; xz true true; xz true false ] in
  Alcotest.(check (option int))
    "bad transition into state 2" (Some 2)
    (Monitor.first_safety_violation run2 pair);
  compiled_agrees run sspec;
  compiled_agrees run2 pair

let test_stats () =
  match Stats.summarize [ 5; 1; 3; 2; 4 ] with
  | None -> Alcotest.fail "nonempty summary"
  | Some s ->
    Alcotest.(check int) "count" 5 s.count;
    Alcotest.(check int) "min" 1 s.min;
    Alcotest.(check int) "max" 5 s.max;
    Alcotest.(check int) "median" 3 s.p50;
    Alcotest.(check (float 0.001)) "mean" 3.0 s.mean;
    Alcotest.(check bool) "empty" true (Stats.summarize [] = None)

(* Property: the ring stabilizes in simulation from random corrupted
   states (E9's dynamic counterpart of the convergence proof). *)
let test_ring_simulation_stabilizes () =
  let cfg = Token_ring.make_config 4 in
  let p = Token_ring.program cfg in
  let legit = Token_ring.legitimate cfg in
  let ok = ref 0 in
  for seed = 1 to 20 do
    let init =
      let rng = Random.State.make [| seed |] in
      State.of_list
        (List.init cfg.Token_ring.processes (fun i ->
             (Token_ring.xvar i, Value.int (Random.State.int rng cfg.Token_ring.counter_values))))
    in
    let r =
      Runner.run
        ~config:{ Runner.default with seed; max_steps = 300 }
        p
        ~injector:(Injector.make Injector.None_ (Token_ring.corruption cfg))
        ~init
    in
    let states = Detcor_semantics.Trace.states r.trace in
    (* once legitimate, stays legitimate; and legitimacy is reached *)
    let reached = List.exists (Pred.holds legit) states in
    let rec closed seen = function
      | [] -> true
      | st :: rest ->
        let v = Pred.holds legit st in
        if seen && not v then false else closed (seen || v) rest
    in
    if reached && closed false states then incr ok
  done;
  Alcotest.(check int) "all 20 random starts stabilize" 20 !ok

(* Simulation starts from the first invariant state in [Program.states]
   order, whichever order the enumerator yields candidates in.  The
   generator declares its variables in another order than the layout's
   slots, so the declaration-order minimum is exercised.  The expected
   state comes from the interpreted sweep [dcheck simulate] used to run,
   which evaluates the invariant everywhere and so raises the same type
   errors. *)
let prop_initial_state =
  Util.qtest ~count:150 "initial state = first invariant state of Program.states"
    Test_engine_diff.dsl_arb (fun src ->
      let e = Test_engine_diff.elaborate src in
      let outcome f =
        match f () with v -> Ok v | exception Value.Type_error m -> Error m
      in
      let chosen =
        outcome (fun () -> Runner.initial_state e.program ~invariant:e.invariant)
      in
      let expected =
        outcome (fun () ->
            match List.filter (Pred.holds e.invariant) (Program.states e.program) with
            | [] -> None
            | st :: _ -> Some st)
      in
      match (chosen, expected) with
      | Ok a, Ok b -> Option.equal State.equal a b
      | Error m, Error m' -> String.equal m m'
      | _ -> false)

let suite =
  ( "sim (SIEFAST, E8/E9)",
    [
      Alcotest.test_case "runner determinism" `Quick test_runner_deterministic;
      Alcotest.test_case "seeds differ" `Quick test_runner_seeds_differ;
      Alcotest.test_case "injector bounds" `Quick test_injector_bounds;
      Alcotest.test_case "sample seeds uncorrelated" `Quick
        test_sample_seeds_uncorrelated;
      Alcotest.test_case "injector at steps" `Quick test_injector_at_steps;
      Alcotest.test_case "round robin" `Quick test_round_robin_terminates;
      Alcotest.test_case "detection latency" `Quick test_monitor_detection_latency;
      Alcotest.test_case "correction latency" `Quick test_monitor_correction_latency;
      Alcotest.test_case "safety violation detected" `Quick
        test_monitor_safety_violation_detected;
      Alcotest.test_case "monitor report" `Quick test_monitor_report;
      Alcotest.test_case "detection interval open at trace end" `Quick
        test_detection_open_interval;
      Alcotest.test_case "zero-latency detection" `Quick
        test_detection_zero_latency;
      Alcotest.test_case "correction with empty fault schedule" `Quick
        test_correction_no_faults;
      Alcotest.test_case "safety violated at first state" `Quick
        test_safety_violation_at_start;
      Alcotest.test_case "stats" `Quick test_stats;
      Alcotest.test_case "ring stabilizes in simulation" `Quick
        test_ring_simulation_stabilizes;
      prop_initial_state;
    ] )
