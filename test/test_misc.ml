(* Assorted edge-case tests for corners the main suites pass over:
   pretty-printers, trace suffixes, statistics, monitor interval
   semantics, injector edge cases, the umbrella module. *)

open Detcor_kernel
open Detcor_semantics

let test_value_pp () =
  Alcotest.(check string) "int" "42" (Value.to_string (Value.int 42));
  Alcotest.(check string) "bool" "true" (Value.to_string (Value.bool true));
  Alcotest.(check string) "sym" "bot" (Value.to_string Value.bot)

let test_expr_pp () =
  let e = Expr.(implies (and_ [ var "a"; bool true ]) (le (var "x") (int 3))) in
  Alcotest.(check string) "expr rendering" "((a && true) => (x <= 3))"
    (Expr.to_string e);
  Alcotest.(check string) "empty and" "true" (Expr.to_string (Expr.and_ []));
  Alcotest.(check string) "empty or" "false" (Expr.to_string (Expr.or_ []))

let test_state_pp () =
  let st = State.of_list [ ("b", Value.bool false); ("a", Value.int 1) ] in
  Alcotest.(check string) "sorted rendering" "[a=1 b=false]" (State.to_string st)

let test_trace_suffix_edges () =
  let s k = State.of_list [ ("n", Value.int k) ] in
  let tr =
    Trace.make (s 0)
      [ { Trace.action = "a"; target = s 1 }; { Trace.action = "b"; target = s 2 } ]
  in
  Alcotest.(check int) "suffix 0 keeps all" 2 (Trace.length (Trace.suffix_from tr 0));
  Alcotest.(check int) "suffix 2 keeps none" 0 (Trace.length (Trace.suffix_from tr 2));
  Alcotest.check Util.state "suffix 2 start" (s 2) (Trace.start (Trace.suffix_from tr 2));
  Alcotest.(check int) "oversized suffix clamps" 0
    (Trace.length (Trace.suffix_from tr 9))

let test_stats_edges () =
  let open Detcor_sim in
  (match Stats.summarize [ 7 ] with
  | Some s ->
    Alcotest.(check int) "singleton p50" 7 s.p50;
    Alcotest.(check int) "singleton p95" 7 s.p95
  | None -> Alcotest.fail "singleton summary");
  match Stats.summarize (List.init 100 (fun i -> i)) with
  | Some s ->
    Alcotest.(check int) "p95 of 0..99" 94 s.p95;
    Alcotest.(check int) "p50 of 0..99" 49 s.p50
  | None -> Alcotest.fail "range summary"

let test_monitor_interval_semantics () =
  (* Detection latency counts from the start of each maximal X-interval
     to the first Z inside it; intervals that end by ¬X are skipped. *)
  let open Detcor_sim in
  let mk x z = State.of_list [ ("x", Value.bool x); ("z", Value.bool z) ] in
  let px = Pred.make "x" (fun st -> Value.as_bool (State.get st "x")) in
  let pz = Pred.make "z" (fun st -> Value.as_bool (State.get st "z")) in
  let d = Detcor_core.Detector.make ~name:"t" ~witness:pz ~detection:px () in
  let trace_of states =
    match states with
    | [] -> assert false
    | first :: rest ->
      Trace.make first
        (List.map (fun st -> { Trace.action = "s"; target = st }) rest)
  in
  let run states =
    {
      Runner.trace = trace_of states;
      fault_steps = [];
      faults_injected = 0;
    }
  in
  (* X rises at index 1, Z at index 3: latency 2. *)
  Alcotest.(check (list int)) "single interval" [ 2 ]
    (Monitor.detection_latency
       (run [ mk false false; mk true false; mk true false; mk true true ])
       d);
  (* X interval that ends without Z: skipped. *)
  Alcotest.(check (list int)) "aborted interval" []
    (Monitor.detection_latency
       (run [ mk true false; mk true false; mk false false ])
       d);
  (* Immediate witness: latency 0. *)
  Alcotest.(check (list int)) "instant detection" [ 0 ]
    (Monitor.detection_latency (run [ mk true true ]) d)

let test_injector_none () =
  let open Detcor_sim in
  let injector = Injector.make Injector.None_ Detcor_core.Fault.none in
  let rng = Random.State.make [| 1 |] in
  Alcotest.(check bool) "never fires" true
    (Injector.inject injector ~rng ~step:0
       ~enabled:(fun _ -> true)
       ~execute:(fun _ -> [ State.empty ])
     = None);
  Alcotest.(check int) "no injections" 0 (Injector.injected injector)

let test_umbrella_module () =
  (* The umbrella namespace exposes the toolkit coherently. *)
  let open Detcor in
  let report =
    Tolerance.is_masking Systems.Memory.masking ~spec:Systems.Memory.spec
      ~invariant:Systems.Memory.s ~faults:Systems.Memory.page_fault
  in
  Alcotest.(check bool) "umbrella verdict" true (Tolerance.verdict report)

let test_check_pp () =
  let s = State.of_list [ ("x", Value.int 1) ] in
  Alcotest.(check string) "holds renders" "holds"
    (Fmt.str "%a" Check.pp_outcome Check.Holds);
  Alcotest.(check bool) "violation renders state" true
    (let rendered =
       Fmt.str "%a" Check.pp_outcome (Check.Fails (Check.Deadlock s))
     in
     String.length rendered > 0)

let test_program_pp () =
  let rendered = Fmt.str "%a" Program.pp Detcor_systems.Memory.masking in
  Alcotest.(check bool) "program renders actions" true
    (String.length rendered > 40)

let suite =
  ( "misc (printers, edges, umbrella)",
    [
      Alcotest.test_case "value pp" `Quick test_value_pp;
      Alcotest.test_case "expr pp" `Quick test_expr_pp;
      Alcotest.test_case "state pp" `Quick test_state_pp;
      Alcotest.test_case "trace suffix edges" `Quick test_trace_suffix_edges;
      Alcotest.test_case "stats edges" `Quick test_stats_edges;
      Alcotest.test_case "monitor intervals" `Quick test_monitor_interval_semantics;
      Alcotest.test_case "injector none" `Quick test_injector_none;
      Alcotest.test_case "umbrella module" `Quick test_umbrella_module;
      Alcotest.test_case "check pp" `Quick test_check_pp;
      Alcotest.test_case "program pp" `Quick test_program_pp;
    ] )
