(* Differential tests: the syndrome-batched monitors against the
   predicate-at-a-time reference monitors.

   Random guarded-command programs (reusing the generator of
   {!Test_engine_diff}, including the domain-escaping action that forces
   the syndrome evaluator's per-state reference fallback) are simulated
   under random fault injection; detection latencies, correction
   latencies, first safety violations and whole reports from the
   syndrome path, with and without a program (rank-memoized or direct
   evaluation), must equal the reference monitors, which evaluate one
   closure at a time.  A last property checks the syndrome bits
   themselves decode to [Pred.holds] truth per state. *)

open Detcor_kernel
open Detcor_spec
open Detcor_core
open Detcor_sim

let pred_of_seed = Test_engine_diff.pred_of_seed

(* Safety specifications spanning every constructor [Safety.decompose]
   understands, plus an opaque one ([make] with a raw closure) that
   forces the compiled monitor's closure fallback. *)
let sspec_of_seed seed =
  let p1 = pred_of_seed seed and p2 = pred_of_seed (seed lxor 0x155) in
  match seed mod 5 with
  | 0 -> Safety.never p1
  | 1 -> Safety.closure_of p1
  | 2 -> Safety.generalized_pair p1 p2
  | 3 -> Safety.conj (Safety.never p1) (Safety.generalized_pair p2 p1)
  | _ -> Safety.make ~name:"opaque" ~bad_state:(Pred.holds p1) ()

type case = {
  rp : Test_engine_diff.rand_program;
  init : State.t;
  seed : int;
}

let case_gen =
  QCheck.Gen.(
    map3
      (fun rp init seed -> { rp; init; seed })
      Test_engine_diff.program_gen Test_engine_diff.state_gen
      (int_range 0 (1 lsl 20)))

let case_arb =
  QCheck.make
    ~print:(fun c ->
      Fmt.str "%s init=%s seed=%d"
        (Test_engine_diff.print_program c.rp)
        (State.to_string c.init) c.seed)
    case_gen

(* One simulated run with real injected faults: corruption of [m] keeps
   faulty states inside the layout, the generator's escape action steps
   outside it. *)
let sample_run program c =
  let faults = Fault.corrupt_variable "m" (Domain.range 0 3) in
  Runner.run
    ~config:{ Runner.default with seed = c.seed; max_steps = 60 }
    program
    ~injector:
      (Injector.make (Injector.Random { probability = 0.15; max_faults = 3 }) faults)
    ~init:c.init

let components c =
  let detector =
    Detector.make
      ~witness:(pred_of_seed (c.seed lxor 0x3f))
      ~detection:(pred_of_seed (c.seed lxor 0x1111))
      ()
  in
  let corrector =
    Corrector.make
      ~witness:(pred_of_seed (c.seed lxor 0x77))
      ~correction:(pred_of_seed (c.seed lxor 0x2222))
      ()
  in
  (detector, corrector, sspec_of_seed c.seed)

(* The syndrome family compiled with the program's layout (memoized by
   rank) and without it (evaluated directly). *)
let compile_forms program = [ Some program; None ]

let prop_per_run_identical =
  Util.qtest ~count:150 "compiled monitor = reference monitor (per run)"
    case_arb (fun c ->
      let program = Test_engine_diff.build_program c.rp in
      let run = sample_run program c in
      let detector, corrector, sspec = components c in
      List.for_all
        (fun program ->
          let comp =
            Monitor.Compiled.make ?program ~detector ~corrector ~sspec ()
          in
          Monitor.Compiled.detection_latency comp run
          = Monitor.detection_latency run detector
          && Monitor.Compiled.correction_latency comp run
             = Monitor.correction_latency run corrector
          && Monitor.Compiled.first_safety_violation comp run
             = Monitor.first_safety_violation run sspec)
        (compile_forms program))

(* The report the reference monitors aggregate, one predicate at a
   time. *)
let reference_report runs ~detector ~corrector ~sspec =
  let detections =
    List.concat_map (fun r -> Monitor.detection_latency r detector) runs
  in
  let corrections =
    List.filter_map (fun r -> Monitor.correction_latency r corrector) runs
  in
  {
    Monitor.runs = List.length runs;
    detection = Stats.summarize detections;
    correction = Stats.summarize corrections;
    safety_violations =
      List.length
        (List.filter (fun r -> Monitor.first_safety_violation r sspec <> None) runs);
    corrected_runs = List.length corrections;
  }

let prop_report_identical =
  Util.qtest ~count:80 "packed report = reference report" case_arb (fun c ->
      let program = Test_engine_diff.build_program c.rp in
      let runs =
        List.map
          (fun k -> sample_run program { c with seed = c.seed + k })
          [ 0; 1; 2 ]
      in
      let detector, corrector, sspec = components c in
      let render = Fmt.str "%a" Monitor.pp_report in
      let expected = render (reference_report runs ~detector ~corrector ~sspec) in
      List.for_all
        (fun program ->
          render (Monitor.report ?program runs ~detector ~corrector ~sspec)
          = expected)
        (compile_forms program))

let prop_syndrome_decodes =
  Util.qtest ~count:150 "syndrome bits decode to Pred.holds" case_arb (fun c ->
      let program = Test_engine_diff.build_program c.rp in
      let run = sample_run program c in
      let states = Detcor_semantics.Trace.states run.Runner.trace in
      let family =
        List.map (fun k -> pred_of_seed (c.seed lxor k)) [ 0; 5; 11; 301 ]
      in
      List.for_all
        (fun program ->
          let syn = Syndrome.compile ?program family in
          let b = Syndrome.of_states syn states in
          Syndrome.length b = List.length states
          && List.for_all
               (fun (i, st) ->
                 List.for_all
                   (fun (j, p) ->
                     Syndrome.get b ~state:i ~pred:j = Pred.holds p st
                     && Detcor_semantics.Bitset.get (Syndrome.column b j) i
                        = Pred.holds p st)
                   (List.mapi (fun j p -> (j, p)) family)
                 && Syndrome.nonzero b ~state:i
                    = List.exists (fun p -> Pred.holds p st) family
                 && Syndrome.fired b ~state:i
                    = List.filteri
                        (fun j _ -> Syndrome.get b ~state:i ~pred:j)
                        (List.mapi (fun j _ -> j) family)
                 && Syndrome.first_fired b ~state:i
                    = (match Syndrome.fired b ~state:i with
                      | j :: _ -> j
                      | [] -> -1))
               (List.mapi (fun i st -> (i, st)) states))
        (compile_forms program))

(* [run] in the rank form a replayed stream delivers: each state ranked
   by [layout], or escaped when it does not pack (or there is no
   layout). *)
let ranked_of_run layout (run : Runner.run) =
  let module Trace = Detcor_semantics.Trace in
  let states = Array.of_list (Trace.states run.trace) in
  {
    Stream.index = 0;
    ranks =
      Array.map
        (fun st ->
          match
            Option.bind layout (fun l -> Detcor_semantics.Layout.pack_opt l st)
          with
          | Some r -> r
          | None -> -1)
        states;
    escaped = states;
    actions =
      Array.of_list
        (List.map (fun (s : Trace.step) -> s.action) (Trace.steps run.trace));
    fault_steps = run.fault_steps;
    ending = Trace.ending run.trace;
  }

(* A slice of a run in rank form yields the batch of its states, and the
   run's first safety violation is the reference monitor's, with the
   rank memo, without a memo (every state escaped), and for the opaque
   specification. *)
let prop_ranks_identical =
  Util.qtest ~count:150 "rank-form batches and safety = state batches" case_arb
    (fun c ->
      let program = Test_engine_diff.build_program c.rp in
      let run = sample_run program c in
      let states = Detcor_semantics.Trace.states run.Runner.trace in
      let n = List.length states in
      let family = List.map (fun k -> pred_of_seed (c.seed lxor k)) [ 0; 5; 11 ] in
      let _, _, sspec = components c in
      let pos = c.seed mod n in
      let len = c.seed / 7 mod (n - pos + 1) in
      List.for_all
        (fun program ->
          let syn = Syndrome.compile ?program family in
          let r = ranked_of_run (Syndrome.layout syn) run in
          let a = Syndrome.of_ranks syn r.ranks ~escaped:r.escaped ~pos ~len in
          let b =
            Syndrome.of_states syn
              (List.filteri (fun i _ -> i >= pos && i < pos + len) states)
          in
          Syndrome.length a = len
          && List.for_all
               (fun j ->
                 Detcor_semantics.Bitset.equal (Syndrome.column a j)
                   (Syndrome.column b j))
               [ 0; 1; 2 ]
          && Monitor.Compiled.first_safety_violation_ranked
               (Monitor.Compiled.safety ?program sspec)
               r
             = Monitor.first_safety_violation run sspec)
        (compile_forms program))

(* A second sweep through the same compiled family must hit the memo and
   still agree — revisited states are the packed path's fast case. *)
let prop_memo_stable =
  Util.qtest ~count:80 "memoized re-evaluation is stable" case_arb (fun c ->
      let program = Test_engine_diff.build_program c.rp in
      let run = sample_run program c in
      let states = Detcor_semantics.Trace.states run.Runner.trace in
      let family = List.map (fun k -> pred_of_seed (c.seed lxor k)) [ 0; 19 ] in
      let syn = Syndrome.compile ~program family in
      let b1 = Syndrome.of_states syn states in
      let b2 = Syndrome.of_states syn states in
      List.for_all
        (fun j ->
          Detcor_semantics.Bitset.equal (Syndrome.column b1 j)
            (Syndrome.column b2 j))
        [ 0; 1 ])

(* The memo is chosen from the program alone: a layout within the memo
   space packs; a larger one, or no program, evaluates directly. *)
let test_syndrome_selection () =
  let load f = (Detcor_lang.Elaborate.load_file ("../examples/dc/" ^ f)).program in
  let family = [ Pred.true_ ] in
  let packed program = Syndrome.is_packed (Syndrome.compile ?program family) in
  Alcotest.(check bool) "memory.dc packs" true (packed (Some (load "memory.dc")));
  Alcotest.(check bool) "big/ring12.dc evaluates directly" false
    (packed (Some (load "big/ring12.dc")));
  Alcotest.(check bool) "no program evaluates directly" false (packed None)

let suite =
  ( "monitor differential",
    [
      prop_per_run_identical;
      prop_report_identical;
      prop_syndrome_decodes;
      prop_memo_stable;
      prop_ranks_identical;
      Alcotest.test_case "syndrome memo selection" `Quick test_syndrome_selection;
    ] )
