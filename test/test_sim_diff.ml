(* Differential tests of the simulator's rank stepper and stream writer.

   The rank stepper (compiled guards on slot codes, successors by rank
   arithmetic) must make every run the closure interpreter makes: the
   same traces, fault steps, injection counts and endings, for random
   guarded-command programs with random fault actions, across seeds,
   the three injection policies and both schedulers.  Programs whose
   actions step outside their domains hand those steps to the
   interpreter; closure-built models never leave it.

   The stream writer must write the bytes of the binding-by-binding
   writer it replaced, kept below as the oracle, and [Stream.fold] must
   read them back to the runs that were written. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_sim
module Obs = Detcor_obs.Obs

(* ------------------------------------------------------------------ *)
(* Generated programs with faults.                                     *)
(* ------------------------------------------------------------------ *)

(* A generated program plus 1-3 more generated actions declared as
   faults.  The generator's increments may leave a domain by one step,
   so some faults and actions escape. *)
let dsl_faults_gen =
  QCheck.Gen.(
    let* src = Test_engine_diff.dsl_gen in
    let* k = int_range 1 3 in
    let* faults = flatten_l (List.init k Test_engine_diff.action_src) in
    let as_fault a =
      "fault flt" ^ String.sub a 10 (String.length a - 10)
    in
    return (src ^ String.concat "" (List.map as_fault faults)))

let dsl_faults_arb = QCheck.make ~print:Fun.id dsl_faults_gen

(* Elaborate, insisting that every action and fault compiles: otherwise
   the property would compare the interpreter with itself. *)
let elaborate src =
  let e = Test_engine_diff.elaborate src in
  let layout = Option.get (Layout.of_program e.program) in
  List.iter
    (fun ac ->
      match (Compiled.action layout ac, Compiled.pred layout (Action.guard ac)) with
      | Some _, Some _ -> ()
      | _ -> QCheck.Test.fail_reportf "fault %s did not compile" (Action.name ac))
    (Detcor_core.Fault.actions e.faults);
  (e, layout)

(* The interpreted twin of a fault class: every action behind opaque
   closures, so the runner steps it on the interpreter. *)
let interpreted_faults f =
  let open Detcor_core in
  Fault.make ~aux_vars:(Fault.aux_vars f) (Fault.name f)
    (List.map
       (fun ac ->
         Action.make (Action.name ac)
           (Test_engine_diff.opaque_pred (Action.guard ac))
           (fun st -> Action.execute ac st))
       (Fault.actions f))

let same_step (a : Trace.step) (b : Trace.step) =
  String.equal a.action b.action && State.equal a.target b.target

let same_run (a : Runner.run) (b : Runner.run) =
  a.fault_steps = b.fault_steps
  && a.faults_injected = b.faults_injected
  && Trace.ending a.trace = Trace.ending b.trace
  && State.equal (Trace.start a.trace) (Trace.start b.trace)
  && List.equal same_step (Trace.steps a.trace) (Trace.steps b.trace)

let policies =
  [
    Injector.None_;
    Injector.At_steps [ 0; 2; 5; 9 ];
    Injector.Random { probability = 0.3; max_faults = 3 };
  ]

let schedulers = [ Scheduler.Uniform_random; Scheduler.Round_robin ]

(* [sample] of [program] (with [~interpreted], of its interpreted twin),
   or the message of the type error it raised, with the
   [sim.compiled_runs] it counted. *)
let sample ?(interpreted = false) ~config ~policy program ~faults ~init =
  let program, faults =
    if interpreted then
      (Test_engine_diff.interpreted program, interpreted_faults faults)
    else (program, faults)
  in
  Obs.with_ctx (Obs.make ~sinks:[] ()) (fun () ->
      let compiled () =
        Detcor_obs.Metrics.counter_value_by_name "sim.compiled_runs"
      in
      let before = compiled () in
      let runs =
        match Runner.sample ~config 5 program ~faults ~policy ~init with
        | runs -> Ok runs
        | exception Value.Type_error m -> Error m
      in
      (runs, compiled () - before))

let same_sample what a b =
  match (a, b) with
  | Ok a, Ok b ->
    List.equal same_run a b || QCheck.Test.fail_reportf "%s: runs differ" what
  | Error m, Error m' ->
    String.equal m m'
    || QCheck.Test.fail_reportf "%s: %s vs %s" what m m'
  | Ok _, Error m | Error m, Ok _ ->
    QCheck.Test.fail_reportf "%s: only one side raised %s" what m

(* Runs whose every state is a state of the layout: the runs the rank
   stepper must count in [sim.compiled_runs].  A sample that raised
   counted the runs before the one that raised. *)
let on_layout layout = function
  | Error _ -> None
  | Ok runs ->
    Some
      (List.length
         (List.filter
            (fun (r : Runner.run) ->
              List.for_all
                (fun st -> Layout.pack_opt layout st <> None)
                (Trace.states r.trace))
            runs))

let prop_stepping =
  Util.qtest ~count:100 "rank stepping = interpreter (traces, faults, endings)"
    QCheck.(pair dsl_faults_arb (int_bound 100_000))
    (fun (src, seed) ->
      let e, layout = elaborate src in
      let init = Layout.unpack layout (seed mod Layout.space layout) in
      List.for_all
        (fun policy ->
          List.for_all
            (fun scheduler ->
              let config = { Runner.scheduler; seed; max_steps = 40 } in
              let ranks, compiled =
                sample ~config ~policy e.program ~faults:e.faults ~init
              in
              let interp, interp_compiled =
                sample ~interpreted:true ~config ~policy e.program
                  ~faults:e.faults ~init
              in
              same_sample "rank vs interpreter" ranks interp
              && interp_compiled = 0
              && (match on_layout layout ranks with
                 | Some n when n <> compiled ->
                   QCheck.Test.fail_reportf "%d runs counted compiled, %d on the layout"
                     compiled n
                 | _ -> true))
            schedulers)
        policies)

(* ------------------------------------------------------------------ *)
(* Fallbacks.                                                          *)
(* ------------------------------------------------------------------ *)

(* [inc] leaves n's domain at n = 2 and [wrap] brings it back: every run
   steps outside the layout and back onto it. *)
let escaping_src =
  "program esc\n\
   var n : 0..2\n\
   var b : bool\n\
   invariant n = 0\n\
   action inc: n < 4 -> n := n + 1\n\
   action wrap: n = 4 -> n := 0\n\
   action flip: b -> b := false\n\
   fault set: true -> b := true, n := ?\n"

let test_escaping_program () =
  let e = Detcor_lang.Elaborate.load_string escaping_src in
  let init = Option.get (Runner.initial_state e.program ~invariant:e.invariant) in
  List.iter
    (fun policy ->
      List.iter
        (fun scheduler ->
          let config = { Runner.scheduler; seed = 11; max_steps = 30 } in
          let ranks, compiled =
            sample ~config ~policy e.program ~faults:e.faults ~init
          in
          let interp, _ =
            sample ~interpreted:true ~config ~policy e.program ~faults:e.faults
              ~init
          in
          Alcotest.(check bool) "escaping runs match the interpreter" true
            (match (ranks, interp) with
            | Ok a, Ok b -> List.equal same_run a b
            | _ -> false);
          Alcotest.(check int) "no run stays on ranks" 0 compiled;
          Alcotest.(check bool) "the runs left the domain" true
            (match ranks with
            | Ok runs ->
              List.for_all
                (fun (r : Runner.run) ->
                  List.exists
                    (fun st -> Value.equal (State.get st "n") (Value.int 3))
                    (Trace.states r.trace))
                runs
            | Error _ -> false))
        schedulers)
    policies

(* The sample's span: whether it stepped on ranks, and why not. *)
let sample_span program ~faults ~init =
  let sink, records = Detcor_obs.Sink.memory () in
  let runs =
    Obs.with_ctx (Obs.make ~sinks:[ sink ] ()) (fun () ->
        Runner.sample 10 program ~faults
          ~policy:(Injector.Random { probability = 0.3; max_faults = 2 })
          ~init)
  in
  let attrs =
    List.find_map
      (function
        | Detcor_obs.Sink.End { name = "sim.sample"; attrs; _ } -> Some attrs
        | _ -> None)
      (records ())
    |> Option.get
  in
  (runs, attrs)

let test_closure_model () =
  let open Detcor_systems in
  let init =
    State.of_list
      [
        ("present", Value.bool true);
        ("data", Value.bot);
        ("z1", Value.bool false);
      ]
  in
  let runs, attrs =
    sample_span Memory.masking ~faults:Memory.page_fault ~init
  in
  Alcotest.(check bool) "not compiled" true
    (List.assoc_opt "compiled" attrs = Some (Detcor_obs.Attr.Bool false));
  Alcotest.(check bool) "fallback reason named" true
    (match List.assoc_opt "fallback" attrs with
    | Some (Detcor_obs.Attr.Str why) -> String.length why > 0
    | _ -> false);
  let interp =
    Runner.sample 10
      (Test_engine_diff.interpreted Memory.masking)
      ~faults:(interpreted_faults Memory.page_fault)
      ~policy:(Injector.Random { probability = 0.3; max_faults = 2 })
      ~init
  in
  Alcotest.(check bool) "same runs as its interpreted twin" true
    (List.equal same_run runs interp)

let test_dsl_model_compiles () =
  let e = Detcor_lang.Elaborate.load_file "../examples/dc/ring5.dc" in
  let init = Option.get (Runner.initial_state e.program ~invariant:e.invariant) in
  let _, attrs = sample_span e.program ~faults:e.faults ~init in
  Alcotest.(check bool) "compiled" true
    (List.assoc_opt "compiled" attrs = Some (Detcor_obs.Attr.Bool true));
  Alcotest.(check bool) "every run on ranks" true
    (List.assoc_opt "compiled_runs" attrs = Some (Detcor_obs.Attr.Int 10));
  Alcotest.(check bool) "no fallback reason" true
    (List.assoc_opt "fallback" attrs = None)

(* ------------------------------------------------------------------ *)
(* Stream writer.                                                      *)
(* ------------------------------------------------------------------ *)

(* The writer [Stream.write_run] replaced: one [Printf] per binding, the
   deltas found by looking every binding up in the previous state. *)
module Oracle = struct
  let write_binding oc (k, v) = Printf.fprintf oc " %s=%s" k (Value.to_string v)

  let changed prev target =
    let prev_bs = State.bindings prev and target_bs = State.bindings target in
    if List.map fst prev_bs <> List.map fst target_bs then
      Detcor_robust.Error.internal
        "Stream.write_run: states bind different variables (%s vs %s)"
        (State.to_string prev) (State.to_string target);
    List.filter (fun (k, v) -> not (Value.equal v (State.get prev k))) target_bs

  let write_run oc ~index (r : Runner.run) =
    Printf.fprintf oc "run %d\n" index;
    let init = Trace.start r.trace in
    output_string oc "init";
    List.iter (write_binding oc) (State.bindings init);
    output_char oc '\n';
    let faults = ref r.fault_steps in
    let prev = ref init in
    List.iteri
      (fun i { Trace.action; target } ->
        let fault =
          match !faults with
          | s :: rest when s = i ->
            faults := rest;
            true
          | _ -> false
        in
        Printf.fprintf oc "%s %s" (if fault then "fault" else "step") action;
        List.iter (write_binding oc) (changed !prev target);
        output_char oc '\n';
        prev := target)
      (Trace.steps r.trace);
    Printf.fprintf oc "end %s\n"
      (match Trace.ending r.trace with
      | Trace.Maximal -> "maximal"
      | Trace.Truncated -> "truncated")
end

(* The bytes [write] leaves in a file, and the exception it raised. *)
let written write =
  let path = Filename.temp_file "detcor_stream" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  let raised =
    match write oc with () -> None | exception e -> Some (Printexc.to_string e)
  in
  close_out oc;
  (In_channel.with_open_bin path In_channel.input_all, raised)

let write_all write_run runs oc =
  Stream.write_header oc ~program:"rnd";
  List.iteri (fun index r -> write_run oc ~index r) runs

let read_back text =
  let path = Filename.temp_file "detcor_stream" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  In_channel.with_open_bin path (fun ic ->
      fst
        (Stream.fold ic ~init:[] ~f:(fun acc r -> Stream.to_run r :: acc)))
  |> List.rev

let prop_writer =
  Util.qtest ~count:60 "stream writer = binding-by-binding oracle, and reads back"
    QCheck.(pair dsl_faults_arb (int_bound 100_000))
    (fun (src, seed) ->
      let e, layout = elaborate src in
      let init = Layout.unpack layout (seed mod Layout.space layout) in
      List.for_all
        (fun interpreted ->
          let config = { Runner.default with seed; max_steps = 30 } in
          let program, faults =
            if interpreted then
              (Test_engine_diff.interpreted e.program, interpreted_faults e.faults)
            else (e.program, e.faults)
          in
          match
            Runner.sample ~config 4 program ~faults
              ~policy:(Injector.Random { probability = 0.3; max_faults = 3 })
              ~init
          with
          | exception Value.Type_error _ -> true
          | runs ->
            let text, raised = written (write_all Stream.write_run runs) in
            let expected, _ = written (write_all Oracle.write_run runs) in
            let recorded, _ =
              written (fun oc -> Stream.record oc ~program:"rnd" runs)
            in
            (raised = None || QCheck.Test.fail_report "the writer raised")
            && (String.equal text expected
               || QCheck.Test.fail_reportf "bytes differ:\n%s\nvs\n%s" text
                    expected)
            && String.equal recorded expected
            && (List.equal same_run (read_back text) runs
               || QCheck.Test.fail_report "read back differs"))
        [ false; true ])

(* A run whose states bind different variables cannot be written as
   deltas: the writer raises the oracle's error and writes nothing of the
   run (the oracle leaves the run's first lines). *)
let test_writer_mismatch () =
  let s1 = State.of_list [ ("a", Value.int 0); ("b", Value.int 0) ] in
  let s2 = State.of_list [ ("a", Value.int 1); ("b", Value.int 0) ] in
  (* [a] changes before the slot whose variable differs. *)
  let s3 = State.of_list [ ("a", Value.int 2); ("c", Value.int 0) ] in
  let run =
    {
      Runner.trace =
        Trace.make s1
          [ { Trace.action = "x"; target = s2 }; { action = "y"; target = s3 } ];
      fault_steps = [];
      faults_injected = 0;
    }
  in
  let text, raised = written (fun oc -> Stream.write_run oc ~index:3 run) in
  let _, expected_raised =
    written (fun oc -> Oracle.write_run oc ~index:3 run)
  in
  Alcotest.(check (option string)) "the same internal error" expected_raised
    raised;
  Alcotest.(check bool) "an error was raised" true (raised <> None);
  Alcotest.(check string) "nothing of the run written" "" text

let suite =
  ( "sim diff (rank stepper, stream writer)",
    [
      prop_stepping;
      Alcotest.test_case "escaping program hands steps to the interpreter"
        `Quick test_escaping_program;
      Alcotest.test_case "closure-built model falls back" `Quick
        test_closure_model;
      Alcotest.test_case "ring5 steps on ranks" `Quick test_dsl_model_compiles;
      prop_writer;
      Alcotest.test_case "writer: different variables raise" `Quick
        test_writer_mismatch;
    ] )
