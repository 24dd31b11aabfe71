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
   read them back to the runs that were written.

   The byte-level stream reader must read what the line-splitting reader
   it replaced ([Stream_oracle]) reads, in both of its views, on written
   streams mutated the ways real ones go wrong. *)

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

(* ------------------------------------------------------------------ *)
(* Stream reader.                                                      *)
(* ------------------------------------------------------------------ *)

(* What a reader made of a stream: the runs it delivered as (index,
   initial state, (action, fault, target) records, ending), the program
   it named, the lines it reported torn, and the [Error.Parse] it ended
   with, as (line, message). *)
type read = {
  runs : (int * State.t * (string * bool * State.t) list * Trace.ending) list;
  program : string option;
  torn : int list;
  error : (int * string) option;
}

let read_with fold text =
  let path = Filename.temp_file "detcor_stream" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let runs = ref [] and torn = ref [] in
  In_channel.with_open_bin path (fun ic ->
      let on_torn l = torn := l :: !torn and f r = runs := r :: !runs in
      let program, error =
        match fold ic ~on_torn ~f with
        | program -> (program, None)
        | exception
            Detcor_robust.Error.Detcor_error
              (Detcor_robust.Error.Parse { line; msg; _ }) ->
          (None, Some (line, msg))
      in
      { runs = List.rev !runs; program; torn = List.rev !torn; error })

let oracle_fold ic ~on_torn ~f =
  snd
    (Stream_oracle.fold ~on_torn ic ~init:() ~f:(fun () (r : Stream_oracle.run) ->
         f
           ( r.index,
             r.init,
             List.map
               (fun (x : Stream_oracle.record) -> (x.action, x.fault, x.target))
               r.records,
             r.ending )))

let view_fold ic ~on_torn ~f =
  snd
    (Stream.fold ~on_torn ic ~init:() ~f:(fun () (r : Stream.run) ->
         f
           ( r.index,
             r.init,
             List.map
               (fun (x : Stream.record) -> (x.action, x.fault, x.target))
               r.records,
             r.ending )))

(* The rank view, decoded; a state is escaped exactly when it does not
   pack. *)
let ranked_fold layout ic ~on_torn ~f =
  snd
    (Stream.fold_ranked ~on_torn ~layout ic ~init:()
       ~f:(fun () (r : Stream.ranked) ->
         Array.iteri
           (fun i rk ->
             if rk < 0 && Layout.pack_opt layout r.escaped.(i) <> None then
               QCheck.Test.fail_reportf "run %d: escaped state %d packs" r.index i)
           r.ranks;
         let run = Stream.decode ~layout r in
         f
           ( r.index,
             Trace.start run.trace,
             List.mapi
               (fun i (x : Trace.step) ->
                 (x.action, List.mem i run.fault_steps, x.target))
               (Trace.steps run.trace),
             r.ending )))

(* [b] read what [a] read; on an error line [replaced] holds for, only
   the line must agree. *)
let same_read ?(replaced = fun _ -> false) what a b =
  let same_record (x, f, t) (x', f', t') =
    String.equal x x' && f = f' && State.equal t t'
  in
  let same_run (i, s, rs, e) (i', s', rs', e') =
    i = i' && State.equal s s' && e = e' && List.equal same_record rs rs'
  in
  (List.equal same_run a.runs b.runs
  || QCheck.Test.fail_reportf "%s: runs differ (%d vs %d runs)" what
       (List.length a.runs) (List.length b.runs))
  && (a.program = b.program
     || QCheck.Test.fail_reportf "%s: program differs" what)
  && (a.torn = b.torn
     || QCheck.Test.fail_reportf "%s: torn lines differ" what)
  &&
  match (a.error, b.error) with
  | None, None -> true
  | Some (l, m), Some (l', m')
    when l = l' && (replaced l || String.equal m m') ->
    true
  | _ ->
    let pp =
      Fmt.(option ~none:(any "none") (pair ~sep:(any ": ") int string))
    in
    QCheck.Test.fail_reportf "%s: error %a vs %a" what pp a.error pp b.error

(* Mutations of a written stream, one line at a time: spellings of the
   same integer, values outside the domain, extra, duplicate and missing
   bindings, malformed and deleted lines, odd whitespace; and a torn
   tail. *)
let mutate_line rng line =
  let words = String.split_on_char ' ' line in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let edit_value w =
    match String.index_opt w '=' with
    | None -> w
    | Some i -> (
      let k = String.sub w 0 i
      and v = String.sub w (i + 1) (String.length w - i - 1) in
      match int_of_string_opt v with
      | Some n when Random.State.bool rng ->
        k ^ "="
        ^ pick
            [
              "0" ^ v;
              "00" ^ v;
              (if n >= 0 then "+" ^ v else "-0" ^ string_of_int (-n));
              Printf.sprintf "0x%x" (abs n);
              "0_" ^ v;
            ]
      | _ -> k ^ "=" ^ pick [ "9"; "-1"; "zz"; "true"; "bot"; "r"; "q"; "0" ])
  in
  let bindings = List.filter (fun w -> String.contains w '=') words in
  match Random.State.int rng 8 with
  | 0 | 1 when bindings <> [] ->
    let target = pick bindings in
    [
      String.concat " "
        (List.map (fun w -> if w == target then edit_value w else w) words);
    ]
  | 2 -> [ line ^ pick [ " zz=1"; " n=1"; " n=9"; " s=q"; " a=false a=true" ] ]
  | 3 when bindings <> [] ->
    let target = pick bindings in
    [ String.concat " " (List.filter (fun w -> w != target) words) ]
  | 4 ->
    [ line;
      pick
        [
          "wobble"; "step"; "end sideways"; "end"; "run x"; "run 007";
          "init a=true"; "program other"; "fault f q"; "step a x"; "step a x=";
          "step a =1"; "   "; "# note"; "#"; "end maximal"; "end truncated";
          "init"; "run 2 3";
        ];
    ]
  | 5 ->
    [ pick
        [
          String.map (fun c -> if c = ' ' then '\t' else c) line;
          line ^ "\r";
          "  " ^ line;
          String.concat "  " words;
          line ^ " \t";
          "\012" ^ line;
        ];
    ]
  | 6 -> []
  | _ -> [ line ]

let mutate rng text =
  let lines = String.split_on_char '\n' text in
  let lines =
    List.concat_map
      (fun l -> if Random.State.int rng 12 = 0 then mutate_line rng l else [ l ])
      lines
  in
  let text = String.concat "\n" lines in
  if Random.State.int rng 4 = 0 then
    String.sub text 0 (Random.State.int rng (String.length text + 1))
  else text

(* The oracle's reading of what the rank view must read: an [init] line
   that binds no value for some layout variable becomes a line the oracle
   rejects, since the rank view rejects it.  Returns the text and the
   replaced lines. *)
let without_missing layout text =
  let vars = List.init (Layout.num_vars layout) (Layout.var layout) in
  let replaced = ref [] in
  let lines =
    List.mapi
      (fun i l ->
        match
          String.split_on_char ' ' (String.trim l)
          |> List.filter (fun w -> w <> "")
        with
        | "init" :: bindings ->
          let keys =
            List.filter_map
              (fun w ->
                Option.map (fun j -> String.sub w 0 j) (String.index_opt w '='))
              bindings
          in
          if List.for_all (fun x -> List.mem x keys) vars then l
          else begin
            replaced := (i + 1) :: !replaced;
            "init !"
          end
        | _ -> l)
      (String.split_on_char '\n' text)
  in
  (String.concat "\n" lines, fun l -> List.mem l !replaced)

let prop_reader =
  Util.qtest ~count:300
    "stream reader = split_on_char oracle (State.t and rank views)"
    QCheck.(triple dsl_faults_arb (int_bound 100_000) (int_bound 1_000_000))
    (fun (src, seed, mseed) ->
      let e, layout = elaborate src in
      let init = Layout.unpack layout (seed mod Layout.space layout) in
      let config = { Runner.default with seed; max_steps = 12 } in
      match
        Runner.sample ~config 3 e.program ~faults:e.faults
          ~policy:(Injector.Random { probability = 0.4; max_faults = 3 })
          ~init
      with
      | exception Value.Type_error _ -> true
      | runs ->
        let written, _ =
          written (fun oc -> Stream.record oc ~program:"rnd" runs)
        in
        let text = mutate (Random.State.make [| mseed |]) written in
        let oracle = read_with oracle_fold text in
        let reference, replaced = without_missing layout text in
        same_read "State.t view" oracle (read_with view_fold text)
        && same_read ~replaced "rank view"
             (read_with oracle_fold reference)
             (read_with (ranked_fold layout) text))

(* Runs longer than the reader's first buffers (1,024 states), with a
   state escaping the layout early in one run and late in another, and a
   non-canonical spelling in between: both views read what the oracle
   reads. *)
let test_long_escapes () =
  let e = Detcor_lang.Elaborate.load_string escaping_src in
  let layout = Option.get (Layout.of_program e.program) in
  let b = Buffer.create 65536 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let flips k = for i = 1 to k do line "step flip b=%b" (i mod 2 = 0) done in
  line "# detcor stream v1";
  line "program esc";
  line "run 0";
  line "init n=0 b=false";
  line "step inc n=1";
  line "step inc n=2";
  line "fault set n=3 b=true";
  line "step wrap n=0";
  flips 600;
  line "step inc n=+1";
  flips 600;
  line "end truncated";
  line "run 1";
  line "init n=0 b=true";
  flips 1100;
  line "end maximal";
  line "run 2";
  line "init n=0 b=false";
  flips 1100;
  line "fault set n=3";
  line "step wrap n=0";
  flips 100;
  line "end maximal";
  let text = Buffer.contents b in
  let oracle = read_with oracle_fold text in
  Alcotest.(check int) "three runs" 3 (List.length oracle.runs);
  Alcotest.(check bool) "State.t view = oracle" true
    (same_read "State.t view" oracle (read_with view_fold text));
  Alcotest.(check bool) "rank view = oracle" true
    (same_read "rank view" oracle (read_with (ranked_fold layout) text));
  let path = Filename.temp_file "detcor_stream" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let escaped, _ =
    In_channel.with_open_bin path (fun ic ->
        Stream.fold_ranked ~layout ic ~init:[] ~f:(fun acc (r : Stream.ranked) ->
            Array.fold_left (fun n rk -> if rk < 0 then n + 1 else n) 0 r.ranks
            :: acc))
  in
  Alcotest.(check (list int)) "escaped states per run" [ 1; 0; 1 ] (List.rev escaped)

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
      prop_reader;
      Alcotest.test_case "reader: long runs with escaped states" `Quick
        test_long_escapes;
    ] )
