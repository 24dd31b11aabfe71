(* The traced pass: each job run inside the benchmark process, calling
   the public functions bin/dcheck.ml calls, in the same order and with
   the same defaults (limit, Auto engine, one worker, no budget).  Every
   call sits in one span named "<layer>:<Module.function>"; the
   program's own spans (ts.build and the tolerance, check, synth and sim
   families) nest inside them.  With recording off a span costs one
   branch, so the same code gives the untraced in-process pass.

   stdout and stderr go to buffers, so the verdicts can be checked
   against the same expected answers as a spawned job's. *)

open Detcor_kernel
open Detcor_spec
open Detcor_core
open Detcor_lang
open Detcor_sim
module Ts = Detcor_semantics.Ts
module Obs = Detcor_obs.Obs
module Attr = Detcor_obs.Attr
module Metrics = Detcor_obs.Metrics

let limit = Ts.default_limit
let engine = Ts.Auto
let workers = 1
let span = Obs.span
let note k v = if Obs.on () then Obs.annotate [ Attr.int k v ]

(* Allocation of the front end is counted here with [Gc.minor_words],
   which is exact; the span's own alloc_words attribute comes from
   [Gc.quick_stat], which misses a span shorter than a minor cycle. *)
let load path : Elaborate.elaborated =
  span "lang:Elaborate.load_file" (fun () ->
      let w0 = Gc.minor_words () in
      let e = Elaborate.load_file path in
      note "minor_words" (int_of_float (Gc.minor_words () -. w0));
      e)

let safety_spec (e : Elaborate.elaborated) =
  span "spec:Spec.smallest_safety_containing" (fun () ->
      Spec.safety (Spec.smallest_safety_containing e.spec))

let verify ~out ~err path =
  let e = load path in
  let fails = ref false and unknown = ref false in
  List.iter
    (fun tol ->
      let report =
        span "core:Tolerance.check" (fun () ->
            Tolerance.check ~limit ~workers ~engine e.program ~spec:e.spec
              ~invariant:e.invariant ~faults:e.faults ~tol)
      in
      span "dcheck:print" (fun () ->
          Fmt.pf out "%a@.@." Tolerance.pp_report report);
      if Tolerance.failures report <> [] then fails := true;
      if Tolerance.unknowns report <> [] then unknown := true)
    [ Spec.Failsafe; Spec.Nonmasking; Spec.Masking ];
  if !fails then begin
    Fmt.pf err "dcheck: verification failed@.";
    1
  end
  else if !unknown then 3
  else 0

let synthesize ~out ~err path tol =
  let module S = Detcor_synthesis.Synthesize in
  let e = load path in
  let add name f =
    span ("synthesis:Synthesize." ^ name) (fun () ->
        let r = f () in
        Result.iter (fun (r : S.result) -> note "repair_iterations" r.repair_iterations) r;
        r)
  in
  let result =
    match Spec.tolerance_of_string tol with
    | Some Spec.Failsafe ->
      add "add_failsafe" (fun () ->
          S.add_failsafe ~limit ~workers ~engine e.program ~spec:e.spec
            ~invariant:e.invariant ~faults:e.faults)
    | Some Spec.Nonmasking ->
      add "add_nonmasking" (fun () ->
          S.add_nonmasking ~limit ~workers ~engine e.program ~spec:e.spec
            ~invariant:e.invariant ~faults:e.faults)
    | Some Spec.Masking ->
      add "add_masking" (fun () ->
          S.add_masking ~limit ~workers ~engine e.program ~spec:e.spec
            ~invariant:e.invariant ~faults:e.faults)
    | None -> invalid_arg ("unknown tolerance " ^ tol)
  in
  span "dcheck:print" @@ fun () ->
  match result with
  | Error (S.Exhausted r) ->
    Fmt.pf err "dcheck: %a@." Detcor_robust.Error.pp_resource r;
    3
  | Error f ->
    Fmt.pf err "synthesis failed: %a@." S.pp_failure f;
    Fmt.pf err "dcheck: synthesis failed@.";
    1
  | Ok r ->
    Fmt.pf out "synthesized %s@." (Program.name r.program);
    List.iter
      (fun (ac, g) -> Fmt.pf out "  detector added to %-12s (%s)@." ac (Pred.name g))
      r.added_detectors;
    if r.recovery_states > 0 then
      Fmt.pf out "  corrector added: recovery from %d states@." r.recovery_states;
    if r.repair_iterations > 0 then
      Fmt.pf out "  counterexample-guided repair: %d iteration%s@."
        r.repair_iterations
        (if r.repair_iterations = 1 then "" else "s");
    Fmt.pf out "@.%a@." Tolerance.pp_report r.report;
    0

(* dcheck simulate with its defaults: fault probability 0.1, one fault
   per run, 200 steps. *)
let simulate ~out ~err path ~runs ~steps ~seed ~record =
  let e = load path in
  let inits =
    span "kernel:Program.states" (fun () ->
        let all = Program.states e.program in
        note "states" (List.length all);
        List.filter (Pred.holds e.invariant) all)
  in
  match inits with
  | [] ->
    Fmt.pf err "dcheck: no state satisfies the invariant@.";
    2
  | init :: _ ->
    let sspec = safety_spec e in
    let samples =
      span "sim:Runner.sample" (fun () ->
          Runner.sample
            ~config:{ Runner.default with seed; max_steps = steps }
            runs e.program ~faults:e.faults
            ~policy:(Injector.Random { probability = 0.1; max_faults = 1 })
            ~init)
    in
    let violations =
      span "sim:Monitor.first_safety_violation" (fun () ->
          List.filter (fun r -> Monitor.first_safety_violation r sspec <> None) samples)
    in
    let settled =
      span "dcheck:settled" (fun () ->
          List.filter_map
            (fun (r : Runner.run) ->
              let states = Detcor_semantics.Trace.states r.trace in
              let rec last_false i best = function
                | [] -> best
                | st :: rest ->
                  last_false (i + 1)
                    (if Pred.holds e.invariant st then best else Some i)
                    rest
              in
              match last_false 0 None states with
              | None -> Some 0
              | Some i -> if i < List.length states - 1 then Some (i + 1) else None)
            samples)
    in
    span "sim:Stream.write_run" (fun () ->
        let oc = open_out record in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            Stream.write_header oc ~program:(Program.name e.program);
            List.iteri (fun i r -> Stream.write_run oc ~index:i r) samples);
        note "bytes" (Unix.stat record).st_size);
    span "dcheck:print" (fun () ->
        Fmt.pf out "recorded %d runs to %s@." runs record;
        Fmt.pf out "runs: %d (%d steps each, fault prob %.2f, budget %d)@." runs
          steps 0.1 1;
        Fmt.pf out "safety violations: %d/%d@." (List.length violations) runs;
        Fmt.pf out "runs ending inside the invariant: %d/%d@."
          (List.length settled) runs;
        Fmt.pf out "steps to re-enter the invariant: %a@." Stats.pp_option
          (Stats.summarize settled));
    0

let h_detect = Metrics.histogram "monitor.detection_latency"
let h_correct = Metrics.histogram "monitor.correction_latency"
let c_records = Metrics.counter "monitor.records"
let c_runs = Metrics.counter "monitor.runs"
let c_faults = Metrics.counter "monitor.faults"
let c_violations = Metrics.counter "monitor.safety_violations"

(* dcheck monitor with its default batch of 256 states. *)
let monitor ~out ~err path ~stream =
  let batch_size = 256 in
  let e = load path in
  let sspec = safety_spec e in
  let family =
    span "core:Detection_predicate.unsafe" (fun () ->
        Pred.not_ e.invariant
        :: Pred.make (Fmt.str "bad(%s)" (Safety.name sspec)) (Safety.bad_state sspec)
        :: List.map
             (fun ac -> Detection_predicate.unsafe ~sspec ac)
             (Program.actions e.program))
  in
  let syn =
    span "sim:Syndrome.compile" (fun () -> Syndrome.compile ~program:e.program family)
  in
  let names = Syndrome.pred_names syn in
  let m = Array.length names in
  span "dcheck:print" (fun () ->
      Fmt.pf out "monitoring %s with %d witnesses (%s)@." (Program.name e.program) m
        (if Syndrome.is_packed syn then "packed" else "reference");
      Array.iteri (fun j n -> Fmt.pf out "  [%d] %s@." j n) names);
  let ic = open_in stream in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let detections = ref [] and corrections = ref [] in
  let violations = ref 0 and total_states = ref 0 and total_faults = ref 0 in
  let nruns = ref 0 in
  let localization : (string, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 7 in
  let localize witness fault_action =
    let inner =
      match Hashtbl.find_opt localization witness with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 7 in
        Hashtbl.add localization witness t;
        t
    in
    Hashtbl.replace inner fault_action
      (1 + Option.value ~default:0 (Hashtbl.find_opt inner fault_action))
  in
  let monitor_run () (r : Stream.run) =
    let rr = span "sim:Stream.to_run" (fun () -> Stream.to_run r) in
    let states = Detcor_semantics.Trace.states rr.trace in
    let n = List.length states in
    let nonzero = Array.make n false in
    let fired_low = Array.make n (-1) in
    let inv_ok = Array.make n true in
    let rec batches k base = function
      | [] -> ()
      | rest ->
        let rec take acc i = function
          | st :: more when i < batch_size -> take (st :: acc) (i + 1) more
          | more -> (List.rev acc, more)
        in
        let chunk, more = take [] 0 rest in
        let b = span "sim:Syndrome.of_states" (fun () -> Syndrome.of_states syn chunk) in
        let len = Syndrome.length b in
        let vec =
          String.init m (fun j ->
              if Detcor_semantics.Bitset.any (Syndrome.column b j) then '1' else '0')
        in
        let fired =
          List.filter_map
            (fun j ->
              let c = Detcor_semantics.Bitset.cardinal (Syndrome.column b j) in
              if c = 0 then None else Some (Fmt.str "%s=%d" names.(j) c))
            (List.init m Fun.id)
        in
        Fmt.pf out "  batch %d: states=%d syndrome=%s%s@." k len vec
          (match fired with [] -> "" | fs -> " fired: " ^ String.concat " " fs);
        for i = 0 to len - 1 do
          let g = base + i in
          inv_ok.(g) <- not (Syndrome.get b ~state:i ~pred:0);
          if Syndrome.nonzero b ~state:i then begin
            nonzero.(g) <- true;
            fired_low.(g) <- (match Syndrome.fired b ~state:i with j :: _ -> j | [] -> -1)
          end
        done;
        batches (k + 1) (base + len) more
    in
    span "dcheck:batches" (fun () ->
        let record_arr = Array.of_list r.records in
        Fmt.pf out "run %d: states=%d faults=%d@." r.index n (List.length rr.fault_steps);
        batches 0 0 states;
        List.iter
          (fun s ->
            let fs = s + 1 in
            let fault_action = record_arr.(s).Stream.action in
            let rec find ok j =
              if j >= n then None else if ok j then Some j else find ok (j + 1)
            in
            (match find (fun j -> nonzero.(j)) fs with
            | Some j ->
              detections := (j - fs) :: !detections;
              Metrics.observe h_detect (j - fs);
              if fired_low.(j) >= 0 then localize names.(fired_low.(j)) fault_action
            | None -> ());
            match find (fun j -> inv_ok.(j)) fs with
            | Some j ->
              corrections := (j - fs) :: !corrections;
              Metrics.observe h_correct (j - fs)
            | None -> ())
          rr.fault_steps);
    (match
       span "sim:Monitor.first_safety_violation" (fun () ->
           Monitor.first_safety_violation rr sspec)
     with
    | Some i ->
      incr violations;
      Fmt.pf out "  safety violated at state %d@." i
    | None -> ());
    total_states := !total_states + n;
    total_faults := !total_faults + List.length rr.fault_steps;
    incr nruns;
    Metrics.incr ~by:n c_records;
    Metrics.incr ~by:(List.length rr.fault_steps) c_faults;
    Metrics.incr c_runs
  in
  let (), _program =
    span "sim:Stream.fold" (fun () ->
        Detcor_obs.Progress.with_phase "monitor.sweep"
          (fun () -> [ ("states", !total_states); ("runs", !nruns) ])
          (fun () ->
            Stream.fold ic ~init:() ~f:monitor_run ~on_torn:(fun line ->
                Fmt.pf err
                  "dcheck: warning: torn record at end of stream (line %d) — \
                   salvaged the complete prefix@."
                  line)))
  in
  span "dcheck:print" (fun () ->
      if !violations > 0 then Metrics.incr ~by:!violations c_violations;
      Fmt.pf out "runs: %d  states: %d  faults: %d@." !nruns !total_states !total_faults;
      Fmt.pf out "safety violations: %d/%d@." !violations !nruns;
      Fmt.pf out "detection latency:  %a@." Stats.pp_option (Stats.summarize !detections);
      Fmt.pf out "correction latency: %a@." Stats.pp_option (Stats.summarize !corrections);
      Fmt.pf out "fault localization:@.";
      if Hashtbl.length localization = 0 then Fmt.pf out "  (no faults detected)@."
      else
        Hashtbl.fold (fun w inner acc -> (w, inner) :: acc) localization []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.iter (fun (w, inner) ->
               let classes =
                 Hashtbl.fold (fun f c acc -> (f, c) :: acc) inner []
                 |> List.sort (fun (a, _) (b, _) -> String.compare a b)
                 |> List.map (fun (f, c) -> Fmt.str "%s:%d" f c)
               in
               Fmt.pf out "  %s -> %s@." w (String.concat " " classes)));
  if !violations > 0 then 1 else 0

(* Run [job] in process; returns its exit code and stdout then stderr. *)
let run (job : Workload.job) ~unit_dir =
  let ob = Buffer.create 4096 and eb = Buffer.create 256 in
  let out = Format.formatter_of_buffer ob and err = Format.formatter_of_buffer eb in
  let path = Workload.model_path job.model in
  let stream = Workload.stream_file unit_dir in
  let code =
    match job.sub with
    | Verify -> verify ~out ~err path
    | Synthesize tol -> synthesize ~out ~err path tol
    | Simulate { runs; steps; sim_seed } ->
      simulate ~out ~err path ~runs ~steps:(Option.value steps ~default:200)
        ~seed:sim_seed ~record:stream
    | Monitor -> monitor ~out ~err path ~stream
  in
  Format.pp_print_flush out ();
  Format.pp_print_flush err ();
  (code, Buffer.contents ob ^ Buffer.contents eb)
