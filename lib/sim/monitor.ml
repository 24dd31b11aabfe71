(* Online monitors over simulation traces.

   The monitors observe the component-level behavior the theory predicts:
   - detection latency: steps between the detection predicate X becoming
     (and remaining) true and the witness Z being truthified (the Progress
     obligation of 'Z detects X');
   - correction latency: steps between the last injected fault and the
     correction predicate being re-established (the Convergence obligation
     of 'Z corrects X');
   - safety monitoring: the index of the first specification violation,
     if any (fail-safe tolerance in the observed run).

   Each latency is defined by a one-pass scan automaton over per-state
   truth values.  The scans are written once, over [int -> bool]
   accessors.  [report] and [Compiled] feed them from one {!Syndrome}
   batch per run, which evaluates the whole witness family and exposes it
   as bit columns.  The reference functions query one predicate closure
   at a time; they are the oracle the compiled path is tested against. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec
open Detcor_core
open Detcor_obs

let m_detections = Metrics.counter "sim.monitor.detections"
let m_corrections = Metrics.counter "sim.monitor.corrections"
let m_violations = Metrics.counter "sim.monitor.safety_violations"

(* ------------------------------------------------------------------ *)
(* Scan automata over per-index truth accessors.                       *)
(* ------------------------------------------------------------------ *)

(* Progress automaton: for each maximal interval where X holds
   continuously, steps from the interval start to the first state where Z
   holds; intervals that end (or the trace ends) before Z is witnessed
   are skipped — Progress permits escape through ¬X. *)
let detection_scan n x z =
  let rec go i latencies current =
    if i >= n then List.rev latencies
    else
      match current with
      | None ->
        if x i then
          if z i then go (i + 1) (0 :: latencies) None
          else go (i + 1) latencies (Some 1)
        else go (i + 1) latencies None
      | Some elapsed ->
        if z i then go (i + 1) (elapsed :: latencies) None
        else if x i then go (i + 1) latencies (Some (elapsed + 1))
        else go (i + 1) latencies None
  in
  go 0 [] None

(* Convergence: first index at or after [start] where the correction
   predicate holds, as steps past [start]. *)
let correction_scan n ~start c =
  let rec go i = if i >= n then None else if c i then Some (i - start) else go (i + 1) in
  if start >= n then None else go start

(* First index at which safety is violated: a bad state there, or a bad
   transition into it ([bad_pair i] judges the step from [i-1] to [i]). *)
let safety_scan n ~bad_state ~bad_pair =
  let rec go i =
    if i >= n then None
    else if bad_state i then Some i
    else if i > 0 && bad_pair i then Some i
    else go (i + 1)
  in
  go 0

(* Steps to re-enter the invariant: one past the last state outside it;
   [Some 0] when every state is inside, [None] when the last one is
   outside. *)
let settling_scan n inside =
  let rec go i =
    if i < 0 then Some 0
    else if inside i then go (i - 1)
    else if i = n - 1 then None
    else Some (i + 1)
  in
  go (n - 1)

(* Scans begin one state past the last injected fault; [fault_steps] is
   ascending, so that is its last element. *)
let last_fault_start (run : Runner.run) =
  match run.fault_steps with
  | [] -> 0
  | steps -> List.fold_left (fun _ s -> s) 0 steps + 1

(* ------------------------------------------------------------------ *)
(* Reference monitors: one predicate at a time.                        *)
(* ------------------------------------------------------------------ *)

let detection_latency (run : Runner.run) d =
  let x = Pred.fn (Detector.detection d) and z = Pred.fn (Detector.witness d) in
  let states = Array.of_list (Trace.states run.trace) in
  detection_scan (Array.length states) (fun i -> x states.(i)) (fun i -> z states.(i))

let correction_latency (run : Runner.run) c =
  let p = Pred.fn (Corrector.correction c) in
  let states = Array.of_list (Trace.states run.trace) in
  correction_scan (Array.length states) ~start:(last_fault_start run) (fun i ->
      p states.(i))

let first_safety_violation (run : Runner.run) sspec =
  Safety.first_violation_in_trace run.trace sspec

(* ------------------------------------------------------------------ *)
(* Compiled monitors: the whole witness family per batch.              *)
(* ------------------------------------------------------------------ *)

module Compiled = struct
  (* The syndrome family is laid out as the base columns ([X; Z; C] for
     {!make}, the optional invariant for {!safety}) followed by the spec
     columns.  A decomposable safety specification contributes one
     disjunction column for its bad states plus an (l, r) column pair per
     transition obligation; an opaque one keeps its closures and is
     scanned the reference way.  A base column a family lacks is [-1]. *)
  type spec_cols =
    | Opaque
    | Cols of {
        bad_i : int option;
        pairs : (int * int) list;
      }

  type t = {
    syn : Syndrome.t;
    x_i : int;
    z_i : int;
    c_i : int;
    inv_i : int;
    spec_cols : spec_cols;
    sspec : Safety.t;
  }

  let compile ?program base sspec =
    let next = ref (List.length base) in
    let extra = ref [] in
    let add p =
      let i = !next in
      incr next;
      extra := p :: !extra;
      i
    in
    let spec_cols =
      match Safety.decompose sspec with
      | None -> Opaque
      | Some { Safety.bad_states; bad_pairs } ->
        let bad_i =
          match bad_states with [] -> None | ps -> Some (add (Pred.disj ps))
        in
        let pairs =
          List.map
            (fun (l, r) ->
              let li = add l in
              (* cl(S) obligations use one predicate on both sides. *)
              let ri = if r == l then li else add r in
              (li, ri))
            bad_pairs
        in
        Cols { bad_i; pairs }
    in
    (Syndrome.compile ?program (base @ List.rev !extra), spec_cols)

  let make ?program ~detector ~corrector ~sspec () =
    let syn, spec_cols =
      compile ?program
        [
          Detector.detection detector;
          Detector.witness detector;
          Corrector.correction corrector;
        ]
        sspec
    in
    { syn; x_i = 0; z_i = 1; c_i = 2; inv_i = -1; spec_cols; sspec }

  let safety ?program ?invariant sspec =
    let syn, spec_cols = compile ?program (Option.to_list invariant) sspec in
    {
      syn;
      x_i = -1;
      z_i = -1;
      c_i = -1;
      inv_i = (if invariant = None then -1 else 0);
      spec_cols;
      sspec;
    }

  let eval t (run : Runner.run) = Syndrome.of_trace t.syn run.trace

  let detection_of_batch t b =
    detection_scan (Syndrome.length b)
      (fun i -> Syndrome.get b ~state:i ~pred:t.x_i)
      (fun i -> Syndrome.get b ~state:i ~pred:t.z_i)

  let correction_of_batch t run b =
    correction_scan (Syndrome.length b) ~start:(last_fault_start run) (fun i ->
        Syndrome.get b ~state:i ~pred:t.c_i)

  let scan_cols ~bad_i ~pairs b =
    safety_scan (Syndrome.length b)
      ~bad_state:(fun i ->
        match bad_i with
        | None -> false
        | Some j -> Syndrome.get b ~state:i ~pred:j)
      ~bad_pair:(fun i ->
        List.exists
          (fun (li, ri) ->
            Syndrome.get b ~state:(i - 1) ~pred:li
            && not (Syndrome.get b ~state:i ~pred:ri))
          pairs)

  let violation_of_batch t (run : Runner.run) b =
    match t.spec_cols with
    | Opaque -> Safety.first_violation_in_trace run.trace t.sspec
    | Cols { bad_i; pairs } -> scan_cols ~bad_i ~pairs b

  let settling_of_batch t b =
    settling_scan (Syndrome.length b) (fun i ->
        Syndrome.get b ~state:i ~pred:t.inv_i)

  let detection_latency t run = detection_of_batch t (eval t run)
  let correction_latency t run = correction_of_batch t run (eval t run)
  let first_safety_violation t run = violation_of_batch t run (eval t run)

  let first_safety_violation_ranked t (r : Stream.ranked) =
    match t.spec_cols with
    | Opaque ->
      let run = Stream.decode ?layout:(Syndrome.layout t.syn) r in
      Safety.first_violation_in_trace run.trace t.sspec
    | Cols { bad_i; pairs } ->
      scan_cols ~bad_i ~pairs
        (Syndrome.of_ranks t.syn r.ranks ~escaped:r.escaped ~pos:0
           ~len:(Array.length r.ranks))

  type outcome = {
    violation : int option;
    settled : int option;
  }

  let outcomes t runs =
    Obs.span "sim.safety_scan" ~attrs:[ Attr.int "runs" (List.length runs) ]
    @@ fun () ->
    List.map
      (fun r ->
        (* One batch feeds both scans. *)
        let b = eval t r in
        { violation = violation_of_batch t r b; settled = settling_of_batch t b })
      runs
end

(* ------------------------------------------------------------------ *)
(* Aggregate over a batch of runs.                                     *)
(* ------------------------------------------------------------------ *)

type report = {
  runs : int;
  detection : Stats.summary option;
  correction : Stats.summary option;
  safety_violations : int;
  corrected_runs : int;
}

let report ?program runs ~detector ~corrector ~sspec =
  Obs.span "sim.monitor" ~attrs:[ Attr.int "runs" (List.length runs) ]
  @@ fun () ->
  let comp = Compiled.make ?program ~detector ~corrector ~sspec () in
  let per_run =
    List.map
      (fun r ->
        (* One batch evaluation feeds all three scans. *)
        let b = Compiled.eval comp r in
        ( Compiled.detection_of_batch comp b,
          Compiled.correction_of_batch comp r b,
          Compiled.violation_of_batch comp r b ))
      runs
  in
  let detections = List.concat_map (fun (d, _, _) -> d) per_run in
  let corrections = List.filter_map (fun (_, c, _) -> c) per_run in
  let violations =
    List.length (List.filter (fun (_, _, v) -> v <> None) per_run)
  in
  if Obs.on () then begin
    Metrics.incr ~by:(List.length detections) m_detections;
    Metrics.incr ~by:(List.length corrections) m_corrections;
    Metrics.incr ~by:violations m_violations;
    Obs.event "sim.monitor.report"
      ~attrs:
        [
          Attr.int "detections" (List.length detections);
          Attr.int "corrections" (List.length corrections);
          Attr.int "safety_violations" violations;
        ]
  end;
  {
    runs = List.length runs;
    detection = Stats.summarize detections;
    correction = Stats.summarize corrections;
    safety_violations = violations;
    corrected_runs = List.length corrections;
  }

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>runs: %d@,detection latency:  %a@,correction latency: %a@,\
     corrected runs: %d/%d@,safety violations: %d@]"
    r.runs Stats.pp_option r.detection Stats.pp_option r.correction
    r.corrected_runs r.runs r.safety_violations
