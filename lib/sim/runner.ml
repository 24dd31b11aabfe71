(* The simulation loop: interleave scheduled program actions with injected
   faults, recording the executed trace.

   The loop is written once, over a step source: how a state reads program
   action [i]'s and fault action [j]'s guards, what executing them yields,
   and what the state records as in the trace.  There are two sources.

   - The rank source steps on layout ranks.  Guards are compiled tests on
     slot codes and successors come from rank arithmetic
     ([Compiled.successors]); a state is decoded ([Layout.unpack]) only to be
     recorded.  It applies when the program has a layout and every program
     and fault action compiles with a compiled guard.  A successor outside
     the layout (a domain escape) is computed by the interpreter, and the
     run stays on the interpreter until a state packs again.
   - The interpreter source runs the actions' closures over [State.t].  It
     steps every other program and is the oracle the rank source is tested
     against.

   Both sources serve the same draws in the same order — the injection
   test, the fault and successor picks, the enabled-action pick, the
   successor pick — so a run's trace does not depend on its source. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_obs

let m_runs = Metrics.counter "sim.runs"
let m_steps = Metrics.counter "sim.steps"
let m_faults = Metrics.counter "sim.faults_injected"
let m_compiled = Metrics.counter "sim.compiled_runs"
let h_trace_len = Metrics.histogram "sim.trace_len"

type config = {
  scheduler : Scheduler.t;
  seed : int;
  max_steps : int;
}

let default = { scheduler = Scheduler.Uniform_random; seed = 1; max_steps = 200 }

type run = {
  trace : Trace.t;
  fault_steps : int list; (* indices (into the trace) of fault steps *)
  faults_injected : int;
}

(* ------------------------------------------------------------------ *)
(* Step sources.                                                       *)
(* ------------------------------------------------------------------ *)

(* One action group (the program's actions, or the fault actions), read
   by index in declaration order. *)
type 'st group = {
  names : string array;
  indices : int list; (* 0 .. n-1 *)
  enabled : int -> 'st -> bool;
  execute : int -> 'st -> 'st list;
}

type 'st source = {
  prog : 'st group;
  faults : 'st group;
  enter : State.t -> 'st; (* the initial state *)
  record : 'st -> State.t; (* what a step records in the trace *)
  escapes : int ref; (* states stepped outside the layout so far *)
  ranked : bool;
}

type stepper = Source : 'st source -> stepper

let group names enabled execute =
  { names; indices = List.init (Array.length names) Fun.id; enabled; execute }

let interpreter program faults =
  let of_actions acts =
    let acts = Array.of_list acts in
    group (Array.map Action.name acts)
      (fun i st -> Action.enabled acts.(i) st)
      (fun i st -> Action.execute acts.(i) st)
  in
  Source
    {
      prog = of_actions (Program.actions program);
      faults = of_actions (Detcor_core.Fault.actions faults);
      enter = Fun.id;
      record = Fun.id;
      escapes = ref 0;
      ranked = false;
    }

(* A state of the rank source: a rank of the layout, or a state outside
   it, which the interpreter steps. *)
type pos = Rank of int | Escaped of State.t

exception Refused of string

(* Each action with its compiled form and compiled guard. *)
let compile_group layout what acts =
  Array.of_list
    (List.map
       (fun ac ->
         let refuse why =
           raise (Refused (Fmt.str "%s %s: %s" what (Action.name ac) why))
         in
         match
           (Compiled.action layout ac, Compiled.pred layout (Action.guard ac))
         with
         | Some ca, Some g -> (ac, ca, g)
         | None, _ -> refuse "does not compile"
         | Some _, None -> refuse "closure guard")
       acts)

let rank_source layout ~prog ~faults =
  (* The slot codes of the rank [at], decoded once per visited state. *)
  let codes = Array.make (Layout.num_vars layout) 0 and at = ref (-1) in
  let decode r =
    if r <> !at then begin
      Layout.decode layout r codes;
      at := r
    end
  in
  (* Decoded states, one per distinct rank: runs revisit states, and
     sharing them keeps the retained traces small. *)
  let decoded = Rank_map.create ~space:(Layout.space layout) () in
  let states = ref [||] in
  let decode_state r =
    match Rank_map.find decoded r with
    | -1 ->
      let st = Layout.unpack layout r in
      let n = Rank_map.length decoded in
      if n = Array.length !states then begin
        let grown = Array.make (max 64 (2 * n)) st in
        Array.blit !states 0 grown 0 n;
        states := grown
      end;
      !states.(n) <- st;
      Rank_map.add decoded r n;
      st
    | i -> !states.(i)
  in
  let escapes = ref 0 in
  let of_state st =
    match Layout.pack_opt layout st with
    | Some r -> Rank r
    | None ->
      incr escapes;
      Escaped st
  in
  let of_compiled acts =
    group
      (Array.map (fun (ac, _, _) -> Action.name ac) acts)
      (fun i -> function
        | Rank r ->
          decode r;
          let _, _, g = acts.(i) in
          Compiled.holds g ~codes ~rank:r
        | Escaped st ->
          let ac, _, _ = acts.(i) in
          Action.enabled ac st)
      (fun i -> function
        | Rank r -> (
          decode r;
          let ac, ca, _ = acts.(i) in
          let succs = ref [] in
          (* The guard is a compiled test: the state argument is unread. *)
          match
            Compiled.successors ca ~codes ~rank:r State.empty i (fun _ r' ->
                succs := Rank r' :: !succs)
          with
          | () -> List.rev !succs
          | exception Layout.Unrepresentable ->
            List.map of_state (Action.execute ac (Layout.unpack layout r)))
        | Escaped st ->
          let ac, _, _ = acts.(i) in
          List.map of_state (Action.execute ac st))
  in
  {
    prog = of_compiled prog;
    faults = of_compiled faults;
    enter = of_state;
    record = (function Rank r -> decode_state r | Escaped st -> st);
    escapes;
    ranked = true;
  }

(* The stepper for [program [] faults], with the reason the rank source
   does not apply when it falls back to the interpreter. *)
let stepper program faults =
  match Layout.of_program program with
  | None -> (interpreter program faults, Some "no layout")
  | Some layout -> (
    match
      ( compile_group layout "action" (Program.actions program),
        compile_group layout "fault" (Detcor_core.Fault.actions faults) )
    with
    | prog, faults -> (Source (rank_source layout ~prog ~faults), None)
    | exception Refused why -> (interpreter program faults, Some why))

(* ------------------------------------------------------------------ *)
(* The loop.                                                           *)
(* ------------------------------------------------------------------ *)

(* One run over [src]; [true] with it when every state stayed a rank. *)
let run_on (Source src) ~config program ~injector ~init =
  Obs.span "sim.run"
    ~attrs:
      [
        Attr.str "program" (Program.name program);
        Attr.int "seed" config.seed;
      ]
  @@ fun () ->
  let escapes0 = !(src.escapes) in
  let rng = Random.State.make [| config.seed |] in
  let rec loop st steps_rev fault_steps step =
    Detcor_robust.Budget.tick ();
    if step >= config.max_steps then
      (List.rev steps_rev, List.rev fault_steps, Trace.Truncated)
    else begin
      match
        Injector.inject injector ~rng ~step
          ~enabled:(fun j -> src.faults.enabled j st)
          ~execute:(fun j -> src.faults.execute j st)
      with
      | Some (j, st') ->
        let fname = src.faults.names.(j) in
        if Obs.on () then begin
          Metrics.incr m_faults;
          Obs.event "sim.fault"
            ~attrs:[ Attr.str "action" fname; Attr.int "step" step ]
        end;
        loop st'
          ({ Trace.action = fname; target = src.record st' } :: steps_rev)
          (step :: fault_steps) (step + 1)
      | None -> (
        let enabled = List.filter (fun i -> src.prog.enabled i st) src.prog.indices in
        match Scheduler.pick config.scheduler ~rng ~step enabled with
        | None -> (List.rev steps_rev, List.rev fault_steps, Trace.Maximal)
        | Some i -> (
          match Scheduler.choose_successor ~rng (src.prog.execute i st) with
          | None -> (List.rev steps_rev, List.rev fault_steps, Trace.Maximal)
          | Some st' ->
            let name = src.prog.names.(i) in
            if Obs.on () then
              Obs.event "sim.schedule" ~level:Attr.Debug
                ~attrs:
                  [
                    Attr.str "action" name;
                    Attr.int "step" step;
                    Attr.int "enabled" (List.length enabled);
                  ];
            loop st'
              ({ Trace.action = name; target = src.record st' } :: steps_rev)
              fault_steps (step + 1)))
    end
  in
  let steps, fault_steps, ending = loop (src.enter init) [] [] 0 in
  let compiled = src.ranked && !(src.escapes) = escapes0 in
  if Obs.on () then begin
    Metrics.incr m_runs;
    Metrics.incr ~by:(List.length steps) m_steps;
    Metrics.observe h_trace_len (List.length steps);
    if compiled then Metrics.incr m_compiled;
    Obs.annotate
      [
        Attr.int "steps" (List.length steps);
        Attr.int "faults" (Injector.injected injector);
        Attr.bool "compiled" compiled;
      ]
  end;
  ( {
      trace = Trace.make ~ending init steps;
      fault_steps;
      faults_injected = Injector.injected injector;
    },
    compiled )

let run ?(config = default) program ~injector ~init =
  let stepper, _ = stepper program (Injector.faults injector) in
  fst (run_on stepper ~config program ~injector ~init)

(* Per-run seeds are derived from (seed, i) with a splitmix64-style
   finalizer.  The obvious [seed + i] correlates overlapping samples:
   base seed 1 run 1 and base seed 2 run 0 would replay the identical
   stream.  Mixing through the finalizer makes the derived seeds
   statistically independent across both the run index and nearby base
   seeds. *)
let derive_seed seed i =
  let z =
    let open Int64 in
    let z = add (of_int seed) (mul (of_int (i + 1)) 0x9E3779B97F4A7C15L) in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  Int64.to_int z land max_int

(* [sample ?config n program ~faults ~policy ~init]: n
   independent runs with fresh injectors and independently derived seeds,
   all on one stepper.

   An explicit loop rather than [List.init]: checkpoint captures fire
   from [run]'s budget ticks and must observe the accumulator between
   runs only.  Because each run's seed comes from its index, a resumed
   sample replays the remaining runs bit-identically with no RNG state
   in the snapshot.  Runs are marshalled only under a checkpoint session:
   without one there is no one to hand the capture to. *)
let sample ?(config = default) n program ~faults ~policy ~init =
  Obs.span "sim.sample" ~attrs:[ Attr.int "runs" n ] @@ fun () ->
  let phase = Detcor_robust.Checkpoint.enter ~kind:"sim.sample" in
  match Detcor_robust.Checkpoint.resume_data phase with
  | Some (Detcor_robust.Checkpoint.Done data) ->
    (Marshal.from_string data 0 : run list)
  | resumed ->
    let stepper, fallback = stepper program faults in
    let session = Detcor_robust.Checkpoint.active () in
    (* Midway payload: the completed count's own marshal chunk followed
       by one chunk per finished run, appended as each run completes.
       Re-marshalling the whole accumulator on every periodic save would
       cost a full graph traversal per snapshot — quadratic across the
       sample, and slow enough on large [n] to starve the run — so each
       run is serialized exactly once and a capture only concatenates
       the chunks already in [buf]. *)
    let buf = Buffer.create 4096 in
    let start, saved =
      match resumed with
      | Some (Detcor_robust.Checkpoint.Midway data) ->
        let completed = (Marshal.from_string data 0 : int) in
        let bytes = Bytes.unsafe_of_string data in
        let head = Marshal.total_size bytes 0 in
        let off = ref head in
        let runs = ref [] in
        while !off < String.length data do
          runs := (Marshal.from_string data !off : run) :: !runs;
          off := !off + Marshal.total_size bytes !off
        done;
        Buffer.add_substring buf data head (String.length data - head);
        (completed, !runs)
      | _ -> (0, [])
    in
    let completed = ref start in
    let acc = ref saved in
    (* completed runs, newest first *)
    Detcor_robust.Checkpoint.set_capture phase (fun () ->
        Marshal.to_string !completed [] ^ Buffer.contents buf);
    let compiled = ref 0 in
    while !completed < n do
      let i = !completed in
      let injector = Injector.make policy faults in
      let r, on_ranks =
        run_on stepper
          ~config:{ config with seed = derive_seed config.seed i }
          program ~injector ~init
      in
      if on_ranks then incr compiled;
      acc := r :: !acc;
      if session then Buffer.add_string buf (Marshal.to_string r []);
      completed := i + 1
    done;
    if Obs.on () then
      Obs.annotate
        (Attr.bool "compiled" (fallback = None)
        :: Attr.int "compiled_runs" !compiled
        :: Option.to_list (Option.map (Attr.str "fallback") fallback));
    let runs = List.rev !acc in
    if session then
      Detcor_robust.Checkpoint.complete phase (Marshal.to_string runs []);
    runs

(* [initial_state program ~invariant]: the first state of
   [Program.states] satisfying [invariant], the state a simulation starts
   from.  The candidates come from the compiled enumerator
   ([Tolerance.init_states], in [State.compare] order), so the minimum is
   taken in declaration order: [Program.states] counts in mixed radix over
   the declared variables, each digit a value's position in its domain. *)
let initial_state program ~invariant =
  let digits =
    List.map
      (fun (x, d) -> (x, Array.of_list (Domain.values d)))
      (Program.var_decls program)
  in
  let key st =
    List.fold_left
      (fun acc (x, values) ->
        let v = State.get st x in
        let rec pos i = if Value.equal values.(i) v then i else pos (i + 1) in
        (acc * Array.length values) + pos 0)
      0 digits
  in
  match Detcor_core.Tolerance.init_states program ~invariant with
  | [] -> None
  | st :: rest ->
    let best, _ =
      List.fold_left
        (fun (best, k) st ->
          let k' = key st in
          if k' < k then (st, k') else (best, k))
        (st, key st) rest
    in
    Some best
