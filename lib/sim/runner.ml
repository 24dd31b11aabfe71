(* The simulation loop: interleave scheduled program actions with injected
   faults, recording the executed trace. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_obs

let m_runs = Metrics.counter "sim.runs"
let m_steps = Metrics.counter "sim.steps"
let m_faults = Metrics.counter "sim.faults_injected"
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

let run ?(config = default) program ~injector ~init =
  Obs.span "sim.run"
    ~attrs:
      [
        Attr.str "program" (Program.name program);
        Attr.int "seed" config.seed;
      ]
  @@ fun () ->
  let rng = Random.State.make [| config.seed |] in
  let rec loop st steps_rev fault_steps step =
    Detcor_robust.Budget.tick ();
    if step >= config.max_steps then
      (List.rev steps_rev, List.rev fault_steps, Trace.Truncated)
    else begin
      match Injector.try_inject injector ~rng ~step st with
      | Some (fname, st') ->
        if Obs.on () then begin
          Metrics.incr m_faults;
          Obs.event "sim.fault"
            ~attrs:[ Attr.str "action" fname; Attr.int "step" step ]
        end;
        loop st'
          ({ Trace.action = fname; target = st' } :: steps_rev)
          (step :: fault_steps) (step + 1)
      | None -> (
        let enabled = Scheduler.enabled_with_index program st in
        match Scheduler.pick config.scheduler ~rng ~step enabled with
        | None -> (List.rev steps_rev, List.rev fault_steps, Trace.Maximal)
        | Some (_, ac) -> (
          match Scheduler.choose_successor ~rng (Action.execute ac st) with
          | None -> (List.rev steps_rev, List.rev fault_steps, Trace.Maximal)
          | Some st' ->
            if Obs.on () then
              Obs.event "sim.schedule" ~level:Attr.Debug
                ~attrs:
                  [
                    Attr.str "action" (Action.name ac);
                    Attr.int "step" step;
                    Attr.int "enabled" (List.length enabled);
                  ];
            loop st'
              ({ Trace.action = Action.name ac; target = st' } :: steps_rev)
              fault_steps (step + 1)))
    end
  in
  let steps, fault_steps, ending = loop init [] [] 0 in
  if Obs.on () then begin
    Metrics.incr m_runs;
    Metrics.incr ~by:(List.length steps) m_steps;
    Metrics.observe h_trace_len (List.length steps);
    Obs.annotate
      [
        Attr.int "steps" (List.length steps);
        Attr.int "faults" (Injector.injected injector);
      ]
  end;
  {
    trace = Trace.make ~ending init steps;
    fault_steps;
    faults_injected = Injector.injected injector;
  }

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

(* [sample ?config n program ~faults ~policy ~init]: n independent runs
   with fresh injectors and independently derived seeds.

   An explicit loop rather than [List.init]: checkpoint captures fire
   from [run]'s budget ticks and must observe the accumulator between
   runs only.  Because each run's seed comes from its index, a resumed
   sample replays the remaining runs bit-identically with no RNG state
   in the snapshot. *)
let sample ?(config = default) n program ~faults ~policy ~init =
  Obs.span "sim.sample" ~attrs:[ Attr.int "runs" n ] @@ fun () ->
  let phase = Detcor_robust.Checkpoint.enter ~kind:"sim.sample" in
  match Detcor_robust.Checkpoint.resume_data phase with
  | Some (Detcor_robust.Checkpoint.Done data) ->
    (Marshal.from_string data 0 : run list)
  | resumed ->
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
    while !completed < n do
      let i = !completed in
      let injector = Injector.make policy faults in
      let r =
        run
          ~config:{ config with seed = derive_seed config.seed i }
          program ~injector ~init
      in
      acc := r :: !acc;
      Buffer.add_string buf (Marshal.to_string r []);
      completed := i + 1
    done;
    let runs = List.rev !acc in
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
