(* Resource governance for long-running procedures.

   A budget bounds the wall-clock time (monotonic deadline), visited
   state count and major-heap size of everything run under
   [with_budget].  Long-running loops call the cooperative checkpoints
   [tick]/[count_state]; when a dimension runs out the checkpoint
   raises [Error.Detcor_error (Resource _)], which callers such as
   [Tolerance.check] convert into a sound [Unknown] verdict.

   The ambient budget is a plain global: worker domains spawned under
   [with_budget] read the same record, and the [tripped] cell is an
   [Atomic] so exhaustion detected on one domain cancels the others at
   their next checkpoint.  The inactive fast path of [tick] is two
   loads and a branch, so an unlimited budget (the default) costs
   nothing measurable even in per-edge loops. *)

type t = {
  active : bool;
  start_ns : int64; (* monotonic, for Time spent reporting *)
  deadline_ns : int64 option; (* absolute monotonic deadline *)
  timeout_ns : int64; (* relative, for Time budget reporting *)
  max_states : int option;
  max_memory_bytes : int option;
  states : int Atomic.t;
  ticks : int Atomic.t;
  tripped : Error.resource option Atomic.t;
}

let unlimited =
  {
    active = false;
    start_ns = 0L;
    deadline_ns = None;
    timeout_ns = 0L;
    max_states = None;
    max_memory_bytes = None;
    states = Atomic.make 0;
    ticks = Atomic.make 0;
    tripped = Atomic.make None;
  }

let make ?timeout ?max_states ?max_memory_mb () =
  let start_ns = Detcor_obs.Obs.now_ns () in
  let timeout_ns =
    match timeout with
    | None -> 0L
    | Some s -> Int64.of_float (s *. 1e9)
  in
  {
    active = timeout <> None || max_states <> None || max_memory_mb <> None;
    start_ns;
    deadline_ns =
      (match timeout with
      | None -> None
      | Some _ -> Some (Int64.add start_ns timeout_ns));
    timeout_ns;
    max_states;
    max_memory_bytes = Option.map (fun mb -> mb * 1024 * 1024) max_memory_mb;
    states = Atomic.make 0;
    ticks = Atomic.make 0;
    tripped = Atomic.make None;
  }

let current_budget = ref unlimited

let current () = !current_budget

let with_budget b f =
  let prev = !current_budget in
  current_budget := b;
  Fun.protect ~finally:(fun () -> current_budget := prev) f

(* Record the exhausted dimension (first writer wins, so concurrent
   domains report one consistent reason) and raise. *)
let trip b r =
  ignore (Atomic.compare_and_set b.tripped None (Some r));
  match Atomic.get b.tripped with
  | Some r -> raise (Error.Detcor_error (Error.Resource r))
  | None -> raise (Error.Detcor_error (Error.Resource r))

let reraise_if_tripped b =
  match Atomic.get b.tripped with
  | Some r -> raise (Error.Detcor_error (Error.Resource r))
  | None -> ()

(* The expensive checks: clock and heap, run every [interval] ticks. *)
let check_now b =
  reraise_if_tripped b;
  (match b.deadline_ns with
  | Some deadline ->
    let now = Detcor_obs.Obs.now_ns () in
    if now > deadline then
      trip b
        {
          Error.kind = Error.Time;
          spent = Int64.to_int (Int64.sub now b.start_ns);
          budget = Int64.to_int b.timeout_ns;
        }
  | None -> ());
  match b.max_memory_bytes with
  | Some limit ->
    let heap_bytes = (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) in
    if heap_bytes > limit then
      trip b { Error.kind = Error.Memory; spent = heap_bytes; budget = limit }
  | None -> ()

let check () =
  let b = !current_budget in
  if b.active then check_now b

let interval = 128 (* power of two: the tick test is a mask *)

(* An external cancellation hook run on the masked slow path — the same
   cadence as [Checkpoint.pulse], i.e. at points where every phase's
   loop state is consistent.  dcheck installs one to turn an
   asynchronous SIGTERM/SIGINT into a synchronous exit at the next
   cooperative checkpoint, so the finalizer stack (including the final
   snapshot) always captures consistent state. *)
let tick_hook : (unit -> unit) ref = ref (fun () -> ())

let set_tick_hook f = tick_hook := f

(* Progress heartbeat: push an ETA derived from the active ceilings —
   seconds until the tightest budget dimension runs out, the only
   completion bound the toolkit can know in general — then let the
   innermost phase publish its sampler readings.  -1 means no ceiling
   applies (unlimited budget). *)
let heartbeat b =
  let eta =
    if not b.active then -1.0
    else begin
      let now = Detcor_obs.Obs.now_ns () in
      let elapsed_s = Int64.to_float (Int64.sub now b.start_ns) /. 1e9 in
      let time_eta =
        match b.deadline_ns with
        | Some d -> Some (Int64.to_float (Int64.sub d now) /. 1e9)
        | None -> None
      in
      let states_eta =
        match b.max_states with
        | Some limit ->
          let n = Atomic.get b.states in
          if n > 0 && elapsed_s > 0.0 then
            Some (float_of_int (limit - n) *. elapsed_s /. float_of_int n)
          else None
        | None -> None
      in
      match (time_eta, states_eta) with
      | Some t, Some s -> Float.min t s
      | Some t, None | None, Some t -> t
      | None, None -> -1.0
    end
  in
  Detcor_obs.Progress.set_eta_seconds eta;
  Detcor_obs.Progress.pulse ()

(* The same masked slow path also drives periodic crash-safe snapshots
   and live progress heartbeats: an armed [Checkpoint] or [Progress]
   session pulses here even when no budget is active, so `--checkpoint`
   and `--telemetry` work with or without `--timeout`.  Heartbeat-only
   arming (telemetry with no budget and no checkpoint) must stay off
   the shared atomic tick counter — per-edge loops tick hot enough
   that even a plain countdown decrement per tick is visible — so it
   polls [Progress.due_now], a single ref load that a 20 Hz ticker
   thread flips. *)
let tick () =
  let b = !current_budget in
  let cp = Checkpoint.armed () in
  if b.active || cp then begin
    let n = Atomic.fetch_and_add b.ticks 1 in
    if n land (interval - 1) = 0 then begin
      !tick_hook ();
      if b.active then check_now b;
      if cp then Checkpoint.pulse ();
      if Detcor_obs.Progress.armed () then heartbeat b
    end
    else if b.active then reraise_if_tripped b
  end
  else if Detcor_obs.Progress.due_now () then heartbeat b

(* One visited state: counts toward the state ceiling and doubles as a
   cooperative checkpoint. *)
let count_state () =
  let b = !current_budget in
  let cp = Checkpoint.armed () in
  if b.active || cp then begin
    (if b.active then
       let n = Atomic.fetch_and_add b.states 1 + 1 in
       match b.max_states with
       | Some limit when n > limit ->
         trip b { Error.kind = Error.States; spent = n; budget = limit }
       | _ -> ());
    let t = Atomic.fetch_and_add b.ticks 1 in
    if t land (interval - 1) = 0 then begin
      !tick_hook ();
      if b.active then check_now b;
      if cp then Checkpoint.pulse ();
      if Detcor_obs.Progress.armed () then heartbeat b
    end
    else if b.active then reraise_if_tripped b
  end
  else if Detcor_obs.Progress.due_now () then heartbeat b

let states_visited () = Atomic.get !current_budget.states

let exhausted () = Atomic.get !current_budget.tripped
