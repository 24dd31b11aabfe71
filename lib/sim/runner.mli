(** The simulation loop (the SIEFAST role sketched in the paper's
    concluding remarks): scheduled program actions interleaved with
    injected faults, recorded as a trace.

    Runs step on layout ranks whenever the program has a
    {!Detcor_semantics.Layout} and every program and fault action
    compiles ({!Detcor_semantics.Compiled.action}) with a compiled guard:
    guards are read from slot codes, successors come from rank
    arithmetic, and states are decoded only to fill the trace (one
    decoded state per distinct rank, shared by every step that reaches
    it).  A successor outside the layout (a domain escape) is computed by
    the closure interpreter, and the run stays there until a state packs
    again.  Any other program runs on the interpreter throughout.

    The interpreter is the oracle: both step sources make the same random
    draws in the same order (the injection test, the fault and successor
    picks, the enabled-action pick, the successor pick), so a run's
    trace, fault steps, injection count and ending do not depend on which
    one stepped it.  A program whose actions and faults are wrapped in
    closures ({!Detcor_kernel.Action.make}) runs on the interpreter: that
    twin is what the tests compare against. *)

open Detcor_kernel
open Detcor_semantics

type config = {
  scheduler : Scheduler.t;
  seed : int;
  max_steps : int;
}

(** Uniform-random scheduling, seed 1, 200 steps. *)
val default : config

type run = {
  trace : Trace.t;
  fault_steps : int list;  (** indices (into the trace's steps) of fault steps *)
  faults_injected : int;
}

(** [run ?config program ~injector ~init]: one run of [program] under
    [injector]'s faults from [init], in a [sim.run] span. *)
val run :
  ?config:config ->
  Program.t ->
  injector:Injector.t ->
  init:State.t ->
  run

(** [derive_seed seed i]: the seed of run [i] of a sample with base seed
    [seed] (a splitmix64 finalizer, so overlapping samples of nearby base
    seeds do not replay each other). *)
val derive_seed : int -> int -> int

(** [sample ?config n program ~faults ~policy ~init]: [n]
    independent runs, run [i] with a fresh injector and seed
    [derive_seed config.seed i], in a [sim.sample] span annotated with
    [compiled] (whether the rank stepper applies), [compiled_runs] (runs
    that never left the layout, also counted by [sim.compiled_runs]) and,
    when it does not apply, the [fallback] reason.

    Under a {!Detcor_robust.Checkpoint} session the sample is a
    checkpoint phase: each finished run is marshalled once into the
    capture, and a resumed sample replays the remaining runs
    bit-identically.  Without a session nothing is marshalled. *)
val sample :
  ?config:config ->
  int ->
  Program.t ->
  faults:Detcor_core.Fault.t ->
  policy:Injector.policy ->
  init:State.t ->
  run list

(** [initial_state program ~invariant]: the first state of
    [Program.states] (declaration-order mixed radix) satisfying
    [invariant], the state [dcheck simulate] starts from. *)
val initial_state : Program.t -> invariant:Pred.t -> State.t option
