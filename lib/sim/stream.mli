(** The line-oriented record format connecting simulation to offline
    monitoring ([dcheck simulate --record] / [dcheck monitor --stream]).

    A stream is plain text:

    {v
    # detcor stream v1
    program memory
    run 0
    init p=0 q=0
    step write p=1
    fault corrupt q=3
    end truncated
    v}

    [init] carries the full starting state; [step]/[fault] lines name the
    executed action and list only the bindings it changed.  Values print
    as {!Detcor_kernel.Value.to_string} ([true]/[false] parse back as
    booleans, digit strings as integers, anything else as a symbol);
    blank lines and [#] comments are skipped.  Malformed input raises
    {!Detcor_robust.Error.Parse} with the offending line — except at the
    very end of the stream, where a recorder killed mid-write leaves a
    torn tail ({!fold} tolerates it the way [Ledger.load] skips torn
    lines). *)

open Detcor_kernel
open Detcor_semantics

type record = {
  action : string;
  fault : bool;
  target : State.t;
}

type run = {
  index : int;
  init : State.t;
  records : record list;
  ending : Trace.ending;
}

val write_header : out_channel -> program:string -> unit

(** [write_run oc ~index run] appends one recorded run.  All states of
    the run must bind the same variables (the format encodes steps as
    deltas); otherwise nothing of the run is written and an internal
    error names the two states.  Deltas come
    from {!Detcor_kernel.State.diff2}, so steps whose states share
    unchanged bindings (any {!Runner.run}) cost one physical-equality scan
    plus the changed bindings' text, each built once per value. *)
val write_run : out_channel -> index:int -> Runner.run -> unit

(** [record oc ~program runs] writes the header and then runs [0 ..],
    inside a [sim.record] span: what [dcheck simulate --record] writes. *)
val record : out_channel -> program:string -> Runner.run list -> unit

(** Fold over the runs of a stream, parsing incrementally — only one run
    is in memory at a time.  Returns the accumulator and the declared
    program name, if any.

    A torn tail — a malformed final line, or end-of-file inside a run —
    is tolerated, not fatal: the torn line is dropped, an in-progress
    run whose [init] parsed is delivered with ending [Truncated], and
    [on_torn] is called with the line number (default: ignore).  The
    same defects anywhere before the tail still raise
    {!Detcor_robust.Error.Parse}. *)
val fold :
  ?on_torn:(int -> unit) ->
  in_channel ->
  init:'a ->
  f:('a -> run -> 'a) ->
  'a * string option

(** Rebuild the simulator's view of a streamed run ([fault_steps] are the
    indices of the [fault] records). *)
val to_run : run -> Runner.run
