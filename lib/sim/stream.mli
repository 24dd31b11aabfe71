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

(** {1 Reading}

    One byte-level parser reads every stream.  It scans a buffered
    channel line by line with [input_line]'s notion of a line, splits
    words on spaces after trimming [String.trim]'s blanks, and makes no
    string for a line or a token it can decode from tables.  It feeds two
    views of the same grammar: {!fold_ranked} and {!fold}. *)

(** A run in the rank view.  State [i] (for [i < Array.length ranks]; 0
    is the [init] state) is the layout state of rank [ranks.(i)], or,
    when [ranks.(i) < 0], the escaped state [escaped.(i)].  [escaped] is
    [[||]] when no state of the run escaped.  [actions.(i)] names the
    action of record [i], the step into state [i + 1]; names are shared
    by every record of the stream that carries them.  [fault_steps] are
    the indices of the [fault] records, ascending. *)
type ranked = {
  index : int;
  ranks : int array;
  escaped : State.t array;
  actions : string array;
  fault_steps : int list;
  ending : Trace.ending;
}

(** [fold_ranked ?layout ic ~init ~f] folds over the runs of a stream in
    the rank view, one run in memory at a time.  Returns the accumulator
    and the declared program name, if any.

    With [layout], the reader resolves each variable name to its slot
    and reads each value through a per-slot table of the texts
    {!Detcor_kernel.Value.to_string} prints for the slot's domain, so a
    state is a rank updated by [(code - old) * stride] per binding.  A
    binding the tables do not decode — an out-of-domain value, a variable
    outside the layout, or a non-canonical spelling such as [007], [+3]
    or [0x1] — makes the state an escaped {!Detcor_kernel.State.t}, its
    value read the way every view reads values (see the format above),
    and the following bindings apply to it.  At the end of each line an
    escaped state returns to ranks if it packs, so a non-canonical
    spelling of an in-domain value costs one re-rank and leaves no
    escaped state behind.  An [init] line that binds no value for some layout
    variable raises {!Detcor_robust.Error.Parse} at that line, naming the
    missing variables and the stream's [program] line: such a stream was
    recorded from another program.  Extra variables escape.

    Without [layout] every state is escaped: this is the {!fold} view,
    for programs without a layout.

    Errors, torn tails and [on_torn] behave as in {!fold}. *)
val fold_ranked :
  ?on_torn:(int -> unit) ->
  ?layout:Layout.t ->
  in_channel ->
  init:'a ->
  f:('a -> ranked -> 'a) ->
  'a * string option

(** The simulator's view of a ranked run, states decoded with [layout]
    (needed when some state is ranked).  [faults_injected] counts the
    [fault] records. *)
val decode : ?layout:Layout.t -> ranked -> Runner.run

(** Fold over the runs of a stream in the {!State.t} view, parsing
    incrementally — only one run is in memory at a time.  Returns the
    accumulator and the declared program name, if any.  Each state is the
    previous one updated with the line's bindings, values read as the
    format above says; no variable set is checked.

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
