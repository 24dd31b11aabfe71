(** Resource governance: wall-clock, state-count and heap budgets with
    cooperative checkpoints.

    Install a budget with {!with_budget}; long-running loops call
    {!tick} (or {!count_state} per interned state).  When a dimension
    runs out the checkpoint raises
    [Error.Detcor_error (Error.Resource _)]; exhaustion detected on one
    worker domain cancels the others at their next checkpoint.  The
    default ambient budget is {!unlimited}, whose checkpoint fast path
    is two loads and a branch. *)

type t

(** No limits; checkpoints are near-free. *)
val unlimited : t

(** [make ?timeout ?max_states ?max_memory_mb ()]: [timeout] is
    wall-clock seconds measured on the monotonic clock from [make];
    [max_states] bounds {!count_state} calls; [max_memory_mb] bounds
    the major-heap size sampled at checkpoints. *)
val make : ?timeout:float -> ?max_states:int -> ?max_memory_mb:int -> unit -> t

(** Run [f] with [b] installed as the ambient budget (restored after). *)
val with_budget : t -> (unit -> 'a) -> 'a

val current : unit -> t

(** Cooperative checkpoint against the ambient budget.  Cheap enough
    for per-edge loops; the clock and heap are consulted every 128th
    call.  @raise Error.Detcor_error on exhaustion (and on every
    subsequent call once tripped, so cancellation propagates). *)
val tick : unit -> unit

(** Consult the clock and the heap against the ambient budget now,
    outside {!tick}'s cadence: for a point where the heap peaks between
    ticks.  @raise Error.Detcor_error on exhaustion. *)
val check : unit -> unit

(** Install a hook run on {!tick}'s masked slow path — the same cadence
    as the checkpoint pulse, i.e. at points where loop state is
    consistent.  dcheck uses it to turn asynchronous termination
    signals into a synchronous exit whose final snapshot captures
    consistent state.  The hook runs on whichever domain ticks; gate on
    the owner domain inside the hook if needed. *)
val set_tick_hook : (unit -> unit) -> unit

(** Count one visited state toward the state ceiling; also a {!tick}. *)
val count_state : unit -> unit

(** States counted against the ambient budget so far. *)
val states_visited : unit -> int

(** The dimension that ran out, if the ambient budget has tripped. *)
val exhausted : unit -> Error.resource option
