(** Crash-safe snapshots of long-running fixpoints.

    A run under {!start} is a deterministic sequence of {e phases} (the
    engine BFS, the synthesis fixpoints, the simulator loop).  Each
    phase {!enter}s in program order, registers a capture closure that
    serializes its loop state to a string, and {!complete}s with its
    final payload.  Periodic {!pulse}s — driven from [Budget.tick]'s
    cooperative checkpoints — atomically persist all captured payloads
    to a versioned, checksummed file (write to temp, then rename), so a
    killed process always leaves either the previous snapshot or a
    complete new one.  A later run started with [?resume] replays the
    same phase sequence and hands each phase its saved payload:
    completed phases skip their work, the interrupted one continues
    from mid-loop state.

    All load-time defects (truncation, corruption, fingerprint or
    version mismatch) raise the resource-class [Error.Snapshot] — exit
    code 3, never [Internal].  Snapshot {e write} failures are counted
    in [robust.snapshot_errors] and otherwise ignored: losing progress
    insurance must not fail the run.

    Every operation except {!armed} and {!pulse} is owner-domain gated:
    calls from worker domains are inert, so captures always observe the
    orchestrating domain's loop state at a consistent point. *)

(** {1 Session lifecycle} *)

(** Arm snapshotting and/or install a snapshot to resume from.

    [write] is the snapshot path to save to; [interval] (seconds,
    measured on the monotonic clock, default 30) throttles periodic
    saves.  [resume] loads, validates, and installs an existing
    snapshot; its fingerprint must equal [fingerprint] (a digest of the
    program, subcommand, and computation-affecting options) or
    [Error.Snapshot] is raised.  At most one session is active per
    process. *)
val start :
  ?interval:float -> ?write:string -> ?resume:string ->
  fingerprint:string -> unit -> unit

(** Write a final snapshot (when armed) and dissolve the session. *)
val stop : unit -> unit

(** A session exists (writing, resuming, or both). *)
val active : unit -> bool

(** A session exists {e and} has a write path — the cheap flag
    [Budget.tick] reads before calling {!pulse}. *)
val armed : unit -> bool

(** Save if the configured interval has elapsed since the last save.
    No-op when disarmed or on a non-owner domain. *)
val pulse : unit -> unit

val default_interval : float

(** {1 Phases} *)

type phase

(** Payload restored for a phase: [Done] means the phase finished in
    the snapshotted run, [Midway] is mid-loop state to continue from. *)
type resumed = Midway of string | Done of string

(** Claim the next step number.  Raises [Error.Snapshot] if the
    snapshot recorded a different [kind] at this step (the resumed
    command diverged).  Inert when no session is active. *)
val enter : kind:string -> phase

(** The snapshot payload for this phase, if resuming. *)
val resume_data : phase -> resumed option

(** Register the closure that serializes the phase's current loop
    state.  It runs at save time, on the owner domain, at a [Budget]
    checkpoint — so it must read only state that is consistent at the
    phase's own tick sites. *)
val set_capture : phase -> (unit -> string) -> unit

(** Record the phase's final payload and deregister its capture.  Not
    calling this (e.g. when unwinding on a budget trip) leaves the
    capture registered, which is what lets the final save of {!stop}
    persist mid-loop state. *)
val complete : phase -> string -> unit

(** [complete_with phase payload]: {!complete} with a payload computed
    at the first save that persists it, so a phase whose payload is
    costly to serialize (a whole explored system) pays nothing for it
    between saves.  [payload] must read only data that no longer
    changes. *)
val complete_with : phase -> (unit -> string) -> unit

(** {1 Snapshot files}

    The on-disk format, exposed for tests and tooling: an 8-byte magic
    ["DCSNAP01"], 16 hex digits of payload length, 16 hex digits of
    FNV-1a 64 checksum, then the marshalled payload. *)

type entry = { step : int; kind : string; complete : bool; data : string }

(** Atomically write a snapshot; returns the payload size in bytes.
    Raises [Sys_error] (or [Failpoint.Injected] from the
    ["checkpoint.write"] site) on failure. *)
val write_file :
  path:string -> fingerprint:string -> entry array -> int

(** Read and validate a snapshot, returning its fingerprint and
    entries.  Raises [Error.Snapshot] on any defect. *)
val read_file : path:string -> string * entry array

(** FNV-1a 64 digest of length-prefixed parts, as 16 hex digits — the
    building block for session fingerprints (program source, subcommand,
    computation-affecting options). *)
val digest : string list -> string
