(** Syndrome vectors: a system's whole witness-predicate family evaluated
    as one batched sweep.

    A monitor watches many predicates at once — detector witnesses,
    correction predicates, the decomposed obligations of a safety
    specification.  Evaluating them one at a time re-walks the trace once
    per predicate and re-enters each closure per state.  A compiled
    syndrome evaluator instead assigns each predicate a bit position and
    produces, per batch of states, one {!Detcor_semantics.Bitset} column
    per predicate; the bit vector across columns at a given state index is
    that state's {e syndrome} — the fingerprint of which witnesses fired.

    When the states come from a program whose variables admit a
    {!Detcor_semantics.Layout} of at most 2{^22} ranks, evaluation is
    memoized by packed rank: each distinct state pays for the family
    once, and every revisit is a bit lookup.  Long fault streams revisit
    few distinct states, so the memo approaches memory bandwidth.
    Without a program, or past that space, every state is evaluated
    directly.  States outside the layout (fault escapes) fall back to
    direct evaluation too, so the syndromes never depend on the path. *)

open Detcor_kernel
open Detcor_semantics

(** A compiled predicate family. *)
type t

(** [compile ?program preds] compiles the family.  [program] enables the
    rank-memoized path when its layout fits the memo; otherwise every
    state is evaluated directly. *)
val compile : ?program:Program.t -> Pred.t list -> t

val pred_names : t -> string array

(** Did compilation produce a rank-memoized evaluator? *)
val is_packed : t -> bool

(** The layout of the program the family was compiled with, when it has
    one ({!Detcor_semantics.Layout.of_program}); it ranks the states
    {!of_ranks} reads. *)
val layout : t -> Layout.t option

(** Syndromes for one batch of states: column [j] holds bit [i] iff
    predicate [j] of the family holds at state [i] of the batch. *)
type batch

val of_states : t -> State.t list -> batch
val of_trace : t -> Trace.t -> batch

(** [of_ranks t ranks ~escaped ~pos ~len] is the batch of states
    [pos .. pos + len - 1] of a run in rank form ({!Stream.ranked}):
    state [i] is the state of rank [ranks.(i)] in {!layout}, or
    [escaped.(i)] when [ranks.(i) < 0].  A ranked state reads its memo
    row, and is decoded ({!Detcor_semantics.Layout.unpack}) only to fill
    the row on a miss, or when the family has no memo; an escaped state
    is evaluated directly.  The results, the memo counters and the
    {!Detcor_robust.Budget.tick} cadence (every 128 states) are those of
    {!of_states} on the decoded states.
    @raise Invalid_argument if a rank is given to a family without a
    layout. *)
val of_ranks :
  t -> int array -> escaped:State.t array -> pos:int -> len:int -> batch

(** Number of states in the batch. *)
val length : batch -> int

(** [get b ~state ~pred]: does predicate [pred] hold at state [state]? *)
val get : batch -> state:int -> pred:int -> bool

(** The full column of predicate [pred] (length {!length}).  The returned
    bitset is the batch's own — do not mutate. *)
val column : batch -> int -> Bitset.t

(** Indices of the predicates holding at state [state], ascending. *)
val fired : batch -> state:int -> int list

(** The lowest predicate holding at state [state], or [-1] when none
    does: the head of {!fired}, without the list. *)
val first_fired : batch -> state:int -> int

(** Does any predicate of the family hold at state [state]? *)
val nonzero : batch -> state:int -> bool

(** The syndrome at [state] rendered as a bit string, most significant
    predicate last (e.g. ["0110"]). *)
val bits : batch -> state:int -> string
