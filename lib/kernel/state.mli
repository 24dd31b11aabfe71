(** Program states.

    A state assigns a value to each variable of the program (Section 2.1).
    States are persistent string-keyed maps. *)

type t

val empty : t
val of_list : (string * Value.t) list -> t

(** [of_sorted_array bs] is the state with bindings [bs], taken without
    copying.  The names must be distinct and in ascending order, and the
    caller must not mutate [bs] afterwards.  Decoders that share one
    binding pair per (variable, value) build a state with this in one
    allocation. *)
val of_sorted_array : (string * Value.t) array -> t

(** [get st x] returns the value of [x].
    @raise Value.Type_error if [x] is unbound. *)
val get : t -> string -> Value.t

val find_opt : t -> string -> Value.t option
val set : t -> string -> Value.t -> t
val mem : t -> string -> bool
val bindings : t -> (string * Value.t) list
val variables : t -> string list

(** [fold f st init] folds over the bindings in increasing variable-name
    order (the same order as [bindings]). *)
val fold : (string -> Value.t -> 'a -> 'a) -> t -> 'a -> 'a

val cardinal : t -> int
val update_many : t -> (string * Value.t) list -> t

(** [project st vars] is the projection of [st] on [vars]
    (Section 2.2.1 of the paper). *)
val project : t -> string list -> t

(** [agree_on st st' vars] holds iff [st] and [st'] assign equal values to
    every variable in [vars]. *)
val agree_on : t -> t -> string list -> bool

(** [diff2 a b f]: when [a] and [b] bind the same variables in the same
    slot order, call [f k va vb] on every slot [k] whose values differ
    and return [true].  Returns [false] as soon as the shapes diverge
    (different lengths or variable names); [f]'s effects for earlier
    slots must then be discarded by the caller.  Unchanged slots are
    skipped by physical equality, so a state and a successor produced by
    [set] compare in O(vars) with near-zero per-slot cost. *)
val diff2 : t -> t -> (int -> Value.t -> Value.t -> unit) -> bool

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : t Fmt.t
val to_string : t -> string

(** {2 Scratch buffers}

    A scratch buffer is a mutable state over a fixed variable set, for
    enumerating large state spaces without allocating one state per
    visited point.  {!scratch_view} exposes the buffer as a state without
    copying; the view is only valid until the next {!scratch_set} — use
    {!scratch_copy} to retain a visited state. *)

type scratch

(** [scratch_create vars] is a fresh buffer over [vars], which must be in
    ascending name order.  All slots start at [Value.bot]. *)
val scratch_create : string array -> scratch

(** [scratch_set sc k b] writes the binding [b] into slot [k] (the [k]-th
    variable of the buffer in name order); [b] must bind that variable. *)
val scratch_set : scratch -> int -> string * Value.t -> unit

(** The buffer as a state, without copying.  Invalidated by the next
    {!scratch_set}. *)
val scratch_view : scratch -> t

(** An immutable snapshot of the buffer's current state. *)
val scratch_copy : scratch -> t
