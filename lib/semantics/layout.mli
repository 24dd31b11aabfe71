(** Variable layouts: the compiled shape of a program's state space.

    A layout maps a program's variables (in ascending name order) and their
    finite domains (in ascending {!Detcor_kernel.Value.compare} order) to
    integer indices, so that any state binding exactly those variables to
    in-domain values packs into a single integer rank.  Rank order coincides
    with {!Detcor_kernel.State.compare} order, which the packed engine of
    {!Ts} relies on to reproduce the reference engine's state numbering. *)

open Detcor_kernel

type t

(** Raised by {!pack} when a state binds a variable outside the layout, is
    missing a layout variable, or holds an out-of-domain value. *)
exception Unrepresentable

(** Why the last {!pack} failed (read back by {!Ts} to explain an
    Auto→Reference engine fallback). *)
type escape =
  | Extra_variable of string
  | Missing_variable of string
  | Out_of_domain of string * Value.t

val pp_escape : Format.formatter -> escape -> unit

(** The diagnosis recorded by the most recent {!pack} failure in any
    domain, if any. *)
val escape_reason : unit -> escape option

(** [of_program p] compiles the layout of [p]'s declared variables, or
    [None] when the product space size overflows the integer range. *)
val of_program : Program.t -> t option

val num_vars : t -> int

(** Size of the full product space. *)
val space : t -> int

val var : t -> int -> string

(** The variables in slot order, each with its domain values in code
    order: two layouts of equal signature rank every state alike. *)
val signature : t -> Pred.signature

(** [has_signature t sg]: [t]'s signature is [sg], so rank forms tagged
    with [sg] ({!Pred.of_ranks}, {!Action.of_moves}) hold on [t]. *)
val has_signature : t -> Pred.signature -> bool
val domain_values : t -> int -> Value.t list

(** [pack t st] is the mixed-radix rank of [st].
    @raise Unrepresentable if [st] does not fit the layout. *)
val pack : t -> State.t -> int

val pack_opt : t -> State.t -> int option

(** [pack_from t ~src_rank src st'] is [pack t st'], computed as a delta
    against the source state [src] of known rank [src_rank].  Successor
    states share the untouched binding tuples of their source, so the
    common case is a physical-equality scan plus one coder lookup per
    changed variable; shape mismatches fall back to the full {!pack}.

    [src_rank] {e must} equal [pack t src]: the delta trusts the claimed
    rank, so passing a rank from a different numbering (a stale frontier
    entry, another arena's local index) silently yields a wrong rank.
    Carry the rank alongside the state it ranks.
    @raise Unrepresentable if [st'] does not fit the layout. *)
val pack_from : t -> src_rank:int -> State.t -> State.t -> int

(** [unpack t rank] rebuilds the state of the given rank; inverse of
    {!pack} on representable states.  Allocates one binding array: the
    (variable, value) pairs are shared by every decoded state. *)
val unpack : t -> int -> State.t

(** [unpack_into t sc rank] decodes [rank] into the scratch buffer [sc]
    (from {!scratch}) without allocating a state; the buffer is
    invalidated by the next call. *)
val unpack_into : t -> State.scratch -> int -> unit

(** A scratch buffer over this layout's variables, for {!unpack_into}. *)
val scratch : t -> State.scratch

(** Enumerate the full product space in ascending rank order.  Each state
    passed to the callback is fresh and may be retained. *)
val iter_states : t -> (State.t -> unit) -> unit

(** Like {!iter_states}, but reuses one {!Detcor_kernel.State.scratch}
    buffer for the whole sweep: visiting a state costs a slot write
    instead of an allocation.  The buffer is invalidated by the next
    visit — the callback must [State.scratch_copy] states it retains. *)
val iter_scratch : t -> (State.scratch -> unit) -> unit

(** {1 Slot codes}

    A state of the layout is also an int array of per-slot domain codes
    ([codes.(k)] is the index of slot [k]'s value in its ascending domain),
    and its rank is [Σ codes.(k) · stride k].  Compiled actions and
    predicates ({!Compiled}) read states in this form. *)

(** The slot of a variable, if the layout has it. *)
val slot : t -> string -> int option

val stride : t -> int -> int

(** [code t k v]: the code of [v] at slot [k], or [-1] when [v] is outside
    the slot's domain. *)
val code : t -> int -> Value.t -> int

(** Record [e] as the {!escape_reason} and raise {!Unrepresentable}, as a
    failing {!pack} does. *)
val escape : escape -> 'a

(** [decode t rank codes] writes the slot codes of [rank] into [codes]
    (of length {!num_vars}). *)
val decode : t -> int -> int array -> unit

(** [decode_slots t rank codes slots] writes only the codes of the slots
    listed in [slots]; the other entries of [codes] are left as they
    are. *)
val decode_slots : t -> int -> int array -> int array -> unit

(** [iter_codes t f] calls [f rank codes] for every rank of the product
    space in ascending order, through one code buffer that is overwritten
    after each call. *)
val iter_codes : t -> (int -> int array -> unit) -> unit

val pp : t Fmt.t
