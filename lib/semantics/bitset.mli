(** Dense bit vectors over state indices, backing the predicate and guard
    caches of {!Ts}. *)

type t

val create : int -> t

(** [of_fn n f] is the bitset [{ i < n | f i }]. *)
val of_fn : int -> (int -> bool) -> t

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit
val cardinal : t -> int
val iter_set : t -> (int -> unit) -> unit
val equal : t -> t -> bool
val copy : t -> t

(** [any t] holds iff at least one bit is set. *)
val any : t -> bool

(** [union_into ~into t] ORs [t] into [into] in place, 64 bits at a
    time; the lengths must match. *)
val union_into : into:t -> t -> unit

(** The raw bit bytes, for snapshot payloads. *)
val to_string : t -> string

(** [of_string length s] rebuilds a set of [length] bits from
    {!to_string} output; the byte count must match exactly. *)
val of_string : int -> string -> t
