(** Rank -> index maps: the one interning table of every state store.

    Maps non-negative int keys below a fixed [space] (layout ranks) to
    non-negative values (dense indices).  Lookups neither hash
    polymorphically nor allocate.  The map starts as an open-addressing
    table and switches to a dense array over [[0, space)] once the table
    would cost as many words as that array, so its size stays within
    about 8 words per entry held. *)

type t

(** [create ?expect ~space ()]: an empty map for keys in [[0, space)],
    sized for [expect] entries (default 0). *)
val create : ?expect:int -> space:int -> unit -> t

(** [find t key]: the value bound to [key], or [-1] when there is none
    (including every key outside [[0, space)]). *)
val find : t -> int -> int

(** [add t key v] binds [key] to [v], replacing any previous binding.
    Raises [Detcor_error (Internal _)] when [key] is outside
    [[0, space)] or [v] is negative. *)
val add : t -> int -> int -> unit

(** Number of keys bound. *)
val length : t -> int

(** Whether the map has switched to the dense array. *)
val is_dense : t -> bool
