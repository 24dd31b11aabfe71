(** The edge columns of every transition system, and the one CSR builder
    every {!Ts} store fills.

    An edge takes 6 bytes in two columns of [Bytes], which the GC never
    scans: its action id as a native-endian 16-bit word in a label
    column, its target state id as a 32-bit word in a target column.
    The widths are ceilings ({!Ts.max_actions}, {!Ts.max_states}),
    enforced by [Ts] rather than wrapped.

    A builder grows a key column (one key per state: a layout rank, a
    span index or, on the reference path, the state itself), the row
    offsets and the edge columns.  Edges go into blocks of the two
    columns: the open block fills, is sealed, and the next one opens
    twice as large, up to 32,768 edges; no edge is copied while the
    build runs, and {!columns} concatenates the blocks once into columns
    of exact length. *)

(** The column primitives, unchecked and unboxed: byte offsets, which a
    caller keeps below the column's length.  Declared here once, as
    [external], so a read through them is no call in any build
    profile. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"

external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(** [labels n] and [targets n]: uninitialised columns of [n] edges. *)
val labels : int -> Bytes.t

val targets : int -> Bytes.t

(** A builder whose states are keyed by ['k]. *)
type 'k t

val create : unit -> 'k t

(** [add b key]: a new state of key [key], numbered [count b]. *)
val add : 'k t -> 'k -> int

val key : 'k t -> int -> 'k
val count : 'k t -> int

(** The keys of the states added so far, in id order, as a fresh
    array. *)
val keys : 'k t -> 'k array

(** [fill_rows b intern f]: the rows of the states whose rows are open
    when it is called, in id order.  For each, [f key emit] yields the
    state's edges, [emit aid k] pushing one labelled [aid] to the state
    [intern k] (which may add states: their rows stay open), and then
    the row is closed. *)
val fill_rows :
  'k t -> ('k -> int) -> ('k -> (int -> 'k -> unit) -> unit) -> unit

(** The states with closed rows: [0 .. closed b - 1]. *)
val closed : 'k t -> int

val edges : 'k t -> int

(** [(row_ptr, labels, targets)] of exact length, every row closed:
    state [i]'s edges occupy [row_ptr.(i) .. row_ptr.(i + 1)). *)
val columns : 'k t -> int array * Bytes.t * Bytes.t

(** A consistent prefix of a builder: every key, and the rows closed so
    far with their edges.  The field layout is the checkpoint payload of
    the flat store's [ts.bfs] phase; changing it changes the snapshot
    format. *)
type 'k snap = {
  s_keys : 'k array;
  s_rows : int array; (** [rows.(0 .. s_closed)] *)
  s_ea : Bytes.t; (** the closed edges' labels *)
  s_et : Bytes.t; (** and their targets *)
  s_closed : int;
}

val snapshot : 'k t -> 'k snap

(** [restore b snap]: [snap]'s closed rows and edges into [b], which
    already holds at least [snap.s_closed] keys and no edge. *)
val restore : 'k t -> 'k snap -> unit
