(** Named fault-injection sites for the chaos harness.

    The snapshot write path and dcheck's job entry call {!hit}; armed
    sites raise {!Injected} with the configured probability.  Nothing is
    armed by default — sites are enabled programmatically with {!set} or
    through the [DETCOR_FAILPOINTS] environment variable
    (["name=prob,...;seed=N"]), read once at startup.  Draws come from a
    seeded stream so chaos runs replay deterministically. *)

exception Injected of string

(** Raise {!Injected} with the site's configured probability; free when
    the site is not armed. *)
val hit : string -> unit

val armed : string -> bool
val set : string -> float -> unit
val clear : unit -> unit
val seed : int -> unit

(** Parse and apply a [DETCOR_FAILPOINTS]-syntax spec; malformed segments
    are ignored. *)
val configure : string -> unit
