(** Attributes (typed key/value pairs) and severity levels carried by
    spans and events. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

type t = string * value

val int : string -> int -> t
val float : string -> float -> t
val bool : string -> bool -> t
val str : string -> string -> t

val to_json : t list -> Jsonx.t
val pp : Format.formatter -> t -> unit
val pp_list : Format.formatter -> t list -> unit

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
val level_of_string : string -> level option

(** [level_geq a b]: is [a] at least as severe as [b]? *)
val level_geq : level -> level -> bool
