(* Attributes and severity levels carried by spans and events. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

type t = string * value

let int k v : t = (k, Int v)
let float k v : t = (k, Float v)
let bool k v : t = (k, Bool v)
let str k v : t = (k, Str v)

let value_to_json = function
  | Int i -> Jsonx.Int i
  | Float f -> Jsonx.Float f
  | Bool b -> Jsonx.Bool b
  | Str s -> Jsonx.Str s

let to_json attrs =
  Jsonx.Obj (List.map (fun (k, v) -> (k, value_to_json v)) attrs)

let pp_value ppf = function
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.pf ppf "%g" f
  | Bool b -> Fmt.bool ppf b
  | Str s -> Fmt.string ppf s

let pp ppf (k, v) = Fmt.pf ppf "%s=%a" k pp_value v

let pp_list ppf attrs = Fmt.(list ~sep:sp pp) ppf attrs

(* ------------------------------------------------------------------ *)
(* Severity levels (for events and the stderr log sink).               *)
(* ------------------------------------------------------------------ *)

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let level_int = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

(* [level_geq a b]: is [a] at least as severe as [b]? *)
let level_geq a b = level_int a >= level_int b
