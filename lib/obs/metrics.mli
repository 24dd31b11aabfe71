(** Process-wide metrics registry: atomic counters, gauges and histograms,
    get-or-create by name, snapshot-able as JSON.  All cells are [Atomic]
    (any domain may increment them); [reset] zeroes the
    cells in place so existing handles stay valid. *)

type counter
type gauge
type histogram

(** Get or create.  @raise Invalid_argument if [name] is already registered
    as a different instrument type. *)
val counter : string -> counter

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set_gauge : gauge -> int -> unit

val gauge_value : gauge -> int

(** Register (or replace) a sampled gauge: [fn] runs at snapshot and
    exposition time, under the registry lock — it must not touch the
    registry itself.  A raising sampler reads as 0.  Unaffected by
    {!reset}.  @raise Invalid_argument if [name] is an accumulating
    instrument. *)
val set_callback : string -> (unit -> float) -> unit

(** [histogram ?buckets name]: bucket bounds are inclusive upper bounds in
    ascending order; an overflow bucket is added.  Default: 1-2-5 decades
    from 1 to 1e9. *)
val histogram : ?buckets:int array -> string -> histogram

val observe : histogram -> int -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> int

(** Per-bucket (upper bound, count); [None] bound = overflow bucket. *)
val histogram_buckets : histogram -> (int option * int) list

(** JSON snapshot: {counters, gauges, histograms} with names sorted. *)
val snapshot : unit -> Jsonx.t

(** Zero every instrument in place. *)
val reset : unit -> unit

(** Counter value by name; 0 when the counter does not exist. *)
val counter_value_by_name : string -> int

(** One consistent pass over every registered instrument, sorted by
    name — the input to the Prometheus exposition encoder. *)
type reading =
  | Counter_reading of string * int
  | Gauge_reading of string * int
  | Float_reading of string * float  (** callback gauges *)
  | Histogram_reading of {
      r_name : string;
      buckets : (int option * int) list;  (** [None] bound = overflow *)
      r_sum : int;
      r_count : int;
    }

val readings : unit -> reading list
