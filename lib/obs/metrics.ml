(* Process-wide metrics: counters, gauges and histograms.

   The registry is global (one process, one toolkit run) and get-or-create
   by name, so instrumented modules can declare their instruments at
   initialization without threading handles around.  All cells are
   [Atomic], so any domain may increment them.  [reset]
   zeroes the cells in place, keeping every handle valid — tests rely on
   this for isolation. *)

type counter = { c_name : string; cell : int Atomic.t }

type gauge = { g_name : string; g_cell : int Atomic.t }

type histogram = {
  h_name : string;
  bounds : int array; (* inclusive upper bounds, ascending; last = overflow *)
  counts : int Atomic.t array; (* length = length bounds + 1 *)
  sum : int Atomic.t;
  total : int Atomic.t;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Callback of (unit -> float)
      (* sampled at snapshot/exposition time: GC statistics, RSS, ETA —
         values owned by the process, not accumulated by instrumented
         code.  Unaffected by [reset]. *)

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let intern name make select =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some existing -> (
        match select existing with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered with another type"
               name))
      | None ->
        let v, inst = make () in
        Hashtbl.replace registry name inst;
        v)

let counter name =
  intern name
    (fun () ->
      let c = { c_name = name; cell = Atomic.make 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.cell by)

let counter_value c = Atomic.get c.cell

let gauge name =
  intern name
    (fun () ->
      let g = { g_name = name; g_cell = Atomic.make 0 } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g.g_cell v

let gauge_value g = Atomic.get g.g_cell

(* Default buckets: 1-2-5 decades, wide enough for ns timings and for
   state counts alike. *)
let default_buckets =
  [|
    1; 2; 5; 10; 20; 50; 100; 200; 500; 1_000; 2_000; 5_000; 10_000; 20_000;
    50_000; 100_000; 200_000; 500_000; 1_000_000; 2_000_000; 5_000_000;
    10_000_000; 100_000_000; 1_000_000_000;
  |]

let histogram ?(buckets = default_buckets) name =
  intern name
    (fun () ->
      let h =
        {
          h_name = name;
          bounds = Array.copy buckets;
          counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
          sum = Atomic.make 0;
          total = Atomic.make 0;
        }
      in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

(* Callback gauges are replace-on-register (re-registering the same name
   swaps the sampler — module initialization order must not matter), but
   colliding with an accumulating instrument is still a programming
   error.  Samplers run under the registry mutex and must not touch the
   registry themselves; a raising sampler reads as 0. *)
let set_callback name fn =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | None | Some (Callback _) -> Hashtbl.replace registry name (Callback fn)
      | Some _ ->
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered with another type"
             name))

let sample_callback fn = try fn () with _ -> 0.0

let observe h v =
  let n = Array.length h.bounds in
  (* Binary search for the first bound >= v; linear tail is fine for the
     default 24-bucket layout but binary keeps custom layouts cheap too. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if h.bounds.(mid) >= v then search lo mid else search (mid + 1) hi
  in
  let idx = search 0 n in
  ignore (Atomic.fetch_and_add h.counts.(idx) 1);
  ignore (Atomic.fetch_and_add h.sum v);
  ignore (Atomic.fetch_and_add h.total 1)

let histogram_count h = Atomic.get h.total

let histogram_sum h = Atomic.get h.sum

let histogram_buckets h =
  Array.to_list
    (Array.mapi
       (fun i cell ->
         let le = if i < Array.length h.bounds then Some h.bounds.(i) else None in
         (le, Atomic.get cell))
       h.counts)

(* ------------------------------------------------------------------ *)
(* Snapshot and reset                                                  *)
(* ------------------------------------------------------------------ *)

let snapshot () =
  with_registry (fun () ->
      let counters = ref [] and gauges = ref [] and histograms = ref [] in
      Hashtbl.iter
        (fun name inst ->
          match inst with
          | Counter c -> counters := (name, Jsonx.Int (Atomic.get c.cell)) :: !counters
          | Gauge g -> gauges := (name, Jsonx.Int (Atomic.get g.g_cell)) :: !gauges
          | Callback fn ->
            gauges := (name, Jsonx.Float (sample_callback fn)) :: !gauges
          | Histogram h ->
            let buckets =
              List.filter_map
                (fun (le, count) ->
                  if count = 0 then None
                  else
                    Some
                      (Jsonx.Obj
                         [
                           ( "le",
                             match le with
                             | Some b -> Jsonx.Int b
                             | None -> Jsonx.Str "+inf" );
                           ("count", Jsonx.Int count);
                         ]))
                (histogram_buckets h)
            in
            histograms :=
              ( name,
                Jsonx.Obj
                  [
                    ("count", Jsonx.Int (Atomic.get h.total));
                    ("sum", Jsonx.Int (Atomic.get h.sum));
                    ("buckets", Jsonx.List buckets);
                  ] )
              :: !histograms)
        registry;
      let sorted l = List.sort (fun (a, _) (b, _) -> String.compare a b) !l in
      Jsonx.Obj
        [
          ("counters", Jsonx.Obj (sorted counters));
          ("gauges", Jsonx.Obj (sorted gauges));
          ("histograms", Jsonx.Obj (sorted histograms));
        ])

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ inst ->
          match inst with
          | Counter c -> Atomic.set c.cell 0
          | Gauge g -> Atomic.set g.g_cell 0
          | Callback _ -> ()
          | Histogram h ->
            Array.iter (fun cell -> Atomic.set cell 0) h.counts;
            Atomic.set h.sum 0;
            Atomic.set h.total 0)
        registry)

(* ------------------------------------------------------------------ *)
(* Readings: one consistent pass over the registry for the exposition   *)
(* encoder (Expose) and anything else that renders all instruments.     *)
(* ------------------------------------------------------------------ *)

type reading =
  | Counter_reading of string * int
  | Gauge_reading of string * int
  | Float_reading of string * float
  | Histogram_reading of {
      r_name : string;
      buckets : (int option * int) list;
      r_sum : int;
      r_count : int;
    }

let reading_name = function
  | Counter_reading (n, _) | Gauge_reading (n, _) | Float_reading (n, _) -> n
  | Histogram_reading { r_name; _ } -> r_name

let readings () =
  with_registry (fun () ->
      let acc = ref [] in
      Hashtbl.iter
        (fun name inst ->
          let r =
            match inst with
            | Counter c -> Counter_reading (name, Atomic.get c.cell)
            | Gauge g -> Gauge_reading (name, Atomic.get g.g_cell)
            | Callback fn -> Float_reading (name, sample_callback fn)
            | Histogram h ->
              Histogram_reading
                {
                  r_name = name;
                  buckets = histogram_buckets h;
                  r_sum = Atomic.get h.sum;
                  r_count = Atomic.get h.total;
                }
          in
          acc := r :: !acc)
        registry;
      List.sort
        (fun a b -> String.compare (reading_name a) (reading_name b))
        !acc)

(* Value of a counter by name; 0 when absent.  For tests and reports. *)
let counter_value_by_name name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> Atomic.get c.cell
      | _ -> 0)
