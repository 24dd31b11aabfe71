(* Per-layer accounting of a traced pass.

   Each job of the pass leaves its span records (from an in-memory sink)
   and its wall time.  Spans nest by Begin/End order on the one domain
   the benchmark uses; a span's self time is its duration minus the
   durations of its direct children.  Harness spans are named
   "<layer>:<Module.function>"; the program's own spans are mapped to
   layers by the module that emits them. *)

module Sink = Detcor_obs.Sink
module Attr = Detcor_obs.Attr
module Jsonx = Detcor_obs.Jsonx

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  name : string;
  start_ns : int;
  dur_ns : int;
  self_ns : int;
  attrs : Attr.t list;
}

type job = { key : string; wall_ns : int; spans : span list }

let layers =
  [ "dcheck"; "lang"; "kernel"; "spec"; "semantics"; "core"; "synthesis"; "sim" ]

let layer name =
  match String.index_opt name ':' with
  | Some i -> String.sub name 0 i
  | None -> (
    match List.hd (String.split_on_char '.' name) with
    | "ts" | "check" | "fairness" -> "semantics"
    | "tolerance" | "refinement" -> "core"
    | "synth" -> "synthesis"
    | p -> p)

(* Spans of one job's records, in end order. *)
let spans_of_records records =
  let next = ref 0 in
  (* open spans: id, name, start, summed child durations *)
  let stack = ref [] in
  List.fold_left
    (fun acc (r : Sink.record) ->
      match r with
      | Begin { name; ts; _ } ->
        stack := (!next, name, ts, ref 0) :: !stack;
        incr next;
        acc
      | End { dur; attrs; _ } -> (
        match !stack with
        | (id, name, start, children) :: rest ->
          stack := rest;
          let dur = Int64.to_int dur in
          let parent =
            match rest with
            | (pid, _, _, pchildren) :: _ ->
              pchildren := !pchildren + dur;
              pid
            | [] -> -1
          in
          {
            id;
            parent;
            name;
            start_ns = Int64.to_int start;
            dur_ns = dur;
            self_ns = dur - !children;
            attrs;
          }
          :: acc
        | [] -> acc)
      | Instant _ | Anchor _ -> acc)
    [] records
  |> List.rev

let int_attr k (s : span) =
  match List.assoc_opt k s.attrs with Some (Attr.Int n) -> n | _ -> 0

let str_attr k (s : span) =
  match List.assoc_opt k s.attrs with Some (Attr.Str v) -> v | _ -> ""

let all_spans pass = List.concat_map (fun j -> j.spans) pass
let ms ns = float_of_int ns /. 1e6
let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* [metrics pass ~counter ~major_gcs]: the per-layer metrics of one
   traced pass, as (name, value, unit, base).  [counter name] is the
   delta of a program counter over the pass; [major_gcs] the major
   collections inside its jobs. *)
let metrics pass ~counter ~major_gcs =
  let spans = all_spans pass in
  let wall = sum (fun j -> j.wall_ns) pass in
  let jobs = List.length pass in
  let named p = List.filter (fun s -> p s.name) spans in
  let is n s = s = n in
  let incl p = ms (sum (fun s -> s.dur_ns) (named p)) in
  let self p = ms (sum (fun s -> s.self_ns) (named p)) in
  let prefix pre name = String.starts_with ~prefix:pre name in
  let builds op =
    List.filter (fun s -> s.name = "ts.build" && op (str_attr "op" s)) spans
  in
  let per_state l =
    ratio (sum (int_attr "alloc_words") l) (sum (int_attr "states") l)
  in
  let reach = builds (fun op -> op <> "full") and full = builds (( = ) "full") in
  let loads = named (is "lang:Elaborate.load_file") in
  let layer_self l = sum (fun s -> if layer s.name = l then s.self_ns else 0) spans in
  let covered = sum (fun s -> if s.parent < 0 then s.dur_ns else 0) spans in
  let pct x = if wall = 0 then 0.0 else 100.0 *. float_of_int x /. float_of_int wall in
  let sample_ms = incl (is "sim:Runner.sample") in
  let f = float_of_int in
  [
    ("trace.pass_ms", ms wall, "ms", Fmt.str "traced in-process pass, %d jobs" jobs);
    ( "trace.unattributed_pct", pct (wall - covered), "%",
      "pass wall outside every top-level span" );
  ]
  @ List.map
      (fun l -> (l ^ ".self_pct", pct (layer_self l), "%", "self time / pass wall"))
      layers
  @ [
      ("lang.load_ms", incl (is "lang:Elaborate.load_file"), "ms",
        Fmt.str "per pass, %d loads" (List.length loads));
      ( "lang.load_alloc_kw",
        ratio (sum (int_attr "minor_words") loads) (1000 * max 1 (List.length loads)),
        "kwords", "per load" );
      ("ts.build_ms", ms (sum (fun s -> s.dur_ns) reach), "ms",
        Fmt.str "per pass, %d reachable builds" (List.length reach));
      ("ts.builds", f (counter "engine.builds"), "count", "per pass");
      ("ts.states_visited", f (counter "engine.states_visited"), "count", "per pass");
      ("ts.edges", f (counter "engine.edges"), "count", "per pass");
      ( "ts.states_per_s",
        ratio (sum (int_attr "states") reach) (max 1 (sum (fun s -> s.dur_ns) reach)) *. 1e9,
        "1/s", "reachable builds" );
      ("ts.alloc_words_per_state", per_state reach, "words/state", "reachable builds");
      ( "ts.pred_cache_hit_ratio",
        ratio (counter "engine.pred_cache.hits")
          (counter "engine.pred_cache.hits" + counter "engine.pred_cache.misses"),
        "ratio", "predicate lookups" );
      ( "ts.enabled_cache_hit_ratio",
        ratio (counter "engine.enabled_cache.hits")
          (counter "engine.enabled_cache.hits" + counter "engine.enabled_cache.misses"),
        "ratio", "enabled-set lookups" );
      ("ts.full_ms", ms (sum (fun s -> s.dur_ns) full), "ms",
        Fmt.str "per pass, %d full-product builds" (List.length full));
      ("ts.full_alloc_words_per_state", per_state full, "words/state", "full-product builds");
      ("check.safety_ms", incl (is "check.safety"), "ms", "per pass");
      ("check.closed_ms", incl (is "check.closed"), "ms", "per pass");
      ("check.leads_to_ms", incl (is "check.leads_to"), "ms", "per pass");
      ("fairness.fair_sccs_ms", incl (is "fairness.fair_sccs"), "ms", "per pass");
      ("tolerance.check_ms", incl (is "tolerance.check"), "ms", "per pass, inclusive");
      ("tolerance.check_self_ms", self (is "tolerance.check"), "ms", "per pass, self");
      ("tolerance.fault_span_ms", incl (is "tolerance.fault_span"), "ms", "per pass");
      ("synth.add_ms", incl (prefix "synthesis:"), "ms", "per pass, inclusive");
      ("synth.self_ms", ms (layer_self "synthesis"), "ms", "per pass, synthesis self");
      ("synth.compute_ms_ms", incl (is "synth.compute_ms"), "ms", "per pass");
      ("synth.needs_recovery_ms", incl (is "synth.needs_recovery"), "ms", "per pass");
      ("synth.recovery_ms", incl (is "synth.recovery"), "ms", "per pass");
      ( "synth.repair_iterations",
        f (sum (int_attr "repair_iterations") (named (prefix "synthesis:"))),
        "count", "per pass" );
      ("kernel.init_enum_ms", incl (is "kernel:Program.states"), "ms", "per pass");
      ( "kernel.init_enum_states",
        f (sum (int_attr "states") (named (is "kernel:Program.states"))),
        "count", "per pass" );
      ("sim.sample_ms", sample_ms, "ms", "per pass");
      ( "sim.steps_per_s",
        (if sample_ms = 0.0 then 0.0 else f (counter "sim.steps") /. sample_ms *. 1e3),
        "1/s", "simulated steps" );
      ("sim.record_ms", incl (is "sim:Stream.write_run"), "ms", "per pass");
      ( "sim.record_bytes",
        f (sum (int_attr "bytes") (named (is "sim:Stream.write_run"))),
        "bytes", "per pass" );
      ( "sim.replay_ms",
        self (is "sim:Stream.fold") +. incl (is "sim:Stream.to_run"),
        "ms", "per pass, stream parsing" );
      ( "sim.monitor_ms",
        self (fun n -> prefix "sim:Syndrome." n || prefix "sim:Monitor." n),
        "ms", "per pass, syndrome and safety scans" );
      ( "sim.syndrome_hit_ratio",
        ratio (counter "sim.syndrome.hits")
          (counter "sim.syndrome.hits" + counter "sim.syndrome.misses"),
        "ratio", "memoized syndrome lookups" );
      ("gc.major_collections_per_job", ratio major_gcs jobs, "count", "per job");
    ]

let to_jsonl path pass =
  Out_channel.with_open_text path @@ fun oc ->
  List.iteri
    (fun k j ->
      List.iter
        (fun s ->
          Out_channel.output_string oc
            (Jsonx.to_string
               (Jsonx.Obj
                  [
                    ("job", Jsonx.Int k);
                    ("key", Jsonx.Str j.key);
                    ("id", Jsonx.Int s.id);
                    ("parent", Jsonx.Int s.parent);
                    ("name", Jsonx.Str s.name);
                    ("layer", Jsonx.Str (layer s.name));
                    ("start_ns", Jsonx.Int s.start_ns);
                    ("dur_ns", Jsonx.Int s.dur_ns);
                    ("self_ns", Jsonx.Int s.self_ns);
                    ("attrs", Attr.to_json s.attrs);
                  ]));
          Out_channel.output_char oc '\n')
        j.spans)
    pass
