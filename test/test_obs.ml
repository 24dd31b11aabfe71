(* Tests for the observability layer (Detcor_obs): span nesting and
   ordering, histogram bucketing, sink well-formedness (both file formats
   parse back), counter atomicity under the parallel engine, the
   Auto-engine fallback diagnosis, and the regression that turning
   observability on does not change any checker verdict. *)

open Detcor_kernel
open Detcor_obs
module Ts = Detcor_semantics.Ts

(* Run [f] under a fresh recording context over [sinks]; restores the
   previous (normally disabled) context after. *)
let recording sinks f = Obs.with_ctx (Obs.make ~sinks ()) f

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let sink, records = Sink.memory () in
  let result =
    recording [ sink ] (fun () ->
        Obs.span "outer" ~attrs:[ Attr.str "k" "v" ] (fun () ->
            Obs.event "mid" ~attrs:[ Attr.int "at" 1 ];
            Obs.span "inner" (fun () -> ());
            Obs.annotate [ Attr.int "extra" 7 ];
            42))
  in
  Alcotest.(check int) "span returns f's value" 42 result;
  match records () with
  | [
   Sink.Anchor anchor;
   Sink.Begin b_out;
   Sink.Instant mid;
   Sink.Begin b_in;
   Sink.End e_in;
   Sink.End e_out;
  ] ->
    Alcotest.(check bool) "anchor carries a wall clock" true
      (anchor.wall_epoch_ms > 0.);
    Alcotest.(check string) "outer begin" "outer" b_out.name;
    Alcotest.(check string) "instant inside outer" "mid" mid.name;
    Alcotest.(check string) "inner begin" "inner" b_in.name;
    Alcotest.(check string) "inner ends before outer" "inner" e_in.name;
    Alcotest.(check string) "outer ends last" "outer" e_out.name;
    Alcotest.(check bool) "timestamps are monotone" true
      (b_out.ts <= mid.ts && mid.ts <= b_in.ts && b_in.ts <= e_in.ts
     && e_in.ts <= e_out.ts);
    Alcotest.(check bool) "inner duration fits in outer" true
      (e_in.dur <= e_out.dur);
    Alcotest.(check bool) "annotate lands on the outer end" true
      (List.mem (Attr.int "extra" 7) e_out.attrs);
    Alcotest.(check bool) "begin attrs repeated on end" true
      (List.mem (Attr.str "k" "v") e_out.attrs)
  | rs -> Alcotest.failf "unexpected record sequence (%d records)" (List.length rs)

let test_span_exception () =
  let sink, records = Sink.memory () in
  (try
     recording [ sink ] (fun () ->
         Obs.span "boom" (fun () -> failwith "expected"))
   with Failure _ -> ());
  let ends =
    List.filter (function Sink.End _ -> true | _ -> false) (records ())
  in
  Alcotest.(check int) "End emitted despite the exception" 1 (List.length ends)

(* Disabled, only the once-per-build totals move (the run ledger reads
   them); every per-state and per-query counter stays put. *)
let test_disabled_is_inert () =
  let gated =
    [ "engine.states"; "engine.pred_cache.hits"; "engine.pred_cache.misses" ]
  in
  let values () = List.map Metrics.counter_value_by_name gated in
  let before = values () in
  let builds = Metrics.counter_value_by_name "engine.builds" in
  Alcotest.(check bool) "recording off by default" false (Obs.on ());
  Obs.span "not-recorded" (fun () -> Obs.event "nothing");
  let ts = Ts.full Detcor_systems.Memory.masking in
  ignore (Ts.holds_at ts Detcor_systems.Memory.s 0);
  ignore (Ts.holds_at ts Detcor_systems.Memory.s 0);
  Alcotest.(check (list int)) "no gated metrics move while disabled" before
    (values ());
  Alcotest.(check int) "the build is still counted" (builds + 1)
    (Metrics.counter_value_by_name "engine.builds")

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_histogram_bucketing () =
  let h = Metrics.histogram ~buckets:[| 10; 100; 1000 |] "test.hist" in
  List.iter (Metrics.observe h) [ 5; 10; 11; 1000; 5000 ];
  Alcotest.(check int) "count" 5 (Metrics.histogram_count h);
  Alcotest.(check int) "sum" 6026 (Metrics.histogram_sum h);
  Alcotest.(check (list (pair (option int) int)))
    "inclusive upper bounds, plus overflow"
    [ (Some 10, 2); (Some 100, 1); (Some 1000, 1); (None, 1) ]
    (Metrics.histogram_buckets h)

let test_metrics_snapshot_parses () =
  let c = Metrics.counter "test.snap_counter" in
  Metrics.incr ~by:3 c;
  let json = Jsonx.to_string (Metrics.snapshot ()) in
  match Jsonx.of_string json with
  | Error e -> Alcotest.failf "snapshot does not parse: %s" e
  | Ok v ->
    let counters = Option.get (Jsonx.member "counters" v) in
    Alcotest.(check (option int))
      "counter value survives the round-trip" (Some 3)
      (Option.bind (Jsonx.member "test.snap_counter" counters) Jsonx.to_int)

(* ------------------------------------------------------------------ *)
(* File sinks parse back                                               *)
(* ------------------------------------------------------------------ *)

let emit_sample () =
  Obs.span "phase" ~attrs:[ Attr.int "size" 3 ] (fun () ->
      Obs.event "tick" ~level:Attr.Warn
        ~attrs:[ Attr.str "why" "q\"uote\n"; Attr.float "f" 0.5 ])

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "detcor_obs" ".jsonl" in
  let sink = Sink.to_file Sink.jsonl path in
  Obs.set_current (Obs.make ~sinks:[ sink ] ());
  emit_sample ();
  Obs.close ();
  let lines =
    String.split_on_char '\n' (String.trim (read_file path))
  in
  Alcotest.(check int) "anchor + begin + event + end" 4 (List.length lines);
  List.iter
    (fun line ->
      match Jsonx.of_string line with
      | Error e -> Alcotest.failf "line does not parse: %s (%s)" e line
      | Ok v ->
        Alcotest.(check bool) "has type/name/ts_ns/tid" true
          (List.for_all
             (fun k -> Jsonx.member k v <> None)
             [ "type"; "name"; "ts_ns"; "tid" ]))
    lines;
  let first = Result.get_ok (Jsonx.of_string (List.nth lines 0)) in
  Alcotest.(check (option string))
    "header line is the wall-clock anchor" (Some "anchor")
    (Option.bind (Jsonx.member "type" first) Jsonx.to_str);
  Alcotest.(check bool) "anchor carries wall_epoch_ms" true
    (Jsonx.member "wall_epoch_ms" first <> None);
  let last = Result.get_ok (Jsonx.of_string (List.nth lines 3)) in
  Alcotest.(check bool) "end record carries a duration" true
    (Jsonx.member "dur_ns" last <> None);
  Sys.remove path

let test_chrome_roundtrip () =
  let path = Filename.temp_file "detcor_obs" ".json" in
  let sink = Sink.to_file Sink.chrome path in
  Obs.set_current (Obs.make ~sinks:[ sink ] ());
  emit_sample ();
  Obs.close ();
  (match Jsonx.of_string (read_file path) with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok (Jsonx.List events) ->
    Alcotest.(check int) "M + B + i + E" 4 (List.length events);
    List.iter
      (fun ev ->
        let ph =
          Option.bind (Jsonx.member "ph" ev) Jsonx.to_str |> Option.get
        in
        Alcotest.(check bool) "ph is M/B/E/i" true
          (List.mem ph [ "M"; "B"; "E"; "i" ]);
        Alcotest.(check bool) "has name/ts/pid/tid/args" true
          (List.for_all
             (fun k -> Jsonx.member k ev <> None)
             [ "name"; "ts"; "pid"; "tid"; "args" ]))
      events;
    let phs =
      List.map
        (fun ev -> Option.bind (Jsonx.member "ph" ev) Jsonx.to_str |> Option.get)
        events
    in
    Alcotest.(check (list string)) "anchored and balanced in order"
      [ "M"; "B"; "i"; "E" ] phs
  | Ok _ -> Alcotest.fail "chrome trace is not a JSON array");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Counter atomicity                                                   *)
(* ------------------------------------------------------------------ *)

let test_counter_atomicity_domains () =
  let c = Metrics.counter "test.atomic" in
  let per_domain = 25_000 and domains = 4 in
  let worker () =
    for _ = 1 to per_domain do
      Metrics.incr c
    done
  in
  let ds = List.init domains (fun _ -> Stdlib.Domain.spawn worker) in
  List.iter Stdlib.Domain.join ds;
  Alcotest.(check int) "no lost increments across 4 domains"
    (per_domain * domains) (Metrics.counter_value c)

let test_parallel_engine_counters () =
  let cfg = Detcor_systems.Token_ring.make_config 5 in
  let p = Detcor_systems.Token_ring.program cfg in
  let delta f =
    let name = "engine.parallel.states_expanded" in
    let before = Metrics.counter_value_by_name name in
    let r = f () in
    (r, Metrics.counter_value_by_name name - before)
  in
  recording [] (fun () ->
      let ts1, d1 = delta (fun () -> Ts.full ~workers:4 p) in
      let _, d2 = delta (fun () -> ignore (Ts.full ~workers:4 p)) in
      Alcotest.(check bool) "parallel slices expanded some states" true (d1 > 0);
      Alcotest.(check bool) "each state expanded at most once" true
        (d1 <= Ts.num_states ts1);
      Alcotest.(check int) "deterministic across identical builds" d1 d2)

(* ------------------------------------------------------------------ *)
(* Auto-engine fallback diagnosis                                      *)
(* ------------------------------------------------------------------ *)

let escaping_program =
  (* Declares n : 0..2 but steps to n=5: the packed engine's layout cannot
     represent the successor, so Auto must fall back and say why. *)
  Program.make ~name:"escaper"
    ~vars:[ ("n", Domain.range 0 2) ]
    ~actions:
      [
        Action.deterministic "jump"
          (Pred.make "n=0" (fun st -> Value.equal (State.get st "n") (Value.int 0)))
          (fun st -> State.set st "n" (Value.int 5));
      ]

let test_fallback_reason () =
  let before = Metrics.counter_value_by_name "engine.fallbacks" in
  let ts =
    recording [] (fun () ->
        Ts.build ~engine:Ts.Auto escaping_program
          ~from:[ State.of_list [ ("n", Value.int 0) ] ])
  in
  Alcotest.(check bool) "fell back to the reference engine" true
    (Ts.engine_of ts = Ts.Reference);
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (match Ts.fallback_reason ts with
  | None -> Alcotest.fail "fallback reason not recorded"
  | Some reason ->
    Alcotest.(check bool)
      (Fmt.str "reason diagnoses the domain escape (%s)" reason)
      true
      (contains reason "variable n" && contains reason "domain"));
  Alcotest.(check int) "fallback counted once"
    (before + 1)
    (Metrics.counter_value_by_name "engine.fallbacks");
  (* A packed build that needs no fallback reports no reason. *)
  let clean = Ts.full Detcor_systems.Tmr.masking in
  Alcotest.(check bool) "no reason without fallback" true
    (Ts.fallback_reason clean = None)

(* ------------------------------------------------------------------ *)
(* Observability does not change verdicts                              *)
(* ------------------------------------------------------------------ *)

let test_verdicts_identical () =
  let open Detcor_systems in
  let report tol =
    Fmt.str "%a" Detcor_core.Tolerance.pp_report
      (Detcor_core.Tolerance.check Memory.masking ~spec:Memory.spec
         ~invariant:Memory.s ~faults:Memory.page_fault ~tol)
  in
  List.iter
    (fun tol ->
      let off = report tol in
      let sink, _ = Sink.memory () in
      let on = recording [ sink ] (fun () -> report tol) in
      Alcotest.(check string) "report byte-identical with recording on" off on)
    Detcor_spec.Spec.[ Failsafe; Nonmasking; Masking ]

let suite =
  ( "obs",
    [
      Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
      Alcotest.test_case "span survives exceptions" `Quick test_span_exception;
      Alcotest.test_case "disabled context is inert" `Quick test_disabled_is_inert;
      Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
      Alcotest.test_case "metrics snapshot parses" `Quick
        test_metrics_snapshot_parses;
      Alcotest.test_case "jsonl sink round-trips" `Quick test_jsonl_roundtrip;
      Alcotest.test_case "chrome sink round-trips" `Quick test_chrome_roundtrip;
      Alcotest.test_case "counters atomic across domains" `Quick
        test_counter_atomicity_domains;
      Alcotest.test_case "parallel engine counters" `Quick
        test_parallel_engine_counters;
      Alcotest.test_case "auto fallback reason" `Quick test_fallback_reason;
      Alcotest.test_case "verdicts identical on/off" `Quick
        test_verdicts_identical;
    ] )
