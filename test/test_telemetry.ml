(* Tests for the live-telemetry subsystem: Jsonx round-trips (the wire
   format under every sink, the ledger and the metrics snapshot), the
   Prometheus exposition encoder and its parser inverse, the run
   ledger's crash-safe append/load, the in-process HTTP listener, the
   owner-domain gating of progress heartbeats, and — end to end on the
   real binary — the guarantee that sinks, metrics and the ledger are
   flushed on every exit path (clean, located error, budget trip,
   SIGINT). *)

open Detcor_obs

let dcheck = "../bin/dcheck.exe"
let corpus = "../examples/dc"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let check_contains out needle =
  Alcotest.(check bool)
    (Fmt.str "output contains %S" needle)
    true (Util.contains out needle)

let with_temp suffix k =
  let path = Filename.temp_file "detcor_telemetry" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> k path)

(* ------------------------------------------------------------------ *)
(* Jsonx round-trips                                                   *)
(* ------------------------------------------------------------------ *)

let test_jsonx_escapes () =
  let cases =
    [
      "plain";
      "q\"uote";
      "back\\slash";
      "new\nline\ttab\rret";
      "ctrl\x01\x1f";
      "utf8 déjà vu";
      "";
    ]
  in
  List.iter
    (fun s ->
      let doc = Jsonx.Obj [ ("k", Jsonx.Str s) ] in
      match Jsonx.of_string (Jsonx.to_string doc) with
      | Error e -> Alcotest.failf "escape %S does not parse back: %s" s e
      | Ok v ->
        Alcotest.(check (option string))
          (Fmt.str "string %S survives" s)
          (Some s)
          (Option.bind (Jsonx.member "k" v) Jsonx.to_str))
    cases

let test_jsonx_nested () =
  let doc =
    Jsonx.Obj
      [
        ( "a",
          Jsonx.List
            [
              Jsonx.Int 1;
              Jsonx.Obj [ ("b", Jsonx.List [ Jsonx.Null; Jsonx.Bool true ]) ];
              Jsonx.Float 2.5;
            ] );
        ("c", Jsonx.Obj [ ("d", Jsonx.Str "x"); ("e", Jsonx.Int (-7)) ]);
      ]
  in
  match Jsonx.of_string (Jsonx.to_string doc) with
  | Error e -> Alcotest.failf "nested document does not parse back: %s" e
  | Ok v ->
    Alcotest.(check string) "nested round-trip is identity"
      (Jsonx.to_string doc) (Jsonx.to_string v)

let test_jsonx_nonfinite () =
  (* NaN and infinities are unrepresentable in JSON; the writer must
     never emit them (standard parsers reject nan/inf tokens). *)
  List.iter
    (fun f ->
      let s = Jsonx.to_string (Jsonx.Obj [ ("v", Jsonx.Float f) ]) in
      Alcotest.(check bool)
        (Fmt.str "%h prints with no nan/inf token" f)
        false
        (Util.contains s "nan" || Util.contains s "inf");
      match Jsonx.of_string s with
      | Error e -> Alcotest.failf "%h output does not parse back: %s" f e
      | Ok _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_jsonx_malformed () =
  let deep = String.make 400 '[' in
  List.iter
    (fun s ->
      match Jsonx.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed input %S parsed" s)
    [
      "";
      "{";
      "[1,]";
      "{\"k\":}";
      "{\"k\" 1}";
      "tru";
      "\"unterminated";
      "1 2";
      "{\"a\":1,}";
      "nan";
      deep;
    ]

let jsonx_gen =
  (* Exactly-representable trees only: no floats (printing may round),
     keys and strings over printable ASCII. *)
  let open QCheck.Gen in
  let str = small_string ~gen:(char_range ' ' '~') in
  fix
    (fun self depth ->
      let leaf =
        oneof
          [
            return Jsonx.Null;
            map (fun b -> Jsonx.Bool b) bool;
            map (fun i -> Jsonx.Int i) small_signed_int;
            map (fun s -> Jsonx.Str s) str;
          ]
      in
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 1,
              map (fun xs -> Jsonx.List xs) (list_size (0 -- 4) (self (depth - 1)))
            );
            ( 1,
              map
                (fun kvs -> Jsonx.Obj kvs)
                (list_size (0 -- 4) (pair str (self (depth - 1)))) );
          ])
    3

let test_jsonx_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random trees round-trip" ~count:500
       (QCheck.make jsonx_gen ~print:Jsonx.to_string)
       (fun doc ->
         match Jsonx.of_string (Jsonx.to_string doc) with
         | Error _ -> false
         | Ok v -> Jsonx.to_string v = Jsonx.to_string doc))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let test_exposition_lines_parse () =
  (* Populate one instrument of each kind (dots in names exercise the
     mangling) and require every rendered line to be a comment or a
     well-formed sample. *)
  Metrics.incr ~by:41 (Metrics.counter "test.expose.counter");
  Metrics.set_gauge (Metrics.gauge "test.expose.gauge") (-3);
  Metrics.set_callback "test.expose.callback" (fun () -> 2.5);
  let h = Metrics.histogram ~buckets:[| 10; 100 |] "test.expose.hist" in
  List.iter (Metrics.observe h) [ 5; 50; 500 ];
  let body = Expose.render () in
  let samples = ref 0 in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        match Expose.parse_line line with
        | Error e -> Alcotest.failf "line %S does not parse: %s" line e
        | Ok None -> ()
        | Ok (Some _) -> incr samples)
    (String.split_on_char '\n' body);
  Alcotest.(check bool) "some samples rendered" true (!samples > 0);
  check_contains body "test_expose_counter_total 41";
  check_contains body "test_expose_gauge -3";
  check_contains body "test_expose_callback 2.5";
  check_contains body "test_expose_hist_bucket{le=\"10\"} 1";
  check_contains body "test_expose_hist_bucket{le=\"+Inf\"} 3";
  check_contains body "test_expose_hist_count 3"

let test_exposition_qcheck =
  (* Whatever the registry name, the rendered sample line must parse
     back with the mangled name and exact value. *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"mangled names render parseable lines" ~count:300
       QCheck.(string_of_size (Gen.int_range 1 30))
       (fun name ->
         QCheck.assume (name <> "");
         let metric = Expose.metric_name name in
         let ok_head c =
           (c >= 'a' && c <= 'z')
           || (c >= 'A' && c <= 'Z')
           || c = '_' || c = ':'
         in
         let ok_tail c = ok_head c || (c >= '0' && c <= '9') in
         metric <> ""
         && ok_head metric.[0]
         && String.for_all ok_tail metric
         &&
         let line = Fmt.str "%s 42" metric in
         match Expose.parse_line line with
         | Ok (Some s) -> s.Expose.metric = metric && s.Expose.value = 42.0
         | _ -> false))

let test_exposition_label_escaping () =
  match
    Expose.parse_line
      "m{path=\"a\\\\b\",msg=\"q\\\"uote\\nline\"} 1.5"
  with
  | Ok (Some s) ->
    Alcotest.(check string) "metric" "m" s.Expose.metric;
    Alcotest.(check (list (pair string string)))
      "escaped labels decode"
      [ ("path", "a\\b"); ("msg", "q\"uote\nline") ]
      s.Expose.labels;
    Alcotest.(check (float 0.0)) "value" 1.5 s.Expose.value
  | Ok None -> Alcotest.fail "sample line read as comment"
  | Error e -> Alcotest.failf "escaped labels do not parse: %s" e

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)
(* ------------------------------------------------------------------ *)

let sample_entry =
  {
    Ledger.timestamp = 1700000000.25;
    session = "deadbeef01234567";
    subcommand = "verify";
    file = "ring5.dc";
    verdict = "holds";
    exit_code = 0;
    duration_s = 1.5;
    peak_rss_bytes = 1 lsl 20;
    states = 4375;
    budget_trip = None;
    telemetry_port = None;
  }

let test_ledger_roundtrip () =
  let e2 =
    {
      sample_entry with
      Ledger.verdict = "exhausted";
      exit_code = 3;
      budget_trip = Some "time";
    }
  in
  List.iter
    (fun e ->
      match Ledger.of_json (Ledger.to_json e) with
      | None -> Alcotest.fail "entry does not decode"
      | Some e' ->
        Alcotest.(check string) "json round-trip is identity"
          (Jsonx.to_string (Ledger.to_json e))
          (Jsonx.to_string (Ledger.to_json e')))
    [ sample_entry; e2 ]

let test_ledger_append_load () =
  with_temp ".jsonl" @@ fun path ->
  Ledger.append ~path sample_entry;
  Ledger.append ~path { sample_entry with Ledger.subcommand = "monitor" };
  (* A torn or foreign line must be skipped, not fatal. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"torn\":tru\n";
  close_out oc;
  Ledger.append ~path { sample_entry with Ledger.exit_code = 1 };
  let entries, malformed = Ledger.load ~path in
  Alcotest.(check int) "well-formed entries survive" 3 (List.length entries);
  Alcotest.(check int) "malformed lines counted" 1 malformed;
  Alcotest.(check (list string))
    "file order preserved" [ "verify"; "monitor"; "verify" ]
    (List.map (fun e -> e.Ledger.subcommand) entries)

(* ------------------------------------------------------------------ *)
(* HTTP listener                                                       *)
(* ------------------------------------------------------------------ *)

let http_get port path =
  let sock = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Fmt.str "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
          path
      in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read sock chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

let test_telemetry_scrape () =
  Metrics.incr ~by:7 (Metrics.counter "test.scrape.counter");
  match Telemetry.start "127.0.0.1:0" with
  | Error e -> Alcotest.failf "listener failed to start: %s" e
  | Ok t ->
    Fun.protect ~finally:(fun () -> Telemetry.stop t) @@ fun () ->
    let port = Telemetry.port t in
    Alcotest.(check bool) "kernel assigned a real port" true (port > 0);
    let resp = http_get port "/metrics" in
    check_contains resp "200 OK";
    check_contains resp "test_scrape_counter_total";
    (* Every body line must parse; scrape twice to cover the serial
       accept loop. *)
    (match
       let marker = "\r\n\r\n" in
       let rec find i =
         if i + 4 > String.length resp then None
         else if String.sub resp i 4 = marker then Some (i + 4)
         else find (i + 1)
       in
       find 0
     with
    | None -> Alcotest.fail "no header/body separator in response"
    | Some body_at ->
      String.split_on_char '\n'
        (String.sub resp body_at (String.length resp - body_at))
      |> List.iter (fun line ->
             if String.trim line <> "" then
               match Expose.parse_line line with
               | Error e -> Alcotest.failf "scrape line %S: %s" line e
               | Ok _ -> ()));
    let resp2 = http_get port "/nope" in
    check_contains resp2 "404"

(* ------------------------------------------------------------------ *)
(* Progress heartbeat gating                                           *)
(* ------------------------------------------------------------------ *)

let test_progress_owner_gating () =
  Progress.start ();
  Fun.protect ~finally:Progress.stop @@ fun () ->
  (* Owner-domain phases publish their final readings on leave. *)
  Progress.with_phase "test.owner"
    (fun () -> [ ("test.progress.items", 7) ])
    (fun () -> ());
  Alcotest.(check int) "owner phase published" 7
    (Metrics.gauge_value (Metrics.gauge "test.progress.items"));
  (* Worker-domain phases and pulses are inert. *)
  let d =
    Stdlib.Domain.spawn (fun () ->
        Progress.with_phase "test.worker"
          (fun () -> [ ("test.progress.items", 99) ])
          (fun () -> Progress.pulse ()))
  in
  Stdlib.Domain.join d;
  Alcotest.(check int) "worker phase gated out" 7
    (Metrics.gauge_value (Metrics.gauge "test.progress.items"))

let test_progress_disarmed () =
  (* Disarmed phases are inert tokens: nothing publishes. *)
  Metrics.set_gauge (Metrics.gauge "test.progress.items") 0;
  Alcotest.(check bool) "disarmed by default" false (Progress.armed ());
  Progress.with_phase "test.disarmed"
    (fun () -> [ ("test.progress.items", 123) ])
    (fun () -> Progress.pulse ());
  Alcotest.(check int) "no publication while disarmed" 0
    (Metrics.gauge_value (Metrics.gauge "test.progress.items"))

(* ------------------------------------------------------------------ *)
(* Exit-path flushing, end to end on the real binary                   *)
(* ------------------------------------------------------------------ *)

let run_dcheck ?(signal_after = -1.0) args ~out =
  let fd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process dcheck
      (Array.of_list (dcheck :: args))
      Unix.stdin fd fd
  in
  Unix.close fd;
  if signal_after >= 0.0 then begin
    Unix.sleepf signal_after;
    Unix.kill pid Sys.sigint
  end;
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED sg -> Alcotest.fail (Fmt.str "killed by signal %d" sg)
  | Unix.WSTOPPED sg -> Alcotest.fail (Fmt.str "stopped by signal %d" sg)

let check_metrics_parse path =
  match Jsonx.of_string (read_file path) with
  | Error e -> Alcotest.failf "--metrics snapshot unparseable: %s" e
  | Ok _ -> ()

let check_ledger path ~sub ~verdict ~exit_code =
  let entries, malformed = Ledger.load ~path in
  Alcotest.(check int) "no malformed ledger lines" 0 malformed;
  match entries with
  | [ e ] ->
    Alcotest.(check string) "ledger subcommand" sub e.Ledger.subcommand;
    Alcotest.(check string) "ledger verdict" verdict e.Ledger.verdict;
    Alcotest.(check int) "ledger exit code" exit_code e.Ledger.exit_code;
    Alcotest.(check bool) "ledger duration sane" true (e.Ledger.duration_s >= 0.)
  | es -> Alcotest.failf "expected 1 ledger entry, found %d" (List.length es)

let test_flush_located_error () =
  with_temp ".dc" @@ fun bad ->
  Out_channel.with_open_text bad (fun oc ->
      output_string oc "program broken !!! syntax\n");
  with_temp ".json" @@ fun metrics ->
  with_temp ".jsonl" @@ fun ledger ->
  with_temp ".out" @@ fun out ->
  let code =
    run_dcheck
      [ "verify"; bad; "--metrics"; metrics; "--ledger"; ledger ]
      ~out
  in
  Alcotest.(check int) "located error exits 2" 2 code;
  check_metrics_parse metrics;
  check_ledger ledger ~sub:"verify" ~verdict:"error" ~exit_code:2

let test_flush_budget_trip () =
  let dc = Filename.concat corpus "token_ring.dc" in
  with_temp ".stream" @@ fun stream ->
  with_temp ".out" @@ fun out ->
  let code =
    run_dcheck
      [ "simulate"; dc; "--runs"; "20"; "--steps"; "60"; "--fault-prob";
        "0.3"; "--record"; stream ]
      ~out
  in
  Alcotest.(check int) "simulate exits 0" 0 code;
  with_temp ".json" @@ fun metrics ->
  with_temp ".jsonl" @@ fun ledger ->
  let code =
    run_dcheck
      [ "monitor"; dc; "--stream"; stream; "--timeout"; "0"; "--metrics";
        metrics; "--ledger"; ledger ]
      ~out
  in
  Alcotest.(check int) "budget trip exits 3" 3 code;
  check_metrics_parse metrics;
  check_ledger ledger ~sub:"monitor" ~verdict:"exhausted" ~exit_code:3;
  let entries, _ = Ledger.load ~path:ledger in
  Alcotest.(check (option string))
    "exhausted dimension recorded" (Some "time")
    (List.hd entries).Ledger.budget_trip

let test_flush_sigint () =
  (* A simulate run sized to outlive the signal by a wide margin; the
     SIGINT handler must still flush metrics and append the ledger row
     on the way out (exit 130). *)
  let dc = Filename.concat corpus "ring5.dc" in
  with_temp ".json" @@ fun metrics ->
  with_temp ".jsonl" @@ fun ledger ->
  with_temp ".out" @@ fun out ->
  let code =
    run_dcheck ~signal_after:0.4
      [ "simulate"; dc; "--runs"; "10000000"; "--steps"; "100";
        "--fault-prob"; "0.3"; "--metrics"; metrics; "--ledger"; ledger ]
      ~out
  in
  Alcotest.(check int) "SIGINT exits 130" 130 code;
  check_metrics_parse metrics;
  check_ledger ledger ~sub:"simulate" ~verdict:"interrupted" ~exit_code:130

let test_telemetry_cli_clean () =
  with_temp ".jsonl" @@ fun ledger ->
  with_temp ".out" @@ fun out ->
  let code =
    run_dcheck
      [ "verify"; Filename.concat corpus "memory.dc"; "--telemetry";
        "127.0.0.1:0"; "--ledger"; ledger ]
      ~out
  in
  Alcotest.(check int) "verify with telemetry exits 0" 0 code;
  check_contains (read_file out) "telemetry on http://127.0.0.1:";
  check_ledger ledger ~sub:"verify" ~verdict:"holds" ~exit_code:0

(* The ledger's [states] field must not depend on any other flag: a
   --ledger-only verify records the states it explored, and the figure
   equals the engine counter a --metrics snapshot of the same command
   reports. *)
let test_ledger_states () =
  let dc = Filename.concat corpus "ring5.dc" in
  let ledger_states args =
    with_temp ".jsonl" @@ fun ledger ->
    with_temp ".out" @@ fun out ->
    let code = run_dcheck ([ "verify"; dc; "--ledger"; ledger ] @ args) ~out in
    Alcotest.(check bool) "verify reaches a verdict" true (code = 0 || code = 1);
    match Ledger.load ~path:ledger with
    | [ e ], 0 -> e.Ledger.states
    | es, _ -> Alcotest.failf "expected 1 ledger entry, found %d" (List.length es)
  in
  let alone = ledger_states [] in
  Alcotest.(check bool) "--ledger alone records states > 0" true (alone > 0);
  with_temp ".json" @@ fun metrics ->
  let with_metrics = ledger_states [ "--metrics"; metrics ] in
  let visited =
    match Jsonx.of_string (read_file metrics) with
    | Error e -> Alcotest.failf "--metrics snapshot unparseable: %s" e
    | Ok j ->
      Option.bind (Jsonx.member "counters" j) (Jsonx.member "engine.states_visited")
      |> Fun.flip Option.bind Jsonx.to_int
      |> Option.value ~default:(-1)
  in
  Alcotest.(check int) "ledger states = engine.states_visited" visited alone;
  Alcotest.(check int) "same figure with --metrics armed" visited with_metrics

let test_report_cli () =
  with_temp ".jsonl" @@ fun ledger ->
  with_temp ".out" @@ fun out ->
  let dc = Filename.concat corpus "memory.dc" in
  Alcotest.(check int) "first run exits 0" 0
    (run_dcheck [ "verify"; dc; "--ledger"; ledger ] ~out);
  Alcotest.(check int) "second run exits 0" 0
    (run_dcheck [ "components"; dc; "--ledger"; ledger ] ~out);
  let code = run_dcheck [ "report"; ledger ] ~out in
  Alcotest.(check int) "report exits 0" 0 code;
  let output = read_file out in
  check_contains output "2 runs";
  check_contains output "verify";
  check_contains output "components";
  check_contains output "memory.dc"

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "jsonx escapes round-trip" `Quick test_jsonx_escapes;
      Alcotest.test_case "jsonx nested round-trip" `Quick test_jsonx_nested;
      Alcotest.test_case "jsonx non-finite floats" `Quick test_jsonx_nonfinite;
      Alcotest.test_case "jsonx malformed inputs rejected" `Quick
        test_jsonx_malformed;
      test_jsonx_qcheck;
      Alcotest.test_case "exposition lines parse back" `Quick
        test_exposition_lines_parse;
      test_exposition_qcheck;
      Alcotest.test_case "exposition label escaping" `Quick
        test_exposition_label_escaping;
      Alcotest.test_case "ledger json round-trip" `Quick test_ledger_roundtrip;
      Alcotest.test_case "ledger append/load tolerates torn lines" `Quick
        test_ledger_append_load;
      Alcotest.test_case "http listener serves the registry" `Quick
        test_telemetry_scrape;
      Alcotest.test_case "heartbeats are owner-gated" `Quick
        test_progress_owner_gating;
      Alcotest.test_case "heartbeats disarmed are inert" `Quick
        test_progress_disarmed;
      Alcotest.test_case "flush on located error (exit 2)" `Quick
        test_flush_located_error;
      Alcotest.test_case "flush on budget trip (exit 3)" `Quick
        test_flush_budget_trip;
      Alcotest.test_case "flush on SIGINT (exit 130)" `Quick test_flush_sigint;
      Alcotest.test_case "verify --telemetry end to end" `Quick
        test_telemetry_cli_clean;
      Alcotest.test_case "dcheck report summarizes the ledger" `Quick
        test_report_cli;
      Alcotest.test_case "ledger states without other flags" `Quick
        test_ledger_states;
    ] )
