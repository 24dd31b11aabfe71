(* End-to-end tests of [dcheck monitor]: spawn the real binary on
   recorded streams from the shipped example systems and pin down the
   exit-code contract (0 stream maintains safety / 1 violation observed /
   2 malformed stream or usage / 3 budget exhausted), the shape of the
   batch and summary output, and the --metrics snapshot.

   Streams come from [dcheck simulate --record] on the same corpus, so
   the tests also cover the writer/reader round trip under real fault
   schedules. *)

let dcheck = "../bin/dcheck.exe"
let corpus = "../examples/dc"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let run_dcheck args ~out =
  let fd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process dcheck
      (Array.of_list (dcheck :: args))
      Unix.stdin fd fd
  in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED sg -> Alcotest.fail (Fmt.str "killed by signal %d" sg)
  | Unix.WSTOPPED sg -> Alcotest.fail (Fmt.str "stopped by signal %d" sg)

let with_temp suffix k =
  let path = Filename.temp_file "detcor_monitor" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> k path)

let check_contains out needle =
  Alcotest.(check bool)
    (Fmt.str "output contains %S" needle)
    true (Util.contains out needle)

(* Record a stream for [file], then monitor it; returns the monitor's
   exit code and combined output. *)
let record_and_monitor ?(monitor_args = []) ?(sim_args = []) file =
  let dc = Filename.concat corpus file in
  with_temp ".stream" @@ fun stream ->
  with_temp ".out" @@ fun sim_out ->
  let code =
    run_dcheck
      ([ "simulate"; dc; "--runs"; "20"; "--steps"; "40"; "--fault-prob";
         "0.4"; "--record"; stream ]
      @ sim_args)
      ~out:sim_out
  in
  Alcotest.(check int) "simulate exits 0" 0 code;
  with_temp ".out" @@ fun mon_out ->
  let code =
    run_dcheck ([ "monitor"; dc; "--stream"; stream ] @ monitor_args) ~out:mon_out
  in
  (code, read_file mon_out)

let test_masking_clean () =
  let code, out = record_and_monitor "memory.dc" in
  Alcotest.(check int) "masking system monitors clean" 0 code;
  check_contains out "witnesses (packed)";
  check_contains out "batch 0: states=";
  check_contains out "safety violations: 0/20";
  check_contains out "fault localization:"

let test_intolerant_violates () =
  let code, out = record_and_monitor "memory_intolerant.dc" in
  Alcotest.(check int) "intolerant system monitors to 1" 1 code;
  check_contains out "safety violated at state";
  check_contains out "detection latency:  n="

(* Deterministic replay: the same stream monitors to byte-identical
   output. *)
let test_deterministic () =
  let dc = Filename.concat corpus "token_ring.dc" in
  with_temp ".stream" @@ fun stream ->
  with_temp ".out" @@ fun out ->
  let code =
    run_dcheck
      [ "simulate"; dc; "--runs"; "10"; "--steps"; "60"; "--fault-prob";
        "0.3"; "--record"; stream ]
      ~out
  in
  Alcotest.(check int) "simulate exits 0" 0 code;
  let monitor () =
    with_temp ".out" @@ fun mout ->
    let code = run_dcheck [ "monitor"; dc; "--stream"; stream ] ~out:mout in
    (code, read_file mout)
  in
  let c1, o1 = monitor () and c2, o2 = monitor () in
  Alcotest.(check int) "same exit" c1 c2;
  Alcotest.(check string) "byte-identical monitor output" o1 o2

(* A defect with records after it is corruption, not a torn tail, and
   stays fatal. *)
let test_corrupt_stream () =
  with_temp ".stream" @@ fun stream ->
  Out_channel.with_open_text stream (fun oc ->
      output_string oc
        "# detcor stream v1\nrun 0\ninit data=good present=true z1=false\n\
         wobble\nend maximal\n");
  with_temp ".out" @@ fun out ->
  let code =
    run_dcheck
      [ "monitor"; Filename.concat corpus "memory.dc"; "--stream"; stream ]
      ~out
  in
  Alcotest.(check int) "malformed stream exits 2" 2 code;
  check_contains (read_file out) "unrecognized record"

(* A recorder killed mid-write leaves a run without its 'end' line at
   EOF: the reader salvages the complete prefix (the run monitors as
   truncated) instead of failing, like Ledger.load on a torn tail. *)
let test_truncated_stream () =
  with_temp ".stream" @@ fun stream ->
  Out_channel.with_open_text stream (fun oc ->
      output_string oc
        "# detcor stream v1\nrun 0\ninit data=good present=true z1=false\n\
         step pm3\n");
  with_temp ".out" @@ fun out ->
  let code =
    run_dcheck
      [ "monitor"; Filename.concat corpus "memory.dc"; "--stream"; stream ]
      ~out
  in
  Alcotest.(check int) "torn tail tolerated" 0 code;
  let out = read_file out in
  check_contains out "torn record at end of stream";
  check_contains out "runs: 1"

(* The other torn-tail shape: the final line itself is a partial write.
   The line is dropped, the in-progress run is still salvaged. *)
let test_torn_final_line () =
  with_temp ".stream" @@ fun stream ->
  Out_channel.with_open_text stream (fun oc ->
      output_string oc
        "# detcor stream v1\nrun 0\ninit data=good present=true z1=false\n\
         step pm3\nste");
  with_temp ".out" @@ fun out ->
  let code =
    run_dcheck
      [ "monitor"; Filename.concat corpus "memory.dc"; "--stream"; stream ]
      ~out
  in
  Alcotest.(check int) "torn final line tolerated" 0 code;
  let out = read_file out in
  check_contains out "torn record at end of stream";
  check_contains out "runs: 1"

(* A stream recorded from another program: its 'init' lines bind none of
   the monitored program's variables.  The stream is at fault, so the
   error is located at the 'init' line, names the missing variables and
   the stream's program, exits 2, and prints nothing of the run. *)
let test_foreign_stream () =
  with_temp ".stream" @@ fun stream ->
  with_temp ".out" @@ fun out ->
  let code =
    run_dcheck
      [ "simulate"; Filename.concat corpus "byz4.dc"; "--runs"; "2"; "--steps";
        "8"; "--seed"; "3"; "--record"; stream ]
      ~out
  in
  Alcotest.(check int) "simulate exits 0" 0 code;
  let code =
    run_dcheck
      [ "monitor"; Filename.concat corpus "ring5.dc"; "--stream"; stream ]
      ~out
  in
  Alcotest.(check int) "foreign stream exits 2" 2 code;
  let out = read_file out in
  check_contains out (stream ^ ":4:0: 'init' binds no x0, x1, x2, x3, x4");
  check_contains out "the stream's 'program' line names byz4";
  Alcotest.(check bool) "nothing of the run printed" false (Util.contains out "run 0:")

(* [dcheck monitor] replays each golden stream to the recorded stdout and
   exit code, byte for byte.  The goldens were made by the reader that
   split lines into strings; test/golden/monitor/MANIFEST lists them and
   says how they were recorded. *)
let test_goldens () =
  let dir = "golden/monitor" in
  let cases =
    In_channel.with_open_text (Filename.concat dir "MANIFEST") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map (fun l ->
           match String.split_on_char ' ' l with
           | [ name; model; code ] -> (name, model, int_of_string code)
           | _ -> Alcotest.fail (Fmt.str "bad MANIFEST line %S" l))
  in
  Alcotest.(check bool) "every model has a golden" true (List.length cases >= 13);
  List.iter
    (fun (name, model, expected_code) ->
      with_temp ".out" @@ fun out ->
      let fd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
      let null = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
      let pid =
        Unix.create_process dcheck
          [| dcheck; "monitor"; Filename.concat corpus model; "--stream";
             Filename.concat dir (name ^ ".stream") |]
          Unix.stdin fd null
      in
      Unix.close fd;
      Unix.close null;
      let code =
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED c -> c
        | _ -> Alcotest.fail (name ^ ": dcheck died")
      in
      Alcotest.(check int) (name ^ ": exit code") expected_code code;
      Alcotest.(check string) (name ^ ": stdout")
        (read_file (Filename.concat dir (name ^ ".out")))
        (read_file out))
    cases

let test_missing_stream () =
  with_temp ".out" @@ fun out ->
  let code =
    run_dcheck
      [ "monitor"; Filename.concat corpus "memory.dc"; "--stream";
        "/nonexistent/stream.txt" ]
      ~out
  in
  Alcotest.(check int) "unreadable stream exits 2" 2 code

let test_timeout () =
  (* A long stream against a zero budget: exhaustion must surface as 3
     from inside stream processing. *)
  let dc = Filename.concat corpus "token_ring.dc" in
  with_temp ".stream" @@ fun stream ->
  with_temp ".out" @@ fun out ->
  let code =
    run_dcheck
      [ "simulate"; dc; "--runs"; "50"; "--steps"; "200"; "--fault-prob";
        "0.2"; "--record"; stream ]
      ~out
  in
  Alcotest.(check int) "simulate exits 0" 0 code;
  let code =
    run_dcheck
      [ "monitor"; dc; "--stream"; stream; "--timeout"; "0" ]
      ~out
  in
  Alcotest.(check int) "exhausted budget exits 3" 3 code

let test_metrics_snapshot () =
  (* ring5 is the smallest example past Auto's packing crossover, so the
     syndrome memo counters are live; fault-prob 0 keeps the stream clean
     (exit 0) and the record count exact. *)
  let dc = Filename.concat corpus "ring5.dc" in
  with_temp ".stream" @@ fun stream ->
  with_temp ".out" @@ fun out ->
  let code =
    run_dcheck
      [ "simulate"; dc; "--runs"; "10"; "--steps"; "30"; "--fault-prob";
        "0.0"; "--record"; stream ]
      ~out
  in
  Alcotest.(check int) "simulate exits 0" 0 code;
  with_temp ".json" @@ fun metrics ->
  let code =
    run_dcheck
      [ "monitor"; dc; "--stream"; stream; "--metrics"; metrics ]
      ~out
  in
  Alcotest.(check int) "monitor exits 0" 0 code;
  match Detcor_obs.Jsonx.of_string (read_file metrics) with
  | Error e -> Alcotest.fail (Fmt.str "--metrics unparseable: %s" e)
  | Ok json ->
    let counter name =
      match
        Option.bind
          (Detcor_obs.Jsonx.member "counters" json)
          (fun cs ->
            Option.bind (Detcor_obs.Jsonx.member name cs)
              Detcor_obs.Jsonx.to_int)
      with
      | Some n -> n
      | None -> Alcotest.fail (Fmt.str "counter %s missing" name)
    in
    Alcotest.(check int) "monitor.runs" 10 (counter "monitor.runs");
    Alcotest.(check bool)
      "monitor.records counts all states" true
      (counter "monitor.records" = 10 * 31);
    Alcotest.(check bool)
      "syndrome memo was exercised" true
      (counter "sim.syndrome.hits" + counter "sim.syndrome.misses" > 0)

let suite =
  ( "dcheck monitor (e2e)",
    [
      Alcotest.test_case "masking stream monitors clean" `Quick
        test_masking_clean;
      Alcotest.test_case "intolerant stream violates (exit 1)" `Quick
        test_intolerant_violates;
      Alcotest.test_case "monitoring is deterministic" `Quick test_deterministic;
      Alcotest.test_case "malformed stream (exit 2)" `Quick test_corrupt_stream;
      Alcotest.test_case "torn tail: missing 'end' tolerated" `Quick
        test_truncated_stream;
      Alcotest.test_case "torn tail: partial final line tolerated" `Quick
        test_torn_final_line;
      Alcotest.test_case "unreadable stream (exit 2)" `Quick test_missing_stream;
      Alcotest.test_case "stream of another program (exit 2)" `Quick
        test_foreign_stream;
      Alcotest.test_case "golden outputs, byte for byte" `Quick test_goldens;
      Alcotest.test_case "zero budget (exit 3)" `Quick test_timeout;
      Alcotest.test_case "--metrics snapshot parses" `Quick
        test_metrics_snapshot;
    ] )
