(* Tests for the serve stack: the Spool and Watchdog helpers as units,
   the protocol codec as a round-trip, and the daemon end to end —
   spawn the real [dcheck serve] on a temp spool, drive it with the
   real client, and pin down completion, result caching, admission
   control, retry-with-backoff under injected worker crashes, graceful
   shutdown, and crash adoption (kill -9 the daemon mid-synthesis,
   restart on the same spool, demand the adopted job resume to the
   undisturbed bytes and the repeat submission hit the cache). *)

module Spool = Detcor_robust.Spool
module Watchdog = Detcor_robust.Watchdog
module Proto = Detcor_serve.Proto
module Client = Detcor_serve.Client
module Jsonx = Detcor_obs.Jsonx

let dcheck = "../bin/dcheck.exe"
let corpus = "../examples/dc"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let with_temp_dir k =
  let path = Filename.temp_file "detcor_serve" ".d" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> try rm_rf path with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> k path)

(* ------------------------------------------------------------------ *)
(* Spool.                                                              *)
(* ------------------------------------------------------------------ *)

let test_spool_roundtrip () =
  with_temp_dir @@ fun dir ->
  Spool.save ~dir ~name:"job-000002" "two";
  Spool.save ~dir ~name:"job-000001" "one";
  Spool.save ~dir ~name:"job-000001" "one'";
  let records, torn = Spool.load ~dir ~decode:Option.some in
  Alcotest.(check int) "no torn records" 0 torn;
  Alcotest.(check (list (pair string string)))
    "records in name order, last write wins"
    [ ("job-000001", "one'"); ("job-000002", "two") ]
    records;
  Alcotest.(check bool) "mem sees saved" true (Spool.mem ~dir ~name:"job-000002");
  Spool.remove ~dir ~name:"job-000002";
  Alcotest.(check bool) "removed" false (Spool.mem ~dir ~name:"job-000002");
  Alcotest.(check (option string))
    "load_one" (Some "one'")
    (Spool.load_one ~dir ~name:"job-000001")

let test_spool_torn () =
  with_temp_dir @@ fun dir ->
  Spool.save ~dir ~name:"good" "ok";
  Spool.save ~dir ~name:"bad" "garbage";
  (* A decoder that rejects (or blows up on) a record marks it torn,
     never fatal — the Ledger.load contract. *)
  let decode s = if s = "ok" then Some s else failwith "boom" in
  let records, torn = Spool.load ~dir ~decode in
  Alcotest.(check int) "torn counted" 1 torn;
  Alcotest.(check (list (pair string string)))
    "good record survives" [ ("good", "ok") ] records;
  (* Leftover temp files from a crashed writer are swept, records kept. *)
  Out_channel.with_open_bin
    (Filename.concat dir "good.rec.999.tmp")
    (fun oc -> Out_channel.output_string oc "partial");
  Spool.clean_tmp ~dir;
  Alcotest.(check bool) "record survives tmp sweep" true
    (Spool.mem ~dir ~name:"good");
  Alcotest.(check bool) "tmp swept" false
    (Sys.file_exists (Filename.concat dir "good.rec.999.tmp"))

(* ------------------------------------------------------------------ *)
(* Watchdog policy.                                                    *)
(* ------------------------------------------------------------------ *)

let test_watchdog_policy () =
  let p =
    {
      Watchdog.max_retries = 3;
      backoff_base_s = 0.2;
      backoff_factor = 2.0;
      backoff_max_s = 0.5;
      watchdog_s = Some 10.0;
    }
  in
  Alcotest.(check (option (float 1e-9)))
    "retry 1" (Some 0.2)
    (Watchdog.retry_delay p ~attempt:1);
  Alcotest.(check (option (float 1e-9)))
    "retry 2 doubles" (Some 0.4)
    (Watchdog.retry_delay p ~attempt:2);
  Alcotest.(check (option (float 1e-9)))
    "retry 3 capped" (Some 0.5)
    (Watchdog.retry_delay p ~attempt:3);
  Alcotest.(check (option (float 1e-9)))
    "out of retries" None
    (Watchdog.retry_delay p ~attempt:4);
  Alcotest.(check bool) "within watchdog" false
    (Watchdog.expired p ~started_s:100.0 ~now_s:109.9);
  Alcotest.(check bool) "past watchdog" true
    (Watchdog.expired p ~started_s:100.0 ~now_s:110.1);
  Alcotest.(check bool) "no watchdog never expires" false
    (Watchdog.expired Watchdog.default_policy ~started_s:0.0 ~now_s:1e9)

(* ------------------------------------------------------------------ *)
(* Protocol codec.                                                     *)
(* ------------------------------------------------------------------ *)

let test_proto_roundtrip () =
  let reqs =
    [
      Proto.Submit
        { tenant = "alice"; kind = Proto.Synthesize; file = "p.dc";
          argv = [ "--tolerance"; "masking" ] };
      Proto.Status 7;
      Proto.Result { id = 7; wait = true };
      Proto.Cancel 9;
      Proto.List_jobs;
      Proto.Metrics;
      Proto.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      match Proto.request_of_json (Proto.request_to_json req) with
      | Ok req' ->
        Alcotest.(check bool) "request round-trips" true (req = req')
      | Error m -> Alcotest.fail m)
    reqs;
  let job =
    {
      Proto.id = 3; tenant = "bob"; kind = Proto.Verify; file = "q.dc";
      argv = [ "--workers"; "2" ]; state = Proto.Preempting; attempts = 2;
      preemptions = 1; exit_code = None; cache = Some "miss";
    }
  in
  let replies =
    [
      Proto.Accepted job;
      Proto.Job job;
      Proto.Jobs [ job; { job with Proto.id = 4; state = Proto.Done } ];
      Proto.Outcome { job = { job with Proto.state = Proto.Done }; output = "v\n" };
      Proto.Text "metrics\n";
      Proto.Overloaded { retry_after_s = 0.5 };
      Proto.Bad "nope";
    ]
  in
  List.iter
    (fun reply ->
      match Proto.reply_of_json (Proto.reply_to_json reply) with
      | Ok reply' ->
        Alcotest.(check bool) "reply round-trips" true (reply = reply')
      | Error m -> Alcotest.fail m)
    replies

(* ------------------------------------------------------------------ *)
(* Daemon end to end.                                                  *)
(* ------------------------------------------------------------------ *)

(* Spawn [dcheck serve] and wait for its listen line.  Returns the pid
   and address. *)
let start_daemon ?(env = [||]) ~spool ~log args =
  let fd = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env dcheck
      (Array.of_list ((dcheck :: [ "serve"; "--spool"; spool ]) @ args))
      (Array.append (Unix.environment ()) env)
      Unix.stdin fd fd
  in
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let prefix = "dcheck: serving on " in
  let rec wait_addr () =
    if Unix.gettimeofday () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      Alcotest.fail ("daemon never listened; log: " ^ read_file log)
    end;
    let listen_line =
      read_file log |> String.split_on_char '\n'
      |> List.find_opt (String.starts_with ~prefix)
    in
    match listen_line with
    | Some line ->
      String.sub line (String.length prefix)
        (String.length line - String.length prefix)
    | None ->
      Unix.sleepf 0.05;
      wait_addr ()
  in
  (pid, wait_addr ())

let stop_daemon pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let rpc_ok addr req =
  match Client.oneshot ~addr req with
  | Ok reply -> reply
  | Error m -> Alcotest.fail ("rpc failed: " ^ m)

let submit addr ?(tenant = "t") ?(argv = []) kind file =
  match rpc_ok addr (Proto.Submit { tenant; kind; file; argv }) with
  | Proto.Accepted j -> j
  | Proto.Overloaded _ -> Alcotest.fail "unexpected overloaded"
  | _ -> Alcotest.fail "unexpected submit reply"

let result_wait addr id =
  match rpc_ok addr (Proto.Result { id; wait = true }) with
  | Proto.Outcome { job; output } -> (job, output)
  | _ -> Alcotest.fail "result --wait did not return an outcome"

let memory_dc = Filename.concat corpus "memory.dc"
let ring5_dc = Filename.concat corpus "ring5.dc"

let test_daemon_basics () =
  with_temp_dir @@ fun spool ->
  with_temp_dir @@ fun logs ->
  let log = Filename.concat logs "serve.log" in
  let pid, addr =
    start_daemon ~spool ~log [ "--slots"; "2"; "--tenant-max"; "4" ]
  in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  (* Submit, wait, verdict. *)
  let j = submit addr Proto.Verify memory_dc in
  Alcotest.(check bool) "fresh submit is a miss" true (j.Proto.cache = Some "miss");
  let done_j, output = result_wait addr j.Proto.id in
  Alcotest.(check bool) "job done" true (done_j.Proto.state = Proto.Done);
  Alcotest.(check (option int)) "verdict holds" (Some 0) done_j.Proto.exit_code;
  Alcotest.(check bool) "output has the verdict" true
    (Util.contains output "VERDICT");
  (* The identical submission is served from the result cache. *)
  let j2 = submit addr Proto.Verify memory_dc in
  Alcotest.(check bool) "repeat submit is a cache hit" true
    (j2.Proto.cache = Some "hit" && j2.Proto.state = Proto.Done);
  let _, output2 = result_wait addr j2.Proto.id in
  Alcotest.(check string) "cached bytes identical" output output2;
  (* A different argv is a different key. *)
  let j3 = submit addr ~argv:[ "--tolerance"; "failsafe" ] Proto.Verify memory_dc in
  Alcotest.(check bool) "changed argv misses" true (j3.Proto.cache = Some "miss");
  (* Tenant quota: live jobs beyond --tenant-max are refused typed.
     Submissions land within a scheduler tick, so all four fillers are
     still live when the fifth arrives. *)
  List.iter
    (fun i ->
      match
        rpc_ok addr
          (Proto.Submit
             { tenant = "greedy"; kind = Proto.Simulate; file = ring5_dc;
               argv = [ "--runs"; string_of_int (50 + i) ] })
      with
      | Proto.Accepted _ -> ()
      | _ -> Alcotest.fail "filler submit refused")
    [ 0; 1; 2; 3 ];
  (match
     rpc_ok addr
       (Proto.Submit
          { tenant = "greedy"; kind = Proto.Simulate; file = ring5_dc;
            argv = [ "--runs"; "42" ] })
   with
  | Proto.Overloaded { retry_after_s } ->
    Alcotest.(check bool) "retry hint positive" true (retry_after_s > 0.0)
  | _ -> Alcotest.fail "tenant quota not enforced");
  (* Status and list see every job; metrics is a Prometheus page. *)
  (match rpc_ok addr (Proto.Status j.Proto.id) with
  | Proto.Job _ -> ()
  | _ -> Alcotest.fail "status");
  (match rpc_ok addr Proto.List_jobs with
  | Proto.Jobs js ->
    Alcotest.(check bool) "list has all jobs" true (List.length js >= 7)
  | _ -> Alcotest.fail "list");
  (match rpc_ok addr Proto.Metrics with
  | Proto.Text t ->
    Alcotest.(check bool) "metrics exposition" true
      (Util.contains t "serve_jobs_submitted_total")
  | _ -> Alcotest.fail "metrics");
  (* Graceful protocol shutdown: drain and exit 0. *)
  (match rpc_ok addr Proto.Shutdown with
  | Proto.Text _ -> ()
  | _ -> Alcotest.fail "shutdown");
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "daemon drained to exit 0" true
    (status = Unix.WEXITED 0)

let test_daemon_chaos_retry () =
  with_temp_dir @@ fun spool ->
  with_temp_dir @@ fun logs ->
  let log = Filename.concat logs "serve.log" in
  (* Every worker attempt crashes at the injected dcheck.job site: the
     supervisor must retry with backoff, then mark the job failed. *)
  let pid, addr =
    start_daemon
      ~env:[| "DETCOR_FAILPOINTS=dcheck.job=1.0" |]
      ~spool ~log
      [ "--slots"; "1"; "--retries"; "2" ]
  in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let j = submit addr Proto.Verify memory_dc in
  let done_j, output = result_wait addr j.Proto.id in
  Alcotest.(check bool) "retries exhausted -> failed" true
    (done_j.Proto.state = Proto.Failed);
  Alcotest.(check (option int)) "injected deaths exit 125" (Some 125)
    done_j.Proto.exit_code;
  Alcotest.(check int) "one attempt plus two retries" 3 done_j.Proto.attempts;
  Alcotest.(check bool) "output names the failpoint" true
    (Util.contains output "dcheck.job")

(* The CI smoke scenario, in-process: kill -9 the daemon mid-synthesis,
   restart on the same spool, and demand the adopted job resume to the
   bytes an undisturbed run produces — then hit the cache on repeat. *)
let test_daemon_kill9_adoption () =
  with_temp_dir @@ fun spool ->
  with_temp_dir @@ fun logs ->
  (* The undisturbed reference bytes. *)
  let direct = Filename.concat logs "direct.out" in
  let fd = Unix.openfile direct [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let dpid =
    Unix.create_process dcheck
      [| dcheck; "synthesize"; ring5_dc; "--tolerance"; "nonmasking" |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  let _, dstatus = Unix.waitpid [] dpid in
  Alcotest.(check bool) "direct run exits 0" true (dstatus = Unix.WEXITED 0);
  let expected = read_file direct in
  let log1 = Filename.concat logs "serve1.log" in
  let pid1, addr1 = start_daemon ~spool ~log:log1 [ "--slots"; "1" ] in
  let j =
    submit addr1 ~argv:[ "--tolerance"; "nonmasking" ] Proto.Synthesize
      ring5_dc
  in
  (* Let the worker make some checkpointed progress, then murder the
     daemon outright. *)
  Unix.sleepf 0.3;
  stop_daemon pid1;
  (* Restart on the same spool: the job must be re-adopted and finish. *)
  let log2 = Filename.concat logs "serve2.log" in
  let pid2, addr2 = start_daemon ~spool ~log:log2 [ "--slots"; "1" ] in
  Fun.protect ~finally:(fun () -> stop_daemon pid2) @@ fun () ->
  let done_j, output = result_wait addr2 j.Proto.id in
  Alcotest.(check bool) "adopted job completes" true
    (done_j.Proto.state = Proto.Done);
  Alcotest.(check (option int)) "verdict intact" (Some 0) done_j.Proto.exit_code;
  Alcotest.(check string) "resumed bytes identical to undisturbed run"
    expected output;
  let j2 =
    submit addr2 ~argv:[ "--tolerance"; "nonmasking" ] Proto.Synthesize
      ring5_dc
  in
  Alcotest.(check bool) "repeat submit after restart hits the cache" true
    (j2.Proto.cache = Some "hit")

(* An interactive verify arriving with every slot busy preempts the
   batch worker: SIGTERM, checkpoint, requeue at the front.  The
   preempted job's resumed verdict must match an undisturbed run
   byte for byte. *)
let test_daemon_preempt () =
  with_temp_dir @@ fun spool ->
  with_temp_dir @@ fun logs ->
  let sim_argv = [ "--runs"; "2000"; "--steps"; "200"; "--seed"; "7" ] in
  let direct = Filename.concat logs "direct.out" in
  let fd = Unix.openfile direct [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let dpid =
    Unix.create_process dcheck
      (Array.of_list ((dcheck :: [ "simulate"; ring5_dc ]) @ sim_argv))
      Unix.stdin fd fd
  in
  Unix.close fd;
  let _, dstatus = Unix.waitpid [] dpid in
  Alcotest.(check bool) "direct run exits 0" true (dstatus = Unix.WEXITED 0);
  let expected = read_file direct in
  let log = Filename.concat logs "serve.log" in
  let pid, addr = start_daemon ~spool ~log [ "--slots"; "1" ] in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let batch = submit addr ~argv:sim_argv Proto.Simulate ring5_dc in
  (* Wait until the batch worker holds the only slot. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_running () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "batch job never started";
    match rpc_ok addr (Proto.Status batch.Proto.id) with
    | Proto.Job j when j.Proto.state = Proto.Running -> ()
    | _ ->
      Unix.sleepf 0.02;
      wait_running ()
  in
  wait_running ();
  let iv = submit addr Proto.Verify memory_dc in
  let iv_done, iv_out = result_wait addr iv.Proto.id in
  Alcotest.(check bool) "interactive verify completes" true
    (iv_done.Proto.state = Proto.Done);
  Alcotest.(check bool) "interactive output has the verdict" true
    (Util.contains iv_out "VERDICT");
  let batch_done, batch_out = result_wait addr batch.Proto.id in
  Alcotest.(check bool) "preempted batch job completes" true
    (batch_done.Proto.state = Proto.Done);
  Alcotest.(check bool) "batch job was preempted" true
    (batch_done.Proto.preemptions >= 1);
  Alcotest.(check string) "preempted bytes identical to undisturbed run"
    expected batch_out

let suite =
  ( "serve (daemon, spool, watchdog, protocol)",
    [
      Alcotest.test_case "spool round-trip" `Quick test_spool_roundtrip;
      Alcotest.test_case "spool tolerates torn records" `Quick test_spool_torn;
      Alcotest.test_case "watchdog retry/backoff policy" `Quick
        test_watchdog_policy;
      Alcotest.test_case "protocol round-trips" `Quick test_proto_roundtrip;
      Alcotest.test_case "daemon: submit/cache/quota/shutdown" `Slow
        test_daemon_basics;
      Alcotest.test_case "daemon: injected crashes retried then failed" `Slow
        test_daemon_chaos_retry;
      Alcotest.test_case "daemon: kill -9, restart, adopt, resume" `Slow
        test_daemon_kill9_adoption;
      Alcotest.test_case "daemon: interactive verify preempts batch" `Slow
        test_daemon_preempt;
    ] )
