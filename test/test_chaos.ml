(* Chaos harness: crash dcheck for real and demand bit-identical recovery.

   Each workload first runs uninterrupted, without any checkpoint flags,
   to record the expected stdout+stderr bytes and exit code.  The chaos
   loop then runs the same command with [--checkpoint] at a short
   interval, SIGKILLs it after a random delay, and retries with
   [--resume] until an attempt reaches a terminal exit — which must
   reproduce the recorded bytes and code exactly.  This is the paper's
   detector/corrector contract applied to the toolkit itself: the crash
   is the fault, the snapshot the corrector, and "converged" means the
   resumed verdict is indistinguishable from an undisturbed run.

   A fault-injection workload rides along: a permanently failing
   snapshot-write path must cost nothing but the insurance.

   Kill delays draw from the process-wide qcheck seed (pin QCHECK_SEED
   to replay a run); CHAOS_ROUNDS (default 2) scales the number of
   kill-and-resume cycles per workload. *)

let dcheck = "../bin/dcheck.exe"

let rounds =
  match Option.bind (Sys.getenv_opt "CHAOS_ROUNDS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 2

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run dcheck with stdout and stderr into [out]; optionally SIGKILL it
   after [kill_after] seconds.  Killing a process that already exited is
   fine: the pid is unreaped (still our zombie child), so the signal is
   accepted and ignored, and waitpid reports the real exit status. *)
let run_dcheck ?(env = [||]) ?kill_after args ~out =
  let fd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env dcheck
      (Array.of_list (dcheck :: args))
      (Array.append (Unix.environment ()) env)
      Unix.stdin fd fd
  in
  Unix.close fd;
  (match kill_after with
  | Some s -> (
    Unix.sleepf s;
    try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
  | None -> ());
  let _, status = Unix.waitpid [] pid in
  status

let exit_code name = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED sg ->
    Alcotest.fail (Fmt.str "%s: killed by signal %d" name sg)
  | Unix.WSTOPPED sg ->
    Alcotest.fail (Fmt.str "%s: stopped by signal %d" name sg)

let with_temp suffix k =
  let path = Filename.temp_file "detcor_chaos" suffix in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> k path)

(* The recorded behaviour of [args] run plainly, no checkpointing. *)
let baseline name args =
  with_temp ".out" @@ fun out ->
  let code = exit_code name (run_dcheck args ~out) in
  (code, read_file out)

(* One kill-and-resume cycle: kill after [delay0 * 1.7^attempt] seconds
   (growing, so progress is guaranteed even when early kills land before
   the first snapshot), resume, repeat until a terminal exit. *)
let kill_until_terminal name args ~delay0 =
  with_temp ".snap" @@ fun snap ->
  Sys.remove snap;
  let checkpointed resume =
    args
    @ [ "--checkpoint"; snap; "--checkpoint-interval"; "0.05" ]
    @ (if resume then [ "--resume"; snap ] else [])
  in
  let rec go attempt delay =
    if attempt > 20 then
      Alcotest.fail (Fmt.str "%s: no terminal exit after 20 kills" name);
    with_temp ".out" @@ fun out ->
    let resume = Sys.file_exists snap in
    let status =
      run_dcheck ~kill_after:delay (checkpointed resume) ~out
    in
    match status with
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
      go (attempt + 1) (delay *. 1.7)
    | Unix.WEXITED c -> (attempt, c, read_file out)
  in
  go 0 delay0

let rng =
  lazy (Random.State.make [| Lazy.force Util.qcheck_seed; 0xc4a05 |])

(* Kill-and-resume must converge to the plain run's exact behaviour. *)
let chaos_workload name args ~max_delay () =
  let expected_code, expected_out = baseline name args in
  let rng = Lazy.force rng in
  for round = 1 to rounds do
    let delay0 = 0.02 +. Random.State.float rng max_delay in
    let kills, code, out = kill_until_terminal name args ~delay0 in
    let label = Fmt.str "%s round %d (%d kills)" name round kills in
    Alcotest.(check int) (label ^ ": exit code") expected_code code;
    Alcotest.(check string) (label ^ ": output bytes") expected_out out
  done

let ring5 = "../examples/dc/ring5.dc"
let byz4 = "../examples/dc/byz4.dc"
let reset10 = "../examples/dc/big/reset10.dc"

(* A snapshot path that always fails to write costs only the insurance:
   the verdict, bytes and exit code are untouched, and no file appears. *)
let test_snapshot_write_faults () =
  let args = [ "verify"; ring5; "--tolerance"; "nonmasking" ] in
  let expected_code, expected_out = baseline "verify" args in
  with_temp ".snap" @@ fun snap ->
  Sys.remove snap;
  with_temp ".out" @@ fun out ->
  let code =
    exit_code "write-fault verify"
      (run_dcheck
         ~env:[| "DETCOR_FAILPOINTS=checkpoint.write=1.0" |]
         (args @ [ "--checkpoint"; snap; "--checkpoint-interval"; "0.05" ])
         ~out)
  in
  Alcotest.(check int) "write faults: exit code" expected_code code;
  Alcotest.(check string) "write faults: output bytes" expected_out
    (read_file out);
  Alcotest.(check bool) "write faults: no snapshot materializes" false
    (Sys.file_exists snap)

(* SIGTERM parity with SIGINT: the orderly-stop signal must run the
   finalizer stack (exit 143, checkpoint flushed) on every subcommand,
   and a snapshot it flushed must resume to the undisturbed bytes. *)
let run_dcheck_term ?kill_grace args ~out =
  let fd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process dcheck
      (Array.of_list (dcheck :: args))
      Unix.stdin fd fd
  in
  Unix.close fd;
  (match kill_grace with
  | Some s -> (
    Unix.sleepf s;
    try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
  | None -> ());
  let _, status = Unix.waitpid [] pid in
  status

let test_sigterm_parity () =
  (* Without a checkpoint: the handler exits directly, code 143.  The
     run must outlast the 50 ms grace: reset10's verify takes about
     0.2 s. *)
  with_temp ".out" @@ fun out ->
  (match
     run_dcheck_term ~kill_grace:0.05
       [ "verify"; reset10 ]
       ~out
   with
  | Unix.WEXITED c ->
    Alcotest.(check int) "plain SIGTERM exits 143" 143 c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
    Alcotest.fail "SIGTERM default disposition not overridden");
  (* With a checkpoint armed: the exit is deferred to a cooperative
     tick, the final snapshot is flushed, and a resume reproduces the
     undisturbed run byte for byte.  The run must outlast the 0.25 s
     grace: reset10's nonmasking synthesis takes about 0.6 s under a
     checkpoint session. *)
  let args = [ "synthesize"; reset10; "--tolerance"; "nonmasking" ] in
  let expected_code, expected_out = baseline "synthesize" args in
  with_temp ".snap" @@ fun snap ->
  Sys.remove snap;
  with_temp ".out" @@ fun out ->
  (match
     run_dcheck_term ~kill_grace:0.25
       (args @ [ "--checkpoint"; snap; "--checkpoint-interval"; "0.05" ])
       ~out
   with
  | Unix.WEXITED 143 ->
    Alcotest.(check bool) "SIGTERM flushed a snapshot" true
      (Sys.file_exists snap);
    with_temp ".out" @@ fun rout ->
    let code =
      exit_code "resumed synthesize"
        (run_dcheck (args @ [ "--resume"; snap ]) ~out:rout)
    in
    Alcotest.(check int) "resume after SIGTERM: exit code" expected_code code;
    Alcotest.(check string) "resume after SIGTERM: output bytes" expected_out
      (read_file rout)
  | Unix.WEXITED c when c = expected_code ->
    (* The run beat the signal; nothing to resume. *)
    ()
  | Unix.WEXITED c -> Alcotest.fail (Fmt.str "SIGTERM run exited %d" c)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
    Alcotest.fail "SIGTERM default disposition not overridden")

let suite =
  ( "chaos (kill-and-resume, injected faults)",
    [
      Alcotest.test_case "verify survives SIGKILL" `Slow
        (chaos_workload "verify" [ "verify"; ring5 ] ~max_delay:0.6);
      (* Under a checkpoint session reset10's nonmasking synthesis takes
         about 0.6 s, past the longest first kill delay (0.42 s). *)
      Alcotest.test_case "synthesize survives SIGKILL" `Slow
        (chaos_workload "synthesize"
           [ "synthesize"; reset10; "--tolerance"; "nonmasking" ]
           ~max_delay:0.4);
      (* Over reference-built systems synthesis checkpoints the same
         synth.ms / synth.recovery phases; only Ts construction itself
         restarts from scratch on resume.  ring5 takes about 0.8 s here
         (reset10 takes minutes on the reference engine). *)
      Alcotest.test_case "reference-engine synthesize survives SIGKILL" `Slow
        (chaos_workload "synthesize (reference)"
           [ "synthesize"; ring5; "--tolerance"; "nonmasking"; "--engine";
             "reference" ]
           ~max_delay:0.6);
      (* Masking synthesis runs the fail-safe front end (its synth.ms
         fixpoint over the fault span) before recovery layering. *)
      Alcotest.test_case "masking synthesize survives SIGKILL" `Slow
        (chaos_workload "synthesize (byz4 masking)"
           [ "synthesize"; byz4; "--tolerance"; "masking" ]
           ~max_delay:0.3);
      (* 2,000 runs keep the sample phase running past the longest
         first kill delay (0.17 s) on the rank stepper. *)
      Alcotest.test_case "simulate survives SIGKILL" `Slow
        (chaos_workload "simulate"
           [ "simulate"; ring5; "--runs"; "2000"; "--seed"; "7" ]
           ~max_delay:0.15);
      Alcotest.test_case "snapshot write faults cost only insurance" `Slow
        test_snapshot_write_faults;
      Alcotest.test_case "SIGTERM parity: finalizers run, exit 143" `Slow
        test_sigterm_parity;
    ] )
