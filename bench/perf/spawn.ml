(* One dcheck child at a time: each in its own workspace directory, with
   its own run ledger, and under a SIGKILL watchdog.

   The watchdog is the harness's, not dcheck's: passing [--timeout]
   would arm [Budget] inside dcheck and change the code being measured. *)

type result = {
  status : Unix.process_status;
  wall_ns : int;  (** spawn to reap *)
  text : string;  (** stdout, then stderr *)
  peak_rss : int option;  (** bytes, from the child's own ledger row *)
  killed : bool;  (** the watchdog fired *)
}

let watchdog_s = 120.0
let victim = ref 0
let fired = ref false

let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         fired := true;
         if !victim > 0 then
           try Unix.kill !victim Sys.sigkill with Unix.Unix_error _ -> ()))

(* An interrupted benchmark takes its running child down with it. *)
let () =
  List.iter
    (fun (signal, code) ->
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             if !victim > 0 then begin
               (try Unix.kill !victim Sys.sigkill with Unix.Unix_error _ -> ());
               try ignore (Unix.waitpid [] !victim) with Unix.Unix_error _ -> ()
             end;
             exit code)))
    [ (Sys.sigint, 130); (Sys.sigterm, 143) ]

let arm seconds =
  ignore (Unix.setitimer Unix.ITIMER_REAL { it_interval = 0.0; it_value = seconds })

(* The child sees no inherited ledger or failpoints, and its TMPDIR is
   its own workspace. *)
let env dir =
  let inherited =
    List.filter
      (fun kv ->
        not
          (List.exists
             (fun v -> String.starts_with ~prefix:(v ^ "=") kv)
             [ "DCHECK_LEDGER"; "DETCOR_FAILPOINTS"; "TMPDIR" ]))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list (("TMPDIR=" ^ dir) :: inherited)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

(* [run ~dcheck ~stdin ~dir ~ledger args] spawns [dcheck args] in the
   fresh directory [dir] (which must not exist) and waits for it.  With
   [ledger], the child appends its run record to [dir/ledger.jsonl]. *)
let run ~dcheck ~stdin ~dir ~ledger args =
  Unix.mkdir dir 0o755;
  let path f = Filename.concat dir f in
  let ledger_file = path "ledger.jsonl" in
  let argv =
    Array.of_list
      ((dcheck :: args) @ if ledger then [ "--ledger"; ledger_file ] else [])
  in
  let open_out f =
    Unix.openfile (path f) [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  let out = open_out "stdout" and err = open_out "stderr" in
  let env = env dir in
  let t0 = Detcor_obs.Obs.now_ns () in
  let pid = Unix.create_process_env dcheck argv env stdin out err in
  victim := pid;
  fired := false;
  arm watchdog_s;
  let rec reap () =
    try snd (Unix.waitpid [] pid)
    with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  let status = reap () in
  let t1 = Detcor_obs.Obs.now_ns () in
  arm 0.0;
  victim := 0;
  Unix.close out;
  Unix.close err;
  let peak_rss =
    if not ledger then None
    else
      match Detcor_obs.Ledger.load ~path:ledger_file with
      | [ e ], 0 -> Some e.peak_rss_bytes
      | _ -> None
      | exception Sys_error _ -> None
  in
  {
    status;
    wall_ns = Int64.to_int (Int64.sub t1 t0);
    text = read_file (path "stdout") ^ read_file (path "stderr");
    peak_rss;
    killed = !fired;
  }
