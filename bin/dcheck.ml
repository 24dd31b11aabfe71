(* dcheck — command-line front end to the detectors-and-correctors
   toolkit.

     dcheck info FILE.dc         program summary and state-space size
     dcheck verify FILE.dc       tolerance checks against the declared spec
     dcheck components FILE.dc   extract detector/corrector components
     dcheck synthesize FILE.dc   add fail-safe/nonmasking/masking tolerance
     dcheck simulate FILE.dc     fault-injection simulation with monitors
     dcheck monitor FILE.dc      syndrome monitoring of recorded run streams
     dcheck profile FILE.dc      per-phase time/space breakdown of verify

   Every subcommand accepts --trace FILE (span/event trace, JSON-lines or
   Chrome trace_event by extension), --metrics FILE (JSON snapshot of all
   counters and histograms), --log-level LEVEL (echo events to stderr) and
   --timeout SECONDS (wall-clock budget; exhaustion exits 3).

   The long-running subcommands (verify, synthesize, simulate) also take
   --checkpoint FILE / --checkpoint-interval SECONDS (periodic crash-safe
   snapshots of the running fixpoints; a final snapshot is written on the
   way out of an exhausted budget, so exit 3 always leaves a resumable
   file) and --resume FILE (continue from a snapshot to the identical
   verdict).

   Exit codes: 0 verdict holds, 1 verification (or synthesis) fails,
   2 usage/parse/type error, 3 resource budget exhausted (including a
   truncated, corrupted or mismatched --resume snapshot).

   Programs are written in the guarded-command language of Detcor_lang;
   see examples/dc/. *)

open Cmdliner
open Detcor_kernel
open Detcor_spec
open Detcor_core
open Detcor_lang
open Detcor_obs
module Error = Detcor_robust.Error
module Budget = Detcor_robust.Budget
module Checkpoint = Detcor_robust.Checkpoint
module Failpoint = Detcor_robust.Failpoint

(* ------------------------------------------------------------------ *)
(* Exit bookkeeping and finalizers.                                    *)
(* ------------------------------------------------------------------ *)

(* [Stdlib.exit] runs [at_exit] callbacks but NOT [Fun.protect]
   finalizers further up the stack — so any flushing duty that must
   survive [or_die], an inline [exit] or SIGINT (closing trace sinks,
   the metrics snapshot, the run ledger) registers here and is driven
   from one [at_exit].  Finalizers run once: the list is emptied before
   iterating, so a finalizer calling [exit] cannot recurse. *)
let finalizers : (unit -> unit) list ref = ref []

let add_finalizer f = finalizers := f :: !finalizers

let run_finalizers () =
  let fs = !finalizers in
  finalizers := [];
  List.iter (fun f -> try f () with _ -> ()) fs

(* The code the process is about to exit with, for the ledger record.
   Every exit path funnels through [exiting] or sets it explicitly. *)
let exit_code_seen = ref 0

let exiting code =
  exit_code_seen := code;
  exit code

(* The budget dimension that tripped, when this run exits 3. *)
let budget_trip_seen : string option ref = ref None

(* SIGTERM asks for an orderly stop: when a checkpoint session is armed
   the handler only raises this flag, and the exit happens at the next
   cooperative budget tick — flushing from inside the asynchronous
   handler could capture a mid-mutation fixpoint and leave a snapshot
   worse than the last periodic one.  With no checkpoint armed there is
   no loop state to keep consistent, so the handler exits directly; a
   repeated SIGTERM also exits directly (the escape hatch for a loop
   that never ticks). *)
let term_pending = Atomic.make false
let main_domain = (Stdlib.Domain.self () :> int)

let () =
  at_exit run_finalizers;
  (* SIGINT and SIGTERM flush through the same [at_exit] path and exit
     with the conventional fatal-signal codes (130 / 143). *)
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exiting 130))
   with Invalid_argument _ | Sys_error _ -> ());
  (try
     Sys.set_signal Sys.sigterm
       (Sys.Signal_handle
          (fun _ ->
            if Atomic.exchange term_pending true || not (Checkpoint.armed ())
            then exiting 143))
   with Invalid_argument _ | Sys_error _ -> ());
  Budget.set_tick_hook (fun () ->
      (* Worker domains tick too, but only the main domain owns the
         finalizer stack and the checkpoint session. *)
      if Atomic.get term_pending && (Stdlib.Domain.self () :> int) = main_domain then
        exiting 143)

let or_die = function
  | Ok v -> v
  | Error m ->
    Fmt.epr "dcheck: %s@." m;
    exiting 2

(* Located one-line rendering: parse errors carry the file name. *)
let pp_located path ppf (e : Error.t) =
  match e with
  | Error.Parse { line; col; msg } ->
    Fmt.pf ppf "%s:%d:%d: %s" path line col msg
  | e -> Error.pp ppf e

(* Every subcommand runs inside this handler: any failure the toolkit can
   produce becomes a one-line diagnostic and a documented exit code, never
   an uncaught exception. *)
let with_errors ~path k =
  try k () with
  | Error.Detcor_error e ->
    (match e with
    | Error.Resource r ->
      budget_trip_seen := Some (Error.resource_kind_name r.Error.kind)
    | _ -> ());
    Fmt.epr "dcheck: %a@." (pp_located path) e;
    Error.exit_code e
  | Detcor_semantics.Ts.Too_large n ->
    budget_trip_seen := Some "states";
    Fmt.epr "dcheck: state budget exhausted (exploration exceeded --limit %d)@."
      n;
    3
  | Value.Type_error m ->
    Fmt.epr "dcheck: type error: %s@." m;
    2
  | Sys_error m ->
    Fmt.epr "dcheck: %s@." m;
    2
  | Out_of_memory ->
    Fmt.epr "dcheck: out of memory@.";
    3
  | Stack_overflow ->
    Fmt.epr "dcheck: stack overflow@.";
    125
  | Detcor_robust.Failpoint.Injected name ->
    Fmt.epr "dcheck: injected fault at %s@." name;
    125

(* [guarded ~path timeout k]: the budget goes inside the error handler so
   exhaustion anywhere — including parsing and elaboration — exits 3. *)
let guarded ?memory_mb:max_memory_mb ~path timeout k =
  with_errors ~path @@ fun () ->
  match (timeout, max_memory_mb) with
  | None, None -> k ()
  | _ -> Budget.with_budget (Budget.make ?timeout ?max_memory_mb ()) k

(* Chaos sites for the serve load harness: [dcheck.job] crashes the job
   (exit 125 — the injected Internal-class death the serve supervisor
   retries with backoff) and [dcheck.hang] wedges it (the per-job
   watchdog must kill it).  Only the job subcommands call this, so a
   serve daemon inheriting DETCOR_FAILPOINTS never trips its own
   sites. *)
let chaos_site () =
  Failpoint.hit "dcheck.job";
  try Failpoint.hit "dcheck.hang"
  with Failpoint.Injected _ -> Unix.sleep 3600

(* Range-checked converters: an out-of-range value (or NaN) is a usage
   error, exit 2, at parse time. *)
let checked conv ok expect =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) -> Error (`Msg (Fmt.str "'%s' is not %s" s expect))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let nat_conv = checked Arg.int (fun n -> n >= 0) "an integer >= 0"
let pos_conv = checked Arg.int (fun n -> n >= 1) "an integer >= 1"
let prob_conv = checked Arg.float (fun p -> 0.0 <= p && p <= 1.0) "in [0, 1]"

(* Budget deadlines and checkpoint intervals are int64 ns: cap at half the
   range.  [timeout_conv] also takes 0; [period_conv] (poll and watchdog
   periods) does not. *)
let max_seconds = Int64.to_float Int64.max_int /. 2e9

let timeout_conv =
  checked Arg.float (fun t -> 0.0 <= t && t <= max_seconds)
    (Fmt.str "in [0, %.2g] s" max_seconds)

let period_conv =
  checked Arg.float (fun t -> 0.0 < t && t <= max_seconds)
    (Fmt.str "in (0, %.2g] s" max_seconds)

let timeout_arg =
  Arg.(
    value
    & opt (some timeout_conv) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the whole run.  On exhaustion undecided \
           obligations report as unknown and dcheck exits 3.")

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Guarded-command program (.dc).")

let limit_arg =
  Arg.(
    value
    & opt nat_conv Detcor_semantics.Ts.default_limit
    & info [ "limit" ] ~docv:"N" ~doc:"State-exploration limit.")

(* ------------------------------------------------------------------ *)
(* Engine selection and memory budgets.                                *)
(* ------------------------------------------------------------------ *)

type engine_opts = {
  engine : Detcor_semantics.Ts.engine;
  spill_dir : string option;
  arena_mb : int;
}

let engine_conv =
  let parse = function
    | "auto" -> Ok Detcor_semantics.Ts.Auto
    | "reference" -> Ok Detcor_semantics.Ts.Reference
    | ("packed" | "sharded") as s ->
      Error
        (`Msg
          (Fmt.str
             "engine %S was removed: auto picks the store; pass \
              --spill-dir DIR for the out-of-core one"
             s))
    | s -> Error (`Msg (Fmt.str "unknown engine %S" s))
  in
  let print ppf e = Fmt.string ppf (Detcor_semantics.Ts.engine_name e) in
  Arg.conv (parse, print)

let engine_term =
  let engine_arg =
    Arg.(
      value
      & opt engine_conv Detcor_semantics.Ts.Auto
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Exploration engine: $(b,auto) (a packed store, out-of-core \
             under $(b,--spill-dir), with reference fallback) or \
             $(b,reference).  Both produce identical verdicts and state \
             numbering.")
  in
  let spill_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spill-dir" ] ~docv:"DIR"
          ~doc:
            "Explore out of core: state and edge arenas are cut into one \
             segment per BFS level, and sealed segments past \
             $(b,--shard-arena-mb) spill to checksummed files in $(docv), \
             reloaded on demand, for explorations past RAM.  A run removes \
             the files it wrote when it exits, unless $(b,--checkpoint) is \
             set: the snapshots refer to them.")
  in
  let arena_mb_arg =
    Arg.(
      value
      & opt nat_conv 512
      & info [ "shard-arena-mb" ] ~docv:"MB"
          ~doc:
            "Resident arena budget of the out-of-core store, in MiB; sealed \
             segments past it are spilled (least recently used first).  \
             Only read when $(b,--spill-dir) is set.")
  in
  let make engine spill_dir arena_mb = { engine; spill_dir; arena_mb } in
  Term.(const make $ engine_arg $ spill_dir_arg $ arena_mb_arg)

let memory_budget_arg =
  Arg.(
    value
    & opt (some pos_conv) None
    & info [ "memory-budget" ] ~docv:"MB"
        ~doc:
          "Heap budget for the whole run, in MiB; exhaustion exits 3 (a \
           final checkpoint is still written when armed).")

(* Install the process-wide shard-store parameters and return the
   engine choice for the ?engine arguments downstream. *)
let apply_engine eo =
  Detcor_semantics.Ts.set_spill_defaults ~spill_dir:eo.spill_dir
    ~arena_budget_mb:eo.arena_mb;
  eo.engine

(* Fingerprint fragment: everything in the engine options that affects
   the computation's checkpoint/spill state. *)
let engine_params eo =
  [
    Detcor_semantics.Ts.engine_name eo.engine;
    (match eo.spill_dir with None -> "-" | Some d -> d);
    string_of_int eo.arena_mb;
  ]

(* ------------------------------------------------------------------ *)
(* Crash-safe checkpointing (verify / synthesize / simulate).           *)
(* ------------------------------------------------------------------ *)

type robust_opts = {
  checkpoint : string option;
  interval : float;
  resume : string option;
}

let robust_term =
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Periodically write a crash-safe snapshot of the running \
             fixpoints to $(docv) (atomic rename; the file is always \
             either the previous snapshot or a complete new one).  A \
             final snapshot is also written when a resource budget trips, \
             so exit 3 always leaves a resumable file.")
  in
  let interval_arg =
    Arg.(
      value
      & opt timeout_conv Checkpoint.default_interval
      & info [ "checkpoint-interval" ] ~docv:"SECONDS"
          ~doc:
            "Seconds between periodic snapshots, measured on the \
             monotonic clock (suspends and clock steps cannot starve or \
             flood the writer).")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a snapshot written by --checkpoint.  The \
             snapshot must come from the same program, subcommand and \
             options (fingerprint-checked); the continued run produces \
             the identical verdict and report.")
  in
  let make checkpoint interval resume = { checkpoint; interval; resume } in
  Term.(const make $ checkpoint_arg $ interval_arg $ resume_arg)

(* Arm the checkpoint session around [k].  The fingerprint binds the
   snapshot to the program source, the subcommand and every option that
   affects the computation (the timeout excluded: it is free to change
   across a resume).  [Fun.protect] makes the final save
   unconditional — in particular a budget trip unwinding through [k]
   persists the mid-fixpoint captures before the process exits 3. *)
let with_checkpoint ~path ~sub ~params robust k =
  match (robust.checkpoint, robust.resume) with
  | None, None -> k ()
  | write, resume ->
    let source =
      try In_channel.with_open_bin path In_channel.input_all
      with Sys_error _ -> ""
    in
    let fingerprint = Checkpoint.digest ("dcheck/1.0.0" :: sub :: source :: params) in
    Checkpoint.start ~interval:robust.interval ?write ?resume ~fingerprint ();
    (* [Fun.protect] covers ordinary unwinding; the finalizer covers
       [Stdlib.exit] paths (SIGTERM's deferred exit in particular), and
       runs before the observability finalizer so the final snapshot is
       on disk before the ledger records the run.  [Checkpoint.stop] is
       idempotent, so reaching both is fine. *)
    add_finalizer Checkpoint.stop;
    Fun.protect ~finally:Checkpoint.stop k

(* ------------------------------------------------------------------ *)
(* Observability options (shared by every subcommand).                  *)
(* ------------------------------------------------------------------ *)

type obs_opts = {
  trace : string option;
  metrics : string option;
  log_level : string option;
  telemetry : string option;
  ledger : string option;
}

let obs_term =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a trace of spans and events to $(docv): JSON-lines when \
             the name ends in .jsonl, otherwise a Chrome trace_event array \
             loadable in Perfetto.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a JSON snapshot of all counters, gauges and histograms \
             to $(docv) on exit.")
  in
  let log_level_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Echo trace events at least this severe (debug, info, warn or \
             error) to stderr.")
  in
  let telemetry_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"ADDR"
          ~doc:
            "Serve a live Prometheus text exposition of every counter, \
             gauge and histogram on http://$(docv)/metrics for the \
             duration of the run ($(i,HOST:PORT), $(i,:PORT) or \
             $(i,PORT); port 0 picks a free one, printed on stderr).  \
             Also arms progress heartbeats: per-phase item counts, \
             items/sec and the budget-derived ETA update live as the \
             run advances.  Watch with $(b,dcheck top ADDR).")
  in
  let ledger_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~env:(Cmd.Env.info "DCHECK_LEDGER")
          ~doc:
            "Append one JSON line (session fingerprint, subcommand, \
             verdict, exit code, duration, peak RSS, budget trips) to \
             $(docv) when the run ends — on every exit path, including \
             budget exhaustion and SIGINT.  Summarize with $(b,dcheck \
             report FILE).")
  in
  let make trace metrics log_level telemetry ledger =
    { trace; metrics; log_level; telemetry; ledger }
  in
  Term.(
    const make $ trace_arg $ metrics_arg $ log_level_arg $ telemetry_arg
    $ ledger_arg)

(* Sinks requested on the command line (--trace by extension, --log-level
   on stderr). *)
let sinks_of_opts opts =
  let trace_sink =
    match opts.trace with
    | None -> []
    | Some path when Filename.check_suffix path ".jsonl" ->
      [ Sink.to_file Sink.jsonl path ]
    | Some path -> [ Sink.to_file Sink.chrome path ]
  in
  let log_sink =
    match opts.log_level with
    | None -> []
    | Some s -> (
      match Attr.level_of_string s with
      | Some min_level -> [ Sink.stderr_log ~min_level () ]
      | None -> or_die (Error (Fmt.str "unknown log level %S" s)))
  in
  trace_sink @ log_sink

let write_metrics_snapshot opts =
  match opts.metrics with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Jsonx.to_string (Metrics.snapshot ()));
    output_char oc '\n';
    close_out oc

(* Session identity for the run ledger: the same digest scheme the
   checkpoint layer uses, over the toolkit version and the exact command
   line — two invocations match iff they would do the same work. *)
let session_fingerprint ~sub =
  Checkpoint.digest ("dcheck/1.0.0" :: sub :: Array.to_list Sys.argv)

let verdict_of_exit = function
  | 0 -> "holds"
  | 1 -> "fails"
  | 2 -> "error"
  | 3 -> "exhausted"
  | 130 -> "interrupted"
  | 143 -> "terminated"
  | _ -> "internal-error"

(* Install a recording context for the duration of [k] when any
   observability option was given; write the requested outputs on the way
   out.  [extra] prepends sinks (used by [profile] to record into memory
   alongside whatever the user asked for).

   All teardown lives in one run-once finalizer registered with the
   [at_exit] machinery, so the trace, metrics snapshot and ledger record
   survive every exit path: normal returns, [or_die], inline [exit]s,
   budget trips and SIGINT.  [k] returns the exit code, which the
   finalizer folds into the ledger record. *)
let with_obs ?(extra = []) ~sub ~path opts k =
  let recording =
    extra <> [] || opts.trace <> None || opts.metrics <> None
    || opts.log_level <> None
  in
  if (not recording) && opts.telemetry = None && opts.ledger = None then k ()
  else begin
    let t_start = Obs.now_ns () in
    if recording then
      Obs.set_current (Obs.make ~sinks:(extra @ sinks_of_opts opts) ());
    let server =
      match opts.telemetry with
      | None -> None
      | Some addr ->
        Expose.register_process_gauges ();
        Progress.start ();
        let t =
          match Telemetry.start_err addr with
          | Ok t -> t
          | Error (`Invalid m) | Error (`Failed m) -> or_die (Error m)
          | Error (`Addr_in_use port) ->
            (* Still contended after the listener's one retry: a typed
               resource failure (exit 3), not a usage error — the flag
               was fine, the environment was not. *)
            let e =
              Error.Resource { Error.kind = Error.Addr; spent = port; budget = 1 }
            in
            budget_trip_seen := Some (Error.resource_kind_name Error.Addr);
            Fmt.epr "dcheck: %a@." (pp_located path) e;
            exiting (Error.exit_code e)
        in
        Fmt.epr "dcheck: telemetry on http://%s/metrics@."
          (Telemetry.address t);
        Some t
    in
    let finalized = ref false in
    let finalize () =
      if not !finalized then begin
        finalized := true;
        Option.iter Telemetry.stop server;
        Progress.stop ();
        Obs.close ();
        write_metrics_snapshot opts;
        match opts.ledger with
        | None -> ()
        | Some lpath -> (
          let code = !exit_code_seen in
          let states =
            max
              (Metrics.counter_value_by_name "engine.states")
              (Metrics.counter_value_by_name "engine.states_visited")
          in
          let entry =
            {
              Ledger.timestamp = Unix.gettimeofday ();
              session = session_fingerprint ~sub;
              subcommand = sub;
              file = path;
              verdict = verdict_of_exit code;
              exit_code = code;
              duration_s =
                Int64.to_float (Int64.sub (Obs.now_ns ()) t_start) /. 1e9;
              peak_rss_bytes = Expose.peak_rss_bytes ();
              states;
              budget_trip = !budget_trip_seen;
              telemetry_port = Option.map Telemetry.port server;
            }
          in
          try Ledger.append ~path:lpath entry
          with Unix.Unix_error (err, _, _) ->
            Fmt.epr "dcheck: cannot append to ledger %s: %s@." lpath
              (Unix.error_message err))
      end
    in
    add_finalizer finalize;
    match k () with
    | code ->
      exit_code_seen := code;
      finalize ();
      code
    | exception e ->
      exit_code_seen := 125;
      finalize ();
      raise e
  end

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let info_cmd =
  let run path limit timeout eopts memory_mb obs =
    with_obs ~sub:"info" ~path obs @@ fun () ->
    guarded ?memory_mb ~path timeout @@ fun () ->
    let engine = apply_engine eopts in
    let e = Elaborate.load_file path in
    Fmt.pr "program %s@." (Program.name e.program);
    Fmt.pr "  variables:     %d@." (List.length (Program.variables e.program));
    List.iter
      (fun (x, d) -> Fmt.pr "    %-12s %a@." x Domain.pp d)
      (Program.var_decls e.program);
    Fmt.pr "  actions:       %d@." (List.length (Program.actions e.program));
    List.iter
      (fun ac -> Fmt.pr "    %s@." (Action.name ac))
      (Program.actions e.program);
    Fmt.pr "  fault actions: %d@." (List.length (Fault.actions e.faults));
    List.iter
      (fun ac -> Fmt.pr "    %s@." (Action.name ac))
      (Fault.actions e.faults);
    Fmt.pr "  state space:   %d states@." (Program.space_size e.program);
    Fmt.pr "  invariant:     %s@." (Pred.name e.invariant);
    Fmt.pr "  specification: %s@." (Spec.name e.spec);
    let issues = Program.well_formed e.program in
    if issues <> [] then begin
      Fmt.pr "  WARNING: ill-formed actions:@.";
      List.iter (fun m -> Fmt.pr "    %s@." m) issues
    end;
    (* Which engine the auto dispatch actually picks for this program, and
       why it fell back to the reference engine if it did.  A state space
       exceeding --limit is NOT swallowed here: it propagates to the shared
       handler and exits 3 like every other exhausted budget. *)
    let module Ts = Detcor_semantics.Ts in
    let ts =
      Ts.of_pred ~limit ~engine
        (Fault.compose e.program e.faults)
        ~from:e.invariant
    in
    Fmt.pr "  engine:        %s@." (Ts.store_name ts);
    (match Ts.shard_stats ts with
    | None -> ()
    | Some (spills, bytes, reloads) ->
      Fmt.pr "  spill:         %d spills, %d bytes spilled, %d reloads@."
        spills bytes reloads);
    (match Ts.fallback_reason ts with
    | None -> ()
    | Some reason ->
      Fmt.pr "  WARNING: layout store fell back to reference: %s@." reason);
    0
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Summarize a guarded-command program.")
    Term.(
      const run $ file_arg $ limit_arg $ timeout_arg $ engine_term
      $ memory_budget_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

let tolerance_conv =
  let parse s =
    match Spec.tolerance_of_string s with
    | Some t -> Ok (Some t)
    | None when s = "all" -> Ok None
    | None -> Error (`Msg (Fmt.str "unknown tolerance %S" s))
  in
  let print ppf = function
    | Some t -> Spec.pp_tolerance ppf t
    | None -> Fmt.string ppf "all"
  in
  Arg.conv (parse, print)

let tolerance_arg =
  Arg.(
    value
    & opt tolerance_conv None
    & info [ "t"; "tolerance" ] ~docv:"CLASS"
        ~doc:"Tolerance class: masking, failsafe, nonmasking, or all.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:"On failure, print a witness trace for each failing obligation.")

let verify_cmd =
  let run path tol limit explain timeout eopts memory_mb robust obs =
    with_obs ~sub:"verify" ~path obs @@ fun () ->
    guarded ?memory_mb ~path timeout @@ fun () ->
    chaos_site ();
    let engine = apply_engine eopts in
    with_checkpoint ~path ~sub:"verify"
      ~params:
        ((match tol with
         | Some t -> Fmt.str "%a" Spec.pp_tolerance t
         | None -> "all")
        :: string_of_int limit :: engine_params eopts)
      robust
    @@ fun () ->
    let e = Elaborate.load_file path in
    let classes =
      match tol with
      | Some t -> [ t ]
      | None -> [ Spec.Failsafe; Spec.Nonmasking; Spec.Masking ]
    in
    (* One session for every class: the invariant sweep, the fault span
       and the systems over it are built once and shared. *)
    let session =
      Tolerance.session ~limit ~engine e.program ~spec:e.spec
        ~invariant:e.invariant ~faults:e.faults
    in
    let explain_failures report =
      if explain then begin
        (* Witnesses are found on the session's composed p [] F system over
           the fault span: it contains every state either checker
           explored. *)
        let ts_pf = Tolerance.span_system session in
        List.iter
          (fun (item : Tolerance.item) ->
            match (item.outcome, ts_pf) with
            | Detcor_semantics.Check.Holds, _
            | Detcor_semantics.Check.Unknown _, _ ->
              ()
            | Detcor_semantics.Check.Fails _, None ->
              Fmt.pr "witness for %S: (fault span not explored: budget \
                      exhausted)@.@."
                item.label
            | Detcor_semantics.Check.Fails v, Some ts_pf -> (
              match Detcor_semantics.Explain.violation ts_pf v with
              | Some w ->
                Fmt.pr "witness for %S:@.%a@.@." item.label
                  Detcor_semantics.Explain.pp w
              | None ->
                Fmt.pr "witness for %S: (violation site not reachable in \
                        p[]F from the invariant)@.@."
                  item.label))
          (Tolerance.failures report)
      end
    in
    let fails = ref false in
    let unknown = ref false in
    List.iter
      (fun tol ->
        let report = Tolerance.report session tol in
        Fmt.pr "%a@.@." Tolerance.pp_report report;
        if Tolerance.failures report <> [] then begin
          fails := true;
          explain_failures report
        end;
        if Tolerance.unknowns report <> [] then unknown := true)
      classes;
    if !fails then begin
      Fmt.epr "dcheck: verification failed@.";
      1
    end
    else if !unknown then begin
      Fmt.epr "dcheck: verification incomplete (resource budget exhausted)@.";
      3
    end
    else 0
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check F-tolerance of the program against its specification.")
    Term.(
      const run $ file_arg $ tolerance_arg $ limit_arg $ explain_arg
      $ timeout_arg $ engine_term $ memory_budget_arg
      $ robust_term $ obs_term)

(* ------------------------------------------------------------------ *)
(* components                                                          *)
(* ------------------------------------------------------------------ *)

let components_cmd =
  let run path limit timeout obs =
    with_obs ~sub:"components" ~path obs @@ fun () ->
    guarded ~path timeout @@ fun () ->
    let e = Elaborate.load_file path in
    let sspec = Spec.safety (Spec.smallest_safety_containing e.spec) in
    let span =
      Tolerance.fault_span ~limit e.program ~faults:e.faults ~from:e.invariant
    in
    let ts_p =
      Detcor_semantics.Ts.build_within ~limit e.program ~span:span.ts_pf
    in
    Fmt.pr "fault span: %d states@.@." (List.length span.states);
    Fmt.pr "Detectors (weakest detection predicate per action):@.";
    List.iter
      (fun ac ->
        let wdp = Detection_predicate.weakest ~sspec ac in
        let holding =
          List.length (List.filter (Pred.holds wdp) span.states)
        in
        Fmt.pr "  %-16s safe in %d/%d span states@." (Action.name ac) holding
          (List.length span.states))
      (Program.actions e.program);
    Fmt.pr "@.Corrector (invariant as correction predicate):@.";
    let extracted =
      Extraction.corrector_for_invariant ts_p ~invariant:e.invariant
    in
    Fmt.pr "  '%s corrects %s': %a@."
      (Pred.name (Corrector.witness extracted.corrector))
      (Pred.name (Corrector.correction extracted.corrector))
      Detcor_semantics.Check.pp_outcome extracted.outcome;
    0
  in
  Cmd.v
    (Cmd.info "components"
       ~doc:"Extract detector and corrector components from the program.")
    Term.(const run $ file_arg $ limit_arg $ timeout_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* synthesize                                                          *)
(* ------------------------------------------------------------------ *)

let synthesize_cmd =
  let run path tol limit timeout eopts memory_mb robust obs =
    with_obs ~sub:"synthesize" ~path obs @@ fun () ->
    guarded ?memory_mb ~path timeout @@ fun () ->
    chaos_site ();
    let engine = apply_engine eopts in
    let tol = match tol with Some t -> t | None -> Spec.Masking in
    with_checkpoint ~path ~sub:"synthesize"
      ~params:
        (Fmt.str "%a" Spec.pp_tolerance tol
        :: string_of_int limit :: engine_params eopts)
      robust
    @@ fun () ->
    let e = Elaborate.load_file path in
    let result =
      match tol with
      | Spec.Failsafe ->
        Detcor_synthesis.Synthesize.add_failsafe ~limit ~engine
          e.program ~spec:e.spec ~invariant:e.invariant ~faults:e.faults
      | Spec.Nonmasking ->
        Detcor_synthesis.Synthesize.add_nonmasking ~limit ~engine
          e.program ~spec:e.spec ~invariant:e.invariant ~faults:e.faults
      | Spec.Masking ->
        Detcor_synthesis.Synthesize.add_masking ~limit ~engine
          e.program ~spec:e.spec ~invariant:e.invariant ~faults:e.faults
    in
    match result with
    | Error (Detcor_synthesis.Synthesize.Exhausted r) ->
      (* same contract as every other exhausted budget: exit 3 *)
      Fmt.epr "dcheck: %a@." Detcor_robust.Error.pp_resource r;
      3
    | Error f ->
      Fmt.epr "synthesis failed: %a@." Detcor_synthesis.Synthesize.pp_failure f;
      Fmt.epr "dcheck: synthesis failed@.";
      1
    | Ok r ->
      Fmt.pr "synthesized %s@." (Program.name r.program);
      List.iter
        (fun (ac, g) ->
          Fmt.pr "  detector added to %-12s (%s)@." ac (Pred.name g))
        r.added_detectors;
      if r.recovery_states > 0 then
        Fmt.pr "  corrector added: recovery from %d states@." r.recovery_states;
      if r.repair_iterations > 0 then
        Fmt.pr "  counterexample-guided repair: %d iteration%s@."
          r.repair_iterations
          (if r.repair_iterations = 1 then "" else "s");
      Fmt.pr "@.%a@." Tolerance.pp_report r.report;
      0
  in
  Cmd.v
    (Cmd.info "synthesize"
       ~doc:
         "Add fail-safe, nonmasking or masking tolerance to the program \
          (default: masking).")
    Term.(const run $ file_arg $ tolerance_arg $ limit_arg $ timeout_arg
          $ engine_term $ memory_budget_arg $ robust_term
          $ obs_term)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let runs_arg =
    Arg.(value & opt nat_conv 100 & info [ "runs" ] ~docv:"N" ~doc:"Number of runs.")
  in
  let steps_arg =
    Arg.(value & opt nat_conv 200 & info [ "steps" ] ~docv:"N" ~doc:"Steps per run.")
  in
  let prob_arg =
    Arg.(
      value
      & opt prob_conv 0.1
      & info [ "fault-prob" ] ~docv:"P" ~doc:"Per-step fault probability.")
  in
  let max_faults_arg =
    Arg.(
      value
      & opt nat_conv 1
      & info [ "max-faults" ] ~docv:"K" ~doc:"Fault budget per run.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")
  in
  let record_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:
            "Write the sampled runs as a detcor stream to $(docv), \
             replayable offline with $(b,dcheck monitor --stream).")
  in
  let run path runs steps prob max_faults seed record timeout memory_mb robust
      obs =
    with_obs ~sub:"simulate" ~path obs @@ fun () ->
    guarded ?memory_mb ~path timeout @@ fun () ->
    chaos_site ();
    with_checkpoint ~path ~sub:"simulate"
      ~params:
        [
          string_of_int runs; string_of_int steps; string_of_float prob;
          string_of_int max_faults; string_of_int seed;
        ]
      robust
    @@ fun () ->
    let e = Elaborate.load_file path in
    let open Detcor_sim in
    match Runner.initial_state e.program ~invariant:e.invariant with
    | None ->
      Fmt.epr "dcheck: no state satisfies the invariant@.";
      2
    | Some init ->
      let sspec = Spec.safety (Spec.smallest_safety_containing e.spec) in
      let samples =
        Runner.sample
          ~config:{ Runner.default with seed; max_steps = steps }
          runs e.program ~faults:e.faults
          ~policy:(Injector.Random { probability = prob; max_faults })
          ~init
      in
      let outcomes =
        Monitor.Compiled.outcomes
          (Monitor.Compiled.make ~program:e.program [ e.invariant ] sspec)
          ~invariant:0 samples
      in
      let violations =
        List.length
          (List.filter
             (fun (o : Monitor.Compiled.outcome) -> o.violation <> None)
             outcomes)
      in
      let settled =
        List.filter_map (fun (o : Monitor.Compiled.outcome) -> o.settled) outcomes
      in
      (match record with
      | None -> ()
      | Some file ->
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Stream.record oc ~program:(Program.name e.program) samples);
        Fmt.pr "recorded %d runs to %s@." runs file);
      Fmt.pr "runs: %d (%d steps each, fault prob %.2f, budget %d)@." runs
        steps prob max_faults;
      Fmt.pr "safety violations: %d/%d@." violations runs;
      Fmt.pr "runs ending inside the invariant: %d/%d@."
        (List.length settled) runs;
      Fmt.pr "steps to re-enter the invariant: %a@." Stats.pp_option
        (Stats.summarize settled);
      0
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Fault-injection simulation with online safety monitoring.")
    Term.(
      const run $ file_arg $ runs_arg $ steps_arg $ prob_arg $ max_faults_arg
      $ seed_arg $ record_arg $ timeout_arg $ memory_budget_arg $ robust_term
      $ obs_term)

(* ------------------------------------------------------------------ *)
(* monitor                                                             *)
(* ------------------------------------------------------------------ *)

(* Offline syndrome monitoring of recorded streams.  The program's whole
   witness family — invariant violation, the specification's bad states,
   and one unsafe(a) localization witness per action — is compiled into a
   single syndrome evaluator, followed by the specification's own safety
   columns; the stream's runs are then swept in batches of states, each
   batch reporting which witnesses fired, and the run's first safety
   violation is read from the same batches.  Latencies are
   measured per injected fault and exported through the metrics snapshot;
   the first witness to fire after each fault feeds the localization
   table. *)
let monitor_cmd =
  let stream_arg =
    Arg.(
      value
      & opt string "-"
      & info [ "stream" ] ~docv:"FILE"
          ~doc:
            "Recorded run stream to monitor (see $(b,dcheck simulate \
             --record)); $(b,-) reads standard input.")
  in
  let batch_arg =
    Arg.(
      value
      & opt pos_conv 256
      & info [ "batch" ] ~docv:"N" ~doc:"States per syndrome batch.")
  in
  let h_detect = Metrics.histogram "monitor.detection_latency" in
  let h_correct = Metrics.histogram "monitor.correction_latency" in
  let c_records = Metrics.counter "monitor.records" in
  let c_ranked = Metrics.counter "monitor.ranked_records" in
  let c_runs = Metrics.counter "monitor.runs" in
  let c_faults = Metrics.counter "monitor.faults" in
  let c_violations = Metrics.counter "monitor.safety_violations" in
  let run path stream batch_size timeout obs =
    with_obs ~sub:"monitor" ~path obs @@ fun () ->
    guarded ~path timeout @@ fun () ->
    let e = Elaborate.load_file path in
    let sspec = Spec.safety (Spec.smallest_safety_containing e.spec) in
    let open Detcor_sim in
    let family =
      Pred.not_ e.invariant
      :: Pred.make (Fmt.str "bad(%s)" (Safety.name sspec)) (Safety.bad_state sspec)
      :: List.map
           (fun ac -> Detection_predicate.unsafe ~sspec ac)
           (Program.actions e.program)
    in
    let safety = Monitor.Compiled.make ~program:e.program family sspec in
    let syn = Monitor.Compiled.family safety in
    (* The witnesses lead the family; the safety columns follow them. *)
    let m = List.length family in
    let names = Array.sub (Syndrome.pred_names syn) 0 m in
    Fmt.pr "monitoring %s with %d witnesses (%s)@." (Program.name e.program) m
      (if Syndrome.is_packed syn then "packed" else "reference");
    Array.iteri (fun j n -> Fmt.pr "  [%d] %s@." j n) names;
    let stream_path, ic, close_ic =
      if stream = "-" then ("<stdin>", stdin, ignore)
      else
        let ic = open_in stream in
        (stream, ic, fun () -> close_in ic)
    in
    (* Stream problems (unreadable file, malformed records) are located in
       the stream, not the program: a nested handler re-renders them with
       the stream path and its own exit code. *)
    Fun.protect ~finally:close_ic @@ fun () ->
    with_errors ~path:stream_path @@ fun () ->
    let detections = ref [] and corrections = ref [] in
    let violations = ref 0 and total_states = ref 0 and total_faults = ref 0 in
    let nruns = ref 0 in
    (* first-fired witness -> (fault action -> count) *)
    let localization : (string, (string, int) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 7
    in
    let localize witness fault_action =
      let inner =
        match Hashtbl.find_opt localization witness with
        | Some t -> t
        | None ->
          let t = Hashtbl.create 7 in
          Hashtbl.add localization witness t;
          t
      in
      Hashtbl.replace inner fault_action
        (1 + Option.value ~default:0 (Hashtbl.find_opt inner fault_action))
    in
    let monitor_run () (r : Stream.ranked) =
      let n = Array.length r.ranks in
      let nfaults = List.length r.fault_steps in
      let nonzero = Array.make n false in
      let fired_low = Array.make n (-1) in
      let inv_ok = Array.make n true in
      (* Sweep the run in state batches; each batch line reports the
         OR-syndrome over its witnesses and the per-witness fire counts.
         The batches are kept, in reverse, for the safety scan. *)
      let rec batches k base acc =
        if base >= n then acc
        else begin
          let len = min batch_size (n - base) in
          let b = Syndrome.of_ranks syn r.ranks ~escaped:r.escaped ~pos:base ~len in
          let vec =
            String.init m (fun j ->
                if Detcor_semantics.Bitset.any (Syndrome.column b j) then '1'
                else '0')
          in
          let fired =
            List.filter_map
              (fun j ->
                let c = Detcor_semantics.Bitset.cardinal (Syndrome.column b j) in
                if c = 0 then None else Some (Fmt.str "%s=%d" names.(j) c))
              (List.init m Fun.id)
          in
          Fmt.pr "  batch %d: states=%d syndrome=%s%s@." k len vec
            (match fired with
            | [] -> ""
            | fs -> " fired: " ^ String.concat " " fs);
          for i = 0 to len - 1 do
            let g = base + i in
            inv_ok.(g) <- not (Syndrome.get b ~state:i ~pred:0);
            let j = Syndrome.first_fired b ~state:i in
            if j >= 0 && j < m then begin
              nonzero.(g) <- true;
              fired_low.(g) <- j
            end
          done;
          batches (k + 1) (base + len) (b :: acc)
        end
      in
      Fmt.pr "run %d: states=%d faults=%d@." r.index n nfaults;
      let swept = List.rev (batches 0 0 []) in
      (* Per injected fault: steps from the faulty state to the first
         fired witness (detection) and to invariant re-entry
         (correction). *)
      List.iter
        (fun s ->
          let fs = s + 1 in
          let fault_action = r.actions.(s) in
          let rec find ok j = if j >= n then None else if ok j then Some j else find ok (j + 1) in
          (match find (fun j -> nonzero.(j)) fs with
          | Some j ->
            detections := (j - fs) :: !detections;
            Metrics.observe h_detect (j - fs);
            if fired_low.(j) >= 0 then localize names.(fired_low.(j)) fault_action
          | None -> ());
          match find (fun j -> inv_ok.(j)) fs with
          | Some j ->
            corrections := (j - fs) :: !corrections;
            Metrics.observe h_correct (j - fs)
          | None -> ())
        r.fault_steps;
      let trace () = (Stream.decode ?layout:(Syndrome.layout syn) r).trace in
      (match Monitor.Compiled.first_safety_violation safety ~trace swept with
      | Some i ->
        incr violations;
        Fmt.pr "  safety violated at state %d@." i
      | None -> ());
      Metrics.incr
        ~by:(Array.fold_left (fun c rk -> if rk >= 0 then c + 1 else c) 0 r.ranks)
        c_ranked;
      total_states := !total_states + n;
      total_faults := !total_faults + nfaults;
      incr nruns;
      Metrics.incr ~by:n c_records;
      Metrics.incr ~by:nfaults c_faults;
      Metrics.incr c_runs
    in
    let (), _program =
      (* Heartbeats report sweep throughput: states monitored so far and
         the derived states/sec. *)
      Progress.with_phase "monitor.sweep"
        (fun () -> [ ("states", !total_states); ("runs", !nruns) ])
        (fun () ->
          Stream.fold_ranked ?layout:(Syndrome.layout syn) ic ~init:()
            ~f:monitor_run
            ~on_torn:(fun line ->
              Fmt.epr
                "dcheck: warning: torn record at end of stream (line %d) — \
                 salvaged the complete prefix@."
                line))
    in
    if !violations > 0 then Metrics.incr ~by:!violations c_violations;
    Fmt.pr "runs: %d  states: %d  faults: %d@." !nruns !total_states
      !total_faults;
    Fmt.pr "safety violations: %d/%d@." !violations !nruns;
    Fmt.pr "detection latency:  %a@." Stats.pp_option
      (Stats.summarize !detections);
    Fmt.pr "correction latency: %a@." Stats.pp_option
      (Stats.summarize !corrections);
    Fmt.pr "fault localization:@.";
    if Hashtbl.length localization = 0 then Fmt.pr "  (no faults detected)@."
    else
      Hashtbl.fold (fun w inner acc -> (w, inner) :: acc) localization []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (w, inner) ->
             let classes =
               Hashtbl.fold (fun f c acc -> (f, c) :: acc) inner []
               |> List.sort (fun (a, _) (b, _) -> String.compare a b)
               |> List.map (fun (f, c) -> Fmt.str "%s:%d" f c)
             in
             Fmt.pr "  %s -> %s@." w (String.concat " " classes));
    if !violations > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Replay a recorded run stream through the compiled syndrome \
          monitor: per-batch witness vectors, per-fault latencies, and a \
          fault-localization summary.")
    Term.(
      const run $ file_arg $ stream_arg $ batch_arg $ timeout_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

(* Run the verification pipeline under an in-memory recording context and
   print the per-phase breakdown.  Verdicts are printed too, so a profile
   run doubles as a verify run. *)
let profile_cmd =
  let run path tol limit timeout obs =
    let mem, records = Sink.memory () in
    with_obs ~extra:[ mem ] ~sub:"profile" ~path obs @@ fun () ->
    guarded ~path timeout @@ fun () ->
    let e = Elaborate.load_file path in
    let classes =
      match tol with
      | Some t -> [ t ]
      | None -> [ Spec.Failsafe; Spec.Nonmasking; Spec.Masking ]
    in
    (* The same one-session pipeline as [verify]. *)
    let session =
      Tolerance.session ~limit e.program ~spec:e.spec ~invariant:e.invariant
        ~faults:e.faults
    in
    let reports =
      List.map (fun tol -> (tol, Tolerance.report session tol)) classes
    in
    Fmt.pr "profile of %s (%s)@.@." path (Program.name e.program);
    Fmt.pr "%a@.@." Profile.pp_table (records ());
    Fmt.pr "engine counters:@.";
    List.iter
      (fun name ->
        let v = Metrics.counter_value_by_name name in
        if v > 0 then Fmt.pr "  %-28s %d@." name v)
      [
        "engine.builds"; "engine.derived"; "engine.states_visited";
        "engine.edges";
        "engine.pred_cache.hits"; "engine.pred_cache.misses";
        "engine.enabled_cache.hits"; "engine.enabled_cache.misses";
        "engine.fallbacks"; "engine.enum.nodes";
      ];
    Fmt.pr "@.";
    List.iter
      (fun (tol, report) ->
        Fmt.pr "%a: %s@." Spec.pp_tolerance tol
          (if Tolerance.verdict report then "holds"
           else if Tolerance.failures report <> [] then "FAILS"
           else "UNKNOWN"))
      reports;
    0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Verify the program under tracing and print a per-phase time/space \
          breakdown.")
    Term.(const run $ file_arg $ tolerance_arg $ limit_arg $ timeout_arg
          $ obs_term)

(* ------------------------------------------------------------------ *)
(* graph                                                               *)
(* ------------------------------------------------------------------ *)

let graph_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write DOT to FILE (default stdout).")
  in
  let faults_arg =
    Arg.(
      value & flag
      & info [ "with-faults" ] ~doc:"Include fault transitions (dashed).")
  in
  let run path out with_faults limit timeout obs =
    with_obs ~sub:"graph" ~path obs @@ fun () ->
    guarded ~path timeout @@ fun () ->
    let e = Elaborate.load_file path in
    let program =
      if with_faults then Fault.compose e.program e.faults else e.program
    in
    let ts =
      Detcor_semantics.Ts.of_pred ~limit program ~from:e.invariant
    in
    let style =
      {
        Detcor_semantics.Dot.highlight = [ (e.invariant, "palegreen") ];
        dashed_actions =
          (if with_faults then Fault.action_names e.faults else []);
        show_action_labels = true;
      }
    in
    (match out with
    | Some file ->
      Detcor_semantics.Dot.to_file ~style ts file;
      Fmt.pr "wrote %s (%d states)@." file (Detcor_semantics.Ts.num_states ts)
    | None -> print_string (Detcor_semantics.Dot.to_string ~style ts));
    0
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Export the reachable transition system (from the invariant) as \
          Graphviz DOT; invariant states are highlighted.")
    Term.(
      const run $ file_arg $ out_arg $ faults_arg $ limit_arg $ timeout_arg
      $ obs_term)

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

let pp_bytes ppf n =
  if n >= 1 lsl 30 then Fmt.pf ppf "%.1fGiB" (float_of_int n /. 1073741824.0)
  else if n >= 1 lsl 20 then Fmt.pf ppf "%.1fMiB" (float_of_int n /. 1048576.0)
  else if n >= 1 lsl 10 then Fmt.pf ppf "%.1fKiB" (float_of_int n /. 1024.0)
  else Fmt.pf ppf "%dB" n

let pp_stamp ppf ts =
  let tm = Unix.localtime ts in
  Fmt.pf ppf "%04d-%02d-%02d %02d:%02d:%02d" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let report_cmd =
  let ledger_pos =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"LEDGER"
          ~doc:"Run ledger written with $(b,--ledger) / $(b,DCHECK_LEDGER).")
  in
  let last_arg =
    Arg.(
      value
      & opt int 10
      & info [ "last" ] ~docv:"N"
          ~doc:"List the $(docv) most recent runs (0 hides the listing).")
  in
  let run lpath last =
    with_errors ~path:lpath @@ fun () ->
    let entries, bad = Ledger.load ~path:lpath in
    if bad > 0 then
      Fmt.epr "dcheck: %s: skipped %d malformed line%s@." lpath bad
        (if bad = 1 then "" else "s");
    if entries = [] then begin
      Fmt.pr "ledger %s: no entries@." lpath;
      0
    end
    else begin
      let n = List.length entries in
      let total_s =
        List.fold_left (fun a (e : Ledger.entry) -> a +. e.duration_s) 0.0
          entries
      in
      let peak =
        List.fold_left
          (fun a (e : Ledger.entry) -> max a e.peak_rss_bytes)
          0 entries
      in
      let trips =
        List.length
          (List.filter (fun (e : Ledger.entry) -> e.budget_trip <> None) entries)
      in
      Fmt.pr "ledger %s: %d runs, %.2fs total, peak RSS %a, %d budget trips@.@."
        lpath n total_s pp_bytes peak trips;
      (* One row per (subcommand, verdict), counts and time — the shape of
         the workload at a glance. *)
      let by_key : (string * string, int * float) Hashtbl.t =
        Hashtbl.create 16
      in
      List.iter
        (fun (e : Ledger.entry) ->
          let key = (e.subcommand, e.verdict) in
          let c, d =
            Option.value ~default:(0, 0.0) (Hashtbl.find_opt by_key key)
          in
          Hashtbl.replace by_key key (c + 1, d +. e.duration_s))
        entries;
      Fmt.pr "%-12s %-12s %6s %10s@." "subcommand" "verdict" "runs" "total";
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_key []
      |> List.sort compare
      |> List.iter (fun ((sub, verdict), (c, d)) ->
             Fmt.pr "%-12s %-12s %6d %9.2fs@." sub verdict c d);
      if last > 0 then begin
        let recent =
          let rec take k = function
            | e :: rest when k > 0 -> e :: take (k - 1) rest
            | _ -> []
          in
          take last (List.rev entries)
        in
        Fmt.pr "@.last %d runs (most recent first):@."
          (List.length recent);
        List.iter
          (fun (e : Ledger.entry) ->
            Fmt.pr "  %a  %-10s %-22s %-11s exit %d  %7.2fs  %a%s@." pp_stamp
              e.timestamp e.subcommand
              (Filename.basename e.file)
              e.verdict e.exit_code e.duration_s pp_bytes e.peak_rss_bytes
              (match e.budget_trip with
              | Some k -> "  [" ^ k ^ " budget tripped]"
              | None -> ""))
          recent
      end;
      0
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Summarize a run ledger: per-subcommand verdict counts, total \
          time, peak RSS and budget trips, plus the most recent runs.")
    Term.(const run $ ledger_pos $ last_arg)

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

(* One blocking scrape of a peer's exposition endpoint.  Returns the
   response body (headers stripped), or [None] when the endpoint cannot
   be reached — which during polling means the watched run has ended. *)
let scrape_once ip port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect sock (Unix.ADDR_INET (ip, port)) with
      | exception Unix.Unix_error _ -> None
      | () ->
        let req = "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n" in
        ignore (Unix.write_substring sock req 0 (String.length req));
        let buf = Buffer.create 8192 in
        let bytes = Bytes.create 8192 in
        let rec drain () =
          match Unix.read sock bytes 0 8192 with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf bytes 0 n;
            drain ()
          | exception Unix.Unix_error _ -> ()
        in
        drain ();
        let resp = Buffer.contents buf in
        let body =
          let n = String.length resp in
          let rec find i =
            if i + 4 > n then None
            else if String.sub resp i 4 = "\r\n\r\n" then Some (i + 4)
            else find (i + 1)
          in
          match find 0 with
          | Some i -> String.sub resp i (n - i)
          | None -> ""
        in
        if body = "" then None else Some body)

let top_cmd =
  let addr_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:
            "Telemetry address of a running dcheck, as printed by \
             $(b,--telemetry).")
  in
  let interval_arg =
    Arg.(
      value
      & opt period_conv 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between polls.")
  in
  let iterations_arg =
    Arg.(
      value
      & opt nat_conv 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) polls (0: poll until interrupted or the \
             watched run ends).")
  in
  let run addr interval iterations =
    match Telemetry.parse_addr addr with
    | Error m ->
      Fmt.epr "dcheck: %s@." m;
      2
    | Ok (_host, ip, port) ->
      let value samples name =
        List.find_map
          (fun (s : Expose.sample) ->
            if s.metric = name then Some s.value else None)
          samples
      in
      let label samples name key =
        List.find_map
          (fun (s : Expose.sample) ->
            if s.metric = name then List.assoc_opt key s.labels else None)
          samples
      in
      let show samples poll =
        let num name =
          match value samples name with
          | Some v -> Fmt.str "%.0f" v
          | None -> "-"
        in
        let phase =
          Option.value ~default:"idle" (label samples "obs_phase_info" "phase")
        in
        let eta =
          match value samples "obs_phase_eta_seconds" with
          | Some v when v >= 0.0 -> Fmt.str "%.1fs" v
          | _ -> "-"
        in
        let mem name =
          match value samples name with
          | Some v -> Fmt.str "%a" pp_bytes (int_of_float v)
          | None -> "-"
        in
        Fmt.pr "[%4d] phase=%-14s items=%-9s rate=%s/s eta=%-7s \
                states=%-9s heap=%-8s rss=%s@."
          poll phase
          (num "obs_phase_items")
          (num "obs_phase_rate")
          eta
          (num "engine_states_total")
          (mem "process_heap_bytes")
          (mem "process_peak_rss_bytes")
      in
      let rec poll i misses =
        if iterations > 0 && i > iterations then 0
        else
          match scrape_once ip port with
          | None ->
            if i = 1 then begin
              Fmt.epr "dcheck: no telemetry endpoint at %s@." addr;
              2
            end
            else if misses >= 1 then begin
              (* Two consecutive failed scrapes: the watched run ended. *)
              Fmt.pr "endpoint %s gone; run ended@." addr;
              0
            end
            else begin
              Unix.sleepf interval;
              poll (i + 1) (misses + 1)
            end
          | Some body ->
            let samples =
              String.split_on_char '\n' body
              |> List.filter_map (fun line ->
                     match Expose.parse_line line with
                     | Ok (Some s) -> Some s
                     | Ok None | Error _ -> None)
            in
            show samples i;
            if iterations > 0 && i >= iterations then 0
            else begin
              Unix.sleepf interval;
              poll (i + 1) 0
            end
      in
      poll 1 0
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Poll a running dcheck's $(b,--telemetry) endpoint and display \
          live progress: current phase, item counts, rate, ETA and \
          process gauges.")
    Term.(const run $ addr_pos $ interval_arg $ iterations_arg)

(* ------------------------------------------------------------------ *)
(* serve / client                                                      *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let listen_arg =
    Arg.(
      value
      & opt string "127.0.0.1:0"
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Address to serve the job protocol on ($(b,HOST:PORT), \
             $(b,:PORT) or $(b,PORT); port 0 picks a free port).  The \
             bound address is printed on stdout once listening.")
  in
  let spool_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:
            "Crash-safe job spool: accepted jobs, their outputs and \
             their checkpoints live here, so a killed daemon restarted \
             on the same spool re-adopts and finishes every accepted \
             job.")
  in
  let slots_arg =
    Arg.(
      value
      & opt pos_conv
          Detcor_serve.Server.default_config.Detcor_serve.Server.slots
      & info [ "slots" ] ~docv:"N"
          ~doc:"Concurrently running worker subprocesses.")
  in
  let queue_max_arg =
    Arg.(
      value
      & opt pos_conv
          Detcor_serve.Server.default_config.Detcor_serve.Server.queue_max
      & info [ "queue-max" ] ~docv:"N"
          ~doc:
            "Queued-job ceiling: submissions beyond it are refused with \
             a typed $(b,overloaded) reply, never queued unboundedly.")
  in
  let tenant_max_arg =
    Arg.(
      value
      & opt pos_conv
          Detcor_serve.Server.default_config.Detcor_serve.Server.tenant_max
      & info [ "tenant-max" ] ~docv:"N"
          ~doc:"Live (queued or running) jobs allowed per tenant.")
  in
  let watchdog_arg =
    Arg.(
      value
      & opt (some period_conv) (Some 30.0)
      & info [ "watchdog" ] ~docv:"SECONDS"
          ~doc:
            "Per-job wall-clock ceiling; a worker that outlives it is \
             killed (SIGTERM, then SIGKILL) and retried under the \
             backoff policy.")
  in
  let retries_arg =
    Arg.(
      value
      & opt nat_conv
          Detcor_serve.Server.default_config.Detcor_serve.Server.policy
            .Detcor_robust.Watchdog.max_retries
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retries (with exponential backoff) for a worker that dies \
             without a verdict before the job is marked failed.")
  in
  let run listen spool slots queue_max tenant_max watchdog retries obs =
    with_obs ~sub:"serve" ~path:spool obs @@ fun () ->
    with_errors ~path:spool @@ fun () ->
    let cfg =
      {
        Detcor_serve.Server.default_config with
        Detcor_serve.Server.listen;
        spool;
        slots;
        queue_max;
        tenant_max;
        policy =
          {
            Detcor_robust.Watchdog.default_policy with
            Detcor_robust.Watchdog.max_retries = retries;
            watchdog_s = watchdog;
          };
      }
    in
    Detcor_serve.Server.run cfg
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent verification daemon: a crash-safe job queue \
          over loopback TCP (JSON lines) running verify/synthesize/simulate \
          jobs on supervised worker subprocesses, with admission control, \
          watchdogs, retry-with-backoff, checkpoint preemption of batch \
          work and a result cache.  SIGTERM drains gracefully (exit 143); \
          a $(b,kill -9) loses no accepted job — restart on the same \
          $(b,--spool) to resume.")
    Term.(
      const run $ listen_arg $ spool_arg $ slots_arg $ queue_max_arg
      $ tenant_max_arg $ watchdog_arg $ retries_arg $ obs_term)

let client_cmd =
  let addr_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR" ~doc:"Daemon address (HOST:PORT).")
  in
  let json_pos =
    Arg.(
      non_empty
      & pos_right 0 string []
      & info [] ~docv:"JSON"
          ~doc:
            "Requests, one JSON object each, e.g. \
             '{\"op\":\"submit\",\"kind\":\"verify\",\"file\":\"p.dc\"}'.")
  in
  let run addr jsons =
    match Detcor_serve.Client.connect addr with
    | Error m -> or_die (Error m)
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> Detcor_serve.Client.close c)
        (fun () ->
          List.fold_left
            (fun code line ->
              match Detcor_serve.Client.rpc_raw c line with
              | Error m -> or_die (Error m)
              | Ok reply ->
                print_endline reply;
                let refused =
                  match Jsonx.of_string reply with
                  | Ok j -> Jsonx.member "ok" j = Some (Jsonx.Bool false)
                  | Error _ -> true
                in
                if refused then 1 else code)
            0 jsons)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send raw protocol requests to a running $(b,dcheck serve) daemon \
          and print each reply line.  Exits 1 if any reply was refused \
          ($(i,ok:false)).")
    Term.(const run $ addr_pos $ json_pos)

let main =
  Cmd.group
    (Cmd.info "dcheck" ~version:"1.0.0"
       ~doc:
         "Detectors and correctors: verification, extraction, synthesis and \
          simulation of fault-tolerance components.")
    [ info_cmd; verify_cmd; components_cmd; synthesize_cmd; simulate_cmd;
      monitor_cmd; profile_cmd; graph_cmd; report_cmd; top_cmd; serve_cmd;
      client_cmd ]

(* cmdliner reports its own CLI parse problems with [Exit.cli_error]
   (124); the documented contract puts every usage error at 2. *)
let () =
  let code = Cmd.eval' main in
  let code = if code = Cmd.Exit.cli_error then 2 else code in
  exit_code_seen := code;
  exit code
