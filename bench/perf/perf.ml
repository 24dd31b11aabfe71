(* The repository's benchmark: dcheck's time to a correct verdict on four
   corpus workloads, end to end and layer by layer.

     dune exec bench/perf/perf.exe -- [--workload NAME] [--seed N]
                                       [--seconds S] [--trace 0|1]

   Run from the repository root.  Timed runs spawn the built
   _build/default/bin/dcheck.exe in a closed loop (one client, one child
   at a time) and give the end-to-end metrics; the traced pass runs the
   same jobs in process under span recording and gives the per-layer
   metrics.  [--trace 0] runs only the former, [--trace 1] only the
   latter, and no [--trace] both.  Without [--workload] every workload
   runs.  Every verdict is checked against bench/perf/expected.txt; the
   last stdout line is a JSON summary, and the exit code is 1 when any
   job failed.  See bench/perf/README.md. *)

module Obs = Detcor_obs.Obs
module Sink = Detcor_obs.Sink
module Metrics = Detcor_obs.Metrics
module Jsonx = Detcor_obs.Jsonx
module S = Perf_stats

let dcheck = "_build/default/bin/dcheck.exe"
let expected_file = "bench/perf/expected.txt"
let run_root = "bench/perf/_run"
let min_passes = 3
let version_spawns = 100
let layout_reps = 5

(* Metrics carried by the JSON line; the others are printed only.  The
   per-layer ones are those every workload measures: the time of a layer
   some workload skips would read 0 on every run of that workload. *)
let json_metrics =
  [
    "setup_s"; "pass_best_s"; "job_best_p50_ms"; "job_best_max_ms"; "cpu_best_s";
    "peak_rss_mb";
    "dcheck.start_ms"; "dcheck.cli_overhead_ms"; "lang.load_ms";
    "layout.of_program_ms"; "trace.pass_ms"; "dcheck.self_pct"; "lang.self_pct";
    "kernel.self_pct"; "spec.self_pct"; "semantics.self_pct"; "core.self_pct";
    "synthesis.self_pct"; "sim.self_pct"; "lang.load_alloc_kw"; "ts.builds";
    "ts.states_visited"; "ts.edges"; "ts.alloc_words_per_state";
    "ts.full_alloc_words_per_state"; "ts.pred_cache_hit_ratio";
    "ts.enabled_cache_hit_ratio"; "synth.repair_iterations";
    "kernel.init_enum_states"; "sim.record_bytes"; "sim.syndrome_hit_ratio";
    "gc.major_collections_per_job"; "obs.trace_overhead_pct";
    "trace.unattributed_pct";
  ]

let counters =
  [
    "engine.builds"; "engine.states_visited"; "engine.edges";
    "engine.pred_cache.hits"; "engine.pred_cache.misses";
    "engine.enabled_cache.hits"; "engine.enabled_cache.misses"; "sim.steps";
    "sim.syndrome.hits"; "sim.syndrome.misses";
  ]

let now_ns () = Int64.to_int (Obs.now_ns ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
let ms ns = float_of_int ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Correctness bookkeeping.                                            *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let fail ~where key reason =
  tally.failed <- tally.failed + 1;
  Fmt.epr "perf: FAILED %s %s: %s@." where key reason

(* Check one unit's jobs, given in run order with their exit code and
   output or the reason they produced none: each against its expected
   answer, and a simulate/monitor pair against each other. *)
let check_unit ~where expected results =
  tally.attempted <- tally.attempted + List.length results;
  List.iter
    (fun ((job : Workload.job), outcome) ->
      match outcome with
      | Error why -> fail ~where job.key why
      | Ok (code, text) -> (
        match Workload.mismatch (List.assoc job.key expected) ~code ~text with
        | None -> ()
        | Some why -> fail ~where job.key why))
    results;
  match results with
  | [ ({ Workload.sub = Simulate _; _ }, Ok (_, sim)); (mon_job, Ok (_, mon)) ] ->
    let s = Workload.violations sim and m = Workload.violations mon in
    if s = None || s <> m then
      fail ~where mon_job.key "monitor's safety violations differ from simulate's"
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Timed runs: spawned dcheck children.                                 *)
(* ------------------------------------------------------------------ *)

type sample = { key : string; wall_ns : int; peak_rss : int }
type pass = { pass_ns : int; cpu_s : float; samples : sample list }

let child_cpu () =
  let t = Unix.times () in
  t.tms_cutime +. t.tms_cstime

let stdin_fd = lazy (
  let path = Filename.concat run_root "stdin" in
  close_out (open_out path);
  Unix.openfile path [ O_RDONLY; O_CLOEXEC ] 0)

let spawn_pass (w : Workload.t) ~expected ~rng ~dir =
  Unix.mkdir dir 0o755;
  let units = Workload.shuffle rng w.units in
  let cpu0 = child_cpu () in
  let t0 = now_ns () in
  let ran =
    List.mapi
      (fun u jobs ->
        let unit_dir = Filename.concat dir (Fmt.str "u%d" u) in
        Unix.mkdir unit_dir 0o755;
        List.mapi
          (fun k job ->
            ( job,
              Spawn.run ~dcheck ~stdin:(Lazy.force stdin_fd) ~ledger:true
                ~dir:(Filename.concat unit_dir (Fmt.str "j%d" k))
                (Workload.args job ~unit_dir) ))
          jobs)
      units
  in
  let pass_ns = now_ns () - t0 in
  let cpu_s = child_cpu () -. cpu0 in
  Spawn.rm_rf dir;
  let where = "spawned " ^ w.name in
  let outcome (r : Spawn.result) =
    match r.status with
    | _ when r.killed -> Error (Fmt.str "killed by the %.0f s watchdog" Spawn.watchdog_s)
    | WSIGNALED n | WSTOPPED n -> Error (Fmt.str "died on signal %d" n)
    | WEXITED _ when r.peak_rss = None -> Error "no run-ledger row"
    | WEXITED code -> Ok (code, r.text)
  in
  let samples =
    List.concat_map
      (fun results ->
        check_unit ~where expected (List.map (fun (job, r) -> (job, outcome r)) results);
        List.filter_map
          (fun ((job : Workload.job), (r : Spawn.result)) ->
            Option.map (fun peak_rss -> { key = job.key; wall_ns = r.wall_ns; peak_rss }) r.peak_rss)
          results)
      ran
  in
  { pass_ns; cpu_s; samples }

(* Passes until [seconds] would be exceeded by one more (at least
   [min_passes]), estimating a pass by the median so far. *)
let timed_passes ~seconds ~estimate run =
  let t0 = now_ns () in
  let rec go acc n =
    let walls = List.map (fun p -> float_of_int p.pass_ns /. 1e9) acc in
    let est = if walls = [] then estimate else S.median walls in
    if n >= min_passes && seconds_since t0 +. est > seconds then List.rev acc
    else go (run n :: acc) (n + 1)
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* Machine speed.                                                       *)
(* ------------------------------------------------------------------ *)

(* A fixed computation of the benchmark's own, allocation- and
   memory-bound like dcheck, that no change to the program under test can
   speed up.  On a shared machine other tenants slow everything down for
   minutes at a time, fastest runs included; the fastest probe of a run
   slows down with them.  The end-to-end timings are scaled to a machine
   on which the probe takes [probe_ref_s]. *)
module Int_map = Map.Make (Int)

let probe_ref_s = 0.1
let probe_every_s = 1.0

let speed_probe () =
  let t0 = now_ns () in
  let m = ref Int_map.empty in
  for i = 0 to 69_999 do
    m := Int_map.add ((i * 7919) land 0x3ffff) i !m
  done;
  let a = Array.init 200_000 (fun i -> (i * 104729) land 0xffffff) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (Int_map.cardinal !m + a.(0)));
  float_of_int (now_ns () - t0) /. 1e9

(* ------------------------------------------------------------------ *)
(* The traced pass: the same jobs in process.                           *)
(* ------------------------------------------------------------------ *)

(* Records of spans only: instant events (one per simulated step) would
   dominate memory and say nothing about layers. *)
let span_sink () =
  let sink, records = Sink.memory () in
  ( { sink with emit = (function Sink.Instant _ -> () | r -> sink.Sink.emit r) },
    records )

type inproc_pass = {
  jobs : Layers.job list;
  counts : (string * int) list;
  major_gcs : int;
}

let inproc_pass (w : Workload.t) ~traced ~expected ~rng ~dir =
  Unix.mkdir dir 0o755;
  let units = Workload.shuffle rng w.units in
  let before = List.map Metrics.counter_value_by_name counters in
  let major_gcs = ref 0 in
  let where = (if traced then "traced " else "in-process ") ^ w.name in
  let jobs =
    List.concat
      (List.mapi
         (fun u unit_jobs ->
           let unit_dir = Filename.concat dir (Fmt.str "u%d" u) in
           Unix.mkdir unit_dir 0o755;
           let ran =
             List.map
               (fun (job : Workload.job) ->
                 (* start every job from a compacted heap, as a fresh
                    process would *)
                 Gc.compact ();
                 let sink, records = span_sink () in
                 let ctx = if traced then Obs.make ~sinks:[ sink ] () else Obs.disabled in
                 let gc0 = (Gc.quick_stat ()).major_collections in
                 let t0 = now_ns () in
                 let outcome =
                   try Ok (Obs.with_ctx ctx (fun () -> Inproc.run job ~unit_dir))
                   with e -> Error ("raised " ^ Printexc.to_string e)
                 in
                 let wall_ns = now_ns () - t0 in
                 major_gcs := !major_gcs + (Gc.quick_stat ()).major_collections - gc0;
                 ( job,
                   outcome,
                   { Layers.key = job.key; wall_ns;
                     spans = Layers.spans_of_records (records ()) } ))
               unit_jobs
           in
           check_unit ~where expected (List.map (fun (job, outcome, _) -> (job, outcome)) ran);
           List.map (fun (_, _, lj) -> lj) ran)
         units)
  in
  let counts =
    List.map2 (fun name b -> (name, Metrics.counter_value_by_name name - b)) counters before
  in
  Spawn.rm_rf dir;
  { jobs; counts; major_gcs = !major_gcs }

let pass_wall (p : inproc_pass) = List.fold_left (fun a (j : Layers.job) -> a + j.wall_ns) 0 p.jobs

(* The fastest latency of each job key, in ms. *)
let best_by_key pairs =
  List.fold_left
    (fun acc (k, ns) ->
      let v = ms ns in
      match List.assoc_opt k acc with
      | Some b when b <= v -> acc
      | _ -> (k, v) :: List.remove_assoc k acc)
    [] pairs

(* Median over jobs of (fastest spawned latency - fastest in-process
   latency); the list is empty when no spawned job succeeded. *)
let cli_overhead_ms spawned inproc =
  let sp = best_by_key (List.map (fun s -> (s.key, s.wall_ns)) spawned) in
  let ip =
    best_by_key
      (List.concat_map
         (fun (p : inproc_pass) ->
           List.map (fun (j : Layers.job) -> (j.key, j.wall_ns)) p.jobs)
         inproc)
  in
  match List.map (fun (k, v) -> v -. List.assoc k ip) sp with
  | [] -> []
  | diffs -> [ S.median diffs ]

(* Mean over the workload's programs of the median time of one
   [Layout.of_program] call on the fault-composed program, which is what
   the engine compiles.  Measured outside the traced pass: dcheck makes
   this call inside Ts, where the benchmark adds no span. *)
let layout_ms (w : Workload.t) =
  let models = List.sort_uniq compare (List.map (fun (j : Workload.job) -> j.model) (Workload.jobs w)) in
  let per_model m =
    let e = Detcor_lang.Elaborate.load_file (Workload.model_path m) in
    let p = Detcor_core.Fault.compose e.program e.faults in
    S.median
      (List.init layout_reps (fun _ ->
           let t0 = now_ns () in
           ignore (Detcor_semantics.Layout.of_program p);
           ms (now_ns () - t0)))
  in
  let l = List.map per_model models in
  List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)
(* One workload.                                                        *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric name value unit_ note = { name; value; unit_; note }
let secs p = float_of_int p.pass_ns /. 1e9

(* Timings are the fastest of the timed passes, since contention only
   ever adds time, scaled by the run's fastest speed probe (see
   README.md). *)
let end_to_end (w : Workload.t) ~setup_s ~probes passes =
  let samples = List.concat_map (fun p -> p.samples) passes in
  if samples = [] then [] (* every job failed: nothing to time *)
  else begin
    let probe = List.fold_left Float.min infinity probes in
    let scale = probe_ref_s /. probe in
    let best = List.map snd (best_by_key (List.map (fun s -> (s.key, s.wall_ns)) samples)) in
    let lat = List.map (fun s -> ms s.wall_ns) samples in
    let n = List.length lat and np = List.length passes in
    let low f = List.fold_left (fun a p -> Float.min a (f p)) infinity passes in
    let peak = List.fold_left (fun a s -> max a s.peak_rss) 0 samples in
    [
      metric "setup_s" (scale *. setup_s) "s"
        (Fmt.str "median of %d warm-up passes, the first cold" w.warmup);
      metric "pass_best_s" (scale *. low secs) "s"
        (Fmt.str "fastest of %d timed passes" np);
      metric "job_best_p50_ms" (scale *. S.median best) "ms"
        (Fmt.str "median over %d jobs of their fastest run" (List.length best));
      metric "job_best_max_ms" (scale *. List.fold_left Float.max 0.0 best) "ms"
        "the slowest job's fastest run";
      metric "cpu_best_s" (scale *. low (fun p -> p.cpu_s)) "s"
        "least child user+sys CPU of a timed pass";
      metric "peak_rss_mb" (float_of_int peak /. 1048576.0) "MiB"
        "max over jobs of the child's own peak RSS";
      metric "speed_probe_ms" (1e3 *. probe) "ms"
        (Fmt.str "fastest of %d probes; the timings above are scaled by %.4f" (List.length probes)
           scale);
      metric "pass_median_s" (S.median (List.map secs passes)) "s" "unscaled, contention included";
      metric "job_p50_ms" (S.median lat) "ms"
        (Fmt.str "unscaled, pooled over %d job runs, contention included" n);
    ]
    @
    match S.highest_supported n with
    | Some p when p >= 90 ->
      [
        metric "job_tail_ms" (S.quantile lat (float_of_int p /. 100.0)) "ms"
          (Fmt.str "unscaled p%d, the highest with 10 of the %d runs beyond it" p n);
      ]
    | _ -> []
  end

let per_layer (w : Workload.t) ~seconds ~expected ~rng ~fresh ~spawned =
  let t0 = now_ns () in
  let start_ms =
    S.median
      (List.init version_spawns (fun _ ->
           let dir = fresh () in
           let r =
             Spawn.run ~dcheck ~stdin:(Lazy.force stdin_fd) ~dir ~ledger:false
               [ "--version" ]
           in
           Spawn.rm_rf dir;
           tally.attempted <- tally.attempted + 1;
           if r.status <> WEXITED 0 then fail ~where:w.name "--version" "non-zero exit";
           ms r.wall_ns))
  in
  let layout = layout_ms w in
  let run traced = inproc_pass w ~traced ~expected ~rng ~dir:(fresh ()) in
  ignore (run false);
  (* Traced and untraced passes in pairs until the time is spent; which
     of a pair runs first alternates, so drift does not bias the
     overhead. *)
  let rec pairs i tr un last =
    if i > 0 && seconds_since t0 +. last > seconds then (tr, un)
    else begin
      let p0 = now_ns () in
      let first = run (i mod 2 = 0) in
      let second = run (i mod 2 = 1) in
      let t, u = if i mod 2 = 0 then (first, second) else (second, first) in
      pairs (i + 1) (t :: tr) (u :: un) (seconds_since p0)
    end
  in
  let traced, untraced = pairs 0 [] [] 0.0 in
  Layers.to_jsonl
    (Filename.concat run_root (w.name ^ ".trace.jsonl"))
    (List.hd traced).jobs;
  let per_pass =
    List.map
      (fun p ->
        Layers.metrics p.jobs
          ~counter:(fun n -> Option.value ~default:0 (List.assoc_opt n p.counts))
          ~major_gcs:p.major_gcs)
      traced
  in
  let layer_metrics =
    List.map
      (fun (name, _, unit_, note) ->
        let value l = List.find_map (fun (n, v, _, _) -> if n = name then Some v else None) l in
        metric name (S.median (List.filter_map value per_pass)) unit_ note)
      (List.hd per_pass)
  in
  let walls l = List.map (fun p -> float_of_int (pass_wall p)) l in
  let fastest l = List.fold_left Float.min infinity (walls l) in
  let overhead = 100.0 *. (fastest traced /. fastest untraced -. 1.0) in
  let floor = 100.0 *. S.noise_floor (walls untraced) in
  let pairs = List.length traced in
  [
    metric "dcheck.start_ms" start_ms "ms"
      (Fmt.str "median of %d dcheck --version spawns" version_spawns);
    metric "layout.of_program_ms" layout "ms" "per call, mean over the programs";
  ]
  @ List.map
      (fun v ->
        metric "dcheck.cli_overhead_ms" v "ms"
          "fastest spawned minus fastest in-process run, median over jobs")
      (cli_overhead_ms spawned untraced)
  @ layer_metrics
  @ [
      metric "obs.trace_overhead_pct" overhead "%"
        (if Float.abs overhead < floor then
           Fmt.str "below noise (±%.1f%%), %d pass pairs" floor pairs
         else Fmt.str "fastest passes; noise floor ±%.1f%%, %d pass pairs" floor pairs);
    ]

let run_workload (w : Workload.t) ~seed ~seconds ~timed ~traced ~expected =
  let rng = Random.State.make [| seed |] in
  let dir = Filename.concat run_root w.name in
  Spawn.rm_rf dir;
  Unix.mkdir dir 0o755;
  let count = ref 0 in
  let fresh () =
    incr count;
    Filename.concat dir (string_of_int !count)
  in
  let probes = ref [] and last_probe = ref None in
  let spawn () =
    (match !last_probe with
    | Some t when seconds_since t < probe_every_s -> ()
    | _ ->
      probes := speed_probe () :: !probes;
      last_probe := Some (now_ns ()));
    spawn_pass w ~expected ~rng ~dir:(fresh ())
  in
  let warm = List.init w.warmup (fun _ -> spawn ()) in
  let setup_s = S.median (List.map secs warm) in
  let passes =
    if timed then timed_passes ~seconds ~estimate:setup_s (fun _ -> spawn ()) else []
  in
  let e2e = if timed then end_to_end w ~setup_s ~probes:!probes passes else [] in
  let layers =
    if not traced then []
    else
      (* warm spawned latencies: the timed passes, or the warm-up passes
         after the cold first one *)
      let spawned =
        match (passes, warm) with
        | [], _ :: (_ :: _ as rest) -> rest
        | [], l | l, _ -> l
      in
      per_layer w ~seconds ~expected ~rng ~fresh
        ~spawned:(List.concat_map (fun p -> p.samples) spawned)
  in
  Spawn.rm_rf dir;
  Fmt.pr "@.== %s: seed %d, closed loop, 1 client, %d warm-up passes@." w.name seed
    w.warmup;
  let pp ppf m = Fmt.pf ppf "  %-30s %14.4f %-11s %s@." m.name m.value m.unit_ m.note in
  if e2e <> [] then Fmt.pr "-- end to end (spawned, untraced)@.%a" (Fmt.list ~sep:Fmt.nop pp) e2e;
  if layers <> [] then
    Fmt.pr "-- per layer (in process, traced; spans in %s/%s.trace.jsonl)@.%a" run_root
      w.name (Fmt.list ~sep:Fmt.nop pp) layers;
  List.filter (fun m -> List.mem m.name json_metrics) (e2e @ layers)

(* ------------------------------------------------------------------ *)
(* Entry point.                                                         *)
(* ------------------------------------------------------------------ *)

let die fmt = Fmt.kstr (fun m -> prerr_endline ("perf: " ^ m); exit 2) fmt

let build_dcheck () =
  let argv = [| "dune"; "build"; "--root"; "."; "--display"; "quiet"; "./bin/dcheck.exe" |] in
  match Unix.create_process "dune" argv Unix.stdin Unix.stderr Unix.stderr with
  | pid -> (
    match Unix.waitpid [] pid with
    | _, WEXITED 0 -> ()
    | _ -> die "building %s failed" dcheck)
  | exception Unix.Unix_error (e, _, _) -> die "cannot run dune: %s" (Unix.error_message e)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20.0 and trace = ref None in
  let usage () =
    die "usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]"
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := (match int_of_string_opt v with Some n -> n | None -> usage ());
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := (match float_of_string_opt v with Some s -> s | None -> usage ());
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workloads =
    List.map
      (fun n ->
        match Workload.make ~seed:!seed n with
        | Some w -> w
        | None -> die "unknown workload %S (one of %s)" n (String.concat ", " Workload.names))
      (match !workload with None -> Workload.names | Some n -> [ n ])
  in
  if not (Sys.file_exists expected_file && Sys.file_exists "examples/dc") then
    die "run from the repository root (%s not found)" expected_file;
  build_dcheck ();
  let expected = Workload.load_expected expected_file in
  List.iter
    (fun w ->
      List.iter
        (fun (j : Workload.job) ->
          if not (List.mem_assoc j.key expected) then
            die "%s has no answer for %S" expected_file j.key)
        (Workload.jobs w))
    workloads;
  if not (Sys.file_exists run_root) then Unix.mkdir run_root 0o755;
  (* what dcheck's engine options install by default *)
  Detcor_semantics.Ts.set_shard_defaults ~shards:4 ~spill_dir:None ~arena_budget_mb:512;
  let timed = !trace <> Some true and traced = !trace <> Some false in
  let metrics =
    List.concat_map
      (fun (w : Workload.t) ->
        let ms =
          run_workload w ~seed:!seed ~seconds:!seconds ~timed ~traced ~expected
        in
        let name m = if List.length workloads = 1 then m.name else w.name ^ "." ^ m.name in
        List.map
          (fun m ->
            (name m, Jsonx.Obj [ ("value", Jsonx.Float m.value); ("unit", Jsonx.Str m.unit_) ]))
          ms)
      workloads
  in
  Unix.close (Lazy.force stdin_fd);
  Sys.remove (Filename.concat run_root "stdin");
  Fmt.pr "@.%s@."
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("correct", Jsonx.Bool (tally.failed = 0));
            ("attempted", Jsonx.Int tally.attempted);
            ("failed", Jsonx.Int tally.failed);
            ("metrics", Jsonx.Obj metrics);
          ]));
  exit (if tally.failed = 0 then 0 else 1)
