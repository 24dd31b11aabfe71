(* Tests for the crash-safe snapshot layer (lib/robust/checkpoint.ml).

   Three groups.  Properties: [write_file]/[read_file] round-trip any
   entry array bit-exactly, and every damaged file — truncated, byte-
   flipped, padded, or plain garbage — is rejected with the resource-
   class [Error.Snapshot], never [Internal] (a damaged recovery artifact
   is an environmental fault, not a toolkit bug).  Session lifecycle:
   fingerprint and phase-kind mismatches are Snapshot errors too, and
   so is a well-formed file of an older format version.
   End-to-end: a ring5 fault-span build interrupted twice by a state
   budget and resumed from its snapshot converges to a system
   structurally identical to the uninterrupted build, from which p over
   the span derives as from the uninterrupted one; and the synthesis
   fixpoints [synth.recovery] and [synth.ms], interrupted mid-loop by a
   budget tripping after a chosen number of checkpoints and resumed from
   their [Midway] payloads, reach the uninterrupted outcome. *)

module Checkpoint = Detcor_robust.Checkpoint
module Error = Detcor_robust.Error
module Budget = Detcor_robust.Budget
module Metrics = Detcor_obs.Metrics
module Ts = Detcor_semantics.Ts
module Tolerance = Detcor_core.Tolerance

let with_temp k =
  let path = Filename.temp_file "detcor_snap" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> k path)

(* ------------------------------------------------------------------ *)
(* Round-trip.                                                         *)
(* ------------------------------------------------------------------ *)

let entries_gen =
  QCheck.Gen.(
    list_size (int_range 0 8)
      (triple
         (oneofl [ "ts.bfs"; "ts.full"; "synth.ms"; "synth.recovery";
                   "sim.sample" ])
         bool
         (string_size ~gen:(map Char.chr (int_range 0 255))
            (int_range 0 4096)))
    |> map
         (List.mapi (fun i (kind, complete, data) ->
              { Checkpoint.step = i; kind; complete; data })))

let entries_arb =
  QCheck.make
    ~print:(fun es ->
      Fmt.str "[%a]"
        Fmt.(
          list ~sep:(any "; ") (fun ppf (e : Checkpoint.entry) ->
              Fmt.pf ppf "%d:%s%s(%d bytes)" e.step e.kind
                (if e.complete then "!" else "~")
                (String.length e.data)))
        es)
    entries_gen

let roundtrip entries =
  with_temp @@ fun path ->
  let arr = Array.of_list entries in
  let fingerprint =
    Checkpoint.digest [ "roundtrip"; string_of_int (Array.length arr) ]
  in
  let (_ : int) = Checkpoint.write_file ~path ~fingerprint arr in
  let fp, arr' = Checkpoint.read_file ~path in
  String.equal fp fingerprint && arr = arr'

(* ------------------------------------------------------------------ *)
(* Corruption.                                                         *)
(* ------------------------------------------------------------------ *)

type damage =
  | Truncate of float (* keep this fraction, strictly less than all *)
  | Flip of float * int (* xor the byte at this fraction with 1..255 *)
  | Pad of string (* append junk *)

let damage_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun f -> Truncate f) (float_bound_inclusive 0.999);
        map2 (fun f x -> Flip (f, x)) (float_bound_inclusive 1.0)
          (int_range 1 255);
        map (fun s -> Pad s)
          (string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 1 64));
      ])

let damage_print = function
  | Truncate f -> Fmt.str "truncate to %.3f" f
  | Flip (f, x) -> Fmt.str "flip byte at %.3f with 0x%02x" f x
  | Pad s -> Fmt.str "pad with %d bytes" (String.length s)

let apply_damage s = function
  | Truncate f ->
    let n = String.length s in
    String.sub s 0 (min (n - 1) (int_of_float (f *. float_of_int n)))
  | Flip (f, x) ->
    let n = String.length s in
    let i = min (n - 1) (int_of_float (f *. float_of_int n)) in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor x));
    Bytes.to_string b
  | Pad junk -> s ^ junk

let corrupted_rejected (entries, damage) =
  with_temp @@ fun path ->
  let fingerprint = Checkpoint.digest [ "corruption" ] in
  let (_ : int) =
    Checkpoint.write_file ~path ~fingerprint (Array.of_list entries)
  in
  let original = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (apply_damage original damage));
  match Checkpoint.read_file ~path with
  | _ ->
    QCheck.Test.fail_reportf "damaged file (%s) accepted"
      (damage_print damage)
  | exception Error.Detcor_error (Error.Snapshot _) -> true
  | exception e ->
    QCheck.Test.fail_reportf
      "damaged file (%s) rejected with %s, not Error.Snapshot"
      (damage_print damage) (Printexc.to_string e)

let corrupt_arb =
  QCheck.make
    ~print:(fun (es, d) ->
      Fmt.str "%d entries, %s" (List.length es) (damage_print d))
    QCheck.Gen.(pair entries_gen damage_gen)

let expect_snapshot_error name k =
  match k () with
  | _ -> Alcotest.fail (name ^ ": accepted")
  | exception Error.Detcor_error (Error.Snapshot _ as t) ->
    Alcotest.(check int) (name ^ ": exit code 3") 3 (Error.exit_code t)
  | exception e ->
    Alcotest.fail
      (Fmt.str "%s: raised %s, not Error.Snapshot" name
         (Printexc.to_string e))

let test_unreadable_files () =
  expect_snapshot_error "missing file" (fun () ->
      Checkpoint.read_file ~path:"/nonexistent/detcor.snap");
  with_temp (fun path ->
      expect_snapshot_error "empty file" (fun () ->
          Checkpoint.read_file ~path));
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.concat "" (List.init 16 (fun _ -> "not a snapshot "))));
      expect_snapshot_error "garbage file" (fun () ->
          Checkpoint.read_file ~path))

(* ------------------------------------------------------------------ *)
(* Session validation.                                                 *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_mismatch () =
  with_temp @@ fun path ->
  let (_ : int) =
    Checkpoint.write_file ~path
      ~fingerprint:(Checkpoint.digest [ "command A" ])
      [||]
  in
  expect_snapshot_error "foreign fingerprint" (fun () ->
      Checkpoint.start ~resume:path
        ~fingerprint:(Checkpoint.digest [ "command B" ])
        ());
  Alcotest.(check bool) "no session left behind" false (Checkpoint.active ())

let test_phase_kind_mismatch () =
  with_temp @@ fun path ->
  let fingerprint = Checkpoint.digest [ "kinds" ] in
  let (_ : int) =
    Checkpoint.write_file ~path ~fingerprint
      [| { step = 0; kind = "ts.full"; complete = false; data = "" } |]
  in
  Checkpoint.start ~resume:path ~fingerprint ();
  Fun.protect ~finally:Checkpoint.stop @@ fun () ->
  expect_snapshot_error "diverged phase kind" (fun () ->
      Checkpoint.enter ~kind:"ts.bfs")

(* The record [Checkpoint.write_file] marshals, redeclared: a file from
   another format version is built by hand, behind a well-formed header
   (magic, payload length, FNV-1a 64 checksum of the payload). *)
type file_record = {
  f_version : int;
  f_ocaml : string;
  f_big_endian : bool;
  f_fingerprint : string;
  f_entries : Checkpoint.entry array;
}

let fnv64 s =
  String.fold_left
    (fun h c ->
      Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
    0xcbf29ce484222325L s

let write_versioned ?(big_endian = Sys.big_endian) ~path ~version
    ~fingerprint entries =
  let payload =
    Marshal.to_string
      {
        f_version = version;
        f_ocaml = Sys.ocaml_version;
        f_big_endian = big_endian;
        f_fingerprint = fingerprint;
        f_entries = entries;
      }
      []
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "DCSNAP01%016x%016Lx%s" (String.length payload)
        (fnv64 payload) payload)

(* Version 1 held a [ts.bfs] payload's edge columns as [int array]s, and
   version 2 a [synth.recovery] payload without the veto flag; this
   binary reads [Bytes] and the flag there, and [Marshal] would not
   notice.  An older file is refused with the located version error, by
   [read_file] and by a resuming session; the same file written as
   version 3 is read, unless it records the other byte order (its
   columns are native-endian). *)
let test_old_format_refused () =
  with_temp @@ fun path ->
  let fingerprint = Checkpoint.digest [ "version 1" ] in
  let entries =
    [| { Checkpoint.step = 0; kind = "ts.bfs"; complete = true; data = "" } |]
  in
  write_versioned ~path ~version:3 ~fingerprint entries;
  Alcotest.(check bool) "version 3 read back" true
    (Checkpoint.read_file ~path = (fingerprint, entries));
  List.iter
    (fun version ->
      write_versioned ~path ~version ~fingerprint entries;
      (match Checkpoint.read_file ~path with
      | _ -> Alcotest.failf "version %d accepted" version
      | exception Error.Detcor_error (Error.Snapshot s) ->
        Alcotest.(check string) "located at the file" path s.path;
        Alcotest.(check string) "names both versions"
          (Fmt.str "format version %d (this binary reads 3)" version)
          s.msg);
      expect_snapshot_error
        (Fmt.str "resume from version %d" version)
        (fun () -> Checkpoint.start ~resume:path ~fingerprint ());
      Alcotest.(check bool) "no session left behind" false
        (Checkpoint.active ()))
    [ 1; 2 ];
  write_versioned ~big_endian:(not Sys.big_endian) ~path ~version:3
    ~fingerprint entries;
  expect_snapshot_error "other byte order" (fun () ->
      Checkpoint.read_file ~path)

let test_digest_separation () =
  (* Length prefixes keep part boundaries significant. *)
  Alcotest.(check bool) "boundaries matter" false
    (String.equal
       (Checkpoint.digest [ "ab"; "c" ])
       (Checkpoint.digest [ "a"; "bc" ]));
  Alcotest.(check string) "deterministic"
    (Checkpoint.digest [ "verify"; "ring5" ])
    (Checkpoint.digest [ "verify"; "ring5" ])

(* ------------------------------------------------------------------ *)
(* Completed phases.                                                   *)
(* ------------------------------------------------------------------ *)

let steps entries =
  Array.to_list (Array.map (fun (e : Checkpoint.entry) -> e.step) entries)

(* Completion is constant time, so one session completes thousands of
   phases; each keeps one entry, in step order. *)
let test_many_completions () =
  with_temp @@ fun path ->
  let fingerprint = Checkpoint.digest [ "many phases" ] in
  let n = 2_000 in
  Checkpoint.start ~interval:3600.0 ~write:path ~fingerprint ();
  Fun.protect ~finally:Checkpoint.stop (fun () ->
      for i = 0 to n - 1 do
        Checkpoint.complete (Checkpoint.enter ~kind:"k") (string_of_int i)
      done);
  let _, entries = Checkpoint.read_file ~path in
  Alcotest.(check (list int)) "distinct ascending steps" (List.init n Fun.id)
    (steps entries);
  Alcotest.(check bool) "all complete" true
    (Array.for_all (fun (e : Checkpoint.entry) -> e.complete) entries)

(* A phase resumed as complete and re-run to completion replaces its
   resumed entry: its step is saved exactly once, with the new payload. *)
let test_resumed_complete_once () =
  with_temp @@ fun resume ->
  with_temp @@ fun path ->
  let fingerprint = Checkpoint.digest [ "resumed phases" ] in
  let (_ : int) =
    Checkpoint.write_file ~path:resume ~fingerprint
      [|
        { step = 0; kind = "a"; complete = true; data = "old a" };
        { step = 1; kind = "b"; complete = true; data = "old b" };
        { step = 2; kind = "c"; complete = false; data = "old c" };
      |]
  in
  Checkpoint.start ~interval:3600.0 ~write:path ~resume ~fingerprint ();
  Fun.protect ~finally:Checkpoint.stop (fun () ->
      List.iter
        (fun kind ->
          let phase = Checkpoint.enter ~kind in
          Checkpoint.complete phase ("new " ^ kind))
        [ "a"; "b"; "c" ]);
  let _, entries = Checkpoint.read_file ~path in
  Alcotest.(check (list int)) "each step once" [ 0; 1; 2 ] (steps entries);
  Alcotest.(check (list string)) "re-run payloads"
    [ "new a"; "new b"; "new c" ]
    (Array.to_list (Array.map (fun (e : Checkpoint.entry) -> e.data) entries))

(* ------------------------------------------------------------------ *)
(* Interrupted build, resumed build.                                   *)
(* ------------------------------------------------------------------ *)

let ring5 = lazy (Detcor_lang.Elaborate.load_file "../examples/dc/ring5.dc")

let ring5_span () =
  let e = Lazy.force ring5 in
  (Tolerance.fault_span e.program ~faults:e.faults ~from:e.invariant).ts_pf

(* The ring5 span, built in three legs: two tripped by a growing state
   ceiling, then one to the end.  Each trip unwinds through
   [Checkpoint.stop], whose final save persists the mid-BFS capture the
   next leg resumes from. *)
let resumed_ring5_span () =
  with_temp @@ fun snap ->
  let fingerprint = Checkpoint.digest [ "test"; "ring5 span" ] in
  let leg ?resume ?max_states () =
    Checkpoint.start ~interval:3600.0 ~write:snap ?resume ~fingerprint ();
    Fun.protect ~finally:Checkpoint.stop @@ fun () ->
    match max_states with
    | None -> Some (ring5_span ())
    | Some n -> (
      match Budget.with_budget (Budget.make ~max_states:n ()) ring5_span with
      | _ -> Alcotest.fail "state budget did not trip"
      | exception Error.Detcor_error (Error.Resource _) -> None)
  in
  ignore (leg ~max_states:2000 ());
  Alcotest.(check bool) "snapshot written on first trip" true
    (Sys.file_exists snap);
  ignore (leg ~resume:snap ~max_states:6000 ());
  Option.get (leg ~resume:snap ())

let test_interrupted_resume () =
  let uninterrupted = ring5_span () in
  let resumed = resumed_ring5_span () in
  Alcotest.(check bool) "resumed system identical" true
    (Util.ts_equal uninterrupted resumed)

(* A resumed span keeps no record of what its first legs decided, and
   needs none: p over it is derived from its rows, and its enabled sets
   are read off its edge labels, exactly as on an uninterrupted span. *)
let test_resume_derives () =
  let e = Lazy.force ring5 in
  let enabled ts =
    List.init (Ts.num_actions ts) (fun aid ->
        Detcor_semantics.Bitset.to_string (Ts.enabled_bitset ts aid))
  in
  let derive span =
    let before = Metrics.counter_value_by_name "engine.derived" in
    let ts_p = Ts.build_within e.program ~span in
    Alcotest.(check int) "p over the span derived" 1
      (Metrics.counter_value_by_name "engine.derived" - before);
    ts_p
  in
  let uninterrupted = ring5_span () in
  let resumed = resumed_ring5_span () in
  let p = derive uninterrupted and p' = derive resumed in
  Alcotest.(check bool) "same p over the span" true (Util.ts_equal p p');
  Alcotest.(check (list string))
    "same span enabled sets" (enabled uninterrupted) (enabled resumed);
  Alcotest.(check (list string)) "same p enabled sets" (enabled p) (enabled p')

(* ------------------------------------------------------------------ *)
(* Synthesis fixpoints interrupted mid-loop, resumed.                  *)
(* ------------------------------------------------------------------ *)

module Synthesize = Detcor_synthesis.Synthesize

(* One run of [synth] under a session that writes [snap] (resuming
   [resume] if given), with a fresh budget whose cooperative
   checkpoints trip after [trip] slow-path calls (the tick hook's
   cadence), as a budget running out there would.  Returns the outcome
   and how many slow-path calls the run made. *)
let synthesis_leg ?resume ?trip ~snap ~label synth =
  let fingerprint = Checkpoint.digest [ "test"; "synthesis resume"; label ] in
  Checkpoint.start ~interval:3600.0 ~write:snap ?resume ~fingerprint ();
  let calls = ref 0 in
  Budget.set_tick_hook (fun () ->
      incr calls;
      match trip with
      | Some n when !calls > n ->
        raise
          (Error.Detcor_error
             (Error.Resource
                { Error.kind = Error.Time; spent = !calls; budget = n }))
      | _ -> ());
  Fun.protect
    ~finally:(fun () ->
      Budget.set_tick_hook ignore;
      Checkpoint.stop ())
  @@ fun () ->
  let outcome = Budget.with_budget (Budget.make ()) synth in
  (outcome, !calls)

(* The entry a snapshot holds for [step]: 0 none, 1 mid-loop, 2 done. *)
let entry_state path step =
  let _, entries = Checkpoint.read_file ~path in
  match
    Array.find_opt (fun (e : Checkpoint.entry) -> e.step = step) entries
  with
  | None -> 0
  | Some e -> if e.complete then 2 else 1

(* The steps a snapshot holds for phases of [kind], ascending. *)
let steps_of_kind path kind =
  let _, entries = Checkpoint.read_file ~path in
  List.sort compare
    (List.filter_map
       (fun (e : Checkpoint.entry) -> if e.kind = kind then Some e.step else None)
       (Array.to_list entries))

(* The smallest [n] in [lo, hi] where [pred] holds ([pred hi] does). *)
let first_true pred lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if pred mid then hi := mid else lo := mid + 1
  done;
  !lo

(* Two synthesis outcomes agree: same reports, names and counts, and
   the synthesized programs [p [] F] explored from their recomputed
   invariants are identical systems (recovery edges included). *)
let same_synthesis ~faults a b =
  let failure f = Fmt.str "%a" Synthesize.pp_failure f in
  match (a, b) with
  | Ok (a : Synthesize.result), Ok (b : Synthesize.result) ->
    let span (r : Synthesize.result) =
      Ts.build
        (Detcor_core.Fault.compose r.program faults)
        ~from:(Tolerance.init_states r.program ~invariant:r.invariant)
    in
    let report r = Fmt.str "%a" Tolerance.pp_report r in
    report a.report = report b.report
    && Detcor_kernel.Pred.name a.invariant = Detcor_kernel.Pred.name b.invariant
    && a.recovery_states = b.recovery_states
    && a.repair_iterations = b.repair_iterations
    && List.map fst a.added_detectors = List.map fst b.added_detectors
    && Util.ts_equal (span a) (span b)
  | Error f, Error g -> failure f = failure g
  | _ -> false

(* Interrupt the first [kind] phase of [synth] mid-loop and resume it.
   An uninterrupted run gives the outcome, the phase's step and the
   number of slow-path calls.  Over trip points, the snapshot's entry
   for that step goes from absent to mid-loop to done, so two binary
   searches bracket the trip points inside the loop, and the midpoint
   one interrupts it.  The run resumed from that [Midway] payload must
   reach the uninterrupted outcome. *)
let resume_midway ~label ~faults ~kind synth () =
  with_temp @@ fun snap ->
  with_temp @@ fun snap' ->
  let label = label ^ " " ^ kind in
  let expected, calls = synthesis_leg ~snap ~label synth in
  let step =
    match steps_of_kind snap kind with
    | step :: _ -> step
    | [] -> Alcotest.fail (Fmt.str "%s: no %s phase" label kind)
  in
  let states = Hashtbl.create 16 in
  let state n =
    match Hashtbl.find_opt states n with
    | Some st -> st
    | None ->
      ignore (synthesis_leg ~trip:n ~snap ~label synth);
      let st = entry_state snap step in
      Hashtbl.add states n st;
      st
  in
  let enter = first_true (fun n -> state n >= 1) 0 calls in
  let leave = first_true (fun n -> state n >= 2) enter calls in
  if enter >= leave then
    Alcotest.fail (Fmt.str "%s: no trip point inside the loop" label);
  let trip = (enter + leave) / 2 in
  let interrupted, _ = synthesis_leg ~trip ~snap ~label synth in
  (match interrupted with
  | Error (Synthesize.Exhausted _) -> ()
  | _ -> Alcotest.fail (Fmt.str "%s: the trip did not interrupt" label));
  Alcotest.(check int) (label ^ ": snapshot holds the phase mid-loop") 1
    (entry_state snap step);
  let resumed_before = Metrics.counter_value_by_name "robust.phases_resumed" in
  let resumed, _ = synthesis_leg ~resume:snap ~snap:snap' ~label synth in
  Alcotest.(check bool) (label ^ ": phases resumed") true
    (Metrics.counter_value_by_name "robust.phases_resumed" > resumed_before);
  Alcotest.(check bool) (label ^ ": resumed outcome = uninterrupted") true
    (same_synthesis ~faults expected resumed)

let byz4 = lazy (Detcor_lang.Elaborate.load_file "../examples/dc/byz4.dc")

(* A layering resumed [Done] reports the anti-undo veto it ended with.
   In [veto_src] the invariant's states (a, b = 0, 0) rank 0 and those
   at 0, 1 and 1, 0 rank 1.  A state at 1, 1 has one-variable steps to
   both, and the program undoes each ([up]), so the first nonmasking
   layering (veto on) leaves those states unrecoverable after the veto
   rejected a step, and the attempt ladder runs the relaxed layering
   next, as the following [synth.recovery] step.  The repair pass, which
   reruns on resume, cannot set the flag again: no invariant state is a
   deadlock ([spin]).  A run interrupted just after the first layering
   completes must resume onto the same ladder: the same phases with the
   same payloads as the uninterrupted run, and its outcome.  A resumed
   flag of false would skip the relaxed layering and run a two-variable
   one in its step.  [c] only multiplies the states, so that the run
   ticks often enough to be interrupted between the two layerings. *)
let veto_src =
  "program veto\n\
   var a : 0..1\n\
   var b : 0..1\n\
   var c : 0..127\n\
   invariant a = 0 && b = 0\n\
   action up: a != b -> a := 1, b := 1\n\
   action spin: a = 0 && b = 0 -> c := c\n\
   fault f: a = 0 && b = 0 -> a := ?, b := ?\n"

let test_resume_after_vetoed_layering () =
  let e = Detcor_lang.Elaborate.load_string veto_src in
  let synth () =
    Synthesize.add_nonmasking e.program ~spec:e.spec ~invariant:e.invariant
      ~faults:e.faults
  in
  let label = "vetoed layering" in
  with_temp @@ fun snap ->
  with_temp @@ fun snap' ->
  let expected, calls = synthesis_leg ~snap ~label synth in
  let _, phases = Checkpoint.read_file ~path:snap in
  let first, relaxed =
    match steps_of_kind snap "synth.recovery" with
    | first :: relaxed :: _ when relaxed = first + 1 -> (first, relaxed)
    | _ -> Alcotest.fail "the first layering is not followed by another"
  in
  let done_at n =
    ignore (synthesis_leg ~trip:n ~snap ~label synth);
    entry_state snap first = 2
  in
  let trip = first_true done_at 0 calls in
  let interrupted, _ = synthesis_leg ~trip ~snap ~label synth in
  (match interrupted with
  | Error (Synthesize.Exhausted _) -> ()
  | _ -> Alcotest.fail "the trip did not interrupt");
  Alcotest.(check int) "first layering done" 2 (entry_state snap first);
  Alcotest.(check bool) "relaxed layering not done" true
    (entry_state snap relaxed < 2);
  let resumed, _ = synthesis_leg ~resume:snap ~snap:snap' ~label synth in
  Alcotest.(check bool) "resumed phases = uninterrupted" true
    (snd (Checkpoint.read_file ~path:snap') = phases);
  Alcotest.(check bool) "resumed outcome = uninterrupted" true
    (same_synthesis ~faults:e.faults expected resumed)

(* Every ring5 span state converges on its own, so its nonmasking
   layering seeds rank 0 with the whole span and runs no level: the
   layering cases are byz4's, whose spans rank in five or six levels. *)
let midway_cases =
  let nonmasking (e : Detcor_lang.Elaborate.elaborated) =
    Synthesize.add_nonmasking e.program ~spec:e.spec ~invariant:e.invariant
      ~faults:e.faults
  in
  let masking ?step_vars (e : Detcor_lang.Elaborate.elaborated) =
    Synthesize.add_masking ?step_vars e.program ~spec:e.spec
      ~invariant:e.invariant ~faults:e.faults
  in
  let failsafe (e : Detcor_lang.Elaborate.elaborated) =
    Synthesize.add_failsafe e.program ~spec:e.spec ~invariant:e.invariant
      ~faults:e.faults
  in
  List.map
    (fun (label, model, kind, synth) ->
      Alcotest.test_case
        (Fmt.str "%s: %s interrupted mid-loop resumes" label kind)
        `Slow
        (fun () ->
          let e = Lazy.force model in
          resume_midway ~label ~faults:e.Detcor_lang.Elaborate.faults ~kind
            (fun () -> synth e)
            ()))
    [
      ("byz4 nonmasking", byz4, "synth.recovery", nonmasking);
      ("byz4 masking", byz4, "synth.recovery", masking ?step_vars:None);
      ("byz4 masking", byz4, "synth.ms", masking ?step_vars:None);
      ("ring5 fail-safe", ring5, "synth.ms", failsafe);
      ( "byz4 masking, step_vars 2",
        byz4,
        "synth.recovery",
        masking ~step_vars:2 );
    ]

(* ------------------------------------------------------------------ *)
(* Serve result-cache keying.                                          *)
(* ------------------------------------------------------------------ *)

(* The daemon's result cache is keyed on the session-fingerprint digest
   of (kind, program source, argument vector).  Two laws: identical
   submissions share a key, and any difference in kind, source or any
   argument — including options the checkpoint fingerprint deliberately
   ignores — separates them.  The argument vector is opaque here: no
   option is parsed. *)

module Proto = Detcor_serve.Proto

let submission_gen =
  QCheck.Gen.(
    let kind = oneofl [ Proto.Verify; Proto.Synthesize; Proto.Simulate ] in
    let source = oneofl [ "program a\n"; "program b\n"; "program a\n\n" ] in
    let argv =
      let opt name values =
        oneofl (None :: List.map (fun v -> Some [ name; v ]) values)
      in
      map
        (fun opts -> List.concat (List.filter_map Fun.id opts))
        (flatten_l
           [
             opt "--engine" [ "auto"; "packed"; "sharded" ];
             opt "--workers" [ "1"; "2"; "4" ];
             opt "--shards" [ "1"; "16" ];
             opt "--limit" [ "1000"; "200000" ];
           ])
    in
    triple kind source argv)

let submission_pair_arb =
  QCheck.make
    ~print:(fun ((k1, s1, a1), (k2, s2, a2)) ->
      let one k s a =
        Fmt.str "%s %S [%s]" (Proto.kind_to_string k) s (String.concat " " a)
      in
      Fmt.str "%s vs %s" (one k1 s1 a1) (one k2 s2 a2))
    QCheck.Gen.(pair submission_gen submission_gen)

let cache_key_law ((k1, s1, a1), (k2, s2, a2)) =
  let key1 = Proto.cache_key ~kind:k1 ~source:s1 ~argv:a1 in
  let key2 = Proto.cache_key ~kind:k2 ~source:s2 ~argv:a2 in
  if (k1, s1, a1) = (k2, s2, a2) then
    key1 = key2
    || QCheck.Test.fail_reportf "identical submissions keyed apart"
  else
    key1 <> key2
    || QCheck.Test.fail_reportf "distinct submissions share key %s" key1

let test_cache_key_options () =
  let base argv = Proto.cache_key ~kind:Proto.Verify ~source:"program x\n" ~argv in
  Alcotest.(check bool)
    "identical submissions share a key" true
    (base [ "--engine"; "packed" ] = base [ "--engine"; "packed" ]);
  let keys =
    List.map base
      [
        []; [ "--engine"; "packed" ]; [ "--engine"; "sharded" ];
        [ "--workers"; "2" ]; [ "--workers"; "4" ]; [ "--shards"; "16" ];
      ]
  in
  let distinct = List.sort_uniq compare keys in
  Alcotest.(check int)
    "engine/workers/shards choices all key apart" (List.length keys)
    (List.length distinct)

let suite =
  ( "checkpoint (snapshot format, resume, degradation)",
    [
      Util.qtest ~count:100 "write_file/read_file round-trip" entries_arb
        roundtrip;
      Util.qtest ~count:150 "damaged files raise Error.Snapshot" corrupt_arb
        corrupted_rejected;
      Alcotest.test_case "unreadable files raise Error.Snapshot" `Quick
        test_unreadable_files;
      Alcotest.test_case "fingerprint mismatch rejected" `Quick
        test_fingerprint_mismatch;
      Alcotest.test_case "phase kind mismatch rejected" `Quick
        test_phase_kind_mismatch;
      Alcotest.test_case "digest separates part boundaries" `Quick
        test_digest_separation;
      Alcotest.test_case "2,000 completions save 2,000 ascending steps"
        `Quick test_many_completions;
      Alcotest.test_case "a resumed complete step is saved once" `Quick
        test_resumed_complete_once;
      Util.qtest ~count:300 "serve cache keys: identity and separation"
        submission_pair_arb cache_key_law;
      Alcotest.test_case "serve cache keys split on engine options" `Quick
        test_cache_key_options;
      Alcotest.test_case "interrupted build resumes to identical system"
        `Slow test_interrupted_resume;
      Alcotest.test_case "resumed span derives the same p over it" `Slow
        test_resume_derives;
      Alcotest.test_case "version-1 snapshots refused" `Quick
        test_old_format_refused;
      Alcotest.test_case
        "nonmasking resumed after a vetoed layering completes" `Quick
        test_resume_after_vetoed_layering;
    ]
    @ midway_cases )
