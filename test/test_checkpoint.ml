(* Tests for the crash-safe snapshot layer (lib/robust/checkpoint.ml).

   Three groups.  Properties: [write_file]/[read_file] round-trip any
   entry array bit-exactly, and every damaged file — truncated, byte-
   flipped, padded, or plain garbage — is rejected with the resource-
   class [Error.Snapshot], never [Internal] (a damaged recovery artifact
   is an environmental fault, not a toolkit bug).  Session lifecycle:
   fingerprint and phase-kind mismatches are Snapshot errors too.
   End-to-end: a ring5 fault-span build interrupted twice by a state
   budget and resumed from its snapshot converges to a system
   structurally identical to the uninterrupted build, and a build whose
   worker domains are all killed by an armed failpoint (a fault-span BFS,
   a full-product build) degrades to sequential recomputation with the
   same result. *)

module Checkpoint = Detcor_robust.Checkpoint
module Error = Detcor_robust.Error
module Budget = Detcor_robust.Budget
module Failpoint = Detcor_robust.Failpoint
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

let test_interrupted_resume () =
  with_temp @@ fun snap ->
  let fingerprint = Checkpoint.digest [ "test"; "ring5 span" ] in
  let uninterrupted = ring5_span () in
  (* Two legs tripped by a growing state ceiling, then one to the end.
     Each trip unwinds through [Checkpoint.stop], whose final save
     persists the mid-BFS capture the next leg resumes from. *)
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
  let resumed = Option.get (leg ~resume:snap ()) in
  Alcotest.(check bool) "resumed system identical" true
    (Util.ts_equal uninterrupted resumed)

(* ------------------------------------------------------------------ *)
(* Worker-failure degradation.                                         *)
(* ------------------------------------------------------------------ *)

(* Both users of the parallel chunk runner: the BFS of a fault span and
   the full-product build. *)
let test_worker_degradation () =
  let e = Lazy.force ring5 in
  let degraded label ~sequential build =
    let before = Metrics.counter_value_by_name "robust.worker_retries" in
    Failpoint.seed 7;
    Failpoint.set "engine.worker" 1.0;
    let parallel = Fun.protect ~finally:Failpoint.clear build in
    Alcotest.(check bool)
      (label ^ ": degraded build identical")
      true
      (Util.ts_equal sequential parallel);
    Alcotest.(check bool) (label ^ ": retries recorded") true
      (Metrics.counter_value_by_name "robust.worker_retries" > before)
  in
  degraded "fault span" ~sequential:(ring5_span ()) (fun () ->
      (Tolerance.fault_span ~workers:4 e.program ~faults:e.faults
         ~from:e.invariant)
        .ts_pf);
  degraded "full product"
    ~sequential:(Ts.full ~workers:1 e.program)
    (fun () -> Ts.full ~workers:4 e.program)

(* ------------------------------------------------------------------ *)
(* Serve result-cache keying.                                          *)
(* ------------------------------------------------------------------ *)

(* The daemon's result cache is keyed on the session-fingerprint digest
   of (kind, program source, argument vector).  Two laws: identical
   submissions share a key, and any difference in kind, source or any
   argument — including options the checkpoint fingerprint deliberately
   ignores, like --workers — separates them. *)

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
      Alcotest.test_case "worker failures degrade without changing results"
        `Slow test_worker_degradation;
    ] )
