(* Differential and chaos tests for the out-of-core sharded engine.

   The sharded engine promises the packed engine's exact numbering and
   verdicts with a different residency story, so the tests are the same
   shape as the packed differential (reusing its random-program
   generators) plus the knobs unique to sharding:

   - reference = sharded on 200+ random programs, under a shard-count
     sweep (K = 1, 2, 8) and 1 or 3 workers, for [build], [of_pred] and
     [full];
   - a spill-forced mode (zero arena budget into a temp directory) that
     must spill at least once and still agree byte-for-byte;
   - escape programs: the sharded engine, like the strict packed engine,
     refuses states outside the layout (Layout.Unrepresentable) exactly
     when the auto engine would have fallen back to the reference path;
   - SIGKILL chaos through the dcheck CLI while spilling, resumed to a
     byte-identical verdict (reusing the chaos harness);
   - word-parallel Bitset bulk operations against their bit-at-a-time
     specification. *)

open Detcor_semantics

let equal_system = Util.ts_equal

let with_shards = Util.with_shards

let with_temp_dir k =
  let dir = Filename.temp_file "detcor_shard" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> k dir)

(* The sharded engine on an escaping exploration must behave like the
   strict packed engine: raise [Layout.Unrepresentable] precisely when
   the auto engine downgraded to the reference path. *)
let sharded_build f ~auto =
  match f () with
  | ts -> Some ts
  | exception Layout.Unrepresentable ->
    if Ts.engine_of auto = Ts.Reference && Ts.fallback_reason auto <> None then
      None
    else Alcotest.fail "sharded raised Unrepresentable but auto did not fall back"

let shards_arb =
  QCheck.make
    ~print:(fun ((rp, inits), (k, workers)) ->
      Fmt.str "%s from %d states, %d shards, %d workers"
        (Test_engine_diff.print_program rp)
        (List.length inits) k workers)
    QCheck.Gen.(
      pair Test_engine_diff.with_inits_gen
        (pair (oneofl [ 1; 2; 8 ]) (oneofl [ 1; 3 ])))

(* K-sweep identity on explicit initials: numbering, edges, initials and
   lookup all equal to the reference engine's, for 1, 2 and 8 shards, each
   with 1 and 3 workers. *)
let prop_build_identical =
  Util.qtest ~count:210 "sharded build = reference build (K=1,2,8)" shards_arb
    (fun ((rp, inits), (k, workers)) ->
      let p = Test_engine_diff.build_program rp in
      let from = inits @ inits in
      let reference = Ts.build ~engine:Ts.Reference p ~from in
      let auto = Ts.build ~engine:Ts.Auto p ~from in
      with_shards ~shards:k (fun () ->
          match
            sharded_build ~auto (fun () ->
                Ts.build ~engine:Ts.Sharded ~workers p ~from)
          with
          | None -> true
          | Some sharded ->
            equal_system reference sharded
            && List.for_all
                 (fun i ->
                   Ts.index_of sharded (Ts.state reference i) = Some i)
                 (List.init (Ts.num_states reference) Fun.id)))

let pred_arb =
  QCheck.make
    ~print:(fun ((rp, s), (k, workers)) ->
      Fmt.str "%s from P%d, %d shards, %d workers"
        (Test_engine_diff.print_program rp)
        s k workers)
    QCheck.Gen.(
      pair
        (pair Test_engine_diff.program_gen (int_range 0 (1 lsl 20)))
        (pair (oneofl [ 1; 2; 8 ]) (oneofl [ 1; 3 ])))

(* The product-space surfaces: [of_pred] from a random predicate and
   [full], each against the reference engine. *)
let prop_of_pred_identical =
  Util.qtest ~count:120 "sharded of_pred = reference of_pred" pred_arb
    (fun ((rp, seed), (k, workers)) ->
      let p = Test_engine_diff.build_program rp in
      let from = Test_engine_diff.pred_of_seed seed in
      let agree reference auto sharded =
        with_shards ~shards:k (fun () ->
            match sharded_build ~auto sharded with
            | None -> true
            | Some sharded -> equal_system reference sharded)
      in
      agree
        (Ts.of_pred ~engine:Ts.Reference p ~from)
        (Ts.of_pred ~engine:Ts.Auto p ~from)
        (fun () -> Ts.of_pred ~engine:Ts.Sharded ~workers p ~from)
      && agree (Ts.full ~engine:Ts.Reference p) (Ts.full ~engine:Ts.Auto p)
           (fun () -> Ts.full ~engine:Ts.Sharded ~workers p))

(* Spill-forced identity: a zero arena budget into a temp directory makes
   every sealed segment spill; results must not change, and any run that
   interned states must have spilled at least once. *)
let prop_spill_forced =
  Util.qtest ~count:60 "spill-forced sharded build agrees and spills"
    shards_arb (fun ((rp, inits), (k, workers)) ->
      let p = Test_engine_diff.build_program rp in
      let from = inits @ inits in
      let reference = Ts.build ~engine:Ts.Reference p ~from in
      let auto = Ts.build ~engine:Ts.Auto p ~from in
      with_temp_dir (fun dir ->
          with_shards ~shards:k ~spill_dir:dir ~arena_mb:0 (fun () ->
              match
                sharded_build ~auto (fun () ->
                    Ts.build ~engine:Ts.Sharded ~workers p ~from)
              with
              | None -> true
              | Some sharded -> (
                equal_system reference sharded
                &&
                match Ts.shard_stats sharded with
                | None -> false
                | Some (_, spills, bytes, _) ->
                  Ts.num_states sharded = 0 || (spills > 0 && bytes > 0)))))

(* Check procedures on a spilled system: predicates, reachability and
   safety answers must match the reference engine even when every
   segment access is a reload. *)
let prop_checks_on_spilled =
  let arb =
    QCheck.make
      ~print:(fun ((rp, s1), s2) ->
        Fmt.str "%s P%d P%d" (Test_engine_diff.print_program rp) s1 s2)
      QCheck.Gen.(
        pair
          (pair Test_engine_diff.program_gen (int_range 0 (1 lsl 20)))
          (int_range 0 (1 lsl 20)))
  in
  Util.qtest ~count:60 "Check outcomes agree on spilled sharded systems" arb
    (fun ((rp, s1), s2) ->
      let p = Test_engine_diff.build_program rp in
      let from = Test_engine_diff.pred_of_seed s1 in
      let reference = Ts.of_pred ~engine:Ts.Reference p ~from in
      let auto = Ts.of_pred ~engine:Ts.Auto p ~from in
      with_temp_dir (fun dir ->
          with_shards ~shards:2 ~spill_dir:dir ~arena_mb:0 (fun () ->
              match
                sharded_build ~auto (fun () ->
                    Ts.of_pred ~engine:Ts.Sharded p ~from)
              with
              | None -> true
              | Some sharded ->
                let p1 = Test_engine_diff.pred_of_seed s2
                and p2 = Test_engine_diff.pred_of_seed (s2 lxor 0x2a) in
                let same f =
                  Fmt.str "%a" Check.pp_outcome (f reference)
                  = Fmt.str "%a" Check.pp_outcome (f sharded)
                in
                same (fun ts -> Check.closed ts p1)
                && same (fun ts -> Check.leads_to ts p1 p2)
                && same (fun ts -> Check.implies ts p1 p2)
                && same (fun ts -> Check.hoare_triple ts ~pre:p1 ~post:p2)
                &&
                let reach ts = Graph.reachable ts ~from:(Ts.initials ts) in
                reach reference = reach sharded)))

(* ------------------------------------------------------------------ *)
(* Bitset bulk operations vs their bit-at-a-time specification.        *)
(* ------------------------------------------------------------------ *)

let bitset_arb =
  QCheck.make
    ~print:(fun (n, seeds) -> Fmt.str "n=%d seeds=%d" n (List.length seeds))
    QCheck.Gen.(pair (int_range 0 200) (list_size (int_range 0 50) (int_range 0 1000)))

let prop_union_into =
  Util.qtest ~count:200 "Bitset.union_into = per-bit union" bitset_arb
    (fun (n, seeds) ->
      let a = Bitset.create n and b = Bitset.create n in
      let expect = Bitset.create n in
      List.iteri
        (fun i s ->
          if n > 0 then begin
            let bit = s mod n in
            (if i mod 2 = 0 then Bitset.set a bit else Bitset.set b bit);
            Bitset.set expect bit
          end)
        seeds;
      let into = Bitset.copy a in
      Bitset.union_into ~into b;
      (* union = a | b, bit by bit *)
      List.for_all
        (fun i ->
          Bitset.get into i = (Bitset.get a i || Bitset.get b i)
          && (not (Bitset.get a i && Bitset.get b i))
             || Bitset.get into i)
        (List.init n Fun.id)
      && Bitset.cardinal into <= n
      && (n = 0 || Bitset.equal into expect
          || Bitset.cardinal into = Bitset.cardinal expect))

let prop_iter_words =
  Util.qtest ~count:200 "Bitset.iter_words reconstructs the set" bitset_arb
    (fun (n, seeds) ->
      let a = Bitset.create n in
      List.iter (fun s -> if n > 0 then Bitset.set a (s mod n)) seeds;
      let rebuilt = Bitset.create n in
      Bitset.iter_words a (fun w bits ->
          for i = 0 to 63 do
            if Int64.(logand (shift_right_logical bits i) 1L) = 1L then begin
              let idx = (w * 64) + i in
              if idx < n then Bitset.set rebuilt idx
            end
          done);
      Bitset.equal a rebuilt)

(* ------------------------------------------------------------------ *)
(* SIGKILL chaos while spilling, through the CLI.                      *)
(* ------------------------------------------------------------------ *)

(* A sharded verify with a zero arena budget spills continuously; the
   chaos harness SIGKILLs it mid-run and resumes until terminal, and the
   resumed run must reproduce the undisturbed run's bytes exactly.
   Spill files survive the kill (they are written atomically and their
   content is deterministic), so resume re-binds them instead of
   re-exploring. *)
let test_chaos_spill () =
  with_temp_dir @@ fun dir ->
  Test_chaos.chaos_workload "sharded spill verify"
    [
      "verify"; "../examples/dc/reset7.dc"; "--tolerance"; "failsafe";
      "--engine"; "sharded"; "--shards"; "3"; "--spill-dir"; dir;
      "--shard-arena-mb"; "0";
    ]
    ~max_delay:0.3 ()

(* The CLI must reject unknown engines and accept the sharded spelling. *)
let test_cli_engine_flag () =
  let run args =
    Test_chaos.with_temp ".out" @@ fun out ->
    Test_chaos.exit_code "engine flag" (Test_chaos.run_dcheck args ~out)
  in
  Alcotest.(check int)
    "sharded verify exits 0" 0
    (run
       [
         "verify"; "../examples/dc/ring5.dc"; "--tolerance"; "nonmasking";
         "--engine"; "sharded";
       ]);
  Alcotest.(check bool)
    "unknown engine rejected" true
    (run [ "verify"; "../examples/dc/ring5.dc"; "--engine"; "warp" ] <> 0)

let suite =
  ( "sharded engine",
    [
      prop_build_identical;
      prop_of_pred_identical;
      prop_spill_forced;
      prop_checks_on_spilled;
      prop_union_into;
      prop_iter_words;
      Alcotest.test_case "chaos: SIGKILL while spilling" `Slow test_chaos_spill;
      Alcotest.test_case "cli: --engine flag" `Quick test_cli_engine_flag;
    ] )
