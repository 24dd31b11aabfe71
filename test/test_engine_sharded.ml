(* Differential and chaos tests for the out-of-core shard store, which a
   spill directory selects.

   The shard store promises the flat store's exact numbering and
   verdicts with a different residency story, so the tests are the same
   shape as the engine differential (reusing its random-program
   generators) plus the knobs unique to the segmented store:

   - reference = shard store on 200+ random programs, on a resident and
     a spill-forced leg, for [build], [of_pred] and [full];
   - a spill-forced mode (zero arena budget into a temp directory) that
     must spill at least once and still agree byte-for-byte, also with
     two stores of one program spilling into one directory;
   - escape programs: under a spill directory [Auto] falls back to the
     reference path exactly where it does in RAM, for the same reason;
   - through the dcheck CLI: SIGKILL chaos while spilling, resumed to a
     byte-identical verdict (reusing the chaos harness); spill-forced
     verify byte-identical to the default run, also on a domain escape;
     no spill file left behind by a run without a checkpoint; the
     removed engine names refused;
   - word-parallel Bitset union against its bit-at-a-time
     specification. *)

open Detcor_semantics

let equal_system = Util.ts_equal

let with_spill = Util.with_spill
let with_temp_dir = Util.with_temp_dir
let legs = [ Util.Resident; Util.Spilled ]

(* A system [Auto] built under a spill directory: on the shard store,
   unless [auto], built in RAM, fell back to the reference path — then
   it fell back too, for the same reason. *)
let on_shards ts ~auto =
  match Ts.fallback_reason auto with
  | None -> Ts.store_name ts = "sharded"
  | Some _ as reason ->
    Ts.store_name ts = "reference" && Ts.fallback_reason ts = reason

let inits_arb =
  QCheck.make
    ~print:(fun (rp, inits) ->
      Fmt.str "%s from %d states"
        (Test_engine_diff.print_program rp)
        (List.length inits))
    Test_engine_diff.with_inits_gen

(* Identity on explicit initials, resident and spill-forced: numbering,
   edges, initials and lookup all equal to the reference engine's. *)
let prop_build_identical =
  Util.qtest ~count:210 "sharded build = reference build (resident, spill-forced)"
    inits_arb (fun (rp, inits) ->
      let p = Test_engine_diff.build_program rp in
      let from = inits @ inits in
      let reference = Ts.build ~engine:Ts.Reference p ~from in
      let auto = Ts.build ~engine:Ts.Auto p ~from in
      List.for_all
        (fun leg ->
          Util.with_leg leg (fun () ->
              let sharded = Ts.build p ~from in
              on_shards sharded ~auto
              && equal_system reference sharded
              && List.for_all
                   (fun i -> Ts.index_of sharded (Ts.state reference i) = Some i)
                   (List.init (Ts.num_states reference) Fun.id)))
        legs)

let pred_arb =
  QCheck.make
    ~print:(fun (rp, s) ->
      Fmt.str "%s from P%d" (Test_engine_diff.print_program rp) s)
    QCheck.Gen.(pair Test_engine_diff.program_gen (int_range 0 (1 lsl 20)))

(* The product-space surfaces: [of_pred] from a random predicate and
   [full], each against the reference engine, resident and
   spill-forced. *)
let prop_of_pred_identical =
  Util.qtest ~count:120 "sharded of_pred = reference of_pred" pred_arb
    (fun (rp, seed) ->
      let p = Test_engine_diff.build_program rp in
      let from = Test_engine_diff.pred_of_seed seed in
      let agree make =
        let reference = make Ts.Reference and auto = make Ts.Auto in
        List.for_all
          (fun leg ->
            Util.with_leg leg (fun () ->
                let sharded = make Ts.Auto in
                on_shards sharded ~auto && equal_system reference sharded))
          legs
      in
      agree (fun engine -> Ts.of_pred ~engine p ~from)
      && agree (fun engine -> Util.product ~engine p))

(* Spill-forced identity: a zero arena budget into a temp directory makes
   every sealed segment spill; results must not change, and any run that
   interned states must have spilled at least once. *)
let prop_spill_forced =
  Util.qtest ~count:60 "spill-forced sharded build agrees and spills"
    inits_arb (fun (rp, inits) ->
      let p = Test_engine_diff.build_program rp in
      let from = inits @ inits in
      let reference = Ts.build ~engine:Ts.Reference p ~from in
      let auto = Ts.build ~engine:Ts.Auto p ~from in
      with_temp_dir (fun dir ->
          with_spill ~spill_dir:dir ~arena_mb:0 (fun () ->
              let sharded = Ts.build p ~from in
              on_shards sharded ~auto
              && equal_system reference sharded
              &&
              match Ts.shard_stats sharded with
              | None -> Ts.fallback_reason sharded <> None
              | Some (spills, bytes, _) ->
                Ts.num_states sharded = 0 || (spills > 0 && bytes > 0))))

(* Check procedures on a spilled system: predicates, reachability, SCCs
   and safety answers must match the reference engine even when every
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
          with_spill ~spill_dir:dir ~arena_mb:0 (fun () ->
              let sharded = Ts.of_pred p ~from in
              on_shards sharded ~auto
              &&
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
                reach reference = reach sharded
                && Graph.sccs reference = Graph.sccs sharded)))

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

(* ------------------------------------------------------------------ *)
(* Two stores of one program in one spill directory.                   *)
(* ------------------------------------------------------------------ *)

(* A verify session builds two shard-store systems of one program: p
   from the invariant's states and p over the fault span.  Spill-forced
   into one directory, each must read back its own segments — both are
   compared, state by state and edge by edge, with their flat builds
   only after both have spilled. *)
let test_two_stores_one_dir () =
  let e = Detcor_lang.Elaborate.load_file "../examples/dc/reset7.dc" in
  let p = e.program in
  let span =
    Ts.of_pred (Detcor_core.Fault.compose p e.faults) ~from:e.invariant
  in
  let builds () =
    [ Ts.of_pred p ~from:e.invariant; Ts.build p ~from:(Ts.states span) ]
  in
  let packed = builds () in
  with_temp_dir @@ fun dir ->
  with_spill ~spill_dir:dir ~arena_mb:0 @@ fun () ->
  let sharded = builds () in
  List.iteri
    (fun i (a, b) ->
      let label = Fmt.str "store %d" i in
      (match Ts.shard_stats b with
      | Some (spills, _, _) ->
        Alcotest.(check bool) (label ^ ": spilled") true (spills > 0)
      | None -> Alcotest.fail (label ^ ": not a shard-store system"));
      Util.check_same_system label a b)
    (List.combine packed sharded)

(* ------------------------------------------------------------------ *)
(* Through the CLI: chaos, identity and spill-file cleanup.            *)
(* ------------------------------------------------------------------ *)

(* A verify with a zero arena budget spills continuously; the
   chaos harness SIGKILLs it mid-run and resumes until terminal, and the
   resumed run must reproduce the undisturbed run's bytes exactly.
   Spill files survive the kill (they are written atomically, and a
   checkpointed run keeps them), so resume re-binds them instead of
   re-exploring. *)
let test_chaos_spill () =
  with_temp_dir @@ fun dir ->
  Test_chaos.chaos_workload "sharded spill verify"
    [
      "verify"; "../examples/dc/reset7.dc"; "--tolerance"; "failsafe";
      "--spill-dir"; dir; "--shard-arena-mb"; "0";
    ]
    ~max_delay:0.3 ()

(* Spill-forced verify of every class prints the default run's bytes and
   exits with its code, and a run without [--checkpoint] leaves no spill
   file behind (after spilling, as [info] reports). *)
let test_cli_spill_forced () =
  with_temp_dir @@ fun dir ->
  let spill = [ "--spill-dir"; dir; "--shard-arena-mb"; "0" ] in
  let empty label =
    Alcotest.(check (array string)) (label ^ ": spill directory empty") [||]
      (Sys.readdir dir)
  in
  List.iter
    (fun model ->
      let path = "../examples/dc/" ^ model ^ ".dc" in
      let want = Test_chaos.baseline "auto" [ "verify"; path ] in
      let got = Test_chaos.baseline "spill-forced" ([ "verify"; path ] @ spill) in
      Alcotest.(check (pair int string)) (model ^ ": spill-forced = auto") want got;
      empty model;
      let code, info = Test_chaos.baseline "info" ([ "info"; path ] @ spill) in
      Alcotest.(check int) (model ^ ": info exit code") 0 code;
      let spills =
        List.find_map
          (fun line -> Scanf.sscanf_opt line " spill: %d spills" Fun.id)
          (String.split_on_char '\n' info)
      in
      Alcotest.(check bool) (model ^ ": info spilled") true
        (match spills with Some k -> k > 0 | None -> false);
      Alcotest.(check bool) (model ^ ": info names the shard store") true
        (Util.contains info "engine:        sharded");
      empty (model ^ " info"))
    [ "reset7"; "ring5" ]

(* A program whose actions leave their declared domains, run with a
   spill directory, falls back to the reference engine and prints the
   default run's bytes, as verify, synthesize and info. *)
let test_cli_escape_falls_back () =
  with_temp_dir @@ fun dir ->
  Test_chaos.with_temp ".dc" @@ fun path ->
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        "program esc\nvar x : 0..2\ninvariant x = 0\n\
         action inc: x < 3 -> x := x + 1\n");
  List.iter
    (fun cmd ->
      let want = Test_chaos.baseline "default" [ cmd; path ] in
      let got =
        Test_chaos.baseline "spill-forced"
          [ cmd; path; "--spill-dir"; dir; "--shard-arena-mb"; "0" ]
      in
      Alcotest.(check (pair int string)) (cmd ^ ": spill dir = default") want got;
      Alcotest.(check bool) (cmd ^ ": not a usage error") true (fst got <> 2))
    [ "verify"; "synthesize"; "info" ];
  let _, info = Test_chaos.baseline "info" [ "info"; path; "--spill-dir"; dir ] in
  Alcotest.(check bool) "info names the fallback" true
    (Util.contains info "engine:        reference"
    && Util.contains info "fell back to reference: variable x escaped")

(* The CLI must reject unknown and removed engines and unknown options,
   and run out of core with a spill directory alone. *)
let test_cli_engine_flag () =
  let run args =
    Test_chaos.with_temp ".out" @@ fun out ->
    Test_chaos.exit_code "engine flag" (Test_chaos.run_dcheck args ~out)
  in
  with_temp_dir (fun dir ->
      Alcotest.(check int)
        "out-of-core verify exits 0" 0
        (run
           [
             "verify"; "../examples/dc/ring5.dc"; "--tolerance"; "nonmasking";
             "--spill-dir"; dir;
           ]));
  Alcotest.(check bool)
    "unknown engine rejected" true
    (run [ "verify"; "../examples/dc/ring5.dc"; "--engine"; "warp" ] <> 0);
  List.iter
    (fun engine ->
      Alcotest.(check int)
        ("--engine " ^ engine ^ " is a usage error")
        2
        (run [ "verify"; "../examples/dc/ring5.dc"; "--engine"; engine ]))
    [ "packed"; "sharded" ];
  Alcotest.(check int)
    "--shards is an unknown option" 2
    (run [ "verify"; "../examples/dc/ring5.dc"; "--shards"; "4" ])

let suite =
  ( "sharded engine",
    [
      prop_build_identical;
      prop_of_pred_identical;
      prop_spill_forced;
      prop_checks_on_spilled;
      prop_union_into;
      Alcotest.test_case "two spill-forced stores of one program share a directory"
        `Quick test_two_stores_one_dir;
      Alcotest.test_case "chaos: SIGKILL while spilling" `Slow test_chaos_spill;
      Alcotest.test_case "cli: spill-forced verify = auto, no spill file left"
        `Quick test_cli_spill_forced;
      Alcotest.test_case "cli: a domain escape under --spill-dir falls back"
        `Quick test_cli_escape_falls_back;
      Alcotest.test_case "cli: --engine flag" `Quick test_cli_engine_flag;
    ] )
