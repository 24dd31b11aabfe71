(* Engine differential for synthesis: one algorithm over every builder.

   Synthesis has a single implementation of each phase, running over the
   {!Ts} API; [?engine] only picks the builder of the systems it explores.
   Random fault-intolerant programs (four variables, seeded decision-table
   guards, deterministic / nondeterministic / corrupting actions), random
   sparse safety specifications (bad states, sometimes bad transitions),
   random invariants and random variable-corruption faults drive the three
   transformations of {!Synthesize} over reference-, packed- and
   sharded-built systems (the sharded engine resident and spill-forced).  Every builder must yield exactly the reference builder's
   outcome: same outcome constructor, extensionally identical synthesized
   programs (compared as fully built reference systems), identical
   recomputed (possibly weakened, under the same name) invariants,
   recovery-state counts, repair-iteration counts and verification
   reports, and — on failures — the same minimal unrecoverable state or
   report.  Together the properties run 300 random instances per test
   execution, each over all four builders, plus a check that the ignored
   [workers] parameter changes nothing. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec
open Detcor_core
open Detcor_synthesis

let bool_dom = Domain.boolean
let n_dom = Domain.range 0 2
let m_dom = Domain.range 0 3
let vars = [ ("a", bool_dom); ("b", bool_dom); ("n", n_dom); ("m", m_dom) ]

(* Decision-table predicates over the packed value tuple; [width] bits of
   the seed per table cell set the density (1 → ~1/2, 3 → ~1/8). *)
let table_pred ?(width = 1) seed name =
  Pred.make name (fun st ->
      let a = Value.as_bool (State.get st "a") in
      let b = Value.as_bool (State.get st "b") in
      let n = Value.as_int (State.get st "n") in
      let m = Value.as_int (State.get st "m") in
      let ix =
        (if a then 1 else 0) + (2 * if b then 1 else 0) + (4 * n) + (12 * m)
      in
      (seed lsr (ix * width mod 59)) land ((1 lsl width) - 1) = 0)

let pred_of_seed seed = table_pred ~width:1 seed (Fmt.str "P%d" seed)
let sparse_pred_of_seed seed = table_pred ~width:3 seed (Fmt.str "B%d" seed)

type rand_assign = Set_a of bool | Set_b of bool | Set_n of int | Set_m of int

let apply_assign st = function
  | Set_a v -> State.set st "a" (Value.bool v)
  | Set_b v -> State.set st "b" (Value.bool v)
  | Set_n v -> State.set st "n" (Value.int v)
  | Set_m v -> State.set st "m" (Value.int v)

let assign_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Set_a v) bool;
        map (fun v -> Set_b v) bool;
        map (fun v -> Set_n v) (int_range 0 2);
        map (fun v -> Set_m v) (int_range 0 3);
      ])

type rand_action =
  | Assign of int * rand_assign list
  | Choose of int * rand_assign * rand_assign
  | Corrupt of int * int

let action_gen =
  QCheck.Gen.(
    let seed = int_range 0 (1 lsl 20) in
    oneof
      [
        map2
          (fun s assigns -> Assign (s, assigns))
          seed
          (list_size (int_range 1 2) assign_gen);
        map3 (fun s x y -> Choose (s, x, y)) seed assign_gen assign_gen;
        map2 (fun s v -> Corrupt (s, v)) seed (int_range 0 3);
      ])

let build_action i = function
  | Assign (seed, assigns) ->
    Action.deterministic (Fmt.str "a%d" i) (pred_of_seed seed) (fun st ->
        List.fold_left apply_assign st assigns)
  | Choose (seed, x, y) ->
    Action.choose (Fmt.str "a%d" i) (pred_of_seed seed)
      [ (fun st -> apply_assign st x); (fun st -> apply_assign st y) ]
  | Corrupt (seed, v) ->
    let x, d = List.nth vars v in
    Action.corrupt (Fmt.str "a%d" i) (pred_of_seed seed) x d

(* A random synthesis instance: program, safety spec, invariant, faults. *)
type instance = {
  acts : rand_action list;
  bad_seed : int;
  bad_trans : int option; (* bad transitions: target table, if any *)
  inv_seed : int;
  fault_vars : int list; (* which variables the faults corrupt *)
  fault_guard : int option;
  step_vars : int;
}

let instance_gen =
  QCheck.Gen.(
    let seed = int_range 0 (1 lsl 20) in
    map3
      (fun acts (bad_seed, bad_trans, inv_seed) (fault_vars, fault_guard, sv) ->
        {
          acts;
          bad_seed;
          bad_trans;
          inv_seed;
          fault_vars = List.sort_uniq Int.compare fault_vars;
          fault_guard;
          step_vars = 1 + sv;
        })
      (list_size (int_range 1 3) action_gen)
      (triple seed (opt seed) seed)
      (triple
         (list_size (int_range 1 2) (int_range 0 3))
         (opt seed) (int_range 0 1)))

let print_instance inst =
  Fmt.str "{acts=%d bad=%d trans=%b inv=%d faults=%a step=%d}"
    (List.length inst.acts) inst.bad_seed
    (inst.bad_trans <> None)
    inst.inv_seed
    Fmt.(Dump.list int)
    inst.fault_vars inst.step_vars

let instance_arb = QCheck.make ~print:print_instance instance_gen

let build_program inst =
  Program.make ~name:"diff" ~vars ~actions:(List.mapi build_action inst.acts)

let build_spec inst =
  let bad = sparse_pred_of_seed inst.bad_seed in
  let safety =
    match inst.bad_trans with
    | None -> Safety.make ~name:"rand" ~bad_state:(Pred.holds bad) ()
    | Some seed ->
      (* a sparse set of forbidden targets, only when the state changes *)
      let trap = sparse_pred_of_seed seed in
      Safety.make ~name:"rand" ~bad_state:(Pred.holds bad)
        ~bad_transition:(fun s s' ->
          (not (State.equal s s')) && Pred.holds trap s')
        ()
  in
  Spec.make ~name:"rand" ~safety ()

let build_faults inst =
  let guard = Option.map pred_of_seed inst.fault_guard in
  List.fold_left
    (fun acc v ->
      let x, d = List.nth vars v in
      Fault.union acc (Fault.corrupt_variable ?guard x d))
    Fault.none inst.fault_vars

let report_str r = Fmt.str "%a" Tolerance.pp_report r

(* Extensional equality of two synthesis outcomes.  Programs are compared
   as fully built reference systems (states, edges, action names), the
   invariants on the program's product space, and the reports as rendered
   text (subject, span and invariant sizes, per-obligation outcomes). *)
let same_outcome p r_ref r =
  match (r_ref, r) with
  | Ok (a : Synthesize.result), Ok (b : Synthesize.result) ->
    let ts_a = Util.product ~engine:Ts.Reference a.program in
    let ts_b = Util.product ~engine:Ts.Reference b.program in
    Util.ts_equal ts_a ts_b
    && Program.name a.program = Program.name b.program
    && Pred.equal_on ~universe:(Program.states p) a.invariant b.invariant
    && Pred.name a.invariant = Pred.name b.invariant
    && report_str a.report = report_str b.report
    && List.map fst a.added_detectors = List.map fst b.added_detectors
    && a.recovery_states = b.recovery_states
    && a.repair_iterations = b.repair_iterations
  | Error Synthesize.Empty_invariant, Error Synthesize.Empty_invariant -> true
  | ( Error (Synthesize.Unrecoverable_state s1),
      Error (Synthesize.Unrecoverable_state s2) ) ->
    State.equal s1 s2
  | ( Error (Synthesize.Verification_failed r1),
      Error (Synthesize.Verification_failed r2) ) ->
    report_str r1 = report_str r2
  | _ -> false

let outcome_tag = function
  | Ok _ -> "ok"
  | Error f -> Fmt.str "%a" Synthesize.pp_failure f

let agree ~label p r_ref r =
  if same_outcome p r_ref r then true
  else
    QCheck.Test.fail_reportf "builders disagree: reference=%s %s=%s"
      (outcome_tag r_ref) label (outcome_tag r)

(* Run [synth] once per builder (the flat store, and the shard store on
   both legs) and compare each outcome with the reference builder's. *)
let across_engines p synth =
  let r_ref = synth Ts.Reference in
  List.for_all
    (fun leg ->
      Util.with_leg leg (fun () ->
          agree ~label:(Util.leg_name leg) p r_ref (synth Ts.Auto)))
    [ Util.In_ram; Util.Resident; Util.Spilled ]

let prop_failsafe =
  Util.qtest ~count:100 "add_failsafe: reference = packed = sharded"
    instance_arb (fun inst ->
      let p = build_program inst in
      let spec = build_spec inst in
      let invariant = pred_of_seed inst.inv_seed in
      let faults = build_faults inst in
      across_engines p (fun engine ->
          Synthesize.add_failsafe ~engine p ~spec ~invariant ~faults))

let prop_nonmasking =
  Util.qtest ~count:100 "add_nonmasking: reference = packed = sharded"
    instance_arb (fun inst ->
      let p = build_program inst in
      let spec = build_spec inst in
      let invariant = pred_of_seed inst.inv_seed in
      let faults = build_faults inst in
      across_engines p (fun engine ->
          Synthesize.add_nonmasking ~engine ~step_vars:inst.step_vars p ~spec
            ~invariant ~faults))

let prop_masking =
  Util.qtest ~count:100 "add_masking: reference = packed = sharded"
    instance_arb (fun inst ->
      let p = build_program inst in
      let spec = build_spec inst in
      let invariant = pred_of_seed inst.inv_seed in
      let faults = build_faults inst in
      across_engines p (fun engine ->
          Synthesize.add_masking ~engine ~step_vars:inst.step_vars p ~spec
            ~invariant ~faults))

(* [add_masking] ignores [workers] (synthesis is sequential; the
   parameter stays for callers that still pass it): any value gives the
   same synthesized system and the same report. *)
let prop_workers =
  Util.qtest ~count:30 "add_masking: workers=4 = workers=1" instance_arb
    (fun inst ->
      let p = build_program inst in
      let spec = build_spec inst in
      let invariant = pred_of_seed inst.inv_seed in
      let faults = build_faults inst in
      let seq =
        Synthesize.add_masking ~workers:1
          ~step_vars:inst.step_vars p ~spec ~invariant ~faults
      in
      let par =
        Synthesize.add_masking ~workers:4
          ~step_vars:inst.step_vars p ~spec ~invariant ~faults
      in
      agree ~label:"workers=4" p seq par)

(* ------------------------------------------------------------------ *)
(* Span-bounded front end against the naive full-product definitions.  *)
(* ------------------------------------------------------------------ *)

(* The fail-safe front end runs on the fault span R = Reach(S, p [] F)
   and widens to the product only for the weakening search.  The oracle
   never narrows: it builds the whole [p [] F] product, computes [ms] as
   a plain backward fixpoint (repeat until stable) of the safety
   closures over the fault edges, and evaluates the textbook definitions
   on states.  Per synthesized result it checks every
   detection guard at every R state, the recomputed invariant on the
   product, and whether the invariant was weakened; an [Empty_invariant]
   outcome must match an empty weakened fixpoint, and a rejected
   fail-safe program must have been verified from an invariant whose
   fault-free closure is as large as the oracle's. *)
type oracle = {
  wdp : Action.t -> State.t -> bool;
  invariant : State.t list; (* the recomputed invariant, ascending *)
  weakened : bool;
  span : State.t list; (* R *)
  closure : int Lazy.t;
      (* states reachable from [invariant] in [p] restricted by [wdp] *)
}

let naive_front p ~spec ~invariant ~faults =
  let sspec = Spec.safety (Spec.smallest_safety_containing spec) in
  let composed = Fault.compose p faults in
  let full = Util.product composed in
  let n = Ts.num_states full in
  let st = Ts.state full in
  let ix s = Option.get (Ts.index_of full s) in
  let bad = Array.init n (fun i -> Safety.bad_state sspec (st i)) in
  let is_fault = Array.make (Ts.num_actions full) false in
  List.iter
    (fun aid -> is_fault.(aid) <- true)
    (Ts.action_ids_of_names full (Fault.action_names faults));
  let ms = Array.copy bad in
  Ts.iter_edges full (fun i aid j ->
      if is_fault.(aid) && Safety.bad_transition sspec (st i) (st j) then
        ms.(i) <- true);
  let changed = ref true in
  while !changed do
    changed := false;
    Ts.iter_edges full (fun i aid j ->
        if is_fault.(aid) && ms.(j) && not ms.(i) then begin
          ms.(i) <- true;
          changed := true
        end)
  done;
  let wdp ac s =
    let i = ix s in
    (not bad.(i)) && (not ms.(i))
    && List.for_all
         (fun s' ->
           let j = ix s' in
           not (Safety.bad_transition sspec s s' || bad.(j) || ms.(j)))
         (Action.execute ac s)
  in
  (* The greatest subset X of the candidates in which every state is a
     deadlock of [p] or has a restricted successor in X. *)
  let fixpoint candidates =
    let alive = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.replace alive (ix s) ()) candidates;
    let live s =
      Program.deadlocked p s
      || List.exists
           (fun ac ->
             wdp ac s
             && List.exists
                  (fun s' ->
                    match Ts.index_of full s' with
                    | Some j -> Hashtbl.mem alive j
                    | None -> false)
                  (Action.execute ac s))
           (Program.actions p)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun s ->
          if Hashtbl.mem alive (ix s) && not (live s) then begin
            Hashtbl.remove alive (ix s);
            changed := true
          end)
        candidates
    done;
    List.filter (fun s -> Hashtbl.mem alive (ix s)) candidates
  in
  let product = Program.states p in
  let outside_ms s = not ms.(ix s) in
  let s0 = List.filter (Pred.holds invariant) product in
  let invariant, weakened =
    match fixpoint (List.filter outside_ms s0) with
    | [] ->
      ( fixpoint
          (List.filter
             (fun s -> (not (Safety.bad_state sspec s)) && outside_ms s)
             product),
        true )
    | inv -> (inv, false)
  in
  let span = Ts.states (Ts.build composed ~from:s0) in
  let closure =
    lazy
      (let restricted =
         Program.make ~name:"naive" ~vars:(Program.var_decls p)
           ~actions:
             (List.map
                (fun ac -> Action.restrict (Pred.make "wdp" (wdp ac)) ac)
                (Program.actions p))
       in
       Ts.num_states (Ts.build restricted ~from:invariant))
  in
  {
    wdp;
    invariant = List.sort State.compare invariant;
    weakened;
    span;
    closure;
  }

let front_agrees label ~restriction_only p ~oracle result =
  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) label in
  match result with
  | Ok (r : Synthesize.result) ->
    List.iter
      (fun ac ->
        let guard = List.assoc (Action.name ac) r.added_detectors in
        List.iter
          (fun s ->
            if Pred.holds guard s <> oracle.wdp ac s then
              fail "wdp(%s) differs at %a" (Action.name ac) State.pp s)
          oracle.span)
      (Program.actions p);
    let got =
      List.filter (Pred.holds r.invariant) (Program.states p)
      |> List.sort State.compare
    in
    if not (List.equal State.equal got oracle.invariant) then
      fail "recomputed invariant: %d states, oracle %d" (List.length got)
        (List.length oracle.invariant);
    let weakened =
      String.ends_with ~suffix:"_weakened" (Pred.name r.invariant)
    in
    if weakened <> oracle.weakened then
      fail "weakened=%b, oracle %b" weakened oracle.weakened;
    true
  | Error Synthesize.Empty_invariant ->
    if oracle.invariant <> [] then
      fail "Empty_invariant, oracle keeps %d states"
        (List.length oracle.invariant);
    true
  | Error (Synthesize.Verification_failed report) when restriction_only ->
    (* The rejected fail-safe program was verified from the recomputed
       invariant: its fault-free closure there has the oracle's size.  (A
       masking program also holds recovery moves.) *)
    let size = report.Tolerance.invariant_size in
    if size <> Lazy.force oracle.closure then
      fail "closure of the invariant: %d states, oracle %d" size
        (Lazy.force oracle.closure);
    true
  | Error _ -> true

let front_oracle_law ~label p ~spec ~invariant ~faults ~step_vars =
  let oracle = naive_front p ~spec ~invariant ~faults in
  front_agrees (label ^ " fail-safe") ~restriction_only:true p ~oracle
    (Synthesize.add_failsafe p ~spec ~invariant ~faults)
  && front_agrees (label ^ " masking") ~restriction_only:false p ~oracle
       (Synthesize.add_masking ~step_vars p ~spec ~invariant ~faults)

let prop_front_oracle =
  Util.qtest ~count:300 "span-bounded front end = full-product oracle"
    instance_arb (fun inst ->
      front_oracle_law ~label:"random" (build_program inst)
        ~spec:(build_spec inst) ~invariant:(pred_of_seed inst.inv_seed)
        ~faults:(build_faults inst) ~step_vars:inst.step_vars)

let corpus_dir = "../examples/dc"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".dc")
  |> List.sort String.compare

let test_front_oracle_corpus () =
  corpus_files ()
  |> List.iter (fun f ->
         let e =
           Detcor_lang.Elaborate.load_file (Filename.concat corpus_dir f)
         in
         let holds =
           front_oracle_law ~label:f e.program ~spec:e.spec
             ~invariant:e.invariant ~faults:e.faults ~step_vars:1
         in
         Alcotest.(check bool) f true holds)

let suite =
  ( "synthesis differential",
    [
      prop_failsafe;
      prop_nonmasking;
      prop_masking;
      prop_workers;
      prop_front_oracle;
      Alcotest.test_case "span-bounded front end = oracle on the corpus"
        `Slow test_front_oracle_corpus;
    ] )
