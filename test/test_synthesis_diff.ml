(* Engine differential for synthesis: one algorithm over every builder.

   Synthesis has a single implementation of each phase, running over the
   {!Ts} API; [?engine] only picks the builder of the systems it explores.
   Random fault-intolerant programs (four variables, seeded decision-table
   guards, deterministic / nondeterministic / corrupting actions), random
   sparse safety specifications (bad states, sometimes bad transitions),
   random invariants and random variable-corruption faults drive the three
   transformations of {!Synthesize} over reference-, packed- and
   sharded-built systems (the sharded engine with K=1 and with K=4
   shards).  Every builder must yield exactly the reference builder's
   outcome: same outcome constructor, extensionally identical synthesized
   programs (compared as fully built reference systems), identical
   recomputed (possibly weakened, under the same name) invariants,
   recovery-state counts, repair-iteration counts and verification
   reports, and — on failures — the same minimal unrecoverable state or
   report.  Together the properties run 300 random instances per test
   execution, each over all four builders, plus a worker-count check. *)

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
    let ts_a = Ts.full ~engine:Ts.Reference a.program in
    let ts_b = Ts.full ~engine:Ts.Reference b.program in
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

(* Run [synth] once per builder and compare each outcome with the
   reference builder's. *)
let across_engines p synth =
  let r_ref = synth Ts.Reference in
  let sharded k =
    Test_engine_sharded.with_shards ~shards:k (fun () -> synth Ts.Sharded)
  in
  agree ~label:"packed" p r_ref (synth Ts.Packed)
  && agree ~label:"sharded K=1" p r_ref (sharded 1)
  && agree ~label:"sharded K=4" p r_ref (sharded 4)

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

(* Parallel layering must not change the result: same synthesized system,
   same report, whatever the worker count. *)
let prop_workers =
  Util.qtest ~count:30 "add_masking: workers=4 = workers=1" instance_arb
    (fun inst ->
      let p = build_program inst in
      let spec = build_spec inst in
      let invariant = pred_of_seed inst.inv_seed in
      let faults = build_faults inst in
      let seq =
        Synthesize.add_masking ~engine:Ts.Packed ~workers:1
          ~step_vars:inst.step_vars p ~spec ~invariant ~faults
      in
      let par =
        Synthesize.add_masking ~engine:Ts.Packed ~workers:4
          ~step_vars:inst.step_vars p ~spec ~invariant ~faults
      in
      agree ~label:"workers=4" p seq par)

let suite =
  ( "synthesis differential",
    [ prop_failsafe; prop_nonmasking; prop_masking; prop_workers ] )
