(* Shared helpers and generators for the test suite. *)

open Detcor_kernel

let check_holds msg outcome =
  Alcotest.(check bool)
    (Fmt.str "%s: %a" msg Detcor_semantics.Check.pp_outcome outcome)
    true
    (Detcor_semantics.Check.holds outcome)

let check_fails msg outcome =
  Alcotest.(check bool) msg false (Detcor_semantics.Check.holds outcome)

let state = Alcotest.testable State.pp State.equal

let value = Alcotest.testable Value.pp Value.equal

(* Structural equality of two built systems, including numbering: same
   states in the same order, same CSR edges, same initials. *)
let ts_equal a b =
  let module Ts = Detcor_semantics.Ts in
  Ts.num_states a = Ts.num_states b
  && Ts.num_edges a = Ts.num_edges b
  && Ts.initials a = Ts.initials b
  && List.for_all
       (fun i ->
         State.equal (Ts.state a i) (Ts.state b i)
         && Ts.edges_of a i = Ts.edges_of b i)
       (List.init (Ts.num_states a) Fun.id)

(* Install sharded-engine parameters for the duration of [f], restoring
   the process-wide defaults afterwards (they are global state). *)
let with_shards ?(shards = 4) ?spill_dir ?(arena_mb = 512) f =
  let module Ts = Detcor_semantics.Ts in
  let k0, d0, m0 = Ts.shard_defaults () in
  Ts.set_shard_defaults ~shards ~spill_dir ~arena_budget_mb:arena_mb;
  Fun.protect
    ~finally:(fun () ->
      Ts.set_shard_defaults ~shards:k0 ~spill_dir:d0 ~arena_budget_mb:m0)
    f

(* Alcotest form of {!ts_equal}: one check per component, so a mismatch
   reports which part of the structure diverged. *)
let check_same_system label a b =
  let module Ts = Detcor_semantics.Ts in
  Alcotest.(check int) (label ^ ": num_states") (Ts.num_states a) (Ts.num_states b);
  Alcotest.(check int) (label ^ ": num_edges") (Ts.num_edges a) (Ts.num_edges b);
  Alcotest.(check (list int)) (label ^ ": initials") (Ts.initials a) (Ts.initials b);
  for i = 0 to Ts.num_states a - 1 do
    Alcotest.(check bool)
      (Fmt.str "%s: state %d" label i)
      true
      (State.equal (Ts.state a i) (Ts.state b i));
    Alcotest.(check (list (pair int int)))
      (Fmt.str "%s: edges of %d" label i)
      (Ts.edges_of a i) (Ts.edges_of b i)
  done

(* QCheck generator for values. *)
let value_gen =
  QCheck.Gen.(
    oneof
      [
        map Value.int (int_range (-5) 5);
        map Value.bool bool;
        map Value.sym (oneofl [ "a"; "b"; "bot" ]);
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

(* States over a fixed small set of variables. *)
let state_gen vars =
  QCheck.Gen.(
    let bind_var x = map (fun v -> (x, v)) value_gen in
    map State.of_list (flatten_l (List.map bind_var vars)))

let state_arb vars = QCheck.make ~print:State.to_string (state_gen vars)

(* Random directed graphs as programs over one variable [node : 0..n-1];
   each edge (i, j) becomes an action.  Used to cross-validate the graph
   algorithms against brute force. *)
let graph_program n edges =
  let actions =
    List.mapi
      (fun idx (i, j) ->
        Action.deterministic
          (Fmt.str "e%d_%d_%d" idx i j)
          (Pred.make (Fmt.str "at%d" i) (fun st ->
               Value.equal (State.get st "node") (Value.int i)))
          (fun st -> State.set st "node" (Value.int j)))
      edges
  in
  Program.make ~name:"graph"
    ~vars:[ ("node", Domain.range 0 (n - 1)) ]
    ~actions

let node_state i = State.of_list [ ("node", Value.int i) ]

let edges_gen n =
  QCheck.Gen.(
    let edge = pair (int_range 0 (n - 1)) (int_range 0 (n - 1)) in
    list_size (int_range 0 (2 * n)) edge)

let graph_arb n =
  QCheck.make
    ~print:(fun edges ->
      Fmt.str "%a"
        Fmt.(list ~sep:(any "; ") (pair ~sep:(any "->") int int))
        edges)
    (edges_gen n)

(* One process-wide qcheck seed: QCHECK_SEED when set (how CI pins runs),
   otherwise self-chosen.  {!qtest} prints it with the shrunk
   counterexample on failure, so any red run is replayable with
   [QCHECK_SEED=<seed> dune runtest]. *)
let qcheck_seed =
  lazy
    (match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
    | Some s -> s
    | None -> Random.State.bits (Random.State.make_self_init ()))

let qtest ?(count = 200) name arb law =
  let run () =
    let seed = Lazy.force qcheck_seed in
    let rand = Random.State.make [| seed |] in
    match QCheck.Test.make ~count ~name arb law with
    | QCheck2.Test.Test cell -> (
      try QCheck.Test.check_cell_exn ~rand cell with
      | QCheck.Test.Test_fail (n, cexs) as e ->
        Printf.eprintf
          "[qcheck] %S failed with QCHECK_SEED=%d; shrunk counterexample:\n\
           %s\n\
           %!"
          n seed
          (String.concat "\n" (List.map (fun c -> "  " ^ c) cexs));
        raise e
      | QCheck.Test.Test_error (n, cex, exn, _) as e ->
        Printf.eprintf
          "[qcheck] %S raised %s with QCHECK_SEED=%d; shrunk counterexample:\n\
          \  %s\n\
           %!"
          n (Printexc.to_string exn) seed cex;
        raise e)
  in
  Alcotest.test_case name `Quick run
