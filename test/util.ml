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

(* [needle] occurs in [hay]. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

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

(* The system over [p]'s whole product: every state seeded, numbered by
   rank. *)
let product ?limit ?engine p =
  Detcor_semantics.Ts.of_pred ?limit ?engine p
    ~from:Detcor_kernel.Pred.true_

(* Install shard-store parameters for the duration of [f], restoring
   the process-wide defaults afterwards (they are global state).  With a
   [spill_dir], every [Auto] build in [f] that a layout holds runs on
   the shard store. *)
let with_spill ?spill_dir ?(arena_mb = 512) f =
  let module Ts = Detcor_semantics.Ts in
  let d0, m0 = Ts.spill_defaults () in
  Ts.set_spill_defaults ~spill_dir ~arena_budget_mb:arena_mb;
  Fun.protect
    ~finally:(fun () -> Ts.set_spill_defaults ~spill_dir:d0 ~arena_budget_mb:m0)
    f

(* [with_temp_dir k]: [k dir] on a fresh directory, removed with its
   files afterwards. *)
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

(* Where an [Auto] build runs: in RAM (the flat store), or on one of the
   shard store's two residency legs, both selected by a fresh spill
   directory: every arena resident under a budget no test reaches, or
   spill-forced (a zero arena budget, so every sealed segment spills and
   every later read of it reloads).  A system built on a shard leg must
   not be read after [f] returns: its directory is gone. *)
type leg = In_ram | Resident | Spilled

let leg_name = function
  | In_ram -> "in RAM"
  | Resident -> "resident"
  | Spilled -> "spill-forced"

let with_leg leg f =
  match leg with
  | In_ram -> f ()
  | Resident | Spilled ->
    let arena_mb = if leg = Resident then 1 lsl 20 else 0 in
    with_temp_dir (fun dir -> with_spill ~spill_dir:dir ~arena_mb f)

(* The ways a system is built: the reference engine, and [Auto] on each
   leg. *)
let builds =
  Detcor_semantics.Ts.
    [ (Reference, In_ram); (Auto, In_ram); (Auto, Resident); (Auto, Spilled) ]

let build_name (engine, leg) =
  Fmt.str "%s, %s" (Detcor_semantics.Ts.engine_name engine) (leg_name leg)

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

(* ------------------------------------------------------------------ *)
(* The per-call liveness procedures: the oracle of the decomposition.  *)
(* ------------------------------------------------------------------ *)

(* Liveness as it was decided before systems cached one SCC
   decomposition: every call runs Tarjan's algorithm afresh on the
   masked subgraph, roots ascending, and keeps member lists.
   [Graph.sccs], [Fairness.fair_sccs], [Fairness.trapped] and
   [Check.leads_to] must answer exactly as these do, witnesses and their
   order included. *)
module Oracle = struct
  open Detcor_semantics

  (* Tarjan's algorithm, iterative, restricted to the masked subgraph.  A
     call-stack frame holds its node and the node's lent row of targets
     with a cursor into it; a node popped into its component gets index
     [max_int], so it can no longer lower a lowlink. *)
  let sccs ?(mask = fun _ -> true) ts =
    let n = Ts.num_states ts in
    let index = Array.make n (-1) in
    let lowlink = Array.make n 0 in
    let stack = Array.make n 0 and sp = ref 0 in
    let frame_node = Array.make n 0 and frame_row = Array.make n Ts.empty_row in
    let frame_pos = Array.make n 0 and frame_stop = Array.make n 0 in
    let depth = ref 0 in
    let set_row row lo hi =
      frame_row.(!depth) <- row;
      frame_pos.(!depth) <- lo;
      frame_stop.(!depth) <- hi
    in
    let counter = ref 0 in
    let components = ref [] in
    let enter v =
      index.(v) <- !counter;
      lowlink.(v) <- !counter;
      incr counter;
      stack.(!sp) <- v;
      incr sp;
      frame_node.(!depth) <- v;
      Ts.with_out_row ts v set_row;
      incr depth
    in
    let visit root =
      enter root;
      while !depth > 0 do
        let top = !depth - 1 in
        let v = frame_node.(top) and e = frame_pos.(top) in
        if e < frame_stop.(top) then begin
          frame_pos.(top) <- e + 1;
          let w = Ts.row_target frame_row.(top) e in
          if mask w then
            if index.(w) = -1 then enter w
            else if index.(w) < lowlink.(v) then lowlink.(v) <- index.(w)
        end
        else begin
          depth := top;
          frame_row.(top) <- Ts.empty_row;
          if top > 0 then begin
            let parent = frame_node.(top - 1) in
            if lowlink.(v) < lowlink.(parent) then
              lowlink.(parent) <- lowlink.(v)
          end;
          if lowlink.(v) = index.(v) then begin
            let members = ref [] in
            let continue_ = ref true in
            while !continue_ do
              decr sp;
              let w = stack.(!sp) in
              index.(w) <- max_int;
              members := w :: !members;
              if w = v then continue_ := false
            done;
            components := !members :: !components
          end
        end
      done
    in
    for i = 0 to n - 1 do
      if mask i && index.(i) = -1 then visit i
    done;
    let rec self_loop v row e hi =
      e < hi && (Ts.row_target row e = v || self_loop v row (e + 1) hi)
    in
    let make_scc id members =
      let trivial =
        match members with
        | [ v ] -> not (Ts.with_out_row ts v (self_loop v))
        | _ -> false
      in
      { Graph.id; members; trivial }
    in
    List.mapi make_scc (List.rev !components)

  let fair ts (scc : Graph.scc) =
    (not scc.trivial)
    &&
    let inside v = List.mem v scc.members in
    List.for_all
      (fun aid ->
        (not (List.for_all (fun v -> Ts.enabled ts v aid) scc.members))
        || List.exists
             (fun v ->
               List.exists
                 (fun (a, w) -> a = aid && inside w)
                 (Ts.edges_of ts v))
             scc.members)
      (List.init (Ts.num_actions ts) Fun.id)

  let fair_sccs ?mask ts = List.filter (fair ts) (sccs ?mask ts)

  let trapped ts ~region =
    let stuck =
      List.filter
        (fun i -> region i && Ts.deadlocked ts i)
        (List.init (Ts.num_states ts) Fun.id)
      @ List.concat_map
          (fun (c : Graph.scc) -> c.members)
          (fair_sccs ~mask:region ts)
    in
    Graph.co_reachable ~mask:region ts ~target:stuck

  let leads_to ?via ts p q =
    let via = Option.value via ~default:ts in
    let not_q i = not (Ts.holds_at via q i) in
    let starts =
      List.filter
        (fun i -> Ts.holds_at via p i && not_q i)
        (List.init (Ts.num_states via) Fun.id)
    in
    if starts = [] then Check.Holds
    else
      let reach = Graph.reachable ~mask:not_q via ~from:starts in
      (* By state, so the derivation's index column is checked too. *)
      let to_via i =
        if via == ts then i
        else Option.value ~default:(-1) (Ts.index_of via (Ts.state ts i))
      in
      let region i =
        let j = to_via i in
        j >= 0 && reach.(j)
      in
      let n = Ts.num_states ts in
      match
        List.find_opt
          (fun i -> region i && Ts.deadlocked ts i)
          (List.init n Fun.id)
      with
      | Some i -> Check.Fails (Check.Deadlock (Ts.state ts i))
      | None -> (
        match fair_sccs ~mask:region ts with
        | scc :: _ ->
          Check.Fails (Check.Fair_cycle (List.map (Ts.state ts) scc.members))
        | [] -> Check.Holds)
end
