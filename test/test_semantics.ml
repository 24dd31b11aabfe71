(* Tests for Detcor_semantics: transition-system construction, graph
   algorithms (cross-validated against brute force), weak fairness,
   leads-to, closure, convergence, traces. *)

open Detcor_kernel
open Detcor_semantics

(* Brute-force reachability on an edge list. *)
let brute_reachable n edges from =
  let reach = Array.make n false in
  List.iter (fun i -> reach.(i) <- true) from;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (i, j) ->
        if reach.(i) && not reach.(j) then begin
          reach.(j) <- true;
          changed := true
        end)
      edges
  done;
  reach

(* Brute-force SCC membership: i ~ j iff mutually reachable. *)
let brute_same_scc n edges i j =
  let ri = brute_reachable n edges [ i ] and rj = brute_reachable n edges [ j ] in
  ri.(j) && rj.(i)

let build_graph n edges =
  let p = Util.graph_program n edges in
  Ts.build p ~from:(List.init n Util.node_state)

let test_ts_exploration () =
  let ts = build_graph 4 [ (0, 1); (1, 2) ] in
  Alcotest.(check int) "all seeded states recorded" 4 (Ts.num_states ts);
  let ts2 =
    Ts.build (Util.graph_program 4 [ (0, 1); (1, 2) ]) ~from:[ Util.node_state 0 ]
  in
  Alcotest.(check int) "only reachable recorded" 3 (Ts.num_states ts2)

let test_ts_limit () =
  Alcotest.(check bool) "limit enforced" true
    (try
       ignore
         (Ts.build ~limit:2
            (Util.graph_program 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ])
            ~from:[ Util.node_state 0 ]);
       false
     with Ts.Too_large 2 -> true);
  (* Seeds count too: more satisfying states than the limit is refused
     on every engine, edges or not. *)
  List.iter
    (fun engine ->
      Alcotest.(check bool)
        (Ts.engine_name engine ^ ": limit enforced on seeds")
        true
        (try
           ignore (Util.product ~limit:2 ~engine (Util.graph_program 5 []));
           false
         with Ts.Too_large 2 -> true))
    [ Ts.Auto; Ts.Reference ]

let test_ts_full () =
  let p = Util.graph_program 3 [] in
  Alcotest.(check int) "full space" 3 (Ts.num_states (Util.product p))

let test_ts_actions () =
  let ts = build_graph 3 [ (0, 1); (1, 2) ] in
  Alcotest.(check int) "two actions" 2 (Ts.num_actions ts);
  Alcotest.(check bool) "action id lookup" true (Ts.action_id ts "e0_0_1" <> None);
  Alcotest.(check (list int)) "ids of names" [ 0 ]
    (Ts.action_ids_of_names ts [ "e0_0_1" ]);
  let i = Option.get (Ts.index_of ts (Util.node_state 2)) in
  Alcotest.(check bool) "2 deadlocked" true (Ts.deadlocked ts i);
  let j = Option.get (Ts.index_of ts (Util.node_state 0)) in
  Alcotest.(check bool) "0 live" false (Ts.deadlocked ts j)

let test_reachable () =
  let ts = build_graph 5 [ (0, 1); (1, 2); (3, 4) ] in
  let from = [ Option.get (Ts.index_of ts (Util.node_state 0)) ] in
  let r = Graph.reachable ts ~from in
  let at k = r.(Option.get (Ts.index_of ts (Util.node_state k))) in
  Alcotest.(check bool) "0->2" true (at 2);
  Alcotest.(check bool) "not 0->3" false (at 3)

let test_co_reachable () =
  let ts = build_graph 4 [ (0, 1); (1, 2); (3, 2) ] in
  let target = [ Option.get (Ts.index_of ts (Util.node_state 2)) ] in
  let r = Graph.co_reachable ts ~target in
  let at k = r.(Option.get (Ts.index_of ts (Util.node_state k))) in
  Alcotest.(check bool) "0 co-reaches 2" true (at 0);
  Alcotest.(check bool) "3 co-reaches 2" true (at 3)

let test_sccs () =
  let ts = build_graph 5 [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2); (4, 4) ] in
  let sccs = Graph.sccs ts in
  let nontrivial = List.filter (fun (c : Graph.scc) -> not c.trivial) sccs in
  Alcotest.(check int) "three nontrivial sccs" 3 (List.length nontrivial);
  Alcotest.(check int) "five components total" 3
    (List.length (List.filter (fun (c : Graph.scc) -> List.length c.members >= 1 && not c.trivial) sccs))

let test_scc_trivial_self_loop () =
  let ts = build_graph 2 [ (0, 0) ] in
  let sccs = Graph.sccs ts in
  let with0 =
    List.find
      (fun (c : Graph.scc) ->
        List.exists
          (fun v -> State.equal (Ts.state ts v) (Util.node_state 0))
          c.members)
      sccs
  in
  Alcotest.(check bool) "self-loop is nontrivial" false with0.trivial

(* Fairness: two actions, one enabled everywhere with no internal edge. *)
let test_fairness_forces_exit () =
  (* Node variable x in 0..1: action loop: x=0 -> x:=0 (self-loop);
     action exit: x=0 -> x:=1.  Weak fairness forces exit eventually, so
     no fair run stays in x=0. *)
  let stay =
    Action.deterministic "stay"
      (Pred.make "x=0" (fun st -> Value.equal (State.get st "x") (Value.int 0)))
      (fun st -> st)
  in
  let exit_ =
    Action.deterministic "exit"
      (Pred.make "x=0" (fun st -> Value.equal (State.get st "x") (Value.int 0)))
      (fun st -> State.set st "x" (Value.int 1))
  in
  let p =
    Program.make ~name:"fair" ~vars:[ ("x", Domain.range 0 1) ]
      ~actions:[ stay; exit_ ]
  in
  let ts = Ts.build p ~from:[ State.of_list [ ("x", Value.int 0) ] ] in
  let region i = Value.equal (State.get (Ts.state ts i) "x") (Value.int 0) in
  Alcotest.(check bool) "no fair run within x=0" false
    (Fairness.trapped ts ~region).(0);
  (* Without the exit action, the self-loop is a fair run. *)
  let p2 =
    Program.make ~name:"unfair" ~vars:[ ("x", Domain.range 0 1) ]
      ~actions:[ stay ]
  in
  let ts2 = Ts.build p2 ~from:[ State.of_list [ ("x", Value.int 0) ] ] in
  Alcotest.(check bool) "self-loop alone is fair" true
    (Fairness.trapped ts2 ~region:(fun i ->
         Value.equal (State.get (Ts.state ts2 i) "x") (Value.int 0))).(0)

let test_fairness_partial_enabledness () =
  (* A cycle 0 -> 1 -> 0 where an escape action is enabled only at node 0:
     the escape is not continuously enabled, so the cycle is fair. *)
  let cyc = Util.graph_program 3 [ (0, 1); (1, 0); (0, 2) ] in
  let ts = Ts.build cyc ~from:[ Util.node_state 0 ] in
  let region i = not (State.equal (Ts.state ts i) (Util.node_state 2)) in
  let at0 = Option.get (Ts.index_of ts (Util.node_state 0)) in
  Alcotest.(check bool) "intermittently enabled escape keeps cycle fair" true
    (Fairness.trapped ts ~region).(at0)

let test_trapped_deadlock () =
  (* 0 -> 1 with 1 deadlocked: no infinite run stays in {0, 1}, but the
     maximal computation from 0 ends inside it, so both states are
     trapped; 2, outside the region, is not. *)
  let ts = build_graph 3 [ (0, 1); (2, 0) ] in
  let at k = Option.get (Ts.index_of ts (Util.node_state k)) in
  let trapped =
    Fairness.trapped ts ~region:(fun i ->
        not (State.equal (Ts.state ts i) (Util.node_state 2)))
  in
  Alcotest.(check (list bool)) "deadlock in region traps 0 and 1"
    [ true; true; false ]
    (List.map (fun k -> trapped.(at k)) [ 0; 1; 2 ])

let node_pred k =
  Pred.make (Fmt.str "at%d" k) (fun st ->
      Value.equal (State.get st "node") (Value.int k))

let test_leads_to () =
  (* 0 -> 1 -> 2 with 2 absorbing: 0 leads to 2. *)
  let ts = build_graph 3 [ (0, 1); (1, 2); (2, 2) ] in
  Util.check_holds "0 ~> 2" (Check.leads_to ts (node_pred 0) (node_pred 2));
  (* With a branch that can avoid 2 forever fairly: fails. *)
  let ts2 = build_graph 4 [ (0, 1); (1, 3); (3, 1); (0, 2) ] in
  Util.check_fails "cycle avoids 2" (Check.leads_to ts2 (node_pred 0) (node_pred 2))

let test_leads_to_deadlock () =
  let ts = build_graph 3 [ (0, 1) ] in
  (* 1 is a deadlock that does not satisfy the target. *)
  Util.check_fails "deadlock before target"
    (Check.leads_to ts (node_pred 0) (node_pred 2))

(* Leads-to under faults: a fault step moves the P∧¬Q state 0 to node 2,
   a ¬Q deadlock of p that p alone never reaches from a P-state. *)
let test_leads_to_via () =
  let p = Util.graph_program 3 [ (0, 1); (1, 1) ] in
  let faults =
    Detcor_core.Fault.make "f"
      [
        Action.deterministic "fault" (node_pred 0) (fun st ->
            State.set st "node" (Value.int 2));
      ]
  in
  let ts_pf =
    Ts.build (Detcor_core.Fault.compose p faults) ~from:[ Util.node_state 0 ]
  in
  let ts_p = Ts.build p ~from:(Ts.states ts_pf) in
  Util.check_holds "p alone: 0 ~> 1"
    (Check.leads_to ts_p (node_pred 0) (node_pred 1));
  match Check.leads_to ~via:ts_pf ts_p (node_pred 0) (node_pred 1) with
  | Check.Fails (Check.Deadlock st) ->
    Alcotest.check Util.state "fault leads to the deadlock"
      (Util.node_state 2) st
  | o -> Alcotest.failf "expected a deadlock, got %a" Check.pp_outcome o

let test_eventually_trivial () =
  let ts = build_graph 2 [ (0, 1); (1, 1) ] in
  Util.check_holds "eventually node=1" (Check.eventually ts (node_pred 1))

let test_closed () =
  let ts = build_graph 3 [ (0, 1); (1, 2) ] in
  let le1 =
    Pred.make "node<=1" (fun st -> Value.as_int (State.get st "node") <= 1)
  in
  Util.check_fails "node<=1 not closed" (Check.closed ts le1);
  let any = Pred.true_ in
  Util.check_holds "true closed" (Check.closed ts any)

let test_closed_under_actions () =
  let p = Util.graph_program 3 [ (0, 1) ] in
  let le1 =
    Pred.make "node<=1" (fun st -> Value.as_int (State.get st "node") <= 1)
  in
  Util.check_holds "edge 0->1 preserves node<=1"
    (Check.closed_under_actions ~universe:(Program.states p)
       (Program.actions p) le1);
  let p2 = Util.graph_program 3 [ (1, 2) ] in
  Util.check_fails "edge 1->2 violates node<=1"
    (Check.closed_under_actions ~universe:(Program.states p2)
       (Program.actions p2) le1)

let test_hoare_triple () =
  let ts = build_graph 3 [ (0, 1); (1, 2) ] in
  Util.check_holds "{at0} p {at1}"
    (Check.hoare_triple ts ~pre:(node_pred 0) ~post:(node_pred 1));
  Util.check_fails "{at0} p {at2}"
    (Check.hoare_triple ts ~pre:(node_pred 0) ~post:(node_pred 2))

let test_converges () =
  let ts = build_graph 3 [ (0, 1); (1, 2); (2, 2) ] in
  let all = Pred.true_ in
  Util.check_holds "true converges to at2" (Check.converges ts all (node_pred 2));
  (* target not closed: fails *)
  let ts2 = build_graph 3 [ (0, 1); (1, 0) ] in
  Util.check_fails "at1 not closed" (Check.converges ts2 all (node_pred 1))

let test_safety_check () =
  let ts = build_graph 3 [ (0, 1); (1, 2) ] in
  Util.check_fails "bad state found"
    (Check.safety ts
       ~bad_state:(fun st -> Value.equal (State.get st "node") (Value.int 2))
       ~bad_transition:(fun _ _ -> false));
  Util.check_fails "bad transition found"
    (Check.safety ts
       ~bad_state:(fun _ -> false)
       ~bad_transition:(fun s s' ->
         Value.equal (State.get s "node") (Value.int 1)
         && Value.equal (State.get s' "node") (Value.int 2)));
  Util.check_holds "clean system"
    (Check.safety ts ~bad_state:(fun _ -> false) ~bad_transition:(fun _ _ -> false))

let test_deadlock_free () =
  let ts = build_graph 3 [ (0, 1); (1, 0) ] in
  Util.check_holds "cycle region deadlock-free"
    (Check.deadlock_free ts
       ~inside:
         (Pred.make "node<=1" (fun st -> Value.as_int (State.get st "node") <= 1)));
  let ts2 = build_graph 2 [ (0, 1) ] in
  Util.check_fails "1 is a deadlock" (Check.deadlock_free ts2 ~inside:Pred.true_)

let test_trace_basics () =
  let s0 = Util.node_state 0 and s1 = Util.node_state 1 in
  let tr =
    Trace.make ~ending:Trace.Maximal s0 [ { Trace.action = "e"; target = s1 } ]
  in
  Alcotest.(check int) "length" 1 (Trace.length tr);
  Alcotest.check Util.state "final" s1 (Trace.final tr);
  Alcotest.(check (list Util.state)) "states" [ s0; s1 ] (Trace.states tr);
  Alcotest.(check (option int)) "first_index" (Some 1)
    (Trace.first_index tr (node_pred 1));
  Alcotest.(check int) "pairs" 1 (List.length (Trace.pairs tr));
  let suffix = Trace.suffix_from tr 1 in
  Alcotest.check Util.state "suffix start" s1 (Trace.start suffix)

let test_trace_enumerate () =
  let ts =
    Ts.build (Util.graph_program 3 [ (0, 1); (0, 2) ]) ~from:[ Util.node_state 0 ]
  in
  let traces = Trace.enumerate ts ~depth:3 in
  Alcotest.(check int) "two maximal traces" 2 (List.length traces);
  Alcotest.(check bool) "all maximal" true
    (List.for_all (fun t -> Trace.ending t = Trace.Maximal) traces)

(* Properties: Tarjan and BFS agree with brute force on random graphs. *)
let n_prop = 6

let prop_reachability =
  Util.qtest ~count:150 "BFS reachability = brute force" (Util.graph_arb n_prop)
    (fun edges ->
      let ts = build_graph n_prop edges in
      let from0 = [ Option.get (Ts.index_of ts (Util.node_state 0)) ] in
      let fast = Graph.reachable ts ~from:from0 in
      let slow = brute_reachable n_prop edges [ 0 ] in
      List.for_all
        (fun k ->
          fast.(Option.get (Ts.index_of ts (Util.node_state k))) = slow.(k))
        (List.init n_prop Fun.id))

let prop_scc =
  Util.qtest ~count:150 "Tarjan = brute-force SCC" (Util.graph_arb n_prop)
    (fun edges ->
      let ts = build_graph n_prop edges in
      let ids, _ = Graph.scc_ids ts in
      let id k = ids.(Option.get (Ts.index_of ts (Util.node_state k))) in
      List.for_all
        (fun i ->
          List.for_all
            (fun j -> id i = id j = brute_same_scc n_prop edges i j)
            (List.init n_prop Fun.id))
        (List.init n_prop Fun.id))

let prop_co_reachable =
  Util.qtest ~count:150 "co-reachability = reversed brute force"
    (Util.graph_arb n_prop) (fun edges ->
      let ts = build_graph n_prop edges in
      let target = [ Option.get (Ts.index_of ts (Util.node_state 0)) ] in
      let fast = Graph.co_reachable ts ~target in
      let reversed = List.map (fun (i, j) -> (j, i)) edges in
      let slow = brute_reachable n_prop reversed [ 0 ] in
      List.for_all
        (fun k ->
          fast.(Option.get (Ts.index_of ts (Util.node_state k))) = slow.(k))
        (List.init n_prop Fun.id))

(* Cross-validation of the fairness-based leads-to checker against direct
   trace semantics: on ACYCLIC graphs every maximal computation is finite,
   fairness is vacuous, and [leads_to p q] holds iff every maximal trace
   satisfies the obligation.  Random DAGs are generated by orienting edges
   upward. *)
let prop_leads_to_vs_traces =
  let n = 5 in
  let dag_arb =
    QCheck.map
      (fun pairs ->
        List.filter_map
          (fun (a, b) ->
            let i = min a b and j = max a b in
            if i = j then None else Some (i, j))
          pairs)
      (QCheck.list_of_size (QCheck.Gen.int_range 0 8)
         (QCheck.pair (QCheck.int_range 0 (n - 1)) (QCheck.int_range 0 (n - 1))))
  in
  Util.qtest ~count:150 "leads-to = trace semantics on DAGs" dag_arb
    (fun edges ->
      let ts =
        Ts.build (Util.graph_program n edges) ~from:[ Util.node_state 0 ]
      in
      let p = node_pred 1 and q = node_pred 3 in
      let fast = Check.holds (Check.leads_to ts p q) in
      let traces = Trace.enumerate ts ~depth:(2 * n) in
      let slow =
        List.for_all
          (fun tr ->
            let states = Trace.states tr in
            let rec satisfied = function
              | [] -> true
              | st :: rest ->
                if Pred.holds p st && not (Pred.holds q st) then
                  List.exists (Pred.holds q) rest && satisfied rest
                else satisfied rest
            in
            satisfied states)
          traces
      in
      fast = slow)

let test_dot_export () =
  let ts = build_graph 3 [ (0, 1); (1, 2) ] in
  let dot =
    Dot.to_string
      ~style:
        {
          Dot.highlight = [ (node_pred 0, "palegreen") ];
          dashed_actions = [ "e1_1_2" ];
          show_action_labels = true;
        }
      ts
  in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 10 && String.sub dot 0 7 = "digraph");
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "highlight present" true (contains "palegreen" dot);
  Alcotest.(check bool) "dashed fault edge" true (contains "style=dashed" dot);
  Alcotest.(check bool) "action label" true (contains "e0_0_1" dot)

(* [Rank_map] against a [Hashtbl] oracle: random adds (with rebinding)
   and lookups over spaces from a single key to [max_int], so runs stay
   hashed through many resizes, switch to the dense array, or start
   dense; ranks 0 and [space - 1] are drawn often, and keys outside the
   map (absent, negative, [space] and beyond) must read [-1]. *)
let prop_rank_map =
  let arb =
    QCheck.make
      ~print:(fun (space, expect, ops) ->
        Fmt.str "space %d, expect %d, %d ops" space expect (List.length ops))
      QCheck.Gen.(
        let* space = oneofl [ 1; 2; 17; 300; 1000; 5000; 1 lsl 40; max_int ] in
        let* expect = oneof [ return 0; int_range 0 (min space 3000) ] in
        let key =
          frequency
            [
              (1, return 0);
              (1, return (space - 1));
              (6, map (fun x -> (x land max_int) mod space) int);
            ]
        in
        let* ops = list_size (int_range 0 3000) (pair bool (pair key nat)) in
        return (space, expect, ops))
  in
  Util.qtest ~count:100 "Rank_map = Hashtbl oracle" arb
  @@ fun (space, expect, ops) ->
  let m = Rank_map.create ~expect ~space () in
  let oracle = Hashtbl.create 16 in
  let agrees key =
    Rank_map.find m key
    = Option.value (Hashtbl.find_opt oracle key) ~default:(-1)
  in
  List.for_all
    (fun (is_add, (key, v)) ->
      if is_add then begin
        Rank_map.add m key v;
        Hashtbl.replace oracle key v
      end;
      agrees key)
    ops
  && Rank_map.length m = Hashtbl.length oracle
  && Hashtbl.fold (fun key _ ok -> ok && agrees key) oracle true
  && List.for_all
       (fun key -> Rank_map.find m key = -1)
       ([ -1; min_int ]
       @ if space < max_int then [ space; space + 1 ] else [])
  && List.for_all agrees [ 0; space - 1; space / 2 ]

(* The switch point: a map over 1,024 keys stays hashed while its table
   (2 words per slot, load at most 1/2) costs fewer words than the dense
   array, i.e. through 128 keys, and turns dense at the 129th, keeping
   every binding; a map created for half its space starts dense. *)
let test_rank_map_switch () =
  let m = Rank_map.create ~space:1024 () in
  for k = 0 to 127 do
    Rank_map.add m (k * 7 mod 1024) k
  done;
  Alcotest.(check bool) "hashed at 128 keys" false (Rank_map.is_dense m);
  Rank_map.add m 1023 128;
  Alcotest.(check bool) "dense at 129 keys" true (Rank_map.is_dense m);
  Alcotest.(check int) "length" 129 (Rank_map.length m);
  for k = 0 to 127 do
    Alcotest.(check int) "kept" k (Rank_map.find m (k * 7 mod 1024))
  done;
  Alcotest.(check int) "last" 128 (Rank_map.find m 1023);
  Alcotest.(check int) "absent" (-1) (Rank_map.find m 1);
  Alcotest.(check bool) "sized for half the space" true
    (Rank_map.is_dense (Rank_map.create ~expect:512 ~space:1024 ()));
  Alcotest.(check bool) "sparse space stays hashed" false
    (Rank_map.is_dense (Rank_map.create ~expect:512 ~space:(1 lsl 40) ()))

let suite =
  ( "semantics",
    [
      Alcotest.test_case "dot export" `Quick test_dot_export;
      prop_leads_to_vs_traces;
      Alcotest.test_case "exploration" `Quick test_ts_exploration;
      Alcotest.test_case "exploration limit" `Quick test_ts_limit;
      Alcotest.test_case "full space" `Quick test_ts_full;
      Alcotest.test_case "actions and deadlocks" `Quick test_ts_actions;
      Alcotest.test_case "reachable" `Quick test_reachable;
      Alcotest.test_case "co-reachable" `Quick test_co_reachable;
      Alcotest.test_case "sccs" `Quick test_sccs;
      Alcotest.test_case "self-loop scc" `Quick test_scc_trivial_self_loop;
      Alcotest.test_case "fairness forces exit" `Quick test_fairness_forces_exit;
      Alcotest.test_case "partial enabledness" `Quick test_fairness_partial_enabledness;
      Alcotest.test_case "trapped deadlock" `Quick test_trapped_deadlock;
      Alcotest.test_case "leads-to" `Quick test_leads_to;
      Alcotest.test_case "leads-to deadlock" `Quick test_leads_to_deadlock;
      Alcotest.test_case "leads-to via faults" `Quick test_leads_to_via;
      Alcotest.test_case "eventually" `Quick test_eventually_trivial;
      Alcotest.test_case "closure" `Quick test_closed;
      Alcotest.test_case "closure under actions" `Quick test_closed_under_actions;
      Alcotest.test_case "hoare triples" `Quick test_hoare_triple;
      Alcotest.test_case "converges" `Quick test_converges;
      Alcotest.test_case "safety" `Quick test_safety_check;
      Alcotest.test_case "deadlock-free" `Quick test_deadlock_free;
      Alcotest.test_case "trace basics" `Quick test_trace_basics;
      Alcotest.test_case "trace enumerate" `Quick test_trace_enumerate;
      prop_reachability;
      prop_scc;
      prop_co_reachable;
      prop_rank_map;
      Alcotest.test_case "rank map switch point" `Quick test_rank_map_switch;
    ] )
