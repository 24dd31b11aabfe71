(* Unit tests for the packed state-space engine: layout round-trips, the
   bitset container, the predicate/guard caches, engine selection and
   fallback. *)

open Detcor_kernel
open Detcor_semantics

let vars =
  [
    ("a", Domain.boolean);
    ("b", Domain.boolean);
    ("n", Domain.range 0 2);
    ("s", Domain.symbols [ "x"; "y"; "bot" ]);
  ]

let toggle =
  Action.deterministic "toggle"
    (Pred.make "true" (fun _ -> true))
    (fun st -> State.set st "a" (Value.bool (not (Value.as_bool (State.get st "a")))))

let step =
  Action.deterministic "step"
    (Pred.make "n<2" (fun st -> Value.as_int (State.get st "n") < 2))
    (fun st -> State.set st "n" (Value.int (Value.as_int (State.get st "n") + 1)))

let program = Program.make ~name:"engine-test" ~vars ~actions:[ toggle; step ]

let layout () =
  match Layout.of_program program with
  | Some l -> l
  | None -> Alcotest.fail "layout of a small program must exist"

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let test_layout_roundtrip () =
  let l = layout () in
  Alcotest.(check int) "space" (Program.space_size program) (Layout.space l);
  Alcotest.(check int) "vars" 4 (Layout.num_vars l);
  for rank = 0 to Layout.space l - 1 do
    let st = Layout.unpack l rank in
    Alcotest.(check int) "pack(unpack rank) = rank" rank (Layout.pack l st)
  done

let test_layout_rank_order () =
  (* Rank order must be State.compare order: the packed engine relies on it
     to reproduce the reference engine's initial-state numbering. *)
  let l = layout () in
  for rank = 0 to Layout.space l - 2 do
    let st = Layout.unpack l rank and st' = Layout.unpack l (rank + 1) in
    Alcotest.(check bool) "unpack monotone wrt State.compare" true
      (State.compare st st' < 0)
  done

let test_layout_enumeration () =
  let l = layout () in
  let seen = ref [] in
  Layout.iter_states l (fun st -> seen := st :: !seen);
  let seen = List.rev !seen in
  Alcotest.(check int) "enumerates the whole space" (Layout.space l)
    (List.length seen);
  List.iteri
    (fun rank st ->
      Alcotest.(check bool) "iter_states is in rank order" true
        (State.equal st (Layout.unpack l rank)))
    seen

let test_layout_unrepresentable () =
  let l = layout () in
  let good = Layout.unpack l 0 in
  Alcotest.(check bool) "good state packs" true (Layout.pack_opt l good <> None);
  let extra = State.set good "zz" (Value.int 0) in
  Alcotest.(check bool) "extra variable rejected" true
    (Layout.pack_opt l extra = None);
  let missing = State.project good [ "a"; "b"; "n" ] in
  Alcotest.(check bool) "missing variable rejected" true
    (Layout.pack_opt l missing = None);
  let out_of_domain = State.set good "n" (Value.int 99) in
  Alcotest.(check bool) "out-of-domain value rejected" true
    (Layout.pack_opt l out_of_domain = None)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset () =
  let b = Bitset.create 77 in
  Alcotest.(check int) "fresh cardinal" 0 (Bitset.cardinal b);
  List.iter (fun i -> Bitset.set b i) [ 0; 1; 8; 63; 64; 76 ];
  Alcotest.(check int) "cardinal after sets" 6 (Bitset.cardinal b);
  Alcotest.(check bool) "get set bit" true (Bitset.get b 64);
  Alcotest.(check bool) "get unset bit" false (Bitset.get b 2);
  Bitset.clear b 64;
  Alcotest.(check bool) "cleared" false (Bitset.get b 64);
  let evens = Bitset.of_fn 10 (fun i -> i mod 2 = 0) in
  Alcotest.(check int) "of_fn cardinal" 5 (Bitset.cardinal evens);
  let collected = ref [] in
  Bitset.iter_set evens (fun i -> collected := i :: !collected);
  Alcotest.(check (list int)) "iter_set" [ 0; 2; 4; 6; 8 ] (List.rev !collected);
  Alcotest.(check bool) "equal reflexive" true (Bitset.equal evens evens);
  Alcotest.(check bool) "not equal" false (Bitset.equal evens b);
  Alcotest.(check bool) "out of bounds" true
    (try
       ignore (Bitset.get evens 10);
       false
     with
     | Detcor_robust.Error.Detcor_error
         (Detcor_robust.Error.Internal { msg }) ->
       msg = "Bitset: index 10 out of bounds [0,10)")

(* ------------------------------------------------------------------ *)
(* Predicate / guard caches                                            *)
(* ------------------------------------------------------------------ *)

let test_pred_cache_coherence () =
  let ts = Util.product program in
  Alcotest.(check bool) "no fallback" true (Ts.fallback_reason ts = None);
  let pred =
    Pred.make "a && n>0" (fun st ->
        Value.as_bool (State.get st "a") && Value.as_int (State.get st "n") > 0)
  in
  let bits = Ts.pred_bitset ts pred in
  for i = 0 to Ts.num_states ts - 1 do
    let direct = Pred.holds pred (Ts.state ts i) in
    Alcotest.(check bool) "bitset matches direct eval" direct (Bitset.get bits i);
    Alcotest.(check bool) "holds_at matches direct eval" direct
      (Ts.holds_at ts pred i)
  done;
  Alcotest.(check int) "satisfying agrees with bitset" (Bitset.cardinal bits)
    (List.length (Ts.satisfying ts pred));
  (* The cache is per predicate instance: the same instance returns the
     same bitset, a fresh extensionally-equal instance gets its own. *)
  Alcotest.(check bool) "cache hit returns same bitset" true
    (Ts.pred_bitset ts pred == bits)

let test_enabled_cache_coherence () =
  let ts = Util.product program in
  for aid = 0 to Ts.num_actions ts - 1 do
    let bits = Ts.enabled_bitset ts aid in
    for i = 0 to Ts.num_states ts - 1 do
      let direct = Action.enabled (Ts.action ts aid) (Ts.state ts i) in
      Alcotest.(check bool) "enabled bitset matches guard" direct
        (Bitset.get bits i);
      Alcotest.(check bool) "enabled matches guard" direct (Ts.enabled ts i aid)
    done
  done;
  for i = 0 to Ts.num_states ts - 1 do
    let direct =
      not
        (List.exists
           (fun ac -> Action.enabled ac (Ts.state ts i))
           (Program.actions program))
    in
    Alcotest.(check bool) "deadlocked matches guards" direct (Ts.deadlocked ts i)
  done

(* ------------------------------------------------------------------ *)
(* Engine selection and fallback                                       *)
(* ------------------------------------------------------------------ *)

let escaping =
  (* An action that steps outside the declared domain of [n]: no layout can
     represent its successors, so Auto must fall back to the reference
     engine and still build the same system. *)
  Program.make ~name:"escaping"
    ~vars:[ ("n", Domain.range 0 2) ]
    ~actions:
      [
        Action.deterministic "inc"
          (Pred.make "n<9" (fun st -> Value.as_int (State.get st "n") < 9))
          (fun st -> State.set st "n" (Value.int (Value.as_int (State.get st "n") + 1)));
      ]

(* Auto falls back with the escape as its reason, with or without a
   spill directory (the shard store refuses the escape as the flat store
   does). *)
let test_fallback_on_escape () =
  let from = [ State.of_list [ ("n", Value.int 0) ] ] in
  let reference = Ts.build ~limit:100 ~engine:Ts.Reference escaping ~from in
  let falls_back label =
    let auto = Ts.build ~limit:100 escaping ~from in
    Alcotest.(check string) (label ^ ": auto falls back to reference")
      "reference" (Ts.store_name auto);
    Alcotest.(check (option string)) (label ^ ": the escape is the reason")
      (Some "variable n escaped its declared domain (value 3)")
      (Ts.fallback_reason auto);
    Alcotest.(check bool) (label ^ ": same system as reference") true
      (Util.ts_equal reference auto)
  in
  falls_back "in RAM";
  Util.with_leg Util.Spilled (fun () -> falls_back "spill dir")

let test_index_of_foreign_state () =
  let ts = Util.product program in
  let foreign = State.of_list [ ("only", Value.int 1) ] in
  Alcotest.(check bool) "unrepresentable state not indexed" true
    (Ts.index_of ts foreign = None);
  List.iter
    (fun i ->
      Alcotest.(check (option int)) "index_of inverts state" (Some i)
        (Ts.index_of ts (Ts.state ts i)))
    (List.init (Ts.num_states ts) Fun.id)

(* ------------------------------------------------------------------ *)
(* Full-product kernel gate                                            *)
(* ------------------------------------------------------------------ *)

(* The BFS store over a whole product: on the 419,904-state byz4 [] F
   product, seeded with every state, every action runs compiled and the
   build allocates at most 150 words per state (about 118 when it was
   measured). *)
let test_full_product_kernel () =
  let e = Detcor_lang.Elaborate.load_file "../examples/dc/byz4.dc" in
  let composed = Detcor_core.Fault.compose e.program e.faults in
  let module Obs = Detcor_obs.Obs in
  let module Sink = Detcor_obs.Sink in
  let sink, records = Sink.memory () in
  let ts =
    Obs.with_ctx (Obs.make ~sinks:[ sink ] ()) (fun () -> Util.product composed)
  in
  let attrs =
    List.find_map
      (function
        | Sink.End { name = "ts.build"; attrs; _ } -> Some attrs
        | _ -> None)
      (records ())
    |> Option.get
  in
  let int_attr k =
    match List.assoc_opt k attrs with
    | Some (Detcor_obs.Attr.Int n) -> n
    | _ -> Alcotest.failf "ts.build span lacks %s" k
  in
  let states = int_attr "states" in
  Alcotest.(check int) "whole product" 419_904 states;
  Alcotest.(check int) "span counts the built states" (Ts.num_states ts) states;
  Alcotest.(check bool) "at least 34 actions compiled" true
    (int_attr "compiled" >= 34);
  let per_state =
    float_of_int (int_attr "alloc_words") /. float_of_int states
  in
  if per_state > 150. then
    Alcotest.failf "%.1f alloc words/state, gate is 150" per_state

(* Rank forms ([Pred.of_ranks], [Action.of_moves]) run compiled only on a
   layout of the signature they were computed on.  Under a layout with an
   extra variable, or with the same variables over another domain, they
   are refused, and the closures they carry then give the same bitsets
   and successors as plain closure-built twins. *)
let test_rank_forms_refused () =
  let l = layout () in
  let sg = Layout.signature l in
  let n st = Value.as_int (State.get st "n") in
  let holds st = Value.as_bool (State.get st "a") || n st = 0 in
  let bump st = State.set st "n" (Value.int ((n st + 1) mod 3)) in
  let ranked =
    Pred.of_ranks "a|n=0" sg (fun r -> holds (Layout.unpack l r)) holds
  in
  let moves =
    Action.of_moves "bump" ranked sg
      (fun r -> Layout.pack l (bump (Layout.unpack l r)))
      bump
  in
  (* A rank form restricted by an expression compiles as a conjunction. *)
  let not_b = Pred.of_expr (Expr.Not (Expr.Var "b")) in
  let restricted = Action.rename "bump-b" (Action.restrict not_b moves) in
  let twin = Action.deterministic "bump" (Pred.make "a|n=0" holds) bump in
  let twin_restricted = Action.rename "bump-b" (Action.restrict not_b twin) in
  let check label vars ~compiles =
    let with_actions acts = Program.make ~name:label ~vars ~actions:acts in
    let p = with_actions [ moves; restricted ] in
    let l' = Option.get (Layout.of_program p) in
    let compiled ac =
      match Compiled.action l' ac with
      | Some c -> not (Compiled.needs_state c)
      | None -> false
    in
    Alcotest.(check bool) (label ^ ": pred compiles") compiles
      (Compiled.pred l' ranked <> None);
    Alcotest.(check bool)
      (label ^ ": action compiles")
      compiles (compiled moves);
    Alcotest.(check bool) (label ^ ": restricted compiles") compiles
      (compiled restricted);
    let ts = Util.product p in
    let ts' = Util.product (with_actions [ twin; twin_restricted ]) in
    Alcotest.(check bool) (label ^ ": no fallback") true
      (Ts.fallback_reason ts = None && Ts.fallback_reason ts' = None);
    Alcotest.(check bool) (label ^ ": successors") true (Util.ts_equal ts ts');
    Alcotest.(check bool) (label ^ ": pred bitset") true
      (Bitset.equal (Ts.pred_bitset ts ranked)
         (Ts.pred_bitset ts' (Pred.make "a|n=0" holds)));
    List.iter
      (fun aid ->
        Alcotest.(check bool) (label ^ ": enabled bitset") true
          (Bitset.equal (Ts.enabled_bitset ts aid) (Ts.enabled_bitset ts' aid)))
      [ 0; 1 ]
  in
  check "same signature" vars ~compiles:true;
  check "extra variable" (vars @ [ ("z", Domain.boolean) ]) ~compiles:false;
  check "other domain"
    (List.map
       (fun (x, d) ->
         if x = "s" then (x, Domain.symbols [ "x"; "y" ]) else (x, d))
       vars)
    ~compiles:false

(* Action ids are 16-bit edge labels.  A program with one action more
   than that is refused before anything is built, on every engine and
   store, with an error that names the ceiling: its last id would
   otherwise wrap to 0.  At the ceiling itself the last action keeps its
   own id. *)
let test_action_ceiling () =
  let flips k =
    List.init k (fun i ->
        Action.deterministic (Printf.sprintf "f%d" i) Pred.true_ (fun st ->
            State.set st "a"
              (Value.bool (not (Value.as_bool (State.get st "a"))))))
  in
  let program k =
    Program.make ~name:"wide" ~vars:[ ("a", Domain.boolean) ]
      ~actions:(flips k)
  in
  let from = [ State.of_list [ ("a", Value.bool false) ] ] in
  Alcotest.(check int) "ceiling" 65_535 Ts.max_actions;
  let over = program (Ts.max_actions + 1) in
  List.iter
    (fun ((engine, leg) as b) ->
      let name = Util.build_name b in
      Util.with_leg leg @@ fun () ->
      match Ts.build ~engine over ~from with
      | ts ->
        Alcotest.failf "%s: built %d actions" name (Ts.num_actions ts)
      | exception
          Detcor_robust.Error.(Detcor_error (Type_error { msg } as e)) ->
        Alcotest.(check int) (name ^ ": exit code") 2
          (Detcor_robust.Error.exit_code e);
        Alcotest.(check bool)
          (name ^ ": names the ceiling: " ^ msg)
          true
          (Util.contains msg "65536 actions exceed the ceiling of 65535"))
    Util.builds;
  let at = program Ts.max_actions in
  List.iter
    (fun ((engine, leg) as b) ->
      Util.with_leg leg @@ fun () ->
      let ts = Ts.build ~engine at ~from in
      let last = List.nth (Ts.edges_of ts 0) (Ts.max_actions - 1) in
      Alcotest.(check (pair int int))
        (Util.build_name b ^ ": last edge")
        (Ts.max_actions - 1, 1) last)
    Util.builds

(* The heap budget is also consulted between ticks, where a build's heap
   peaks ([Ts.finish], with its blocks and final columns both live):
   [Budget.check] trips a budget the live heap exceeds, and does nothing
   without a budget. *)
let test_budget_check () =
  let live = Bytes.create (8 * 1024 * 1024) in
  Detcor_robust.Budget.check ();
  (match
     Detcor_robust.Budget.with_budget
       (Detcor_robust.Budget.make ~max_memory_mb:1 ())
       Detcor_robust.Budget.check
   with
  | () -> Alcotest.fail "an 8 MiB heap fit a 1 MiB budget"
  | exception
      Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Resource r) ->
    Alcotest.(check string) "memory tripped" "memory"
      (Detcor_robust.Error.resource_kind_name r.kind));
  ignore (Sys.opaque_identity live)

let suite =
  ( "engine",
    [
      Alcotest.test_case "layout roundtrip" `Quick test_layout_roundtrip;
      Alcotest.test_case "layout rank order" `Quick test_layout_rank_order;
      Alcotest.test_case "layout enumeration" `Quick test_layout_enumeration;
      Alcotest.test_case "layout unrepresentable" `Quick test_layout_unrepresentable;
      Alcotest.test_case "bitset" `Quick test_bitset;
      Alcotest.test_case "pred cache coherence" `Quick test_pred_cache_coherence;
      Alcotest.test_case "enabled cache coherence" `Quick test_enabled_cache_coherence;
      Alcotest.test_case "fallback on domain escape" `Quick test_fallback_on_escape;
      Alcotest.test_case "index_of" `Quick test_index_of_foreign_state;
      Alcotest.test_case "rank forms refused on another layout" `Quick
        test_rank_forms_refused;
      Alcotest.test_case "full-product kernel gate" `Slow
        test_full_product_kernel;
      Alcotest.test_case "action ceiling refused on every engine" `Quick
        test_action_ceiling;
      Alcotest.test_case "heap budget checked between ticks" `Quick
        test_budget_check;
    ] )
