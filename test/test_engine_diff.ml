(* Differential tests: every engine against the seed list-based path.

   A generator of random guarded-command programs (five variables with
   mixed boolean / integer / symbolic domains, random guards from seeded
   decision tables, deterministic and nondeterministic statements, and an
   optional action that escapes its declared domain to exercise the
   reference fallback) drives three properties:

   - every engine (auto, strict packed, sharded resident and
     spill-forced)
     produces the reference engine's state arrays, edge relations and
     initial states, whether built from explicit states ([build]), from
     a predicate over the product space ([of_pred]) or over the whole
     product ([full]);
   - [Check] and [Graph] procedures report identical outcomes on both;
   - [index_of] inverts the numbering on every system, a layout system's
     states are its decoded ranks, and predicate and guard bitsets (of an
     opaque and a state-set predicate too) agree across engines and, on
     the reference system, with direct evaluation.

   Those programs are built from OCaml closures, so they run the
   interpreted successor kernel.  A second generator writes random
   well-typed guarded-command sources (bool, small-range and symbol
   domains; [&& || ! = != < %], [if] and [pred] references; one to three
   distinct targets per action, [?] wildcards and cross-domain copies;
   increments that escape their domain and [%] by a zero variable), whose
   actions and predicates run compiled.  Each is checked against the
   reference engine under every engine, and against an interpreted twin
   (the same actions behind opaque closures) under the same engine:
   identical systems, or the identical [Value.Type_error] message, or
   the identical [Layout.escape_reason].  The same sources,
   with fault actions added, check that compiled actions' enabled sets
   read off the edge labels equal the guard sweeps, and that p over the
   span of p [] F derived from the span's rows equals p explored from
   the same states.  Over p [] F, on every engine, the edge columns read
   three ways agree: [Ts.reverse] with a naive reverse, [edges_of] with
   [iter_out], and [Graph.sccs] with the reference engine's components.

   Together the properties run > 200 random programs per test execution. *)

open Detcor_kernel
open Detcor_semantics

let bool_dom = Domain.boolean
let n_dom = Domain.range 0 2
let m_dom = Domain.range 0 3
let s_dom = Domain.symbols [ "p"; "q"; "bot" ]

let vars =
  [ ("a", bool_dom); ("b", bool_dom); ("n", n_dom); ("m", m_dom); ("s", s_dom) ]

(* Random predicates: a seeded decision table over the packed value tuple.
   Total on any state binding the five variables, including states outside
   the declared domains (the escape action drives [n] up to 5). *)
let pred_of_seed seed =
  Pred.make (Fmt.str "P%d" seed) (fun st ->
      let a = Value.as_bool (State.get st "a") in
      let b = Value.as_bool (State.get st "b") in
      let n = Value.as_int (State.get st "n") in
      let m = Value.as_int (State.get st "m") in
      let s = Value.as_sym (State.get st "s") in
      let ix =
        (if a then 1 else 0)
        + (2 * if b then 1 else 0)
        + (4 * n)
        + (12 * m)
        + (48 * match s with "p" -> 0 | "q" -> 1 | _ -> 2)
      in
      (seed lsr (ix mod 61)) land 1 = 1)

type rand_assign =
  | Set_a of bool
  | Set_b of bool
  | Set_n of int
  | Set_m of int
  | Set_s of string
  | Flip_a
  | Inc_n_clamped
  | Inc_m_mod

let apply_assign st = function
  | Set_a v -> State.set st "a" (Value.bool v)
  | Set_b v -> State.set st "b" (Value.bool v)
  | Set_n v -> State.set st "n" (Value.int v)
  | Set_m v -> State.set st "m" (Value.int v)
  | Set_s v -> State.set st "s" (Value.sym v)
  | Flip_a ->
    State.set st "a" (Value.bool (not (Value.as_bool (State.get st "a"))))
  | Inc_n_clamped ->
    State.set st "n" (Value.int (min 2 (Value.as_int (State.get st "n") + 1)))
  | Inc_m_mod ->
    State.set st "m" (Value.int ((Value.as_int (State.get st "m") + 1) mod 4))

let assign_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Set_a v) bool;
        map (fun v -> Set_b v) bool;
        map (fun v -> Set_n v) (int_range 0 2);
        map (fun v -> Set_m v) (int_range 0 3);
        map (fun v -> Set_s v) (oneofl [ "p"; "q"; "bot" ]);
        return Flip_a;
        return Inc_n_clamped;
        return Inc_m_mod;
      ])

type rand_action =
  | Assign of int * rand_assign list (* guard seed, updates *)
  | Choose of int * rand_assign * rand_assign (* nondeterministic branch *)
  | Corrupt of int * int (* guard seed, variable index *)

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
        map2 (fun s v -> Corrupt (s, v)) seed (int_range 0 4);
      ])

type rand_program = {
  acts : rand_action list;
  escape : bool; (* include an action stepping n outside its domain *)
}

let program_gen =
  QCheck.Gen.(
    map2
      (fun acts escape -> { acts; escape })
      (list_size (int_range 1 4) action_gen)
      (map (fun k -> k = 0) (int_range 0 6)))

let print_program rp =
  Fmt.str "{actions=%d escape=%b}" (List.length rp.acts) rp.escape

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

(* The escape action drives [n] beyond its declared domain (bounded at 5 so
   exploration terminates): the packed engine must detect it and fall back
   to the reference path with identical results. *)
let escape_action =
  Action.deterministic "escape"
    (Pred.make "n<5" (fun st -> Value.as_int (State.get st "n") < 5))
    (fun st -> State.set st "n" (Value.int (Value.as_int (State.get st "n") + 1)))

let build_program rp =
  let actions = List.mapi build_action rp.acts in
  let actions = if rp.escape then actions @ [ escape_action ] else actions in
  Program.make ~name:"diff" ~vars ~actions

let state_gen =
  QCheck.Gen.(
    map2
      (fun (a, b) (n, m, s) ->
        State.of_list
          [
            ("a", Value.bool a);
            ("b", Value.bool b);
            ("n", Value.int n);
            ("m", Value.int m);
            ("s", Value.sym s);
          ])
      (pair bool bool)
      (triple (int_range 0 2) (int_range 0 3) (oneofl [ "p"; "q"; "bot" ])))

(* A third of the seed lists are wide (24+ states), for a wide first
   frontier. *)
let with_inits_gen =
  QCheck.Gen.(
    pair program_gen
      (list_size
         (frequency [ (2, int_range 1 5); (1, int_range 24 48) ])
         state_gen))

let with_inits_arb =
  QCheck.make
    ~print:(fun (rp, inits) ->
      Fmt.str "%s from %d states" (print_program rp) (List.length inits))
    with_inits_gen

(* Structural equality of two built systems, including numbering. *)
let equal_system = Util.ts_equal

(* A system answers its state queries from what its store keeps: a
   state's index is found again from the state; a layout system's state
   is its decoded rank; and the bitsets of [preds] and of every guard are
   the reference system's. *)
let queries_agree ~reference ~preds ts =
  let all = List.init (Ts.num_states ts) Fun.id in
  List.for_all (fun i -> Ts.index_of ts (Ts.state ts i) = Some i) all
  && (match Ts.layout ts with
     | None -> true
     | Some layout ->
       List.for_all
         (fun i ->
           State.equal (Ts.state ts i) (Layout.unpack layout (Ts.rank_of ts i)))
         all)
  && List.for_all
       (fun p ->
         Bitset.equal (Ts.pred_bitset ts p) (Ts.pred_bitset reference p))
       preds
  && List.for_all
       (fun aid ->
         Bitset.equal (Ts.enabled_bitset ts aid)
           (Ts.enabled_bitset reference aid))
       (List.init (Ts.num_actions ts) Fun.id)

(* On the reference system the cached [holds_at] and [enabled] are the
   direct evaluations. *)
let reference_direct ~preds reference =
  List.for_all
    (fun i ->
      let st = Ts.state reference i in
      List.for_all (fun p -> Ts.holds_at reference p i = Pred.holds p st) preds
      && List.for_all
           (fun aid ->
             Ts.enabled reference i aid
             = Action.enabled (Ts.action reference aid) st)
           (List.init (Ts.num_actions reference) Fun.id))
    (List.init (Ts.num_states reference) Fun.id)

(* [engines_agree ~reference ~seed make]: [make ~engine:Auto] builds
   [reference] in RAM and with a spill directory, on its resident and
   spill-forced legs.  A system without a layout says why it fell back,
   and the shard store falls back exactly where the flat store does,
   for the same reason.  Every system also answers its queries as the
   reference does ([queries_agree]), for an opaque predicate and a
   state-set predicate drawn from [seed]. *)
let engines_agree ~reference ~seed make =
  let preds =
    [
      pred_of_seed seed;
      Pred.of_states
        (List.filteri
           (fun i _ -> (seed lsr (i mod 20)) land 1 = 1)
           (Ts.states reference));
    ]
  in
  let agree ts =
    equal_system reference ts && queries_agree ~reference ~preds ts
  in
  let auto = make ~engine:Ts.Auto in
  let like_auto ts =
    agree ts
    && (Ts.layout ts = None) = (Ts.fallback_reason ts <> None)
    && Ts.fallback_reason ts = Ts.fallback_reason auto
  in
  reference_direct ~preds reference
  && queries_agree ~reference ~preds reference
  && like_auto auto
  && List.for_all
       (fun leg -> Util.with_leg leg (fun () -> like_auto (make ~engine:Ts.Auto)))
       [ Util.Resident; Util.Spilled ]

let outcome_str o = Fmt.str "%a" Check.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_build_identical =
  let arb =
    QCheck.make
      ~print:(fun ((rp, inits), seed) ->
        Fmt.str "%s from %d states, P%d" (print_program rp) (List.length inits)
          seed)
      QCheck.Gen.(pair with_inits_gen (int_range 0 (1 lsl 20)))
  in
  Util.qtest ~count:200 "packed build = reference build (explicit initials)"
    arb (fun ((rp, inits), seed) ->
      let p = build_program rp in
      (* Duplicate initials exercise the sort-uniq path of both engines. *)
      let from = inits @ inits in
      let reference = Ts.build ~engine:Ts.Reference p ~from in
      let packed = Ts.build ~engine:Ts.Auto p ~from in
      engines_agree ~reference ~seed (fun ~engine -> Ts.build ~engine p ~from)
      && List.for_all
           (fun i -> Ts.index_of packed (Ts.state reference i) = Some i)
           (List.init (Ts.num_states reference) Fun.id))

let prop_of_pred_identical =
  let arb =
    QCheck.make
      ~print:(fun (rp, (s, q)) ->
        Fmt.str "%s from P%d, P%d" (print_program rp) s q)
      QCheck.Gen.(
        pair program_gen (pair (int_range 0 (1 lsl 20)) (int_range 0 (1 lsl 20))))
  in
  (* The product-space surface: [of_pred] from a random predicate, and
     from every state (the whole product). *)
  Util.qtest ~count:120 "packed of_pred = reference of_pred" arb
    (fun (rp, (seed, query)) ->
      let p = build_program rp in
      List.for_all
        (fun from ->
          engines_agree ~reference:(Ts.of_pred ~engine:Ts.Reference p ~from)
            ~seed:query
            (fun ~engine -> Ts.of_pred ~engine p ~from))
        [ pred_of_seed seed; Pred.true_ ])

(* [build_within p ~span ?where] is [build p ~from:] of the span's states
   satisfying [where] (all of them without it): the same system, numbering
   included, under every engine.  The span is another random program's
   [of_pred] system, as p [] F's is for p; a strict engine may refuse an
   escaping program, and then refuses it on both paths. *)
(* Every state's rank maps back to its index, and a rank the system
   does not hold (the least one outside its rank column, then the first
   past the layout space, then -1) maps to -1.  A system without a
   layout (the reference engine) is checked the same way by state:
   [index_of] inverts the numbering, and the least product state it does
   not hold is absent. *)
let ranks_invert p ts =
  let n = Ts.num_states ts in
  let all = List.init n Fun.id in
  match (Ts.layout ts, Layout.of_program p) with
  | Some layout, _ ->
    let held = Hashtbl.create n in
    List.iter (fun i -> Hashtbl.replace held (Ts.rank_of ts i) ()) all;
    let rec absent r = if Hashtbl.mem held r then absent (r + 1) else r in
    List.for_all (fun i -> Ts.index_of_rank ts (Ts.rank_of ts i) = i) all
    && List.for_all
         (fun r -> Ts.index_of_rank ts r = -1)
         [ absent 0; Layout.space layout; -1 ]
  | None, layout ->
    List.for_all (fun i -> Ts.index_of ts (Ts.state ts i) = Some i) all
    && (match layout with
       | None -> true
       | Some layout ->
         let states = Ts.states ts in
         let rec absent r =
           if r >= Layout.space layout then None
           else
             let st = Layout.unpack layout r in
             if List.exists (State.equal st) states then absent (r + 1)
             else Some st
         in
         match absent 0 with None -> true | Some st -> Ts.index_of ts st = None)

let prop_build_within =
  let arb =
    QCheck.make
      ~print:(fun ((rq, rp), (s1, s2)) ->
        Fmt.str "span of %s from P%d, explore %s where %s" (print_program rq)
          s1 (print_program rp)
          (match s2 with Some s -> Fmt.str "P%d" s | None -> "-"))
      QCheck.Gen.(
        pair
          (pair program_gen program_gen)
          (pair (int_range 0 (1 lsl 20)) (opt (int_range 0 (1 lsl 20)))))
  in
  Util.qtest ~count:100 "build_within = build from the span's states" arb
    (fun ((rq, rp), (s1, s2)) ->
      let q = build_program rq and p = build_program rp in
      let where = Option.map pred_of_seed s2 in
      List.for_all
        (fun (engine, leg) ->
          Util.with_leg leg @@ fun () ->
          let span = Ts.of_pred ~engine q ~from:(pred_of_seed s1) in
          let from =
            match where with
            | None -> Ts.states span
            | Some w -> List.filter (Pred.holds w) (Ts.states span)
          in
          let built = Ts.build ~engine p ~from in
          let within = Ts.build_within ~engine ?where p ~span in
          equal_system built within && ranks_invert p within)
        Util.builds)

let prop_checks_identical =
  let arb =
    QCheck.make
      ~print:(fun ((rp, s1), s2) ->
        Fmt.str "%s P%d P%d" (print_program rp) s1 s2)
      QCheck.Gen.(
        pair
          (pair program_gen (int_range 0 (1 lsl 20)))
          (int_range 0 (1 lsl 20)))
  in
  Util.qtest ~count:120 "Check/Graph outcomes agree across engines" arb
    (fun ((rp, s1), s2) ->
      let p = build_program rp in
      let from = pred_of_seed s1 in
      let reference = Ts.of_pred ~engine:Ts.Reference p ~from in
      let packed = Ts.of_pred ~engine:Ts.Auto p ~from in
      let p1 = pred_of_seed s2 and p2 = pred_of_seed (s2 lxor 0x2a) in
      let same_outcome f = outcome_str (f reference) = outcome_str (f packed) in
      same_outcome (fun ts -> Check.closed ts p1)
      && same_outcome (fun ts -> Check.leads_to ts p1 p2)
      && same_outcome (fun ts -> Check.implies ts p1 p2)
      && same_outcome (fun ts -> Check.deadlock_free ts ~inside:p1)
      && same_outcome (fun ts -> Check.hoare_triple ts ~pre:p1 ~post:p2)
      && (let sccs ts = List.map (fun (c : Graph.scc) -> c.members) (Graph.sccs ts) in
          sccs reference = sccs packed)
      &&
      let reach ts = Graph.reachable ts ~from:(Ts.initials ts) in
      reach reference = reach packed)

(* [Fairness.trapped] (deadlocks and fair-SCC members of the region,
   closed backward) against the forward algorithm: state [i] is trapped
   in [R] exactly when [Check.leads_to ts (at i) (not R)] fails. *)
let prop_trapped_vs_leads_to =
  let arb =
    QCheck.make
      ~print:(fun ((rp, s1), s2) ->
        Fmt.str "%s from P%d region P%d" (print_program rp) s1 s2)
      QCheck.Gen.(
        pair
          (pair program_gen (int_range 0 (1 lsl 20)))
          (int_range 0 (1 lsl 20)))
  in
  Util.qtest ~count:100 "trapped = not (at i ~> not region)" arb
    (fun ((rp, s1), s2) ->
      let p = build_program rp in
      let r = pred_of_seed s2 in
      List.for_all
        (fun engine ->
          let ts = Ts.of_pred ~engine p ~from:(pred_of_seed s1) in
          let trapped = Fairness.trapped ts ~region:(Ts.holds_at ts r) in
          List.for_all
            (fun i ->
              let at = Pred.of_states ~name:"at" [ Ts.state ts i ] in
              trapped.(i)
              = not (Check.holds (Check.leads_to ts at (Pred.not_ r))))
            (List.init (Ts.num_states ts) Fun.id))
        [ Ts.Reference; Ts.Auto ])

(* ------------------------------------------------------------------ *)
(* Random guarded-command sources: the compiled kernel                 *)
(* ------------------------------------------------------------------ *)

(* Six variables, 288 product states.  [g]'s domain is a strict subset of
   [s]'s, so [g := s] escapes when [s = bot]. *)
let dsl_header =
  "program rnd\n\
   var a : bool\n\
   var b : bool\n\
   var n : 0..2\n\
   var m : 0..3\n\
   var s : {bot, p, q}\n\
   var g : {p, q}\n"

let paren x = "(" ^ x ^ ")"
let binop op x y = paren (x ^ " " ^ op ^ " " ^ y)
let ite c x y = paren ("if " ^ c ^ " then " ^ x ^ " else " ^ y)

(* Integer expressions.  [%] mostly divides by a nonzero constant; a
   variable divisor (zero in some states) is rare, as are the increments
   that leave a target's domain, so most programs build.  [pref] allows
   references to the predicate [P]. *)
let rec int_expr ?(pref = true) d =
  QCheck.Gen.(
    let leaf = oneof [ oneofl [ "n"; "m" ]; map string_of_int (int_range 0 3) ] in
    if d = 0 then leaf
    else
      let sub = int_expr ~pref (d - 1) in
      frequency
        [
          (3, leaf);
          (2, map2 (binop "+") sub sub);
          (2, map2 (fun x k -> binop "%" x (string_of_int k)) sub (int_range 1 4));
          (1, map (fun x -> binop "%" x "n") sub);
          (1, map3 ite (bool_expr ~pref (d - 1)) sub sub);
        ])

and sym_test =
  QCheck.Gen.(
    let eq = oneofl [ "="; "!=" ] in
    oneof
      [
        map2 (fun op v -> binop op "s" v) eq (oneofl [ "bot"; "p"; "q" ]);
        map2 (fun op v -> binop op "g" v) eq (oneofl [ "p"; "q" ]);
        map (fun op -> binop op "s" "g") eq;
      ])

and bool_expr ?(pref = true) d =
  QCheck.Gen.(
    let cmp d =
      map3 (fun x op y -> binop op x y) (int_expr ~pref d)
        (oneofl [ "="; "!="; "<" ]) (int_expr ~pref d)
    in
    let atoms = [ "a"; "b"; "!a"; "true" ] @ if pref then [ "P" ] else [] in
    (* A division the interpreter only reaches when [n != 0]: compiled
       code must short-circuit exactly where the interpreter does. *)
    let guarded_div =
      map2
        (fun x k -> binop "&&" "(n != 0)" (binop "=" (binop "%" x "n") k))
        (int_expr ~pref 0)
        (map string_of_int (int_range 0 2))
    in
    let leaf =
      frequency
        [ (3, oneofl atoms); (2, sym_test); (2, cmp 0); (1, guarded_div) ]
    in
    if d = 0 then leaf
    else
      let sub = bool_expr ~pref (d - 1) in
      frequency
        [
          (3, leaf);
          (2, map2 (binop "&&") sub sub);
          (2, map2 (binop "||") sub sub);
          (1, map (fun x -> "!" ^ paren x) sub);
          (2, cmp (d - 1));
          (1, map3 ite sub sub sub);
        ])

(* The right-hand side of an update of each variable. *)
let rhs_gen = function
  | "a" | "b" -> QCheck.Gen.(frequency [ (3, bool_expr 1); (1, return "?") ])
  | "n" ->
    QCheck.Gen.(
      frequency
        [
          (3, map (fun k -> string_of_int k) (int_range 0 2));
          (2, map (fun x -> paren (x ^ " % 3")) (int_expr 1));
          (1, return "?");
          (1, oneofl [ "n + 1"; "m" ]);
        ])
  | "m" ->
    QCheck.Gen.(
      frequency
        [
          (3, map (fun x -> paren (x ^ " % 4")) (int_expr 1));
          (1, return "?");
          (1, oneofl [ "m + 1"; "n" ]);
        ])
  | "s" -> QCheck.Gen.(oneofl [ "bot"; "p"; "q"; "g"; "?" ])
  | _ (* g *) ->
    QCheck.Gen.(frequency [ (4, oneofl [ "p"; "q"; "?" ]); (1, return "s") ])

let action_src i =
  QCheck.Gen.(
    let* targets =
      map
        (fun xs -> List.sort_uniq String.compare xs)
        (list_size (int_range 1 3) (oneofl [ "a"; "b"; "n"; "m"; "s"; "g" ]))
    in
    let* rhss = flatten_l (List.map rhs_gen targets) in
    let* guard = bool_expr 2 in
    (* An increment escapes by one step at most: values stay bounded, so
       the reference engine's exploration of escaped states terminates. *)
    let guard =
      List.fold_left
        (fun g (r, bound) ->
          if List.mem r rhss then bound ^ " && " ^ paren g else g)
        guard
        [ ("n + 1", "n < 3"); ("m + 1", "m < 4") ]
    in
    let* order = shuffle_l (List.combine targets rhss) in
    return
      (Fmt.str "action act%d: %s -> %s\n" i guard
         (String.concat ", " (List.map (fun (x, r) -> x ^ " := " ^ r) order))))

let dsl_gen =
  QCheck.Gen.(
    let* pred = bool_expr ~pref:false 1 in
    let* inv = bool_expr 2 in
    let* k = int_range 1 4 in
    let* acts = flatten_l (List.init k action_src) in
    return
      (dsl_header ^ "pred P = " ^ pred ^ "\ninvariant " ^ inv ^ "\n"
     ^ String.concat "" acts))

(* The same program with every action and predicate behind an opaque
   closure: the interpreted kernel, as closure-built programs run. *)
let opaque_pred p = Pred.make (Pred.name p) (Pred.fn p)

let interpreted p =
  Program.make ~name:(Program.name p) ~vars:(Program.var_decls p)
    ~actions:
      (List.map
         (fun ac ->
           Action.make (Action.name ac)
             (opaque_pred (Action.guard ac))
             (fun st -> Action.execute ac st))
         (Program.actions p))

type outcome = Built of Ts.t | Type_error of string

let run f =
  match f () with
  | ts -> Built ts
  | exception Value.Type_error m -> Type_error m

let outcome_name = function
  | Built ts ->
    Fmt.str "built %a%s" Ts.pp_stats ts
      (match Ts.fallback_reason ts with
      | Some r -> ", fell back: " ^ r
      | None -> "")
  | Type_error m -> "type error: " ^ m

let same a b =
  match (a, b) with
  | Built x, Built y -> equal_system x y
  | Type_error m, Type_error m' -> String.equal m m'
  | _ -> false

(* [same], and a fallback of one for the same reason as the other's. *)
let same_fallback a b =
  same a b
  &&
  match (a, b) with
  | Built x, Built y -> Ts.fallback_reason x = Ts.fallback_reason y
  | _ -> true

let explain what a b =
  QCheck.Test.fail_reportf "%s: %s vs %s" what (outcome_name a) (outcome_name b)

(* [make program ~engine] under every engine: [Auto] must reproduce the
   reference engine, and on every store treat the compiled program
   exactly as its interpreted twin. *)
let dsl_engines_agree p make =
  let twin = interpreted p in
  let reference = run (fun () -> make p ~engine:Ts.Reference) in
  let auto = run (fun () -> make p ~engine:Ts.Auto) in
  (same reference auto || explain "auto vs reference" reference auto)
  && List.for_all
       (fun ((_, leg) as b) ->
         Util.with_leg leg (fun () ->
             let compiled = run (fun () -> make p ~engine:Ts.Auto) in
             let interp = run (fun () -> make twin ~engine:Ts.Auto) in
             same_fallback compiled interp
             || explain
                  (Fmt.str "%s: compiled vs interpreted" (Util.build_name b))
                  compiled interp))
       [ (Ts.Auto, Util.In_ram); (Ts.Auto, Util.Resident); (Ts.Auto, Util.Spilled) ]

let dsl_arb = QCheck.make ~print:Fun.id dsl_gen

let elaborate src =
  let e = Detcor_lang.Elaborate.load_string src in
  (* The generator only writes well-kinded programs, so every action
     must take the compiled kernel: otherwise this property would
     silently test the interpreter against itself. *)
  let layout = Option.get (Layout.of_program e.program) in
  List.iter
    (fun ac ->
      if Compiled.action layout ac = None then
        QCheck.Test.fail_reportf "action %s did not compile" (Action.name ac))
    (Program.actions e.program);
  if Compiled.pred layout e.invariant = None then
    QCheck.Test.fail_report "the invariant did not compile";
  e

let prop_dsl_constructions =
  Util.qtest ~count:150 "compiled DSL = interpreted = reference (build, of_pred, full)"
    dsl_arb (fun src ->
      let e = elaborate src in
      let layout = Option.get (Layout.of_program e.program) in
      let from = List.init 12 (fun i -> Layout.unpack layout (i * 23)) in
      dsl_engines_agree e.program (fun p ~engine -> Ts.build ~engine p ~from)
      && dsl_engines_agree e.program (fun p ~engine ->
             let from =
               if p == e.program then e.invariant else opaque_pred e.invariant
             in
             Ts.of_pred ~engine p ~from)
      && dsl_engines_agree e.program (fun p ~engine ->
             Util.product ~engine p))

(* A random source with one or two fault actions: [action_src] lines
   declared as faults. *)
let dsl_faults_arb =
  QCheck.make ~print:Fun.id
    QCheck.Gen.(
      let* src = dsl_gen in
      let* k = int_range 1 2 in
      let* faults = flatten_l (List.init k (fun i -> action_src (10 + i))) in
      let fault line =
        "fault flt" ^ String.sub line 10 (String.length line - 10)
      in
      return (src ^ String.concat "" (List.map fault faults)))

let counter name = Detcor_obs.Metrics.counter_value_by_name name

(* Enabled sets read off the edge labels.  On every layout engine, a
   compiled action's [enabled_bitset] is its guard's [pred_bitset] and
   the interpreted twin's guard sweep, the compiled system sweeps no
   guard, and [deadlocked] (an empty edge row there) is the twin's. *)
let enabled_agree p make =
  let twin = interpreted p in
  let obs = Detcor_obs.Obs.make ~sinks:[] () in
  List.for_all
    (fun (engine, leg) ->
      Util.with_leg leg @@ fun () ->
      match
        (run (fun () -> make p ~engine), run (fun () -> make twin ~engine))
      with
      | Built ts, Built tw ->
        let misses = counter "engine.enabled_cache.misses" in
        let labels =
          Detcor_obs.Obs.with_ctx obs (fun () ->
              List.init (Ts.num_actions ts) (Ts.enabled_bitset ts))
        in
        let swept = counter "engine.enabled_cache.misses" - misses in
        let where = Util.build_name (engine, leg) in
        (Ts.layout ts = None || swept = 0
        || QCheck.Test.fail_reportf "%s: %d guard sweeps" where swept)
        && List.for_all2
             (fun aid bits ->
               let guard = Action.guard (Ts.action ts aid) in
               (Bitset.equal bits (Ts.pred_bitset ts guard)
               && Bitset.equal bits (Ts.enabled_bitset tw aid))
               || QCheck.Test.fail_reportf "%s: enabled set of action %d" where
                    aid)
             (List.init (Ts.num_actions ts) Fun.id)
             labels
        && List.for_all
             (fun i ->
               Ts.deadlocked ts i = Ts.deadlocked tw i
               || QCheck.Test.fail_reportf "%s: deadlocked at %d" where i)
             (List.init (Ts.num_states ts) Fun.id)
      | a, b -> same_fallback a b || explain "compiled vs interpreted" a b)
    [ (Ts.Auto, Util.In_ram); (Ts.Auto, Util.Resident); (Ts.Auto, Util.Spilled) ]

(* p over the span of p [] F, derived from the span's rows, against p
   explored from the same states: over the whole span, over the
   invariant's states and over every other span state (a strict subset
   of two or more).  The derivation must happen exactly where the span
   is a flat store; the reference and shard-store spans keep exploring. *)
let derived_agree (e : Detcor_lang.Elaborate.elaborated) from =
  let p = e.program in
  let pf = Detcor_core.Fault.compose p e.faults in
  let agree ~b:((engine, _) as b) span where =
    let label =
      Fmt.str "%s span, where %s" (Util.build_name b)
        (match where with Some w -> Pred.name w | None -> "-")
    in
    let derived0 = counter "engine.derived" in
    let within = Ts.build_within ~engine ?where p ~span in
    let derived = counter "engine.derived" - derived0 in
    let from =
      match where with
      | None -> Ts.states span
      | Some w -> List.filter (Pred.holds w) (Ts.states span)
    in
    let built = Ts.build ~engine p ~from in
    (derived = Bool.to_int (Ts.store_name span = "packed")
    || QCheck.Test.fail_reportf "%s: %d derivations" label derived)
    && (Util.ts_equal built within
       || QCheck.Test.fail_reportf "%s: derived system differs" label)
    && List.for_all
         (fun aid ->
           Bitset.equal (Ts.enabled_bitset within aid)
             (Ts.enabled_bitset built aid)
           || QCheck.Test.fail_reportf "%s: enabled set %d" label aid)
         (List.init (Ts.num_actions within) Fun.id)
  in
  List.for_all
    (fun ((engine, leg) as b) ->
      Util.with_leg leg @@ fun () ->
      match run (fun () -> Ts.build ~engine pf ~from) with
      | Built span ->
        let every_other =
          Pred.of_states ~name:"every other"
            (List.filteri (fun i _ -> i mod 2 = 0) (Ts.states span))
        in
        List.for_all
          (fun where ->
            (* An invariant dividing by a zero variable raises on both
               paths. *)
            try agree ~b span where with Value.Type_error _ -> true)
          [ None; Some e.invariant; Some every_other ]
      | _ -> true)
    Util.builds

let prop_dsl_labels_and_derivation =
  Util.qtest ~count:80
    "compiled enabled sets = guard sweeps; derived p over span = explored"
    dsl_faults_arb (fun src ->
      let e = elaborate src in
      let layout = Option.get (Layout.of_program e.program) in
      let from = List.init 12 (fun i -> Layout.unpack layout (i * 23)) in
      enabled_agree e.program (fun p ~engine -> Ts.build ~engine p ~from)
      && enabled_agree e.program (fun p ~engine -> Util.product ~engine p)
      && derived_agree e from)

(* The edge columns read three ways, on every engine, over p [] F: the
   reverse CSR of [Ts.reverse ~keep] is the one collected naively from
   [Ts.iter_edges] (every action kept, the fault actions, none), each
   state's [Ts.edges_of] is what [Ts.iter_out] walks, and [Graph.sccs]
   (which reads rows lent by [Ts.with_out_row], copied on the shard
   store) finds the reference engine's components, over the whole
   system and over every other state. *)
let columns_agree (e : Detcor_lang.Elaborate.elaborated) from =
  let pf = Detcor_core.Fault.compose e.program e.faults in
  let reverse_agrees where ts (name, keep) =
    let n = Ts.num_states ts in
    let naive = Array.make n [] in
    Ts.iter_edges ts (fun i aid j ->
        if keep aid then naive.(j) <- (aid, i) :: naive.(j));
    let rev = Ts.reverse ~keep ts in
    List.for_all
      (fun j ->
        let walked = ref [] in
        Ts.iter_in rev j (fun aid i -> walked := (aid, i) :: !walked);
        !walked = naive.(j)
        || QCheck.Test.fail_reportf "%s: in-edges of %d, keep %s" where j
             name)
      (List.init n Fun.id)
  in
  let components ?mask ts =
    List.map
      (fun (c : Graph.scc) -> (c.members, c.trivial))
      (Graph.sccs ?mask ts)
  in
  let every_other i = i mod 2 = 0 in
  match run (fun () -> Ts.build ~engine:Ts.Reference pf ~from) with
  | Built reference ->
    List.for_all
      (fun (engine, leg) ->
        Util.with_leg leg @@ fun () ->
        match run (fun () -> Ts.build ~engine pf ~from) with
        | Built ts ->
          let where = Util.build_name (engine, leg) in
          let faults =
            Ts.action_ids_of_names ts (Detcor_core.Fault.action_names e.faults)
          in
          List.for_all (reverse_agrees where ts)
            [
              ("all", Fun.const true);
              ("faults", fun aid -> List.mem aid faults);
              ("none", Fun.const false);
            ]
          && List.for_all
               (fun i ->
                 let walked = ref [] in
                 Ts.iter_out ts i (fun aid j -> walked := (aid, j) :: !walked);
                 Ts.edges_of ts i = List.rev !walked
                 || QCheck.Test.fail_reportf "%s: edges_of %d" where i)
               (List.init (Ts.num_states ts) Fun.id)
          && (components ts = components reference
             || QCheck.Test.fail_reportf "%s: components" where)
          && (components ~mask:every_other ts
              = components ~mask:every_other reference
             || QCheck.Test.fail_reportf "%s: masked components" where)
        | _ -> true)
      Util.builds
  | _ -> true

let prop_dsl_columns =
  Util.qtest ~count:60
    "reverse = naive reverse; sccs and edges_of agree on every engine"
    dsl_faults_arb (fun src ->
      let e = elaborate src in
      let layout = Option.get (Layout.of_program e.program) in
      let from = List.init 12 (fun i -> Layout.unpack layout (i * 23)) in
      columns_agree e from)

(* [p]'s states by the pruned enumeration, as ranks (or the
   [Value.Type_error] message), with the [engine.enum.nodes] it visited. *)
let enumerate layout p =
  Detcor_obs.Obs.with_ctx (Detcor_obs.Obs.make ~sinks:[] ()) (fun () ->
      let nodes () =
        Detcor_obs.Metrics.counter_value_by_name "engine.enum.nodes"
      in
      let before = nodes () and acc = ref [] in
      match Compiled.iter_satisfying layout p (fun r -> acc := r :: !acc) with
      | () -> (Ok (List.rev !acc), nodes () - before)
      | exception Value.Type_error m -> (Error m, nodes () - before))

(* The enumeration equals the reference filter of [Program.states] (whose
   order is the declaration order; rank order is [State.compare] order):
   the same states in the same order, or the same error. *)
let enumeration_agrees program layout p =
  let reference =
    match List.filter (Pred.holds p) (Program.states program) with
    | states -> Ok (List.sort State.compare states)
    | exception Value.Type_error m -> Error m
  in
  match (fst (enumerate layout p), reference) with
  | Ok ranks, Ok states ->
    List.equal State.equal (List.map (Layout.unpack layout) ranks) states
    || QCheck.Test.fail_reportf "%s: enumeration differs" (Pred.name p)
  | Error m, Error m' when String.equal m m' -> true
  | got, _ ->
    QCheck.Test.fail_reportf "%s: %s" (Pred.name p)
      (match got with Ok _ -> "enumerated" | Error m -> "raised " ^ m)

(* Predicates that stress the pruning, built from the program's own
   invariant and first guard: constants, a test of the last slot alone (no
   prefix decides it), a wide disjunction of state descriptions, an
   [if]/[<=>]/[=>] mix, and [%] by a variable (refused: the sweep runs and
   raises where [n = 0]). *)
let enumeration_preds (e : Detcor_lang.Elaborate.elaborated) layout =
  let n = Layout.num_vars layout in
  let inv = Option.get (Pred.expr e.invariant) in
  let guard =
    match Program.actions e.program with
    | ac :: _ -> Option.value ~default:Expr.true_ (Pred.expr (Action.guard ac))
    | [] -> Expr.true_
  in
  let is k code =
    Expr.eq
      (Expr.var (Layout.var layout k))
      (Expr.const (List.nth (Layout.domain_values layout k) code))
  in
  let describe rank =
    let codes = Array.make n 0 in
    Layout.decode layout rank codes;
    Expr.and_ (List.init n (fun k -> is k codes.(k)))
  in
  let states = List.init 12 (fun i -> describe (i * 23)) in
  let last = n - 1 in
  [
    ("true", Pred.true_);
    ("false", Pred.false_);
    ( "last slot",
      Pred.of_expr
        (is last (List.length (Layout.domain_values layout last) - 1)) );
    ("wide disjunction", Pred.of_expr (Expr.or_ states));
    ( "disjunction with the invariant",
      Pred.of_expr (Expr.or_ (inv :: guard :: states)) );
    ( "ite/iff mix",
      Pred.of_expr
        (Expr.ite (Expr.var "a")
           (Expr.iff inv (Expr.not_ (Expr.var "b")))
           (Expr.implies guard inv)) );
    ( "mod by a variable",
      Pred.of_expr
        (Expr.eq (Expr.mod_ (Expr.var "m") (Expr.var "n")) (Expr.int 1)) );
  ]

(* Guard and predicate sweeps: compiled bitsets equal interpreted ones,
   the compiled invariant enumeration equals the reference one, and the
   pruned enumeration of the invariant and of [enumeration_preds] equals
   the reference filter. *)
let prop_dsl_sweeps =
  Util.qtest ~count:100 "compiled guard and predicate sweeps = interpreted"
    dsl_arb (fun src ->
      let e = elaborate src in
      let twin = interpreted e.program in
      let layout = Option.get (Layout.of_program e.program) in
      let sweeps p inv =
        match
          let ts = Util.product p in
          match Ts.fallback_reason ts with
          | Some reason -> Error reason
          | None ->
            Ok
              (Bitset.to_string (Ts.pred_bitset ts inv)
              :: List.init (Ts.num_actions ts) (fun aid ->
                     Bitset.to_string (Ts.enabled_bitset ts aid)))
        with
        | sweeps -> sweeps
        | exception Value.Type_error m -> Error m
      in
      let init engine =
        match Detcor_core.Tolerance.init_states ~engine e.program ~invariant:e.invariant with
        | states -> Ok states
        | exception Value.Type_error m -> Error m
      in
      let extra = enumeration_preds e layout in
      let nodes name = snd (enumerate layout (List.assoc name extra)) in
      sweeps e.program e.invariant = sweeps twin (opaque_pred e.invariant)
      && (match (init Ts.Auto, init Ts.Reference) with
         | Ok a, Ok b ->
           (* The reference list follows [Program.states] order. *)
           List.equal State.equal a (List.sort State.compare b)
         | Error m, Error m' -> String.equal m m'
         | _ -> false)
      && List.for_all
           (enumeration_agrees e.program layout)
           (e.invariant :: List.map snd extra)
      (* A constant is decided at the root; a refused predicate sweeps
         every rank; undecided prefixes at most double the product. *)
      && nodes "true" = 1
      && nodes "false" = 1
      && nodes "last slot" <= 2 * Layout.space layout
      && nodes "wide disjunction" <= 2 * Layout.space layout)

(* On reset10's 120,932,352-state product the invariant holds in one
   state.  Every slot of its prefix is decided by that slot's own code,
   so the walk visits the root and each child of the one live path:
   1 + Σ |domain| = 53 nodes, recorded on the [tolerance.init_states]
   span. *)
let test_reset10_enumeration () =
  let e = Detcor_lang.Elaborate.load_file "../examples/dc/big/reset10.dc" in
  let sink, records = Detcor_obs.Sink.memory () in
  let states =
    Detcor_obs.Obs.with_ctx (Detcor_obs.Obs.make ~sinks:[ sink ] ()) (fun () ->
        Detcor_core.Tolerance.init_states e.program ~invariant:e.invariant)
  in
  Alcotest.(check int) "one invariant state" 1 (List.length states);
  let nodes =
    List.find_map
      (function
        | Detcor_obs.Sink.End { name = "tolerance.init_states"; attrs; _ } ->
          List.find_map
            (function "nodes", Detcor_obs.Attr.Int n -> Some n | _ -> None)
            attrs
        | _ -> None)
      (records ())
  in
  Alcotest.(check bool) "at most 53 nodes visited" true
    (match nodes with Some n -> n <= 53 | None -> false)

(* Recovery layering's candidate steps by rank arithmetic against the
   state-based [Synthesize.neighbors], as ordered index lists, for one-
   and two-variable steps, read through the buffer-filling [fill] into
   one reused buffer of [capacity] slots.  The spans come from every
   store that keeps layout ranks: a BFS store (its interning table), the
   full product (identity ranks) and the sharded store.  The DSL declares
   its variables in another order than the layout's slots, so the
   declaration-order tie-break is exercised.  A reference-built span
   covers the state-based path, including the states of a program whose
   actions escape its declared domains. *)
let prop_rank_steps =
  Util.qtest ~count:60 "rank-arithmetic candidate steps = neighbors" dsl_arb
    (fun src ->
      let e = elaborate src in
      let p = e.program in
      let layout = Option.get (Layout.of_program p) in
      let from = List.init 12 (fun i -> Layout.unpack layout (i * 23)) in
      let module S = Detcor_synthesis.Synthesize in
      let agree ts =
          List.for_all
            (fun step_vars ->
              let steps = S.candidate_steps ~step_vars p ts in
              let buf = Array.make steps.capacity (-1) in
              (Ts.layout ts = None
              || Option.is_none steps.outside
              || QCheck.Test.fail_report "domains do not cover slots")
              && List.for_all
                   (fun i ->
                     let expected =
                       S.neighbors ~step_vars p (Ts.state ts i)
                       |> List.filter_map (Ts.index_of ts)
                     in
                     let got =
                       Array.to_list (Array.sub buf 0 (steps.fill i buf))
                     in
                     expected = got
                     || QCheck.Test.fail_reportf
                          "%s, step_vars %d, state %d: [%a] vs [%a]"
                          (Ts.store_name ts) step_vars i
                          Fmt.(list ~sep:sp int) expected
                          Fmt.(list ~sep:sp int) got)
                   (List.init (Ts.num_states ts) Fun.id))
            [ 1; 2 ]
      in
      List.for_all
        (fun (leg, make) ->
          Util.with_leg leg (fun () ->
              match run make with Built ts -> agree ts | _ -> true))
        [
          (Util.In_ram, fun () -> Ts.build p ~from);
          (Util.In_ram, fun () -> Util.product p);
          (Util.Spilled, fun () -> Ts.build p ~from);
          (Util.In_ram, fun () -> Ts.build ~engine:Ts.Reference p ~from);
        ])

(* Two updates escape in the same step, listed against slot order ([n]
   before [g]): the diagnosis names the lower slot, [g], as [Layout.pack]
   does for the interpreted successor. *)
let test_escape_lowest_slot () =
  let e =
    Detcor_lang.Elaborate.load_string
      "program esc\n\
       var g : {p, q}\n\
       var n : 0..2\n\
       var s : {bot, p, q}\n\
       invariant n = 2 && s = bot\n\
       action both: n = 2 -> n := n + 1, g := s\n"
  in
  let escape p =
    Option.value ~default:"no escape"
      (Ts.fallback_reason (Ts.of_pred p ~from:(opaque_pred e.invariant)))
  in
  Alcotest.(check string) "interpreted"
    "variable g escaped its declared domain (value bot)"
    (escape (interpreted e.program));
  Alcotest.(check string) "compiled"
    "variable g escaped its declared domain (value bot)" (escape e.program)

let suite =
  ( "engine differential",
    [
      prop_build_identical;
      prop_of_pred_identical;
      prop_build_within;
      prop_checks_identical;
      prop_trapped_vs_leads_to;
      prop_dsl_constructions;
      prop_dsl_sweeps;
      prop_rank_steps;
      Alcotest.test_case "reset10 invariant: 53 enumeration nodes" `Quick
        test_reset10_enumeration;
      Alcotest.test_case "compiled escape names the lowest slot" `Quick
        test_escape_lowest_slot;
      prop_dsl_labels_and_derivation;
      prop_dsl_columns;
    ] )
