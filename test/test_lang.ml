(* Tests for the guarded-command language: lexer, parser, elaboration,
   and end-to-end verification of a .dc source. *)

open Detcor_kernel
open Detcor_lang

let memory_src =
  {|
# The memory-access example (Figures 1-3), in the surface language.
program memory_masking
var present : bool
var data : {bot, good, bad}
var z1 : bool

pred x1 = present

invariant (z1 => present) && present

action pm1: !present -> present := true
action pm2: x1 && !z1 -> z1 := true
action pm3: z1 -> data := if present then good else bad

fault page: present && !z1 -> present := false

spec safety pair data != bad -> data != bad
spec liveness eventually data = good
|}

let test_lexer_tokens () =
  let toks = Lexer.tokenize "x := y + 1 // comment\n<= <=> .." in
  let kinds = List.map (fun (t : Lexer.located) -> t.token) toks in
  Alcotest.(check bool) "token stream" true
    (kinds
    = Token.
        [
          IDENT "x"; ASSIGN; IDENT "y"; PLUS; INT 1; LE; IFF; DOTDOT; EOF;
        ])

let test_lexer_positions () =
  let toks = Lexer.tokenize "a\n  b" in
  match toks with
  | [ a; b; _eof ] ->
    Alcotest.(check int) "a line" 1 a.Lexer.line;
    Alcotest.(check int) "b line" 2 b.Lexer.line;
    Alcotest.(check int) "b column" 3 b.Lexer.column
  | _ -> Alcotest.fail "unexpected token count"

let test_lexer_error () =
  Alcotest.(check bool) "bad char rejected" true
    (try
       ignore (Lexer.tokenize "x @ y");
       false
     with
     | Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Parse { msg; _ })
       ->
       String.length msg > 0)

let test_parser_program () =
  let ast = Parser.parse_string memory_src in
  Alcotest.(check string) "name" "memory_masking" ast.Ast.pname;
  let count pred = List.length (List.filter pred ast.Ast.decls) in
  Alcotest.(check int) "vars" 3 (count (function Ast.Var _ -> true | _ -> false));
  Alcotest.(check int) "actions+faults" 4
    (count (function Ast.Action _ -> true | _ -> false));
  Alcotest.(check int) "specs" 2 (count (function Ast.Spec _ -> true | _ -> false))

let test_parser_precedence () =
  (* a || b && c parses as a || (b && c); !a = b as (!a) = b is wrong — '!'
     binds tighter than '=' so !(a) = b; and 1 + 2 * 3 = 7. *)
  let e = Parser.parse_string "program t action a: x || y && z -> x := 1 + 2 * 3" in
  match e.Ast.decls with
  | [ Ast.Action { guard = Ast.Binop (Ast.Bor, _, Ast.Binop (Ast.Band, _, _)); assignments; _ } ]
    -> (
    match assignments with
    | [ { value = Some (Ast.Binop (Ast.Badd, Ast.Int 1, Ast.Binop (Ast.Bmul, Ast.Int 2, Ast.Int 3))); _ } ] ->
      ()
    | _ -> Alcotest.fail "assignment precedence wrong")
  | _ -> Alcotest.fail "guard precedence wrong"

let test_parser_error_location () =
  Alcotest.(check bool) "error carries location" true
    (try
       ignore (Parser.parse_string "program t action : true -> x := 1");
       false
     with
     | Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Parse { line; _ })
       ->
       line = 1)

let test_parse_wildcard () =
  let ast = Parser.parse_string "program t fault f: true -> x := ?" in
  match ast.Ast.decls with
  | [ Ast.Action { is_fault = true; assignments = [ { value = None; _ } ]; _ } ] -> ()
  | _ -> Alcotest.fail "wildcard assignment not parsed"

let test_pp_roundtrip () =
  let ast = Parser.parse_string memory_src in
  let printed = Fmt.str "%a" Ast.pp ast in
  let reparsed = Parser.parse_string printed in
  Alcotest.(check string) "roundtrip name" ast.Ast.pname reparsed.Ast.pname;
  Alcotest.(check int) "roundtrip decl count"
    (List.length ast.Ast.decls)
    (List.length reparsed.Ast.decls);
  (* Printing the reparsed tree is a fixpoint. *)
  Alcotest.(check string) "pp fixpoint" printed (Fmt.str "%a" Ast.pp reparsed)

let test_elaborate_memory () =
  let e = Elaborate.load_string memory_src in
  Alcotest.(check int) "three program actions" 3
    (List.length (Program.actions e.program));
  Alcotest.(check int) "one fault" 1
    (List.length (Detcor_core.Fault.actions e.faults));
  (* The elaborated program is masking tolerant, matching the hand-built
     pm of Detcor_systems.Memory. *)
  let report =
    Detcor_core.Tolerance.is_masking e.program ~spec:e.spec
      ~invariant:e.invariant ~faults:e.faults
  in
  Alcotest.(check bool)
    (Fmt.str "masking: %a" Detcor_core.Tolerance.pp_report report)
    true
    (Detcor_core.Tolerance.verdict report)

let test_elaborate_wildcard_fanout () =
  let e =
    Elaborate.load_string
      "program t\nvar x : 0..2\naction a: true -> x := ?"
  in
  let a = Option.get (Program.find_action e.program "a") in
  Alcotest.(check int) "three successors" 3
    (List.length (Action.execute a (State.of_list [ ("x", Value.int 0) ])))

let test_elaborate_simultaneous () =
  (* Right-hand sides read the pre-state: swap works. *)
  let e =
    Elaborate.load_string
      "program t\nvar x : 0..1\nvar y : 0..1\naction swap: true -> x := y, y := x"
  in
  let a = Option.get (Program.find_action e.program "swap") in
  let st = State.of_list [ ("x", Value.int 0); ("y", Value.int 1) ] in
  match Action.execute a st with
  | [ st' ] ->
    Alcotest.check Util.value "x" (Value.int 1) (State.get st' "x");
    Alcotest.check Util.value "y" (Value.int 0) (State.get st' "y")
  | _ -> Alcotest.fail "expected one successor"

let test_elaborate_pred_inlining () =
  let e =
    Elaborate.load_string
      "program t\nvar x : 0..3\npred small = x <= 1\ninvariant small\naction a: small -> x := x"
  in
  Alcotest.(check bool) "pred inlined in invariant" true
    (Pred.holds e.invariant (State.of_list [ ("x", Value.int 1) ]));
  Alcotest.(check bool) "pred false above" false
    (Pred.holds e.invariant (State.of_list [ ("x", Value.int 2) ]))

let test_elaborate_pred_cycle () =
  Alcotest.(check bool) "self-referential pred rejected" true
    (try
       ignore (Elaborate.load_string "program t\npred a = a\ninvariant a");
       false
     with Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Type_error _) ->
       true)

let test_elaborate_symbols () =
  let e =
    Elaborate.load_string
      "program t\nvar c : {red, green}\naction go: c = red -> c := green"
  in
  let a = Option.get (Program.find_action e.program "go") in
  let st = State.of_list [ ("c", Value.sym "red") ] in
  match Action.execute a st with
  | [ st' ] -> Alcotest.check Util.value "symbol" (Value.sym "green") (State.get st' "c")
  | _ -> Alcotest.fail "expected one successor"

let test_elaborate_undeclared_assignment () =
  Alcotest.(check bool) "assignment to undeclared var rejected" true
    (try
       ignore (Elaborate.load_string "program t\naction a: true -> q := 1");
       false
     with Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Type_error _) ->
       true)

(* A simultaneous assignment names each target once: the second update of
   [x] is a type error (exit 2), not a silently dropped assignment. *)
let test_elaborate_duplicate_target () =
  match
    Elaborate.load_string
      "program t\nvar x : 0..2\naction a: x = 0 -> x := 1, x := 2"
  with
  | _ -> Alcotest.fail "action assigning x twice was accepted"
  | exception Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Type_error { msg } as e) ->
    Alcotest.(check int) "exit code" 2 (Detcor_robust.Error.exit_code e);
    Alcotest.(check bool)
      (Fmt.str "message names the action and variable (%s)" msg)
      true
      (let needle = "action a assigns x more than once" in
       let n = String.length needle in
       let rec go i =
         i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1))
       in
       go 0)

let test_based_on () =
  let e =
    Elaborate.load_string
      "program t\nvar x : bool\naction base: true -> x := true\naction derived based on base: x -> x := true"
  in
  let d = Option.get (Program.find_action e.program "derived") in
  Alcotest.(check (option string)) "provenance" (Some "base") (Action.based_on d)

(* Property: pretty-printing any parsed program is a parse fixpoint. *)
let prop_pp_fixpoint =
  let sources =
    [
      memory_src;
      "program a\nvar x : bool\naction f: !x -> x := true";
      "program b\nvar n : 0..5\nfault hit: n < 5 -> n := ?\nspec safety never n = 5";
      "program c\nvar n : -2..2\ninvariant n >= 0\naction dec: n > 0 -> n := n - 1";
    ]
  in
  Alcotest.test_case "pp fixpoint corpus" `Quick (fun () ->
      List.iter
        (fun src ->
          let ast = Parser.parse_string src in
          let printed = Fmt.str "%a" Ast.pp ast in
          let reparsed = Parser.parse_string printed in
          Alcotest.(check string) "fixpoint" printed (Fmt.str "%a" Ast.pp reparsed))
        sources)

(* The shipped .dc corpus: every file must lex, parse, typecheck,
   elaborate, and carry the tolerance class its header comment claims. *)
let corpus_dir = "../examples/dc"

let corpus_files () =
  if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dc")
    |> List.sort String.compare
    |> List.map (Filename.concat corpus_dir)
  else []

let test_corpus_elaborates () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus found" true (List.length files >= 6);
  List.iter
    (fun path ->
      let e = Elaborate.load_file path in
      Alcotest.(check bool)
        (Fmt.str "%s has actions" path)
        true
        (Program.actions e.Elaborate.program <> []);
      Alcotest.(check (list string))
        (Fmt.str "%s well-formed" path)
        []
        (Program.well_formed e.Elaborate.program))
    files

let test_corpus_verdicts () =
  let expect path tol verdict =
    let e = Elaborate.load_file (Filename.concat corpus_dir path) in
    let r =
      Detcor_core.Tolerance.check e.Elaborate.program ~spec:e.Elaborate.spec
        ~invariant:e.Elaborate.invariant ~faults:e.Elaborate.faults ~tol
    in
    Alcotest.(check bool)
      (Fmt.str "%s %a" path Detcor_spec.Spec.pp_tolerance tol)
      verdict
      (Detcor_core.Tolerance.verdict r)
  in
  expect "memory.dc" Detcor_spec.Spec.Masking true;
  expect "memory_intolerant.dc" Detcor_spec.Spec.Failsafe false;
  expect "tmr.dc" Detcor_spec.Spec.Masking true;
  expect "token_ring.dc" Detcor_spec.Spec.Nonmasking true;
  expect "barrier.dc" Detcor_spec.Spec.Masking true;
  expect "leader.dc" Detcor_spec.Spec.Nonmasking true

let suite =
  ( "lang (DSL)",
    [
      Alcotest.test_case "dc corpus elaborates" `Quick test_corpus_elaborates;
      Alcotest.test_case "dc corpus verdicts" `Slow test_corpus_verdicts;
      Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
      Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
      Alcotest.test_case "lexer error" `Quick test_lexer_error;
      Alcotest.test_case "parse program" `Quick test_parser_program;
      Alcotest.test_case "precedence" `Quick test_parser_precedence;
      Alcotest.test_case "parse error location" `Quick test_parser_error_location;
      Alcotest.test_case "wildcard assignment" `Quick test_parse_wildcard;
      Alcotest.test_case "pp roundtrip" `Quick test_pp_roundtrip;
      Alcotest.test_case "elaborate memory program" `Quick test_elaborate_memory;
      Alcotest.test_case "wildcard fanout" `Quick test_elaborate_wildcard_fanout;
      Alcotest.test_case "simultaneous assignment" `Quick test_elaborate_simultaneous;
      Alcotest.test_case "pred inlining" `Quick test_elaborate_pred_inlining;
      Alcotest.test_case "pred cycle" `Quick test_elaborate_pred_cycle;
      Alcotest.test_case "symbol domains" `Quick test_elaborate_symbols;
      Alcotest.test_case "undeclared assignment" `Quick
        test_elaborate_undeclared_assignment;
      Alcotest.test_case "based-on provenance" `Quick test_based_on;
      Alcotest.test_case "duplicate assignment target" `Quick
        test_elaborate_duplicate_target;
      prop_pp_fixpoint;
    ] )
