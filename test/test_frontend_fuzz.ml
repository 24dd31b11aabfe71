(* Fuzzing the language front end and the dcheck exit-code contract.

   The front end (lexer → parser → elaborate, which runs the typechecker)
   must be total up to the error taxonomy: whatever bytes come in, the
   only exception allowed to escape is [Detcor_robust.Error.Detcor_error].
   A bare [Failure], [Invalid_argument], [Not_found] or [Stack_overflow]
   is a crash bug.  Two generators drive it: arbitrary byte strings, and
   random mutations of the valid corpus under examples/dc (which reach
   much deeper than random bytes).

   FUZZ_CASES (default 500) scales the number of generated inputs; CI
   pins QCHECK_SEED for reproducibility.  Crashing inputs are saved under
   fuzz-failures/ for replay.

   The exit-code contract (0 holds, 1 verification fails, 2 usage/parse
   error, 3 resource exhausted) is exercised end-to-end by spawning the
   dcheck binary on the bundled examples. *)

open Detcor_lang

let fuzz_cases =
  match Sys.getenv_opt "FUZZ_CASES" with
  | Some s -> (
    match int_of_string_opt s with Some n when n > 0 -> n | _ -> 500)
  | None -> 500

let save_failure src =
  let dir = "fuzz-failures" in
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
   with Sys_error _ -> ());
  let name = Fmt.str "%s/case-%08x.dc" dir (Hashtbl.hash src land 0xffffffff) in
  (try
     let oc = open_out name in
     output_string oc src;
     close_out oc
   with Sys_error _ -> ());
  name

(* The property under test: the front end either elaborates the input or
   rejects it through the taxonomy. *)
let front_end_total src =
  match Elaborate.load_string src with
  | (_ : Elaborate.elaborated) -> true
  | exception Detcor_robust.Error.Detcor_error _ -> true
  | exception e ->
    let file = save_failure src in
    QCheck.Test.fail_reportf "front end crashed with %s (input saved to %s)"
      (Printexc.to_string e) file

let arb_bytes =
  QCheck.make
    ~print:(fun s -> Fmt.str "%S" s)
    QCheck.Gen.(string_size ~gen:char (int_range 0 400))

(* ------------------------------------------------------------------ *)
(* Corpus mutation.                                                    *)
(* ------------------------------------------------------------------ *)

let corpus_dir = "../examples/dc"

let corpus =
  try
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dc")
    |> List.sort String.compare
    |> List.map (fun f ->
           let ic = open_in (Filename.concat corpus_dir f) in
           let s = really_input_string ic (in_channel_length ic) in
           close_in ic;
           s)
  with Sys_error _ -> []

(* One to four random edits of a random corpus file: byte flips, slice
   deletion, slice duplication, truncation. *)
let mutant_gen rng =
  match corpus with
  | [] -> "program empty"
  | corpus ->
    let base = List.nth corpus (Random.State.int rng (List.length corpus)) in
    let buf = ref base in
    let edits = 1 + Random.State.int rng 4 in
    for _ = 1 to edits do
      let s = !buf in
      let n = String.length s in
      if n > 0 then
        match Random.State.int rng 4 with
        | 0 ->
          let b = Bytes.of_string s in
          Bytes.set b (Random.State.int rng n)
            (Char.chr (Random.State.int rng 256));
          buf := Bytes.to_string b
        | 1 ->
          let i = Random.State.int rng n in
          let len = Random.State.int rng (n - i) in
          buf := String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
        | 2 ->
          let i = Random.State.int rng n in
          let len = Random.State.int rng (min 60 (n - i)) in
          buf := String.sub s 0 (i + len) ^ String.sub s i (n - i)
        | _ -> buf := String.sub s 0 (Random.State.int rng n)
    done;
    !buf

let arb_mutants = QCheck.make ~print:(fun s -> Fmt.str "%S" s) mutant_gen

(* ------------------------------------------------------------------ *)
(* Regression cases for specific front-end crash bugs.                 *)
(* ------------------------------------------------------------------ *)

let parse_error src =
  match Parser.parse_string src with
  | (_ : Ast.program) -> None
  | exception
      Detcor_robust.Error.Detcor_error
        (Detcor_robust.Error.Parse { line; col; msg }) ->
    Some (line, col, msg)

let test_oversized_literal () =
  (* Used to escape the lexer as Failure "int_of_string". *)
  match parse_error "program t\nvar x : 99999999999999999999..3" with
  | Some (line, _, msg) ->
    Alcotest.(check int) "located on line 2" 2 line;
    Alcotest.(check bool) "message names the literal" true
      (String.length msg > 0)
  | None -> Alcotest.fail "oversized literal accepted"

let test_deep_nesting () =
  (* Used to kill the parser with Stack_overflow. *)
  let deep = String.make 5000 '(' ^ "true" ^ String.make 5000 ')' in
  match parse_error (Fmt.str "program t\ninvariant %s" deep) with
  | Some _ -> ()
  | None -> Alcotest.fail "pathological nesting accepted"

let test_huge_range_rejected () =
  (* Used to materialize the whole value list before failing. *)
  Alcotest.(check bool) "huge range rejected as a type error" true
    (try
       ignore (Elaborate.load_string "program t\nvar x : 0..999999999");
       false
     with
    | Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Type_error _) ->
      true)

(* ------------------------------------------------------------------ *)
(* The dcheck exit-code contract.                                      *)
(* ------------------------------------------------------------------ *)

let dcheck = "../bin/dcheck.exe"

let run_dcheck args =
  Sys.command
    (Fmt.str "%s %s >/dev/null 2>/dev/null" dcheck (String.concat " " args))

let test_exit_codes () =
  if not (Sys.file_exists dcheck) then
    Alcotest.fail (Fmt.str "dcheck binary not found at %s" dcheck)
  else begin
    Alcotest.(check int) "verify holds -> 0" 0
      (run_dcheck [ "verify"; corpus_dir ^ "/memory.dc" ]);
    Alcotest.(check int) "verify fails -> 1" 1
      (run_dcheck [ "verify"; corpus_dir ^ "/memory_intolerant.dc" ]);
    Alcotest.(check int) "tiny --timeout -> 3" 3
      (run_dcheck [ "verify"; "--timeout"; "0.01"; corpus_dir ^ "/ring5.dc" ]);
    Alcotest.(check int) "info over --limit -> 3" 3
      (run_dcheck [ "info"; "--limit"; "10"; corpus_dir ^ "/ring5.dc" ]);
    Alcotest.(check int) "usage error -> 2" 2
      (run_dcheck [ "verify"; "--no-such-flag" ]);
    let tmp = Filename.temp_file "dcheck_fuzz" ".dc" in
    let oc = open_out tmp in
    output_string oc "program t\nvar x : 99999999999999999999..3\n";
    close_out oc;
    Alcotest.(check int) "parse error -> 2" 2 (run_dcheck [ "verify"; tmp ]);
    Sys.remove tmp;
    (* A strict engine on a program whose actions leave their declared
       domains: a usage error, not an internal one. *)
    let tmp = Filename.temp_file "dcheck_escape" ".dc" in
    let oc = open_out tmp in
    output_string oc
      "program esc\nvar x : 0..2\ninvariant x = 0\n\
       action inc: x < 3 -> x := x + 1\n";
    close_out oc;
    List.iter
      (fun cmd ->
        List.iter
          (fun engine ->
            Alcotest.(check int)
              (Fmt.str "%s --engine %s on a domain escape -> 2" cmd engine)
              2
              (run_dcheck [ cmd; "--engine"; engine; tmp ]))
          [ "packed"; "sharded" ])
      [ "verify"; "synthesize"; "info" ];
    Sys.remove tmp
  end

let suite =
  ( "frontend fuzz (taxonomy totality, exit codes)",
    [
      Util.qtest ~count:fuzz_cases "random bytes never crash the front end"
        arb_bytes front_end_total;
      Util.qtest ~count:fuzz_cases "mutated corpus never crashes the front end"
        arb_mutants front_end_total;
      Alcotest.test_case "oversized int literal located" `Quick
        test_oversized_literal;
      Alcotest.test_case "deep nesting rejected" `Quick test_deep_nesting;
      Alcotest.test_case "huge range rejected" `Quick test_huge_range_rejected;
      Alcotest.test_case "dcheck exit-code contract" `Quick test_exit_codes;
    ] )
