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

(* Exit code and stderr lines of one dcheck run. *)
let run_dcheck_stderr args =
  let err = Filename.temp_file "dcheck_err" ".txt" in
  let code =
    Sys.command
      (Fmt.str "%s %s >/dev/null 2>%s" dcheck (String.concat " " args)
         (Filename.quote err))
  in
  let lines = In_channel.with_open_text err In_channel.input_lines in
  Sys.remove err;
  (code, lines)

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
    (* Synthesis explores the fault span (2,708 states on byz4), not the
       419,904-state product, so --limit bounds the span. *)
    Alcotest.(check int) "synthesize within --limit -> 0" 0
      (run_dcheck
         [ "synthesize"; "--limit"; "10000"; corpus_dir ^ "/byz4.dc" ]);
    Alcotest.(check int) "synthesize over --limit -> 3" 3
      (run_dcheck
         [ "synthesize"; "--limit"; "1000"; corpus_dir ^ "/byz4.dc" ]);
    Alcotest.(check int) "usage error -> 2" 2
      (run_dcheck [ "verify"; "--no-such-flag" ]);
    (* Out-of-range numeric flags are usage errors. *)
    let usage cmd = List.map (fun args -> (cmd, args)) in
    List.iter
      (fun (cmd, args) ->
        Alcotest.(check int)
          (Fmt.str "%s %s -> 2" cmd (String.concat " " args))
          2
          (run_dcheck ([ cmd; corpus_dir ^ "/memory.dc" ] @ args)))
      (usage "simulate"
         [
           [ "--runs=-1" ]; [ "--steps=-5" ]; [ "--max-faults=-3" ];
           [ "--fault-prob"; "2" ]; [ "--fault-prob=-0.1" ];
           [ "--fault-prob"; "nan" ];
         ]
      @ usage "verify"
          [
            [ "--timeout=-1" ]; [ "--timeout"; "nan" ]; [ "--timeout"; "inf" ];
            [ "--timeout"; "1e300" ]; [ "--limit=-1" ];
            [ "--memory-budget=-1" ]; [ "--memory-budget=0" ];
            [ "--workers=0" ]; [ "--workers=-3" ]; [ "--shard-arena-mb=-5" ];
          ]
      @ usage "monitor" [ [ "--batch=0" ] ]
      @ usage "simulate" [ [ "--engine"; "packed" ] ]);
    (* Out-of-range period, count and queue flags: a one-line diagnostic
       naming the flag, then the usage line.  Were a value accepted, top
       would find no endpoint and serve could not create its spool (a
       path under a regular file), so no case starts a daemon or polls. *)
    let ring5 = corpus_dir ^ "/ring5.dc" in
    let no_spool = corpus_dir ^ "/memory.dc/spool" in
    let snap = Filename.concat (Filename.get_temp_dir_name ()) "dcheck.snap" in
    List.iter
      (fun (flag, args) ->
        let label = String.concat " " args in
        let code, lines = run_dcheck_stderr args in
        Alcotest.(check int) (label ^ " -> 2") 2 code;
        match lines with
        | diag :: usage :: _ ->
          let prefix = Fmt.str "dcheck: option '%s': " flag in
          Alcotest.(check bool) (label ^ ": names the flag") true
            (String.starts_with ~prefix diag);
          Alcotest.(check bool) (label ^ ": one-line diagnostic") true
            (String.starts_with ~prefix:"Usage:" usage)
        | _ -> Alcotest.failf "%s: no diagnostic" label)
      (List.map
         (fun v ->
           ( "--checkpoint-interval",
             [ "verify"; ring5; "--checkpoint"; snap;
               "--checkpoint-interval=" ^ v ] ))
         [ "nan"; "1e300"; "-1" ]
      @ List.map
          (fun arg ->
            (List.hd (String.split_on_char '=' arg),
             [ "top"; "127.0.0.1:1"; arg ]))
          [ "--interval=nan"; "--interval=-1"; "--interval=0";
            "--iterations=-1" ]
      @ List.map
          (fun arg ->
            (List.hd (String.split_on_char '=' arg),
             [ "serve"; "--spool"; no_spool; arg ]))
          [ "--queue-max=-1"; "--queue-max=0"; "--tenant-max=0";
            "--slots=0"; "--retries=-1"; "--watchdog=nan"; "--watchdog=0" ]);
    let tmp = Filename.temp_file "dcheck_fuzz" ".dc" in
    let oc = open_out tmp in
    output_string oc "program t\nvar x : 99999999999999999999..3\n";
    close_out oc;
    Alcotest.(check int) "parse error -> 2" 2 (run_dcheck [ "verify"; tmp ]);
    Sys.remove tmp;
    (* A removed engine name is a usage error, on any program (here one
       whose actions leave their declared domains). *)
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
