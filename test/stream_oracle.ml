(* The stream reader [Stream.fold] replaced, kept as the test oracle: it
   splits every line into words with [String.split_on_char], parses each
   binding through [parse_value], and rebuilds each state with
   [State.update_many].  The byte-level reader must deliver the runs this
   one delivers, raise its [Error.Parse] at the same line and report the
   same torn line.  The code below [open] is the old reader verbatim. *)

open Detcor_kernel
open Detcor_semantics

let header = "# detcor stream v1"

type record = {
  action : string;
  fault : bool;
  target : State.t;
}

type run = {
  index : int;
  init : State.t;
  records : record list;
  ending : Trace.ending;
}


let perr ~line fmt = Detcor_robust.Error.parse ~line ~col:0 fmt

(* [true]/[false] and digit strings read back as the scalar they printed
   from; everything else is a symbol.  (A program whose symbol domain
   contains "true" or "7" would not round-trip; the elaborator's domains
   use identifier symbols.) *)
let parse_value s =
  match s with
  | "true" -> Value.bool true
  | "false" -> Value.bool false
  | _ -> (
    match int_of_string_opt s with
    | Some n -> Value.int n
    | None -> Value.sym s)

let parse_binding ~line tok =
  match String.index_opt tok '=' with
  | None -> perr ~line "expected key=value, got %S" tok
  | Some i ->
    let k = String.sub tok 0 i in
    let v = String.sub tok (i + 1) (String.length tok - i - 1) in
    if k = "" || v = "" then perr ~line "expected key=value, got %S" tok;
    (k, parse_value v)

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let fold ?(on_torn = fun (_ : int) -> ()) ic ~init ~f =
  let lineno = ref 0 in
  (* One line of lookahead: a defect counts as a torn tail only when
     nothing follows it, so mid-stream corruption still raises. *)
  let ahead = ref (try Some (input_line ic) with End_of_file -> None) in
  let next () =
    match !ahead with
    | None -> None
    | Some l ->
      ahead := (try Some (input_line ic) with End_of_file -> None);
      incr lineno;
      Some l
  in
  let at_tail () = !ahead = None in
  (match next () with
  | Some l when String.trim l = header -> ()
  | Some l -> perr ~line:1 "expected %S, got %S" header l
  | None -> perr ~line:1 "empty stream: expected %S" header);
  let program = ref None in
  (* One run is parsed at a time: [in_run] accumulates records in reverse
     until the matching [end] line. *)
  let acc = ref init in
  let in_run = ref None in
  let finish ending =
    match !in_run with
    | None -> perr ~line:!lineno "'end' outside of a run"
    | Some (index, init_st, records) ->
      let init_st =
        match init_st with
        | None -> perr ~line:!lineno "run %d has no 'init' line" index
        | Some st -> st
      in
      in_run := None;
      acc := f !acc { index; init = init_st; records = List.rev records; ending }
  in
  (* A recorder killed mid-write leaves a torn tail: a partial final
     line, or a run missing its 'end'.  Salvage the complete prefix the
     way [Ledger.load] skips torn lines — the in-progress run (if its
     [init] parsed) is delivered ending [Truncated] — and report through
     [on_torn].  The same defect mid-stream still raises. *)
  let salvage () =
    on_torn !lineno;
    match !in_run with
    | None | Some (_, None, _) -> in_run := None
    | Some (index, Some st, records) ->
      in_run := None;
      acc :=
        f !acc
          { index; init = st; records = List.rev records;
            ending = Trace.Truncated }
  in
  let rec loop () =
    match next () with
    | None -> if !in_run <> None then salvage ()
    | Some raw ->
      let line = !lineno in
      (try
         match split_words (String.trim raw) with
      | [] -> ()
      | "#" :: _ -> ()
      | word :: rest when String.length word > 0 && word.[0] = '#' ->
        ignore rest
      | [ "program"; name ] ->
        if !in_run <> None then perr ~line "'program' inside a run";
        program := Some name
      | [ "run"; n ] -> (
        if !in_run <> None then perr ~line "'run' before previous run ended";
        match int_of_string_opt n with
        | Some index -> in_run := Some (index, None, [])
        | None -> perr ~line "bad run index %S" n)
      | "init" :: bindings -> (
        match !in_run with
        | Some (index, None, []) ->
          let st = State.of_list (List.map (parse_binding ~line) bindings) in
          in_run := Some (index, Some st, [])
        | Some _ -> perr ~line "duplicate 'init' or 'init' after steps"
        | None -> perr ~line "'init' outside of a run")
      | (("step" | "fault") as kind) :: action :: bindings -> (
        match !in_run with
        | None -> perr ~line "'%s' outside of a run" kind
        | Some (_, None, _) -> perr ~line "'%s' before 'init'" kind
        | Some (index, (Some init_st as init'), records) ->
          let prev =
            match records with [] -> init_st | r :: _ -> r.target
          in
          let target =
            State.update_many prev (List.map (parse_binding ~line) bindings)
          in
          let record = { action; fault = kind = "fault"; target } in
          in_run := Some (index, init', record :: records))
         | [ "end"; "maximal" ] -> finish Trace.Maximal
         | [ "end"; "truncated" ] -> finish Trace.Truncated
         | [ "end"; e ] -> perr ~line "bad ending %S" e
         | w :: _ -> perr ~line "unrecognized record %S" w
       with
      | Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Parse _)
        when at_tail () ->
        salvage ());
      loop ()
  in
  loop ();
  (!acc, !program)

