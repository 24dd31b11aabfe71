(* The recorded-run stream format.

   Deltas keep long streams small: a step line carries only the bindings
   the action changed, and the reader replays them onto the previous
   state with [State.update_many].  That requires every state of a run to
   bind the same variable set — true of any [Runner.run], whose states
   all bind the program's declared variables — and the writer enforces
   it.

   Parsing is incremental and position-aware: each run is materialized,
   handed to the caller's fold function, and dropped, so monitoring a
   long stream holds one run in memory at a time, and malformed lines
   raise [Detcor_robust.Error.Parse] with their line number. *)

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

(* ------------------------------------------------------------------ *)
(* Writing.                                                            *)
(* ------------------------------------------------------------------ *)

let write_header oc ~program =
  Printf.fprintf oc "%s\nprogram %s\n" header program

module Value_tbl = Hashtbl.Make (Value)

(* One run into [b].  A binding prints as " x=v"; each slot's text is
   built once per value it takes in the run ([texts]) and the deltas come
   from [State.diff2], which skips unchanged slots by physical equality.
   Every state must bind the variables of the initial one, in the same
   slots: [diff2] checks that pairwise along the run. *)
let add_run b ~index (r : Runner.run) =
  let init = Trace.start r.trace in
  let bindings = Array.of_list (State.bindings init) in
  let prefixes = Array.map (fun (x, _) -> " " ^ x ^ "=") bindings in
  let texts = Array.map (fun _ -> Value_tbl.create 8) bindings in
  let add_binding k v =
    Buffer.add_string b
      (match Value_tbl.find_opt texts.(k) v with
      | Some text -> text
      | None ->
        let text = prefixes.(k) ^ Value.to_string v in
        Value_tbl.add texts.(k) v text;
        text)
  in
  Buffer.add_string b "run ";
  Buffer.add_string b (string_of_int index);
  Buffer.add_string b "\ninit";
  Array.iteri (fun k (_, v) -> add_binding k v) bindings;
  Buffer.add_char b '\n';
  let faults = ref r.fault_steps in
  let prev = ref init in
  List.iteri
    (fun i { Trace.action; target } ->
      let fault =
        match !faults with
        | s :: rest when s = i ->
          faults := rest;
          true
        | _ -> false
      in
      Buffer.add_string b (if fault then "fault " else "step ");
      Buffer.add_string b action;
      if not (State.diff2 !prev target (fun k _ v -> add_binding k v)) then
        Detcor_robust.Error.internal
          "Stream.write_run: states bind different variables (%s vs %s)"
          (State.to_string !prev) (State.to_string target);
      Buffer.add_char b '\n';
      prev := target)
    (Trace.steps r.trace);
  Buffer.add_string b
    (match Trace.ending r.trace with
    | Trace.Maximal -> "end maximal\n"
    | Trace.Truncated -> "end truncated\n")

let write_run oc ~index r =
  let b = Buffer.create 4096 in
  add_run b ~index r;
  Buffer.output_buffer oc b

let record oc ~program runs =
  Detcor_obs.Obs.span "sim.record"
    ~attrs:[ Detcor_obs.Attr.int "runs" (List.length runs) ]
  @@ fun () ->
  write_header oc ~program;
  let b = Buffer.create 65536 in
  List.iteri
    (fun index r ->
      add_run b ~index r;
      Buffer.output_buffer oc b;
      Buffer.clear b)
    runs

(* ------------------------------------------------------------------ *)
(* Reading.                                                            *)
(* ------------------------------------------------------------------ *)

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

let to_run (r : run) =
  let steps =
    List.map (fun { action; target; _ } -> { Trace.action; target }) r.records
  in
  let fault_steps =
    List.mapi (fun i rec_ -> (i, rec_.fault)) r.records
    |> List.filter_map (fun (i, f) -> if f then Some i else None)
  in
  {
    Runner.trace = Trace.make ~ending:r.ending r.init steps;
    fault_steps;
    faults_injected = List.length fault_steps;
  }
