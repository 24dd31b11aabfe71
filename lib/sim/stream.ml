(* The recorded-run stream format.

   Deltas keep long streams small: a step line carries only the bindings
   the action changed, and the reader replays them onto the previous
   state.  That requires every state of a run to bind the same variable
   set — true of any [Runner.run], whose states all bind the program's
   declared variables — and the writer enforces it.

   Parsing is incremental and position-aware: each run is materialized,
   handed to the caller's fold function, and dropped, so monitoring a
   long stream holds one run in memory at a time, and malformed lines
   raise [Detcor_robust.Error.Parse] with their line number.  One
   byte-level parser serves both views: with a layout, states are ranks
   moved by each binding's code delta; without one, or past what the
   layout's tables decode, they are [State.t]s. *)

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

(* An open-addressing table from short texts to ints, probed with a slice
   of the read buffer, so a lookup allocates nothing.  Keys are never
   empty: [""] marks a free cell. *)
module Texts = struct
  type t = {
    mutable keys : string array;
    mutable vals : int array;
    mutable count : int;
  }

  let create () =
    { keys = Array.make 16 ""; vals = Array.make 16 0; count = 0 }

  let mix h c = (h * 31) + Char.code c

  let hash b pos len =
    let h = ref 0 in
    for i = pos to pos + len - 1 do
      h := mix !h (Bytes.unsafe_get b i)
    done;
    !h

  let rec same k b pos i len =
    i = len
    || String.unsafe_get k i = Bytes.unsafe_get b (pos + i)
       && same k b pos (i + 1) len

  (* The cell holding the slice's key, or the free cell it would take. *)
  let rec probe keys b pos len c =
    let k = Array.unsafe_get keys c in
    if String.length k = 0 || (String.length k = len && same k b pos 0 len)
    then c
    else probe keys b pos len ((c + 1) land (Array.length keys - 1))

  let cell t h b pos len =
    probe t.keys b pos len (h land (Array.length t.keys - 1))

  (* The value of the slice [b.[pos .. pos+len-1]], whose [hash] is [h],
     or [-1]. *)
  let find_hashed t h b pos len =
    let c = cell t h b pos len in
    if String.length (Array.unsafe_get t.keys c) = 0 then -1
    else Array.unsafe_get t.vals c

  (* Bind [key] (nonempty, not yet bound) to [v]. *)
  let rec add t key v =
    if 2 * (t.count + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * Array.length keys) "";
      t.vals <- Array.make (2 * Array.length keys) 0;
      t.count <- 0;
      Array.iteri (fun c k -> if k <> "" then add t k vals.(c)) keys
    end;
    let b = Bytes.unsafe_of_string key in
    let c = cell t (hash b 0 (String.length key)) b 0 (String.length key) in
    t.keys.(c) <- key;
    t.vals.(c) <- v;
    t.count <- t.count + 1
end

(* A buffered line reader with [input_line]'s notion of a line: the
   bytes up to a newline, or up to the end of input when the last line
   has none.  The current line is [buf.[ls .. le-1]], valid until the
   next [next_line] or [refill]; no string is made for it. *)
type reader = {
  ic : in_channel;
  mutable buf : Bytes.t;
  mutable pos : int;  (** first unread byte *)
  mutable lim : int;  (** end of the buffered bytes *)
  mutable ls : int;
  mutable le : int;
}

(* Move the unread bytes to the front, growing the buffer when they fill
   it, and append what the channel has; [false] at end of input. *)
let refill r =
  let live = r.lim - r.pos in
  if r.pos > 0 then begin
    Bytes.blit r.buf r.pos r.buf 0 live;
    r.pos <- 0;
    r.lim <- live
  end;
  if r.lim = Bytes.length r.buf then begin
    let b = Bytes.create (2 * Bytes.length r.buf) in
    Bytes.blit r.buf 0 b 0 r.lim;
    r.buf <- b
  end;
  let got = input r.ic r.buf r.lim (Bytes.length r.buf - r.lim) in
  r.lim <- r.lim + got;
  got > 0

let rec newline b i lim =
  if i >= lim || Bytes.unsafe_get b i = '\n' then i else newline b (i + 1) lim

let next_line r =
  let i = ref (newline r.buf r.pos r.lim) in
  let more = ref true in
  while !i = r.lim && !more do
    let scanned = !i - r.pos in
    more := refill r;
    i := newline r.buf (r.pos + scanned) r.lim
  done;
  if r.pos = r.lim then false
  else begin
    r.ls <- r.pos;
    r.le <- !i;
    r.pos <- min (!i + 1) r.lim;
    true
  end

(* [String.trim]'s blanks; words are separated by spaces alone. *)
let blank c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

let rec trim_start b i e =
  if i < e && blank (Bytes.unsafe_get b i) then trim_start b (i + 1) e else i

let rec trim_end b s e =
  if e > s && blank (Bytes.unsafe_get b (e - 1)) then trim_end b s (e - 1)
  else e

let rec word_end b i e =
  if i < e && Bytes.unsafe_get b i <> ' ' then word_end b (i + 1) e else i

let rec skip_spaces b i e =
  if i < e && Bytes.unsafe_get b i = ' ' then skip_spaces b (i + 1) e else i

let is b s e lit =
  e - s = String.length lit && Texts.same lit b s 0 (e - s)

type ranked = {
  index : int;
  ranks : int array;
  escaped : State.t array;
  actions : string array;
  fault_steps : int list;
  ending : Trace.ending;
}

let grow a fill n =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let fold_ranked ?(on_torn = fun (_ : int) -> ()) ?layout ic ~init ~f =
  let r = { ic; buf = Bytes.create 65536; pos = 0; lim = 0; ls = 0; le = 0 } in
  let lineno = ref 0 in
  let next () = next_line r && (incr lineno; true) in
  (* A defect counts as a torn tail only when nothing follows it, so
     mid-stream corruption still raises. *)
  let at_tail () = r.pos = r.lim && not (refill r) in
  let text i j = Bytes.sub_string r.buf i (j - i) in
  if not (next ()) then perr ~line:1 "empty stream: expected %S" header;
  (let s = trim_start r.buf r.ls r.le in
   if not (is r.buf s (trim_end r.buf s r.le) header) then
     perr ~line:1 "expected %S, got %S" header (text r.ls r.le));
  (* The layout's tables: slot of each variable name, and per slot the
     code of each value text that reads back as that domain value. *)
  let nv = match layout with Some l -> Layout.num_vars l | None -> 0 in
  let vars = Array.init nv (fun k -> Layout.var (Option.get layout) k) in
  let domains =
    Array.init nv (fun k ->
        Array.of_list (Layout.domain_values (Option.get layout) k))
  in
  let strides =
    Array.init nv (fun k -> Layout.stride (Option.get layout) k)
  in
  let slots = Texts.create () in
  Array.iteri (fun k x -> Texts.add slots x k) vars;
  let codes_of =
    Array.map
      (fun dom ->
        let t = Texts.create () in
        Array.iteri
          (fun c v ->
            let s = Value.to_string v in
            if s <> "" && Value.equal (parse_value s) v then Texts.add t s c)
          dom;
        t)
      domains
  in
  (* The current state: slot codes and their rank, or — without a
     layout, or when a binding has no code — the escaped [esc]. *)
  let codes = Array.make nv 0 and seen = Array.make nv 0 in
  let rank = ref 0 in
  let escaped = ref false and esc = ref State.empty in
  let to_ranks () =
    match layout with
    | Some l when !escaped -> (
      match Layout.pack_opt l !esc with
      | Some rk ->
        rank := rk;
        Layout.decode l rk codes;
        escaped := false
      | None -> ())
    | _ -> ()
  in
  (* The run being read: its states so far ([count]; [states.(i)] holds
     state [i] when [ranks.(i) < 0], and is stale otherwise), the action of
     each record, its fault records. *)
  let program = ref None in
  let acc = ref init in
  let in_run = ref false and has_init = ref false and index = ref 0 in
  let count = ref 0 and run_escapes = ref false in
  let ranks = ref (Array.make 1024 0) and states = ref [||] in
  let actions = ref (Array.make 1024 "") and faults = ref [] in
  let action_ids = Texts.create () and action_names = ref [||] in
  let push () =
    let i = !count in
    if i = Array.length !ranks then ranks := grow !ranks 0 (i + 1);
    if !escaped then begin
      if Array.length !states < Array.length !ranks then
        states := grow !states State.empty (Array.length !ranks);
      !states.(i) <- !esc;
      !ranks.(i) <- -1;
      run_escapes := true
    end
    else !ranks.(i) <- !rank;
    count := i + 1
  in
  let deliver ending =
    let n = !count in
    let run =
      {
        index = !index;
        ranks = Array.sub !ranks 0 n;
        escaped =
          (if !run_escapes then
             Array.init n (fun i ->
                 if !ranks.(i) < 0 then !states.(i) else State.empty)
           else [||]);
        actions = Array.sub !actions 0 (n - 1);
        fault_steps = List.rev !faults;
        ending;
      }
    in
    in_run := false;
    acc := f !acc run
  in
  let escape ~line ~init =
    (* Leave ranks: the state so far as a [State.t]. *)
    esc :=
      if init then
        State.of_list
          (List.filter_map
             (fun k ->
               if seen.(k) = line then
                 Some (vars.(k), domains.(k).(codes.(k)))
               else None)
             (List.init nv Fun.id))
      else Layout.unpack (Option.get layout) !rank;
    escaped := true
  in
  (* The bindings [key=value ...] in [i, e), applied in order.  One scan
     per token finds its '=' and hashes its key and value. *)
  let bindings ~line ~init i e =
    let b = r.buf in
    let i = ref i in
    while !i < e do
      let ws = !i in
      let eq = ref ws and hk = ref 0 in
      while
        !eq < e
        &&
        let c = Bytes.unsafe_get b !eq in
        c <> '=' && c <> ' '
      do
        hk := Texts.mix !hk (Bytes.unsafe_get b !eq);
        incr eq
      done;
      let eq = !eq in
      let we = ref (eq + 1) and hv = ref 0 in
      while !we < e && Bytes.unsafe_get b !we <> ' ' do
        hv := Texts.mix !hv (Bytes.unsafe_get b !we);
        incr we
      done;
      let we = min !we e in
      if eq = e || Bytes.unsafe_get b eq <> '=' || eq = ws || we = eq + 1
      then perr ~line "expected key=value, got %S" (text ws (word_end b ws e));
      let k =
        if !escaped then -1 else Texts.find_hashed slots !hk b ws (eq - ws)
      in
      let c =
        if k < 0 then -1
        else Texts.find_hashed codes_of.(k) !hv b (eq + 1) (we - eq - 1)
      in
      if c >= 0 then begin
        rank := !rank + ((c - codes.(k)) * strides.(k));
        codes.(k) <- c;
        seen.(k) <- line
      end
      else begin
        if not !escaped then escape ~line ~init;
        esc := State.set !esc (text ws eq) (parse_value (text (eq + 1) we))
      end;
      i := skip_spaces b we e
    done
  in
  let init_line ~line i e =
    if not !in_run then perr ~line "'init' outside of a run";
    if !has_init then perr ~line "duplicate 'init' or 'init' after steps";
    Array.fill codes 0 nv 0;
    rank := 0;
    escaped := layout = None;
    esc := State.empty;
    bindings ~line ~init:true i e;
    if layout <> None then begin
      let missing =
        List.filter
          (fun k ->
            if !escaped then not (State.mem !esc vars.(k))
            else seen.(k) <> line)
          (List.init nv Fun.id)
      in
      if missing <> [] then
        perr ~line
          "'init' binds no %s, which the monitored program declares (%s)"
          (String.concat ", " (List.map (fun k -> vars.(k)) missing))
          (match !program with
          | Some p -> "the stream's 'program' line names " ^ p
          | None -> "the stream has no 'program' line");
      to_ranks ()
    end;
    has_init := true;
    push ()
  in
  let step_line ~line ~fault i e =
    let kind = if fault then "fault" else "step" in
    if not !in_run then perr ~line "'%s' outside of a run" kind;
    if not !has_init then perr ~line "'%s' before 'init'" kind;
    let b = r.buf in
    let ae = ref i and h = ref 0 in
    while !ae < e && Bytes.unsafe_get b !ae <> ' ' do
      h := Texts.mix !h (Bytes.unsafe_get b !ae);
      incr ae
    done;
    let ae = !ae in
    let id =
      match Texts.find_hashed action_ids !h b i (ae - i) with
      | -1 ->
        let id = Texts.(action_ids.count) in
        if id = Array.length !action_names then
          action_names := grow !action_names "" (id + 1);
        !action_names.(id) <- text i ae;
        Texts.add action_ids !action_names.(id) id;
        id
      | id -> id
    in
    bindings ~line ~init:false (skip_spaces b ae e) e;
    to_ranks ();
    let rec_ = !count - 1 in
    if rec_ = Array.length !actions then
      actions := grow !actions "" (rec_ + 1);
    !actions.(rec_) <- !action_names.(id);
    if fault then faults := rec_ :: !faults;
    push ()
  in
  let finish ~line ending =
    if not !in_run then perr ~line "'end' outside of a run";
    if not !has_init then perr ~line "run %d has no 'init' line" !index;
    deliver ending
  in
  (* A recorder killed mid-write leaves a torn tail: a partial final
     line, or a run missing its 'end'.  Salvage the complete prefix the
     way [Ledger.load] skips torn lines — the in-progress run (if its
     [init] parsed) is delivered ending [Truncated] — and report through
     [on_torn].  The same defect mid-stream still raises. *)
  let salvage () =
    on_torn !lineno;
    if !in_run && !has_init then deliver Trace.Truncated else in_run := false
  in
  let handle line =
    let b = r.buf in
    let s = trim_start b r.ls r.le in
    let e = trim_end b s r.le in
    if s < e && Bytes.unsafe_get b s <> '#' then begin
      let w1 = word_end b s e in
      let s2 = skip_spaces b w1 e in
      if is b s w1 "step" && s2 < e then step_line ~line ~fault:false s2 e
      else if is b s w1 "fault" && s2 < e then
        step_line ~line ~fault:true s2 e
      else if is b s w1 "init" then init_line ~line s2 e
      else
        let w2 = word_end b s2 e in
        let two = s2 < e && skip_spaces b w2 e = e in
        if is b s w1 "program" && two then begin
          if !in_run then perr ~line "'program' inside a run";
          program := Some (text s2 w2)
        end
        else if is b s w1 "run" && two then begin
          if !in_run then perr ~line "'run' before previous run ended";
          match int_of_string_opt (text s2 w2) with
          | Some n ->
            in_run := true;
            has_init := false;
            index := n;
            count := 0;
            faults := [];
            run_escapes := false
          | None -> perr ~line "bad run index %S" (text s2 w2)
        end
        else if is b s w1 "end" && two then
          if is b s2 w2 "maximal" then finish ~line Trace.Maximal
          else if is b s2 w2 "truncated" then finish ~line Trace.Truncated
          else perr ~line "bad ending %S" (text s2 w2)
        else perr ~line "unrecognized record %S" (text s w1)
    end
  in
  let rec loop () =
    if next () then begin
      (try handle !lineno with
      | Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Parse _)
        when at_tail () ->
        salvage ());
      loop ()
    end
    else if !in_run then salvage ()
  in
  loop ();
  (!acc, !program)

let state ?layout (r : ranked) i =
  let rk = r.ranks.(i) in
  if rk < 0 then r.escaped.(i)
  else
    match layout with
    | Some l -> Layout.unpack l rk
    | None -> invalid_arg "Stream.state: a ranked state needs its layout"

let decode ?layout (r : ranked) =
  let steps =
    List.init (Array.length r.actions) (fun i ->
        { Trace.action = r.actions.(i); target = state ?layout r (i + 1) })
  in
  {
    Runner.trace = Trace.make ~ending:r.ending (state ?layout r 0) steps;
    fault_steps = r.fault_steps;
    faults_injected = List.length r.fault_steps;
  }

let fold ?on_torn ic ~init ~f =
  fold_ranked ?on_torn ic ~init ~f:(fun acc (r : ranked) ->
      let fault = Array.make (Array.length r.actions) false in
      List.iter (fun i -> fault.(i) <- true) r.fault_steps;
      let records =
        List.init (Array.length r.actions) (fun i ->
            {
              action = r.actions.(i);
              fault = fault.(i);
              target = r.escaped.(i + 1);
            })
      in
      f acc
        { index = r.index; init = r.escaped.(0); records; ending = r.ending })

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
