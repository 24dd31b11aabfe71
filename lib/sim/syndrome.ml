(* Batched evaluation of witness-predicate families.

   The compiled form hoists each predicate's closure out of its record
   once ([Pred.fn]) and, when a [Layout] is available and small enough,
   memoizes whole-family results by packed state rank: column [j] of the
   memo holds predicate [j]'s value at every rank seen so far, and a
   [known] set marks which ranks have been evaluated.  Ranks are computed
   with [Layout.pack_from] deltas along the state sequence, so a batch
   sweep over a trace costs a physical-equality scan per step plus — for
   states already seen — m bit reads instead of m closure calls.  A run
   replayed in rank form ([of_ranks]) skips the packing: it reads memo
   rows by rank and decodes a state only to fill a missing row.

   Fault-injected states can leave the layout's domains entirely
   ([Layout.Unrepresentable]); those states are evaluated directly and
   break the delta chain, never the sweep. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_obs

(* Cap on the memo space: one bit column per predicate per rank.  4M ranks
   is 512 KiB per predicate — past that, packing trades too much memory
   for the revisit speedup and evaluation stays direct. *)
let max_memo_space = 1 lsl 22

type packed = {
  columns : Bitset.t array; (* per pred, indexed by rank *)
  known : Bitset.t; (* ranks whose row is filled *)
}

type t = {
  preds : Pred.t array;
  fns : (State.t -> bool) array;
  layout : Layout.t option;
  packed : packed option;
}

let c_hits = Metrics.counter "sim.syndrome.hits"
let c_misses = Metrics.counter "sim.syndrome.misses"
let c_escapes = Metrics.counter "sim.syndrome.escapes"

let compile ?program preds =
  let preds = Array.of_list preds in
  let fns = Array.map Pred.fn preds in
  let layout = Option.bind program Layout.of_program in
  let packed =
    match layout with
    | Some layout when Layout.space layout <= max_memo_space ->
      let space = Layout.space layout in
      Some
        {
          columns = Array.init (Array.length preds) (fun _ -> Bitset.create space);
          known = Bitset.create space;
        }
    | _ -> None
  in
  { preds; fns; layout; packed }

let pred_names t = Array.map Pred.name t.preds
let is_packed t = t.packed <> None
let layout t = t.layout

type batch = {
  count : int;
  cols : Bitset.t array; (* per pred, indexed by state position *)
}

(* Evaluate every predicate at [st] directly, setting batch bits. *)
let eval_direct t cols i st =
  Array.iteri (fun j f -> if f st then Bitset.set cols.(j) i) t.fns

(* Is the memo row of [rank] filled?  Counts the hit or the miss. *)
let[@inline] known p rank =
  let k = Bitset.get p.known rank in
  Metrics.incr (if k then c_hits else c_misses);
  k

(* Fill the memo row of [rank] from its state [st]. *)
let fill t p rank st =
  Array.iteri (fun j f -> if f st then Bitset.set p.columns.(j) rank) t.fns;
  Bitset.set p.known rank

(* Copy the memo row of [rank] into batch position [i]. *)
let[@inline] copy_row p cols i rank =
  for j = 0 to Array.length cols - 1 do
    if Bitset.get p.columns.(j) rank then Bitset.set cols.(j) i
  done

let of_seq t count states =
  let cols = Array.init (Array.length t.fns) (fun _ -> Bitset.create count) in
  (match t.packed with
  | None ->
    let i = ref 0 in
    states (fun st ->
        if !i land 127 = 0 then Detcor_robust.Budget.tick ();
        eval_direct t cols !i st;
        incr i)
  | Some p ->
    let layout = Option.get t.layout in
    (* [prev] carries the last representable state and its rank, feeding
       [pack_from]'s delta scan; an escape resets the chain. *)
    let prev = ref None in
    let i = ref 0 in
    states (fun st ->
        if !i land 127 = 0 then Detcor_robust.Budget.tick ();
        (match
           match !prev with
           | Some (src, src_rank) -> (
             try Some (Layout.pack_from layout ~src_rank src st)
             with Layout.Unrepresentable -> None)
           | None -> (
             try Some (Layout.pack layout st)
             with Layout.Unrepresentable -> None)
         with
        | Some rank ->
          if not (known p rank) then fill t p rank st;
          copy_row p cols !i rank;
          prev := Some (st, rank)
        | None ->
          Metrics.incr c_escapes;
          eval_direct t cols !i st;
          prev := None);
        incr i));
  { count; cols }

let of_states t states =
  of_seq t (List.length states) (fun f -> List.iter f states)

let of_trace t tr = of_states t (Trace.states tr)

let of_ranks t ranks ~escaped ~pos ~len =
  let cols = Array.init (Array.length t.fns) (fun _ -> Bitset.create len) in
  let unpack rank =
    match t.layout with
    | Some l -> Layout.unpack l rank
    | None -> invalid_arg "Syndrome.of_ranks: this family has no layout"
  in
  for i = 0 to len - 1 do
    if i land 127 = 0 then Detcor_robust.Budget.tick ();
    let rank = ranks.(pos + i) in
    match t.packed with
    | Some p when rank >= 0 ->
      if not (known p rank) then fill t p rank (unpack rank);
      copy_row p cols i rank
    | Some _ ->
      Metrics.incr c_escapes;
      eval_direct t cols i escaped.(pos + i)
    | None ->
      eval_direct t cols i
        (if rank >= 0 then unpack rank else escaped.(pos + i))
  done;
  { count = len; cols }

let length b = b.count

let get b ~state ~pred = Bitset.get b.cols.(pred) state

let column b pred = b.cols.(pred)

let fired b ~state =
  let acc = ref [] in
  for j = Array.length b.cols - 1 downto 0 do
    if Bitset.get b.cols.(j) state then acc := j :: !acc
  done;
  !acc

let first_fired b ~state =
  let m = Array.length b.cols in
  let rec go j =
    if j = m then -1 else if Bitset.get b.cols.(j) state then j else go (j + 1)
  in
  go 0

let nonzero b ~state =
  let m = Array.length b.cols in
  let rec go j = j < m && (Bitset.get b.cols.(j) state || go (j + 1)) in
  go 0

let bits b ~state =
  String.init (Array.length b.cols) (fun j ->
      if Bitset.get b.cols.(j) state then '1' else '0')
