(* Variable layouts: the compiled shape of a program's state space.

   A layout fixes, once per program, the order of the variables (sorted by
   name, matching the binding order of [State.t]) and the order of each
   finite domain (sorted by [Value.compare]).  A state that binds exactly
   the layout's variables to in-domain values is then representable as a
   single integer rank in mixed-radix notation.  Ranks are cheap to hash
   and compare, so the packed engine of [Ts] interns states by rank instead
   of hashing whole variable maps.

   Rank order is exactly [State.compare] order: variables are compared in
   ascending name order and domain codes are assigned in ascending
   [Value.compare] order, so the lexicographic rank comparison coincides
   with the map comparison.  [Ts] relies on this to reproduce the seed
   engine's state numbering without sorting. *)

open Detcor_kernel

exception Unrepresentable

(* Why the last [pack] failed.  [pack] sits on the engine's hot path, so
   the diagnosis is a small variant recorded through one atomic store on
   the (exceptional) failure path only; [Ts] reads it back to explain
   Auto→Reference fallbacks. *)
type escape =
  | Extra_variable of string (* state binds a variable the layout lacks *)
  | Missing_variable of string (* state lacks a layout variable *)
  | Out_of_domain of string * Value.t (* value outside the declared domain *)

let pp_escape ppf = function
  | Extra_variable x -> Fmt.pf ppf "state binds undeclared variable %s" x
  | Missing_variable x -> Fmt.pf ppf "state is missing declared variable %s" x
  | Out_of_domain (x, v) ->
    Fmt.pf ppf "variable %s escaped its declared domain (value %a)" x Value.pp v

let last_escape : escape option Atomic.t = Atomic.make None

let escape_reason () = Atomic.get last_escape

let escape e =
  Atomic.set last_escape (Some e);
  raise Unrepresentable

(* Per-variable encoder from value to domain index.  [pack] runs once per
   generated successor on the engine's hot path, so the common domain
   shapes — contiguous integer ranges and booleans — get arithmetic
   coders; only irregular domains pay for a hash lookup. *)
type coder =
  | Int_range of int (* contiguous ints from [lo]: code = v - lo *)
  | Bool_pair (* [false; true] *)
  | Table of (Value.t, int) Hashtbl.t

type t = {
  vars : string array; (* ascending name order *)
  domains : Value.t array array; (* per variable, ascending value order *)
  strides : int array; (* strides.(k) = product of later domain sizes *)
  coders : coder array; (* value -> domain index *)
  space : int; (* full product size *)
  (* bindings.(k).(c) = (vars.(k), domains.(k).(c)): every decoder writes
     these shared pairs, so decoding allocates no pair per slot. *)
  bindings : (string * Value.t) array array;
  signature : Pred.signature; (* what fixes the numbering *)
}

(* [of_program p] compiles the layout, or returns [None] when the product
   space overflows the integer range (packed ranks would not fit). *)
let of_program p =
  let decls =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Program.var_decls p)
  in
  let vars = Array.of_list (List.map fst decls) in
  let domains =
    Array.of_list
      (List.map (fun (_, d) -> Array.of_list (Domain.values d)) decls)
  in
  Array.iter (fun d -> Array.sort Value.compare d) domains;
  let n = Array.length vars in
  let strides = Array.make n 1 in
  let space = ref 1 in
  let overflow = ref false in
  for k = n - 1 downto 0 do
    strides.(k) <- !space;
    let size = Array.length domains.(k) in
    if size = 0 || !space > max_int / size then overflow := true
    else space := !space * size
  done;
  if !overflow then None
  else begin
    let coder_of dom =
      let size = Array.length dom in
      let contiguous_ints =
        size > 0
        && (match dom.(0) with
           | Value.Int lo ->
             let ok = ref true in
             Array.iteri
               (fun k v ->
                 match v with
                 | Value.Int i when i = lo + k -> ()
                 | _ -> ok := false)
               dom;
             !ok
           | _ -> false)
      in
      if contiguous_ints then
        Int_range (match dom.(0) with Value.Int lo -> lo | _ -> assert false)
      else if
        size = 2
        && Value.equal dom.(0) (Value.bool false)
        && Value.equal dom.(1) (Value.bool true)
      then Bool_pair
      else begin
        let tbl = Hashtbl.create (2 * size) in
        Array.iteri (fun i v -> Hashtbl.replace tbl v i) dom;
        Table tbl
      end
    in
    let coders = Array.map coder_of domains in
    let bindings =
      Array.mapi (fun k dom -> Array.map (fun v -> (vars.(k), v)) dom) domains
    in
    let signature =
      Array.to_list
        (Array.mapi (fun k x -> (x, Array.to_list domains.(k))) vars)
    in
    Some { vars; domains; strides; coders; space = !space; bindings; signature }
  end

let signature t = t.signature

(* Equal signatures give every state the same rank.  Forms computed on
   one layout usually meet that very layout again, so the physical test
   decides most calls. *)
let has_signature t sg = t.signature == sg || t.signature = sg

let num_vars t = Array.length t.vars
let space t = t.space
let var t k = t.vars.(k)
let domain_values t k = Array.to_list t.domains.(k)

(* Domain index of [v] at variable slot [i], or -1 when out of domain. *)
let code t i v =
  match (t.coders.(i), v) with
  | Int_range lo, Value.Int x ->
    let c = x - lo in
    if c >= 0 && c < Array.length t.domains.(i) then c else -1
  | Bool_pair, Value.Bool bl -> if bl then 1 else 0
  | (Int_range _ | Bool_pair), _ -> -1
  | Table tbl, _ -> (
    match Hashtbl.find_opt tbl v with Some c -> c | None -> -1)

(* [pack t st]: the rank of [st], in one lockstep walk over the state's
   bindings (name-sorted) and the layout's variables (also name-sorted).
   @raise Unrepresentable when [st] does not bind exactly the layout's
   variables to in-domain values. *)
let pack t st =
  let n = Array.length t.vars in
  let rank = ref 0 in
  let k = ref 0 in
  State.fold
    (fun x v () ->
      let i = !k in
      if i >= n then escape (Extra_variable x);
      if not (String.equal x t.vars.(i)) then
        (* Both sides are name-sorted: the smaller name is the odd one out. *)
        escape
          (if String.compare x t.vars.(i) < 0 then Extra_variable x
           else Missing_variable t.vars.(i));
      let c = code t i v in
      if c < 0 then escape (Out_of_domain (x, v))
      else rank := !rank + (c * t.strides.(i));
      incr k)
    st ();
  if !k <> n then escape (Missing_variable t.vars.(!k));
  !rank

exception Slow

(* [pack_from t ~src_rank src st']: the rank of [st'], computed as a
   delta against the already-ranked source state [src].  Successor
   states share the untouched binding tuples of their source, so the
   common case costs one physical-equality scan plus a couple of coder
   lookups.  Falls back to the full [pack] (and its escape diagnosis)
   whenever the shapes differ or a value is out of domain.

   Precondition: [src_rank = pack t src].  The delta is computed
   against the *claimed* rank, not the source state, so a stale rank
   silently yields a wrong answer.  This matters for the sharded
   engine, where ranks travel through frontier buffers and spill files
   between the pack site and the expansion site: callers there must
   carry the rank next to the state it ranks (the frontier stores
   (gid, rank) pairs for exactly this reason) rather than re-deriving
   it from a different arena's numbering. *)
let pack_from t ~src_rank src st' =
  let rank = ref src_rank in
  match
    State.diff2 src st' (fun k v v' ->
        let c = code t k v and c' = code t k v' in
        if c < 0 || c' < 0 then raise Slow;
        rank := !rank + ((c' - c) * t.strides.(k)))
  with
  | true -> !rank
  | false -> pack t st'
  | exception Slow -> pack t st'

let pack_opt t st = match pack t st with
  | rank -> Some rank
  | exception Unrepresentable -> None

let check_rank what t rank =
  if rank < 0 || rank >= t.space then
    Detcor_robust.Error.internal "Layout.%s: rank %d outside [0,%d)" what rank
      t.space

let code_of_rank t k rank = rank / t.strides.(k) mod Array.length t.domains.(k)

(* One allocation: the binding array, filled from the shared pairs. *)
let unpack t rank =
  check_rank "unpack" t rank;
  State.of_sorted_array
    (Array.init (Array.length t.vars) (fun k ->
         t.bindings.(k).(code_of_rank t k rank)))

(* [unpack_into t sc rank] decodes [rank] into the scratch buffer [sc]
   (created over this layout's variables) instead of allocating a fresh
   state: the gid-order sweeps of the sharded engine decode millions of
   ranks per predicate evaluation and must not build a state per
   visit.  The buffer is invalidated by the next call. *)
let unpack_into t sc rank =
  check_rank "unpack_into" t rank;
  for k = 0 to Array.length t.vars - 1 do
    State.scratch_set sc k t.bindings.(k).(code_of_rank t k rank)
  done

(* A scratch buffer shaped for {!unpack_into}. *)
let scratch t = State.scratch_create t.vars

(* Enumerate the whole product space in rank order through one reusable
   scratch buffer: visiting a state costs one slot write instead of a
   fresh state allocation.  The buffer passed to [f] is invalidated by the
   next visit; [f] must [State.scratch_copy] any state it retains. *)
let iter_scratch t f =
  let n = Array.length t.vars in
  let sc = State.scratch_create t.vars in
  let rec go k =
    if k = n then begin
      Detcor_robust.Budget.tick ();
      f sc
    end
    else
      Array.iter
        (fun b ->
          State.scratch_set sc k b;
          go (k + 1))
        t.bindings.(k)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Slot codes: the state as an int array of per-variable domain codes.  *)
(* ------------------------------------------------------------------ *)

let slot t x =
  let lo = ref 0 and hi = ref (Array.length t.vars) and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = String.compare x t.vars.(mid) in
    if c = 0 then found := mid else if c < 0 then hi := mid else lo := mid + 1
  done;
  if !found >= 0 then Some !found else None

let stride t k = t.strides.(k)

let decode t rank codes =
  for k = 0 to Array.length t.vars - 1 do
    Array.unsafe_set codes k (code_of_rank t k rank)
  done

let decode_slots t rank codes slots =
  for s = 0 to Array.length slots - 1 do
    let k = Array.unsafe_get slots s in
    Array.unsafe_set codes k (code_of_rank t k rank)
  done

(* [codes] of rank r becomes the codes of rank r + 1: an odometer step,
   no division. *)
let advance t codes =
  let k = ref (Array.length codes - 1) in
  while
    !k >= 0
    &&
    (codes.(!k) <- codes.(!k) + 1;
     codes.(!k) = Array.length t.domains.(!k))
  do
    codes.(!k) <- 0;
    decr k
  done

(* The product space in rank order through one code buffer: no division
   and no allocation per visited state. *)
let iter_codes t f =
  let codes = Array.make (Array.length t.vars) 0 in
  for rank = 0 to t.space - 1 do
    Detcor_robust.Budget.tick ();
    f rank codes;
    advance t codes
  done

let iter_states t f = iter_scratch t (fun sc -> f (State.scratch_copy sc))

let pp ppf t =
  Fmt.pf ppf "layout: %d vars, %d states" (Array.length t.vars) t.space
