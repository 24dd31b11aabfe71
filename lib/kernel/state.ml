(* Program states: total maps from variable names to values.

   A state of program [p] assigns each variable of [p] a value from its
   domain (Section 2.1 of the paper).  States are persistent, so actions
   build successor states cheaply and states can be used as keys in hash
   tables during state-space exploration.

   Representation: a sorted array of bindings (ascending variable name,
   names unique), never mutated after construction.  Programs have a
   handful of variables, so binary search beats tree descent, [set] is one
   allocation and a blit instead of a path copy, and the ordered
   operations ([compare], [equal], [fold], [bindings]) are cache-friendly
   scans with no enumeration cells.  The comparison order is exactly the
   one [Map.Make(String)] with [Value.compare] on data would produce —
   lexicographic on the sorted binding sequence, shorter prefix first —
   which the packed engine's layout ranks rely on. *)

type t = (string * Value.t) array

let empty = [||]

(* Binary search: index of [x], or [lnot insertion_point] when absent. *)
let find_ix st x =
  let lo = ref 0 and hi = ref (Array.length st) in
  let found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = String.compare x (fst (Array.unsafe_get st mid)) in
    if c = 0 then found := mid
    else if c < 0 then hi := mid
    else lo := mid + 1
  done;
  if !found >= 0 then !found else lnot !lo

let get st x =
  let i = find_ix st x in
  if i >= 0 then snd (Array.unsafe_get st i)
  else Value.type_error "unbound variable %s" x

let find_opt st x =
  let i = find_ix st x in
  if i >= 0 then Some (snd (Array.unsafe_get st i)) else None

let mem st x = find_ix st x >= 0

let set st x v =
  let i = find_ix st x in
  if i >= 0 then begin
    let st' = Array.copy st in
    st'.(i) <- (x, v);
    st'
  end
  else begin
    let ip = lnot i in
    let n = Array.length st in
    let st' = Array.make (n + 1) (x, v) in
    Array.blit st 0 st' 0 ip;
    Array.blit st ip st' (ip + 1) (n - ip);
    st'
  end

let of_list bindings =
  List.fold_left (fun st (x, v) -> set st x v) empty bindings

let of_sorted_array (bindings : (string * Value.t) array) : t = bindings

let bindings st = Array.to_list st

let fold f st init =
  let acc = ref init in
  Array.iter (fun (x, v) -> acc := f x v !acc) st;
  !acc

let cardinal st = Array.length st

let variables st = List.map fst (bindings st)

(* Same order as [Map.compare]: lexicographic over the sorted binding
   sequence (name, then value), a strict prefix comparing smaller. *)
let compare st st' =
  let n = Array.length st and n' = Array.length st' in
  let rec go i =
    if i = n then if i = n' then 0 else -1
    else if i = n' then 1
    else
      let x, v = Array.unsafe_get st i and x', v' = Array.unsafe_get st' i in
      let c = String.compare x x' in
      if c <> 0 then c
      else
        let c = Value.compare v v' in
        if c <> 0 then c else go (i + 1)
  in
  go 0

let equal st st' =
  Array.length st = Array.length st'
  && Array.for_all2
       (fun (x, v) (x', v') -> String.equal x x' && Value.equal v v')
       st st'

let hash st =
  fold (fun x v acc -> (acc * 31) + Hashtbl.hash x + Value.hash v) st 0

module Var_set = Set.Make (String)

(* Projection of a state on a set of variables (Section 2.2.1). *)
let project st vars =
  let keep = Var_set.of_list vars in
  Array.of_list
    (List.filter (fun (x, _) -> Var_set.mem x keep) (bindings st))

let update_many st bindings =
  List.fold_left (fun acc (x, v) -> set acc x v) st bindings

(* [agree_on st st' vars]: do the two states coincide on [vars]? *)
let agree_on st st' vars =
  List.for_all (fun x -> Value.equal (get st x) (get st' x)) vars

(* [diff2 a b f]: when [a] and [b] bind the same variables in the same
   slot order, call [f k va vb] on every slot whose values differ and
   return [true]; return [false] as soon as the shapes diverge (the
   caller must then fall back and may discard any effects of [f]).
   [set] copies the binding array but reuses the untouched pair tuples,
   so unchanged slots short-circuit on physical equality — this is the
   packed engine's delta-encoding hot path. *)
let diff2 (a : t) (b : t) f =
  let n = Array.length a in
  if Array.length b <> n then false
  else
    try
      for k = 0 to n - 1 do
        let ((xa, va) as pa) = Array.unsafe_get a k in
        let pb = Array.unsafe_get b k in
        if pa != pb then begin
          let xb, vb = pb in
          if not (String.equal xa xb) then raise Exit;
          if not (Value.equal va vb) then f k va vb
        end
      done;
      true
    with Exit -> false

(* Scratch buffers: a mutable binding array sharing the representation of
   [t], so [scratch_view] is the identity.  The names are fixed at
   creation; [scratch_set] only replaces the binding of a slot with one
   for the same name. *)

type scratch = t

let scratch_create vars = Array.map (fun x -> (x, Value.bot)) vars

let scratch_set (sc : scratch) k binding = Array.unsafe_set sc k binding

let scratch_view (sc : scratch) : t = sc
let scratch_copy = Array.copy

let pp ppf st =
  let pp_binding ppf (x, v) = Fmt.pf ppf "%s=%a" x Value.pp v in
  Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any " ") pp_binding) (bindings st)

let to_string st = Fmt.str "%a" pp st
