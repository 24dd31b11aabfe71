(* Compiled guards, predicates and statements over slot codes.

   The interpreter evaluates an expression on a [State.t]: a binary search
   per variable read and a boxed [Value.t] per node, and a statement
   builds its successor with one [State.set] copy per assignment before
   [Layout.pack_from] ranks it.  Here an expression is compiled once,
   against a [Layout], into a closure over the source state's slot codes
   (see [Layout.decode]) that returns an unboxed bool, int or symbol id,
   and an update list into per-target code functions, so a successor's
   rank is [rank + Σ (c' - c) · stride] and no successor state is built.

   Compilation refuses (the caller keeps the interpreter) whenever the
   compiled form could behave differently: a variable outside the layout,
   a domain mixing value kinds, an operand of the wrong kind (the
   interpreter would raise a kind error), an update target outside the
   layout or a wildcard domain wider than the target's.  What remains can
   fail at run time in exactly two ways, both raised where the
   interpreter raises them: [Value.Type_error "modulo by zero"] (the only
   run-time error of a well-kinded expression, so the order in which
   operands are evaluated cannot change the message), and a domain escape
   of an assigned value, diagnosed through [Layout.escape] for the
   lowest-slot escaping variable, as [Layout.pack] diagnoses it.
   Short-circuits ([&&], [||], [=>], [if]) evaluate the operands the
   interpreter evaluates. *)

open Detcor_kernel

exception Refuse

(* Symbols are compared through ids assigned in [String.compare] order,
   so equality and order of ids are those of the symbols. *)
type ctx = {
  layout : Layout.t;
  sym_ids : (string, int) Hashtbl.t;
  syms : string array; (* id -> symbol *)
}

let context layout exprs =
  let names = ref [] in
  for k = 0 to Layout.num_vars layout - 1 do
    List.iter
      (function Value.Sym s -> names := s :: !names | _ -> ())
      (Layout.domain_values layout k)
  done;
  let rec consts = function
    | Expr.Const (Value.Sym s) -> names := s :: !names
    | Expr.Var _ | Expr.Const _ -> ()
    | Expr.Not a -> consts a
    | Expr.And es | Expr.Or es -> List.iter consts es
    | Expr.Implies (a, b) | Expr.Iff (a, b) | Expr.Eq (a, b) | Expr.Neq (a, b)
    | Expr.Lt (a, b) | Expr.Le (a, b) | Expr.Gt (a, b) | Expr.Ge (a, b)
    | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) | Expr.Mod (a, b) ->
      consts a;
      consts b
    | Expr.Ite (c, a, b) ->
      consts c;
      consts a;
      consts b
  in
  List.iter consts exprs;
  let syms = Array.of_list (List.sort_uniq String.compare !names) in
  let sym_ids = Hashtbl.create 16 in
  Array.iteri (fun i s -> Hashtbl.replace sym_ids s i) syms;
  { layout; sym_ids; syms }

(* A compiled expression, by the kind of value it yields. *)
type code =
  | B of (int array -> bool)
  | I of (int array -> int)
  | S of (int array -> int) (* symbol id *)

(* Kind ranks of [Value.compare]: ints < bools < symbols. *)
let kind_rank = function I _ -> 0 | B _ -> 1 | S _ -> 2

type slot_kind = Kint of int array | Kbool of bool array | Ksym of int array

(* The kind of slot [k]'s domain, with each code's unboxed value. *)
let slot_kind ctx k =
  let dom = Array.of_list (Layout.domain_values ctx.layout k) in
  if Array.for_all (function Value.Int _ -> true | _ -> false) dom then
    Kint (Array.map (function Value.Int n -> n | _ -> 0) dom)
  else if Array.for_all (function Value.Bool _ -> true | _ -> false) dom then
    Kbool (Array.map (function Value.Bool b -> b | _ -> false) dom)
  else if Array.for_all (function Value.Sym _ -> true | _ -> false) dom then
    Ksym
      (Array.map
         (function Value.Sym s -> Hashtbl.find ctx.sym_ids s | _ -> 0)
         dom)
  else raise Refuse

let var ctx k =
  match slot_kind ctx k with
  | Kint ints ->
    let lo = ints.(0) in
    if Array.for_all Fun.id (Array.mapi (fun c n -> n = lo + c) ints) then
      I (fun c -> lo + Array.unsafe_get c k)
    else I (fun c -> ints.(Array.unsafe_get c k))
  | Kbool bools ->
    if bools = [| false; true |] then B (fun c -> Array.unsafe_get c k = 1)
    else B (fun c -> bools.(Array.unsafe_get c k))
  | Ksym ids -> S (fun c -> ids.(Array.unsafe_get c k))

let slot ctx x =
  match Layout.slot ctx.layout x with Some k -> k | None -> raise Refuse

let rec comp ctx = function
  | Expr.Var x -> var ctx (slot ctx x)
  | Expr.Const (Value.Int n) -> I (fun _ -> n)
  | Expr.Const (Value.Bool b) -> B (fun _ -> b)
  | Expr.Const (Value.Sym s) ->
    let id = Hashtbl.find ctx.sym_ids s in
    S (fun _ -> id)
  | Expr.Not (Expr.Var x) -> (
    (* [!b] on a boolean variable: one code test, like [b = false]. *)
    match var ctx (slot ctx x) with
    | B _ -> B (code_test ctx x (Value.Bool false) true)
    | I _ | S _ -> raise Refuse)
  | Expr.Not a ->
    let a = bool ctx a in
    B (fun c -> not (a c))
  | Expr.And es -> B (all (Array.of_list (List.map (bool ctx) es)))
  | Expr.Or es -> B (any (Array.of_list (List.map (bool ctx) es)))
  | Expr.Implies (a, b) ->
    let a = bool ctx a and b = bool ctx b in
    B (fun c -> (not (a c)) || b c)
  | Expr.Iff (a, b) ->
    let a = bool ctx a and b = bool ctx b in
    B
      (fun c ->
        let x = a c in
        Bool.equal x (b c))
  | Expr.Eq (Expr.Var x, Expr.Const v) | Expr.Eq (Expr.Const v, Expr.Var x) ->
    B (code_test ctx x v true)
  | Expr.Neq (Expr.Var x, Expr.Const v) | Expr.Neq (Expr.Const v, Expr.Var x)
    ->
    B (code_test ctx x v false)
  | Expr.Eq (a, b) -> B (equality ctx a b)
  | Expr.Neq (a, b) ->
    let eq = equality ctx a b in
    B (fun c -> not (eq c))
  | Expr.Lt (a, b) -> order ctx a b (fun r -> r < 0)
  | Expr.Le (a, b) -> order ctx a b (fun r -> r <= 0)
  | Expr.Gt (a, b) -> order ctx a b (fun r -> r > 0)
  | Expr.Ge (a, b) -> order ctx a b (fun r -> r >= 0)
  | Expr.Add (a, b) ->
    let a = int ctx a and b = int ctx b in
    I (fun c -> a c + b c)
  | Expr.Sub (a, b) ->
    let a = int ctx a and b = int ctx b in
    I (fun c -> a c - b c)
  | Expr.Mul (a, b) ->
    let a = int ctx a and b = int ctx b in
    I (fun c -> a c * b c)
  | Expr.Mod (a, b) ->
    let a = int ctx a and b = int ctx b in
    I
      (fun c ->
        let m = b c in
        if m = 0 then Value.type_error "modulo by zero"
        else ((a c mod m) + m) mod m)
  | Expr.Ite (cond, a, b) -> (
    let cond = bool ctx cond in
    match (comp ctx a, comp ctx b) with
    | B a, B b -> B (fun c -> if cond c then a c else b c)
    | I a, I b -> I (fun c -> if cond c then a c else b c)
    | S a, S b -> S (fun c -> if cond c then a c else b c)
    | _ -> raise Refuse)

and bool ctx e = match comp ctx e with B f -> f | I _ | S _ -> raise Refuse
and int ctx e = match comp ctx e with I f -> f | B _ | S _ -> raise Refuse

(* Left-to-right conjunction, stopping at the first false operand. *)
and all fs =
  match fs with
  | [||] -> fun _ -> true
  | [| a |] -> a
  | [| a; b |] -> fun c -> a c && b c
  | [| a; b; d |] -> fun c -> a c && b c && d c
  | _ ->
    let n = Array.length fs in
    let rec go c i = i = n || ((Array.unsafe_get fs i) c && go c (i + 1)) in
    fun c -> go c 0

(* Left-to-right disjunction, stopping at the first true operand. *)
and any fs =
  match fs with
  | [||] -> fun _ -> false
  | [| a |] -> a
  | [| a; b |] -> fun c -> a c || b c
  | [| a; b; d |] -> fun c -> a c || b c || d c
  | _ ->
    let n = Array.length fs in
    let rec go c i = i < n && ((Array.unsafe_get fs i) c || go c (i + 1)) in
    fun c -> go c 0

(* [x = v] (when [eq]) or [x != v] on a variable and a constant: one
   code comparison.  A variable never raises, so nothing else runs. *)
and code_test ctx x v eq =
  let k = slot ctx x in
  ignore (var ctx k);
  let code = Layout.code ctx.layout k v in
  if code < 0 then fun _ -> not eq
  else if eq then fun c -> Array.unsafe_get c k = code
  else fun c -> Array.unsafe_get c k <> code

(* Values of equal kinds compare unboxed; values of different kinds are
   never equal (both sides are still evaluated). *)
and equality ctx a b =
  match (comp ctx a, comp ctx b) with
  | I a, I b | S a, S b ->
    fun c ->
      let x = a c in
      x = b c
  | B a, B b ->
    fun c ->
      let x = a c in
      Bool.equal x (b c)
  | a, b -> constant a b false

and order ctx a b test =
  match (comp ctx a, comp ctx b) with
  | I a, I b | S a, S b ->
    B
      (fun c ->
        let x = a c in
        test (Int.compare x (b c)))
  | B a, B b ->
    B
      (fun c ->
        let x = a c in
        test (Bool.compare x (b c)))
  | a, b -> B (constant a b (test (Int.compare (kind_rank a) (kind_rank b))))

(* A comparison across kinds: both operands run (either may raise), the
   answer is fixed. *)
and constant a b answer =
  let run = function
    | B f -> fun c -> ignore (f c)
    | I f | S f -> fun c -> ignore (f c)
  in
  let a = run a and b = run b in
  fun c ->
    a c;
    b c;
    answer

let pred layout p =
  match Pred.expr p with
  | None -> None
  | Some e -> ( try Some (bool (context layout [ e ]) e) with Refuse -> None)

let iter_satisfying layout p f =
  match pred layout p with
  | Some holds ->
    Layout.iter_codes layout (fun rank codes -> if holds codes then f rank)
  | None ->
    let rank = ref 0 in
    Layout.iter_scratch layout (fun sc ->
        if Pred.holds p (State.scratch_view sc) then f !rank;
        incr rank)

(* ------------------------------------------------------------------ *)
(* Actions.                                                            *)
(* ------------------------------------------------------------------ *)

type guard = Codes of (int array -> bool) | Closure of (State.t -> bool)

(* One [x := e] update: the target slot and its stride, the right-hand
   side as a raw unboxed value, that value's code in the target's domain
   (-1 outside), and the value itself for the escape diagnosis. *)
type set = {
  target : int;
  stride : int;
  raw : int array -> int;
  to_code : int -> int;
  to_value : int -> Value.t;
}

type action = {
  layout : Layout.t;
  guard : guard;
  sets : set array; (* in update-list order *)
  wild : int array; (* [x := ?] target slots, in update-list order *)
  wild_codes : int array array; (* the codes each wildcard ranges over *)
}

let compile_set ctx x e =
  let k = slot ctx x in
  let code v = Layout.code ctx.layout k v in
  let to_code, to_value, raw =
    match (slot_kind ctx k, comp ctx e) with
    | Kint ints, I f ->
      let lo = ints.(0) and size = Array.length ints in
      let to_code =
        if ints.(size - 1) = lo + size - 1 then fun n ->
          if n >= lo && n < lo + size then n - lo else -1
        else fun n -> code (Value.Int n)
      in
      (to_code, (fun n -> Value.Int n), f)
    | Kbool _, B f ->
      let codes = [| code (Value.Bool false); code (Value.Bool true) |] in
      ( (fun r -> codes.(r)),
        (fun r -> Value.Bool (r = 1)),
        fun c -> Bool.to_int (f c) )
    | Ksym _, S f ->
      let codes = Array.map (fun s -> code (Value.Sym s)) ctx.syms in
      ((fun id -> codes.(id)), (fun id -> Value.Sym ctx.syms.(id)), f)
    | _ -> raise Refuse
  in
  { target = k; stride = Layout.stride ctx.layout k; raw; to_code; to_value }

let action layout ac =
  match Action.updates ac with
  | None -> None
  | Some updates -> (
    let guard_pred = Action.guard ac in
    let exprs =
      List.filter_map
        (function _, Action.Expr e -> Some e | _, Action.Any _ -> None)
        updates
    in
    let ctx =
      context layout
        (match Pred.expr guard_pred with Some g -> g :: exprs | None -> exprs)
    in
    try
      let sets =
        List.filter_map
          (function
            | x, Action.Expr e -> Some (compile_set ctx x e)
            | _, Action.Any _ -> None)
          updates
      in
      let wild =
        List.filter_map
          (function
            | x, Action.Any d ->
              let k = slot ctx x in
              let codes =
                List.map (fun v -> Layout.code layout k v) (Domain.values d)
              in
              if List.mem (-1) codes then raise Refuse;
              Some (k, Array.of_list codes)
            | _, Action.Expr _ -> None)
          updates
      in
      let guard =
        match pred layout guard_pred with
        | Some g -> Codes g
        | None -> Closure (Pred.fn guard_pred)
      in
      Some
        {
          layout;
          guard;
          sets = Array.of_list sets;
          wild = Array.of_list (List.map fst wild);
          wild_codes = Array.of_list (List.map snd wild);
        }
    with Refuse -> None)

let needs_state a = match a.guard with Codes _ -> false | Closure _ -> true

(* [f aid rank'] for every outcome of the wildcards [j..], the earlier
   wildcards fixed in [rank]. *)
let rec fan a codes aid f j rank =
  if j = Array.length a.wild then f aid rank
  else begin
    let k = a.wild.(j) in
    let stride = Layout.stride a.layout k in
    let base = rank - (codes.(k) * stride) in
    let cs = a.wild_codes.(j) in
    for i = 0 to Array.length cs - 1 do
      fan a codes aid f (j + 1) (base + (cs.(i) * stride))
    done
  end

let successors a ~codes ~rank st aid f =
  let enabled = match a.guard with Codes g -> g codes | Closure g -> g st in
  if enabled then begin
    (* Every right-hand side is evaluated (and may raise) before any
       escape is diagnosed, as the interpreter evaluates the statement
       before ranking its outcome. *)
    let delta = ref 0 and escaped = ref (-1) in
    for i = 0 to Array.length a.sets - 1 do
      let s = a.sets.(i) in
      let c' = s.to_code (s.raw codes) in
      if c' >= 0 then delta := !delta + ((c' - codes.(s.target)) * s.stride)
      else if !escaped < 0 || s.target < a.sets.(!escaped).target then
        escaped := i
    done;
    if !escaped >= 0 then begin
      let s = a.sets.(!escaped) in
      Layout.escape
        (Layout.Out_of_domain
           (Layout.var a.layout s.target, s.to_value (s.raw codes)))
    end;
    fan a codes aid f 0 (rank + !delta)
  end
