(* Static checking of surface programs, run before elaboration.

   The evaluator raises runtime [Value.Type_error]s; this pass reports the
   same classes of mistakes statically and with better messages:
   unknown identifiers, kind mismatches (boolean vs integer vs symbolic),
   guards that are not boolean, assignments outside the target's domain,
   duplicate declarations, actions assigning a variable twice, and
   self-referential predicate definitions. *)

type kind =
  | Kbool
  | Kint
  | Ksym (* a value from a symbolic domain *)

let kind_to_string = function
  | Kbool -> "bool"
  | Kint -> "int"
  | Ksym -> "symbol"

type env = {
  var_kinds : (string * kind) list;
  var_symbols : (string * string list) list; (* symbolic domains *)
  pred_names : string list;
  all_symbols : string list; (* every symbol of every domain *)
}

type error = string

let errf fmt = Fmt.kstr (fun s -> s) fmt

let build_env (src : Ast.program) =
  let vars =
    List.filter_map
      (function Ast.Var (x, d) -> Some (x, d) | _ -> None)
      src.Ast.decls
  in
  let kind_of_domain = function
    | Ast.Dbool -> Kbool
    | Ast.Drange _ -> Kint
    | Ast.Dsymbols _ -> Ksym
  in
  {
    var_kinds = List.map (fun (x, d) -> (x, kind_of_domain d)) vars;
    var_symbols =
      List.filter_map
        (function
          | x, Ast.Dsymbols names -> Some (x, names)
          | _, (Ast.Dbool | Ast.Drange _) -> None)
        vars;
    pred_names =
      List.filter_map
        (function Ast.Pred_def (x, _) -> Some x | _ -> None)
        src.Ast.decls;
    all_symbols =
      List.concat_map
        (function _, Ast.Dsymbols names -> names | _ -> [])
        (List.map (fun (x, d) -> (x, d)) vars);
  }

(* Infer the kind of an expression, accumulating errors.  Unknown kinds
   (after an error) are reported once and treated permissively. *)
let rec infer env errors = function
  | Ast.Int _ -> Some Kint
  | Ast.Bool _ -> Some Kbool
  | Ast.Ident x ->
    if List.mem_assoc x env.var_kinds then Some (List.assoc x env.var_kinds)
    else if List.mem x env.pred_names then Some Kbool
    else if List.mem x env.all_symbols then Some Ksym
    else begin
      errors :=
        errf
          "unknown identifier %s (not a variable, a predicate, or a symbol \
           of any declared domain)"
          x
        :: !errors;
      None
    end
  | Ast.Not e ->
    expect env errors Kbool e "operand of '!'";
    Some Kbool
  | Ast.If (c, a, b) -> (
    expect env errors Kbool c "condition of 'if'";
    let ka = infer env errors a and kb = infer env errors b in
    match (ka, kb) with
    | Some ka, Some kb when ka <> kb ->
      errors :=
        errf "branches of 'if' have different kinds (%s vs %s)"
          (kind_to_string ka) (kind_to_string kb)
        :: !errors;
      Some ka
    | Some k, _ | _, Some k -> Some k
    | None, None -> None)
  | Ast.Binop (op, a, b) -> (
    match op with
    | Ast.Band | Ast.Bor | Ast.Bimplies | Ast.Biff ->
      expect env errors Kbool a (operand_name op);
      expect env errors Kbool b (operand_name op);
      Some Kbool
    | Ast.Beq | Ast.Bneq -> (
      let ka = infer env errors a and kb = infer env errors b in
      (match (ka, kb) with
      | Some ka, Some kb when ka <> kb ->
        errors :=
          errf "comparison of %s with %s" (kind_to_string ka) (kind_to_string kb)
          :: !errors
      | _ -> ());
      check_symbol_membership env errors a b;
      Some Kbool)
    | Ast.Blt | Ast.Ble | Ast.Bgt | Ast.Bge ->
      expect env errors Kint a (operand_name op);
      expect env errors Kint b (operand_name op);
      Some Kbool
    | Ast.Badd | Ast.Bsub | Ast.Bmul | Ast.Bmod ->
      expect env errors Kint a (operand_name op);
      expect env errors Kint b (operand_name op);
      Some Kint)

and operand_name op = Fmt.str "operand of '%s'" (Ast.binop_to_string op)

and expect env errors kind e what =
  match infer env errors e with
  | Some k when k <> kind ->
    errors :=
      errf "%s must be %s, found %s" what (kind_to_string kind)
        (kind_to_string k)
      :: !errors
  | Some _ | None -> ()

(* For [x = sym] where x has a symbolic domain, the symbol must belong to
   that domain — otherwise the test is vacuously false, which is almost
   certainly a typo. *)
and check_symbol_membership env errors a b =
  let check x s =
    match List.assoc_opt x env.var_symbols with
    | Some names when not (List.mem s names) && List.mem s env.all_symbols ->
      errors :=
        errf "symbol %s is not in the domain of %s ({%s})" s x
          (String.concat ", " names)
        :: !errors
    | _ -> ()
  in
  match (a, b) with
  | Ast.Ident x, Ast.Ident s when List.mem_assoc x env.var_symbols ->
    check x s
  | Ast.Ident s, Ast.Ident x when List.mem_assoc x env.var_symbols ->
    check x s
  | _ -> ()

let check_assignment env errors (a : Ast.assignment) =
  match List.assoc_opt a.Ast.target env.var_kinds with
  | None ->
    errors :=
      errf "assignment to undeclared variable %s" a.Ast.target :: !errors
  | Some kind -> (
    match a.Ast.value with
    | None -> () (* wildcard: always in-domain *)
    | Some e -> (
      (match infer env errors e with
      | Some k when k <> kind ->
        errors :=
          errf "assignment of %s value to %s variable %s" (kind_to_string k)
            (kind_to_string kind) a.Ast.target
          :: !errors
      | Some _ | None -> ());
      (* Symbolic constant assignments must stay inside the domain. *)
      match (e, List.assoc_opt a.Ast.target env.var_symbols) with
      | Ast.Ident s, Some names
        when List.mem s env.all_symbols && not (List.mem s names) ->
        errors :=
          errf "symbol %s is not in the domain of %s ({%s})" s a.Ast.target
            (String.concat ", " names)
          :: !errors
      | _ -> ()))

(* A simultaneous assignment names each target once: [x := 1, x := 2]
   has no meaning to pick. *)
let check_targets (a : Ast.action_decl) errors =
  let rec go seen = function
    | [] -> ()
    | (x : Ast.assignment) :: rest ->
      if List.mem x.target seen then
        errors :=
          errf "action %s assigns %s more than once" a.aname x.target
          :: !errors;
      go (x.target :: seen) rest
  in
  go [] a.assignments

let check_duplicates (src : Ast.program) errors =
  let dup what names =
    let sorted = List.sort String.compare names in
    let rec go = function
      | a :: (b :: _ as rest) ->
        if String.equal a b then
          errors := errf "duplicate %s %s" what a :: !errors;
        go rest
      | [ _ ] | [] -> ()
    in
    go sorted
  in
  dup "variable"
    (List.filter_map
       (function Ast.Var (x, _) -> Some x | _ -> None)
       src.Ast.decls);
  dup "action"
    (List.filter_map
       (function Ast.Action a -> Some a.Ast.aname | _ -> None)
       src.Ast.decls);
  dup "predicate"
    (List.filter_map
       (function Ast.Pred_def (x, _) -> Some x | _ -> None)
       src.Ast.decls)

let check_based_on (src : Ast.program) errors =
  let action_names =
    List.filter_map
      (function Ast.Action a -> Some a.Ast.aname | _ -> None)
      src.Ast.decls
  in
  List.iter
    (function
      | Ast.Action { aname; based_on = Some b; _ } ->
        if not (List.mem b action_names) then
          errors :=
            errf "action %s is based on unknown action %s" aname b :: !errors
      | _ -> ())
    src.Ast.decls

let check (src : Ast.program) : error list =
  let env = build_env src in
  let errors = ref [] in
  check_duplicates src errors;
  check_based_on src errors;
  let boolean what e = expect env errors Kbool e what in
  List.iter
    (function
      | Ast.Var _ -> ()
      | Ast.Invariant e -> boolean "invariant" e
      | Ast.Pred_def (x, e) -> boolean (Fmt.str "predicate %s" x) e
      | Ast.Action a ->
        boolean (Fmt.str "guard of %s" a.Ast.aname) a.Ast.guard;
        if a.Ast.assignments = [] then
          errors :=
            errf "action %s has no assignments" a.Ast.aname :: !errors;
        List.iter (check_assignment env errors) a.Ast.assignments;
        check_targets a errors
      | Ast.Spec (Ast.Safety_never e) | Ast.Spec (Ast.Safety_always e)
      | Ast.Spec (Ast.Liveness_eventually e) ->
        boolean "spec expression" e
      | Ast.Spec (Ast.Safety_pair (p, q))
      | Ast.Spec (Ast.Liveness_leadsto (p, q)) ->
        boolean "spec expression" p;
        boolean "spec expression" q)
    src.Ast.decls;
  List.rev !errors
