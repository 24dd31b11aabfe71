(* Elaboration of the surface syntax into kernel programs, fault classes,
   invariants and specifications. *)

open Detcor_kernel
open Detcor_spec
open Detcor_core

(* Elaboration failures are static typing/scoping problems, so they raise
   [Detcor_robust.Error.Detcor_error (Type_error _)]. *)
let error fmt = Detcor_robust.Error.type_error fmt

type elaborated = {
  program : Program.t;
  faults : Fault.t;
  invariant : Pred.t;
  spec : Spec.t;
  source : Ast.program;
}

(* Domains are materialized as value lists, so an absurd range like
   0..999999999 must be rejected here — with a typed error — rather than
   exhaust memory building it. *)
let max_domain_size = 1_000_000

let domain_of_decl = function
  | Ast.Dbool -> Domain.boolean
  | Ast.Drange (lo, hi) ->
    if lo > hi then error "empty range %d..%d" lo hi;
    (* hi - lo overflows to negative when the bounds span most of the int
       range; treat that as over the cap too. *)
    if hi - lo < 0 || hi - lo + 1 > max_domain_size then
      error "range %d..%d is too large (over %d values)" lo hi max_domain_size;
    Domain.range lo hi
  | Ast.Dsymbols names ->
    if names = [] then error "empty symbol domain";
    Domain.symbols names

type env = {
  vars : (string * Domain.t) list;
  preds : (string * Ast.expr) list;
}

(* Resolve an AST expression to a kernel expression.  Identifiers resolve,
   in order, to: a declared variable, a defined predicate (inlined, with
   cycle detection), or a symbolic constant. *)
let rec resolve env ~inlining = function
  | Ast.Ident x ->
    if List.mem_assoc x env.vars then Expr.var x
    else if List.mem_assoc x env.preds then begin
      if List.mem x inlining then
        error "predicate %s is defined in terms of itself" x;
      resolve env ~inlining:(x :: inlining) (List.assoc x env.preds)
    end
    else Expr.sym x
  | Ast.Int n -> Expr.int n
  | Ast.Bool b -> Expr.bool b
  | Ast.Not e -> Expr.not_ (resolve env ~inlining e)
  | Ast.If (c, a, b) ->
    Expr.ite (resolve env ~inlining c) (resolve env ~inlining a)
      (resolve env ~inlining b)
  | Ast.Binop (op, a, b) ->
    let a = resolve env ~inlining a and b = resolve env ~inlining b in
    let f =
      match op with
      | Ast.Band -> fun a b -> Expr.and_ [ a; b ]
      | Ast.Bor -> fun a b -> Expr.or_ [ a; b ]
      | Ast.Bimplies -> Expr.implies
      | Ast.Biff -> Expr.iff
      | Ast.Beq -> Expr.eq
      | Ast.Bneq -> Expr.neq
      | Ast.Blt -> Expr.lt
      | Ast.Ble -> Expr.le
      | Ast.Bgt -> Expr.gt
      | Ast.Bge -> Expr.ge
      | Ast.Badd -> Expr.add
      | Ast.Bsub -> Expr.sub
      | Ast.Bmul -> Expr.mul
      | Ast.Bmod -> Expr.mod_
    in
    f a b

let expr env e = resolve env ~inlining:[] e

let pred env ?name e =
  let kexpr = expr env e in
  Pred.of_expr ?name kexpr

(* The update list of an action: wildcard assignments ('x := ?') range
   over the variable's domain. *)
let updates env (assignments : Ast.assignment list) =
  List.map
    (fun (a : Ast.assignment) ->
      let domain =
        match List.assoc_opt a.target env.vars with
        | Some d -> d
        | None -> error "assignment to undeclared variable %s" a.target
      in
      match a.value with
      | Some e -> (a.target, Action.Expr (expr env e))
      | None -> (a.target, Action.Any domain))
    assignments

let action env (a : Ast.action_decl) =
  let guard = pred env ~name:(Fmt.str "guard(%s)" a.aname) a.guard in
  Action.update ?based_on:a.based_on a.aname guard (updates env a.assignments)

let spec_of_decls env name decls =
  let safety = ref Safety.top in
  let liveness = ref Liveness.top in
  List.iter
    (function
      | Ast.Spec (Ast.Safety_never e) ->
        safety := Safety.conj !safety (Safety.never (pred env e))
      | Ast.Spec (Ast.Safety_always e) ->
        safety := Safety.conj !safety (Safety.always (pred env e))
      | Ast.Spec (Ast.Safety_pair (p, q)) ->
        safety :=
          Safety.conj !safety (Safety.generalized_pair (pred env p) (pred env q))
      | Ast.Spec (Ast.Liveness_leadsto (p, q)) ->
        liveness :=
          Liveness.conj !liveness (Liveness.leads_to (pred env p) (pred env q))
      | Ast.Spec (Ast.Liveness_eventually e) ->
        liveness := Liveness.conj !liveness (Liveness.eventually (pred env e))
      | Ast.Var _ | Ast.Invariant _ | Ast.Pred_def _ | Ast.Action _ -> ())
    decls;
  Spec.make ~name:(Fmt.str "SPEC_%s" name) ~safety:!safety ~liveness:!liveness ()

let elaborate (src : Ast.program) =
  (match Typecheck.check src with
  | [] -> ()
  | problems ->
    error "%s" (String.concat "\n" problems));
  let vars =
    List.filter_map
      (function
        | Ast.Var (x, d) -> Some (x, domain_of_decl d)
        | _ -> None)
      src.decls
  in
  let preds =
    List.filter_map
      (function Ast.Pred_def (x, e) -> Some (x, e) | _ -> None)
      src.decls
  in
  let env = { vars; preds } in
  let action_decls =
    List.filter_map
      (function Ast.Action a -> Some a | _ -> None)
      src.decls
  in
  let program_actions =
    List.filter_map
      (fun (a : Ast.action_decl) ->
        if a.is_fault then None else Some (action env a))
      action_decls
  in
  let fault_actions =
    List.filter_map
      (fun (a : Ast.action_decl) ->
        if a.is_fault then Some (action env a) else None)
      action_decls
  in
  let invariants =
    List.filter_map
      (function Ast.Invariant e -> Some (expr env e) | _ -> None)
      src.decls
  in
  let invariant =
    match invariants with
    | [] -> Pred.true_
    | es -> Pred.of_expr ~name:"invariant" (Expr.and_ es)
  in
  let program =
    Program.make ~name:src.pname ~vars ~actions:program_actions
  in
  let faults = Fault.make (Fmt.str "F_%s" src.pname) fault_actions in
  let spec = spec_of_decls env src.pname src.decls in
  { program; faults; invariant; spec; source = src }

let load_file path = elaborate (Parser.parse_file path)
let load_string src = elaborate (Parser.parse_string src)
