(* F-tolerance of a program to a specification (Section 2.4).

   p is masking (resp. fail-safe, nonmasking) F-tolerant to SPEC from S iff
   (i) p refines SPEC from S, and (ii) there is a T ⊇ S such that p [] F
   refines the masking (resp. fail-safe, nonmasking) tolerance
   specification of SPEC from T.

   The checkers compute T as the F-span of S — the forward closure of S
   under p [] F, which is the smallest candidate and therefore complete:
   if any T works, the span works, because every set satisfying the
   closure conditions contains it.

   The proof obligations in the presence of faults follow the paper's own
   use of Assumption 2 (finitely many faults):
   - safety obligations are decided on the full p [] F graph (any safety
     violation occurs on a finite prefix, which some finite-fault
     computation realizes);
   - liveness obligations are decided on p alone from the span (after the
     finitely many faults stop, the remaining computation is a computation
     of p);
   - masking combines both via Theorem 5.2: safety of SSPEC over the span,
     convergence of p from the span to S, and refinement of SPEC from S
     imply refinement of SPEC from the span. *)

open Detcor_kernel
open Detcor_semantics
open Detcor_spec
open Detcor_obs

type item = {
  label : string;
  outcome : Check.outcome;
}

(* Wall time of each proof obligation, recorded when observability is on.
   [timed] evaluates [f] exactly once either way, so verdicts (and their
   order of computation) are identical with observability on or off. *)
let h_verdict = Metrics.histogram "check.verdict_ns"
let m_unknown = Metrics.counter "check.unknown_verdicts"

let count_unknown outcome =
  match outcome with
  | Check.Unknown _ when Obs.on () -> Metrics.incr m_unknown
  | _ -> ()

let timed label f =
  if not (Obs.on ()) then begin
    let outcome = f () in
    count_unknown outcome;
    { label; outcome }
  end
  else begin
    let t0 = Obs.now_ns () in
    let outcome = f () in
    let dt = Int64.to_int (Int64.sub (Obs.now_ns ()) t0) in
    Metrics.observe h_verdict dt;
    count_unknown outcome;
    Obs.event "tolerance.verdict"
      ~attrs:
        [
          Attr.str "item" label;
          Attr.bool "holds" (Check.holds outcome);
          Attr.int "ns" dt;
        ];
    { label; outcome }
  end

(* A resource-exhaustion exception, as the taxonomy's [resource] payload.
   [Ts.Too_large] is the legacy state-ceiling cliff; it is subsumed here
   so an exceeded exploration limit yields an [Unknown] verdict exactly
   like an exceeded budget dimension. *)
let resource_of_exn = function
  | Detcor_robust.Error.Detcor_error (Detcor_robust.Error.Resource r) ->
    Some r
  | Ts.Too_large n ->
    Some { Detcor_robust.Error.kind = Detcor_robust.Error.States;
           spent = n; budget = n }
  | _ -> None

type report = {
  subject : string;
  tol : Spec.tolerance;
  span_size : int;
  invariant_size : int;
  items : item list;
}

let verdict r = List.for_all (fun i -> Check.holds i.outcome) r.items

let failures r =
  List.filter
    (fun i -> match i.outcome with Check.Fails _ -> true | _ -> false)
    r.items

let unknowns r =
  List.filter
    (fun i -> match i.outcome with Check.Unknown _ -> true | _ -> false)
    r.items

let first_unknown r =
  List.find_map
    (fun i ->
      match i.outcome with Check.Unknown res -> Some res | _ -> None)
    r.items

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>%s: %a tolerance (invariant %d states, span %d states)@,%a@,=> %s@]"
    r.subject Spec.pp_tolerance r.tol r.invariant_size r.span_size
    Fmt.(
      list ~sep:cut (fun ppf i ->
          Fmt.pf ppf "  %-52s %a" i.label Check.pp_outcome i.outcome))
    r.items
    (if failures r <> [] then "VERDICT: FAILS"
     else
       match first_unknown r with
       | Some res ->
         Fmt.str "VERDICT: UNKNOWN (%s budget exhausted)"
           (Detcor_robust.Error.resource_kind_name res.kind)
       | None -> "VERDICT: holds")

(* ------------------------------------------------------------------ *)
(* Fault spans (Section 2.3).                                          *)
(* ------------------------------------------------------------------ *)

type span = {
  pred : Pred.t;
  states : State.t list;
  ts_pf : Ts.t; (* the explored p [] F system over the span *)
}

(* The F-span of p from S: smallest T with S ⇒ T, T closed in p, and T
   closed in F — i.e. the forward closure of the S-states under p [] F. *)
let fault_span ?limit ?engine p ~faults ~from =
  Obs.span "tolerance.fault_span" @@ fun () ->
  let composed = Fault.compose p faults in
  let ts_pf = Ts.of_pred ?limit ?engine composed ~from in
  let states = Ts.states ts_pf in
  let pred =
    Pred.of_states ~name:(Fmt.str "span(%s)" (Pred.name from)) states
  in
  if Obs.on () then Obs.annotate [ Attr.int "span_states" (List.length states) ];
  { pred; states; ts_pf }

(* ------------------------------------------------------------------ *)
(* "p refines SPEC from S" — correctness in the absence of faults.     *)
(* ------------------------------------------------------------------ *)

(* S must be closed in p, and every computation from S must be in SPEC
   (Section 2.2.1, Refines + Invariant), on [ts], p explored from S. *)
let refines_on ts ~spec ~invariant =
  Check.all [ Check.closed ts invariant; Spec.refines ts spec ]

let refines_from ?limit ?engine p ~spec ~invariant =
  let ts = Ts.of_pred ?limit ?engine p ~from:invariant in
  (ts, refines_on ts ~spec ~invariant)

(* ------------------------------------------------------------------ *)
(* Liveness in the presence of finitely many faults.                   *)
(* ------------------------------------------------------------------ *)

(* Does each "P leads to Q" obligation hold on every computation of
   p [] F (p-fair, p-maximal, finitely many fault steps)?

   A violating computation has a P∧¬Q state, stays in ¬Q forever, and —
   because fault steps are finite — decomposes into a finite p[]F path
   within ¬Q followed by either a p-deadlock in ¬Q or an infinite fair
   p-only run within ¬Q: {!Check.leads_to} with the reach taken in
   [ts_pf] and the stuck states in [ts_p]. *)
let liveness_under_faults ~ts_pf ~ts_p liveness =
  Check.all
    (List.map
       (fun (o : Liveness.obligation) ->
         Check.leads_to ~via:ts_pf ts_p o.from_ o.to_)
       (Liveness.obligations liveness))

(* ------------------------------------------------------------------ *)
(* The invariant states.                                               *)
(* ------------------------------------------------------------------ *)

(* The invariant states of the product space, enumerated as [Ts.of_pred]
   enumerates its seeds ([Ts.satisfying_states]).  The span records |S|
   ([states]) and the enumeration's visited nodes ([nodes]). *)
let m_enum_nodes = Metrics.counter "engine.enum.nodes"

let init_states ?engine p ~invariant =
  Obs.span "tolerance.init_states" @@ fun () ->
  let nodes0 = Metrics.counter_value m_enum_nodes in
  let states = Ts.satisfying_states ?engine p invariant in
  if Obs.on () then
    Obs.annotate
      [
        Attr.int "states" (List.length states);
        Attr.int "nodes" (Metrics.counter_value m_enum_nodes - nodes0);
      ];
  states

(* ------------------------------------------------------------------ *)
(* Verification sessions: the three tolerance checkers.                *)
(* ------------------------------------------------------------------ *)

(* The F-span depends only on p, F and S; the three classes differ only in
   which obligations they check over it.  A session builds each shared
   structure at most once, on first demand, and decides each obligation at
   most once: a class whose report includes an obligation another class
   already decided reuses that item. *)
type session = {
  subject : string;
  invariant_states : (State.t list, item) result Lazy.t;
      (* [Error]: the sweep itself ran out, and this item is every report *)
  base : (item * int) Lazy.t; (* "p refines SPEC from S", |p from S| *)
  span_ts : Ts.t option Lazy.t; (* p [] F over the span *)
  program_ts : Ts.t option Lazy.t; (* p alone over the span *)
  exhausted : Detcor_robust.Error.resource option ref;
  safety : item Lazy.t;
  convergence : item Lazy.t;
  recovery : item Lazy.t;
  liveness : item Lazy.t;
}

let session ?limit ?engine ?recover ?init p ~spec ~invariant ~faults =
  (* Exhaustion of the ambient budget (or of the exploration limit) inside
     any obligation is recorded in this one cell, shared by every class;
     that obligation — and every later one whose shared structures could
     not be built — reports [Unknown] instead of aborting the check, while
     obligations decided before the trip keep their verdicts.  With a
     generous budget nothing trips, no extra work runs, and each report is
     identical to the pre-budget one. *)
  let exhausted = ref None in
  let record e =
    match resource_of_exn e with
    | Some r ->
      if !exhausted = None then exhausted := Some r;
      Some r
    | None -> None
  in
  let guard f =
    match !exhausted with
    | Some r -> Check.Unknown r
    | None -> (
      try f ()
      with e -> (
        match record e with Some r -> Check.Unknown r | None -> raise e))
  in
  let structure f =
    match !exhausted with
    | Some _ -> None
    | None -> (
      try Some (f ())
      with e -> (match record e with Some _ -> None | None -> raise e))
  in
  let unknown () = Check.Unknown (Option.get !exhausted) in
  let invariant_states =
    match init with
    | Some init -> Lazy.from_val (Ok init)
    | None ->
      lazy
        (match init_states ?engine p ~invariant with
        | init -> Ok init
        | exception e -> (
          (* Exhaustion while enumerating the invariant itself still yields
             well-formed reports: one Unknown obligation, never an
             exception. *)
          match record e with
          | Some r ->
            let outcome = Check.Unknown r in
            count_unknown outcome;
            Error { label = "enumerate invariant states"; outcome }
          | None -> raise e))
  in
  (* Every structure below is forced only once the sweep succeeded. *)
  let init () = Result.get_ok (Lazy.force invariant_states) in
  let base =
    lazy
      (let size = ref 0 in
       let item =
         timed "p refines SPEC from S" (fun () ->
             guard (fun () ->
                 let ts = Ts.build ?limit ?engine p ~from:(init ()) in
                 size := Ts.num_states ts;
                 refines_on ts ~spec ~invariant))
       in
       (item, !size))
  in
  (* The span (forward closure of S under p [] F). *)
  let span_ts =
    lazy
      (structure (fun () ->
           Obs.span "tolerance.fault_span" @@ fun () ->
           let ts =
             Ts.build ?limit ?engine (Fault.compose p faults)
               ~from:(init ())
           in
           if Obs.on () then
             Obs.annotate [ Attr.int "span_states" (Ts.num_states ts) ];
           ts))
  in
  (* p alone, over the whole span: used for liveness after the faults
     stop.  Built on demand — the failsafe obligations never need it. *)
  let program_ts =
    lazy
      (match Lazy.force span_ts with
      | None -> None
      | Some span ->
        structure (fun () -> Ts.build_within ?limit ?engine p ~span))
  in
  let sspec = Spec.smallest_safety_containing spec in
  let safety =
    lazy
      (timed "p[]F refines SSPEC from span" (fun () ->
           match Lazy.force span_ts with
           | None -> unknown ()
           | Some ts_pf -> guard (fun () -> Spec.refines ts_pf sspec)))
  in
  (* Nonmasking: a suffix of every computation is in SPEC.  The paper's
     route (Theorem 4.3): converge to a recovery predicate R (default: the
     invariant S) from which SPEC is refined. *)
  let recover = Option.value recover ~default:invariant in
  let convergence =
    lazy
      (timed
         (Fmt.str "p converges from span to %s" (Pred.name recover))
         (fun () ->
           match Lazy.force program_ts with
           | None -> unknown ()
           | Some ts -> guard (fun () -> Check.eventually ts recover)))
  in
  let recovery =
    lazy
      (timed
         (Fmt.str "p refines SPEC from %s" (Pred.name recover))
         (fun () ->
           match Lazy.force span_ts with
           | None -> unknown ()
           | Some span ->
             guard (fun () ->
                 let ts_rec =
                   Ts.build_within ?limit ?engine ~where:recover p
                     ~span
                 in
                 refines_on ts_rec ~spec ~invariant:recover)))
  in
  (* Masking: computations of p [] F from the span are in SPEC — safety on
     the full p [] F graph, liveness under the finitely-many-faults
     semantics (Assumption 2). *)
  let liveness =
    lazy
      (timed "liveness of SPEC on p[]F from span" (fun () ->
           match (Lazy.force span_ts, Lazy.force program_ts) with
           | Some ts_pf, Some ts_p ->
             guard (fun () ->
                 liveness_under_faults ~ts_pf ~ts_p (Spec.liveness spec))
           | _ -> unknown ()))
  in
  {
    subject = Program.name p;
    invariant_states;
    base;
    span_ts;
    program_ts;
    exhausted;
    safety;
    convergence;
    recovery;
    liveness;
  }

let report s tol =
  Obs.span "tolerance.check"
    ~attrs:
      [
        Attr.str "program" s.subject;
        Attr.str "tolerance" (Fmt.str "%a" Spec.pp_tolerance tol);
      ]
  @@ fun () ->
  match Lazy.force s.invariant_states with
  | Error item ->
    { subject = s.subject; tol; span_size = 0; invariant_size = 0;
      items = [ item ] }
  | Ok _ ->
    (* Each class forces exactly its own obligations, in report order — an
       unused obligation is never evaluated, so e.g. a failsafe report
       never runs the convergence analysis it would not show. *)
    let base, invariant_size = Lazy.force s.base in
    let rest =
      List.map Lazy.force
        (match tol with
        | Spec.Failsafe -> [ s.safety ]
        | Spec.Nonmasking -> [ s.convergence; s.recovery ]
        | Spec.Masking -> [ s.safety; s.liveness ])
    in
    {
      subject = s.subject;
      tol;
      span_size =
        (match Lazy.force s.span_ts with
        | Some ts -> Ts.num_states ts
        | None -> 0);
      invariant_size;
      items = base :: rest;
    }

let span_system s =
  match Lazy.force s.invariant_states with
  | Error _ -> None
  | Ok _ -> Lazy.force s.span_ts

let program_system s =
  match Lazy.force s.invariant_states with
  | Error _ -> None
  | Ok _ -> Lazy.force s.program_ts

let exhausted s = !(s.exhausted)

let check_with ?limit ?engine ?recover p ~spec ~invariant ~init ~faults ~tol =
  report
    (session ?limit ?engine ?recover ~init p ~spec ~invariant ~faults)
    tol

let check ?limit ?engine ?workers:_ ?recover p ~spec ~invariant ~faults ~tol =
  report
    (session ?limit ?engine ?recover p ~spec ~invariant ~faults)
    tol

let is_failsafe ?limit ?engine p ~spec ~invariant ~faults =
  check ?limit ?engine p ~spec ~invariant ~faults ~tol:Spec.Failsafe

let is_nonmasking ?limit ?engine ?recover p ~spec ~invariant ~faults =
  check ?limit ?engine ?recover p ~spec ~invariant ~faults
    ~tol:Spec.Nonmasking

let is_masking ?limit ?engine p ~spec ~invariant ~faults =
  check ?limit ?engine p ~spec ~invariant ~faults ~tol:Spec.Masking

(* Classify: the reports for all three classes, masking first, over one
   shared session. *)
let classify ?limit ?engine ?recover p ~spec ~invariant ~faults =
  let s = session ?limit ?engine ?recover p ~spec ~invariant ~faults in
  List.map
    (fun tol -> (tol, report s tol))
    [ Spec.Masking; Spec.Failsafe; Spec.Nonmasking ]
