(* Decision procedures for the temporal notions of Section 2, over explicit
   transition systems.  Every check returns [Holds] or a counterexample. *)

open Detcor_kernel
open Detcor_obs

type violation =
  | Bad_state of State.t
  | Bad_transition of State.t * string * State.t
      (* source, action name, target *)
  | Deadlock of State.t
  | Fair_cycle of State.t list
  | Not_implied of State.t
      (* a state where an expected implication between predicates fails *)

type outcome =
  | Holds
  | Fails of violation
  | Unknown of Detcor_robust.Error.resource
      (* a resource budget ran out before the obligation was decided;
         sound in both directions: neither a proof nor a refutation *)

let holds = function Holds -> true | Fails _ | Unknown _ -> false
let known = function Unknown _ -> false | Holds | Fails _ -> true

let pp_violation ppf = function
  | Bad_state st -> Fmt.pf ppf "bad state %a" State.pp st
  | Bad_transition (s, ac, s') ->
    Fmt.pf ppf "bad transition %a -[%s]-> %a" State.pp s ac State.pp s'
  | Deadlock st -> Fmt.pf ppf "deadlock at %a" State.pp st
  | Fair_cycle sts ->
    Fmt.pf ppf "fair cycle through {%a}"
      Fmt.(list ~sep:(any "; ") State.pp)
      sts
  | Not_implied st -> Fmt.pf ppf "implication fails at %a" State.pp st

let pp_outcome ppf = function
  | Holds -> Fmt.string ppf "holds"
  | Fails v -> Fmt.pf ppf "fails: %a" pp_violation v
  | Unknown r -> Fmt.pf ppf "unknown: %a" Detcor_robust.Error.pp_resource r

(* First violation among a lazy sequence of candidates. *)
let first_fail checks =
  let rec go = function
    | [] -> Holds
    | check :: rest -> ( match check () with Holds -> go rest | f -> f)
  in
  go checks

(* ------------------------------------------------------------------ *)
(* Closure (Section 2.2, cl(S)): once S holds it continues to hold.    *)
(* ------------------------------------------------------------------ *)

(* [closed ts s]: no reachable transition leaves [s].  This is "p refines
   cl(S) from true" restricted to the explored (reachable) graph. *)
let closed ts s =
  Obs.span "check.closed" @@ fun () ->
  let s = Ts.pred_bitset ts s in
  let result = ref Holds in
  (try
     Ts.iter_edges ts (fun i aid j ->
         if Bitset.get s i && not (Bitset.get s j) then begin
           result :=
             Fails
               (Bad_transition
                  (Ts.state ts i, Action.name (Ts.action ts aid), Ts.state ts j));
           raise Exit
         end)
   with Exit -> ());
  !result

(* [closed_under_actions ~universe actions s]: every action preserves [s]
   over the whole universe — used for "T is closed in F" (Section 2.3),
   where F's actions must preserve T from anywhere, not only from reachable
   states. *)
let closed_under_actions ~universe actions s =
  Obs.span "check.closed_under_actions"
    ~attrs:[ Attr.int "actions" (List.length actions) ]
  @@ fun () ->
  let check_action ac () =
    let rec go = function
      | [] -> Holds
      | st :: rest ->
        Detcor_robust.Budget.tick ();
        if Pred.holds s st then
          let bad =
            List.find_opt (fun st' -> not (Pred.holds s st')) (Action.execute ac st)
          in
          match bad with
          | Some st' ->
            Fails (Bad_transition (st, Action.name ac, st'))
          | None -> go rest
        else go rest
    in
    go universe
  in
  first_fail (List.map check_action actions)

(* ------------------------------------------------------------------ *)
(* Generalized Hoare triples  {S} p {R}  (Section 2.2.1).              *)
(* ------------------------------------------------------------------ *)

(* Every reachable transition from an S-state lands in an R-state. *)
let hoare_triple ts ~pre ~post =
  Obs.span "check.hoare_triple" @@ fun () ->
  let pre = Ts.pred_bitset ts pre and post = Ts.pred_bitset ts post in
  let result = ref Holds in
  (try
     Ts.iter_edges ts (fun i aid j ->
         if Bitset.get pre i && not (Bitset.get post j) then begin
           result :=
             Fails
               (Bad_transition
                  (Ts.state ts i, Action.name (Ts.action ts aid), Ts.state ts j));
           raise Exit
         end)
   with Exit -> ());
  !result

(* ------------------------------------------------------------------ *)
(* Safety specifications as bad states + bad transitions.              *)
(* ------------------------------------------------------------------ *)

let safety ts ~bad_state ~bad_transition =
  Obs.span "check.safety" @@ fun () ->
  (* The closures read states, once per state and twice per edge: decode
     each state once. *)
  let st = Array.init (Ts.num_states ts) (Ts.state ts) in
  let result = ref Holds in
  (try
     Array.iter
       (fun s ->
         if bad_state s then begin
           result := Fails (Bad_state s);
           raise Exit
         end)
       st;
     Ts.iter_edges ts (fun i aid j ->
         if bad_transition st.(i) st.(j) then begin
           result :=
             Fails
               (Bad_transition
                  (st.(i), Action.name (Ts.action ts aid), st.(j)));
           raise Exit
         end)
   with Exit -> ());
  !result

(* Decomposed safety: when the specification is known to be a set of
   bad-state predicates plus bad (source, target) predicate pairs, the
   predicates are evaluated once per state through the engine's bitset
   cache instead of once per state *visit* through opaque closures, and
   the edge sweep is skipped entirely when there are no pairs — the
   common [never]/[always] case costs one pass over the states and never
   touches the (much larger) edge set.  The verdict, including which
   violation is reported first, is identical to {!safety}. *)
let safety_parts ts ~bad_states ~bad_pairs =
  Obs.span "check.safety" @@ fun () ->
  let result = ref Holds in
  (try
     (match bad_states with
     | [] -> ()
     | preds ->
       let sets = List.map (Ts.pred_bitset ts) preds in
       let n = Ts.num_states ts in
       for i = 0 to n - 1 do
         if List.exists (fun b -> Bitset.get b i) sets then begin
           result := Fails (Bad_state (Ts.state ts i));
           raise Exit
         end
       done);
     match bad_pairs with
     | [] -> ()
     | pairs ->
       let pairs =
         List.map
           (fun (s, r) -> (Ts.pred_bitset ts s, Ts.pred_bitset ts r))
           pairs
       in
       Ts.iter_edges ts (fun i aid j ->
           if
             List.exists
               (fun (bs, br) -> Bitset.get bs i && not (Bitset.get br j))
               pairs
           then begin
             result :=
               Fails
                 (Bad_transition
                    (Ts.state ts i, Action.name (Ts.action ts aid),
                     Ts.state ts j));
             raise Exit
           end)
   with Exit -> ());
  !result

(* ------------------------------------------------------------------ *)
(* Leads-to under weak fairness.                                       *)
(* ------------------------------------------------------------------ *)

(* [leads_to ts p q]: along every fair maximal computation, each state
   satisfying [p] is eventually followed by a state satisfying [q] (the
   state itself counts when it satisfies [q]).

   Violated iff from some reachable [p ∧ ¬q] state there is a fair maximal
   computation confined to [¬q]: either it reaches a deadlock inside [¬q],
   or it is an infinite fair run inside [¬q].  The reach is forward-closed
   within [¬q], so it is the fair-SCC mask as it stands.

   [~via] takes the starts and the reach in [via] and the deadlocks and
   fair SCCs in [ts]: with [via] = p [] F and [ts] = p over the same
   states, a finite p [] F prefix inside [¬q] then a p-deadlock or p-fair
   run inside [¬q] — leads-to under finitely many faults (Assumption 2). *)
let leads_to ?via ts p q =
  Obs.span "check.leads_to" @@ fun () ->
  let via = Option.value via ~default:ts in
  let p_bits = Ts.pred_bitset via p and q_bits = Ts.pred_bitset via q in
  let not_q i = not (Bitset.get q_bits i) in
  let starts = ref [] in
  for i = Ts.num_states via - 1 downto 0 do
    if Bitset.get p_bits i && not_q i then starts := i :: !starts
  done;
  let starts = !starts in
  if starts = [] then Holds
  else begin
    let reach = Graph.reachable ~mask:not_q via ~from:starts in
    let n = Ts.num_states ts in
    let region =
      if via == ts then reach
      else
        let to_via = Ts.index_map ~src:ts ~dst:via in
        Array.init n (fun i ->
            let j = to_via i in
            j >= 0 && reach.(j))
    in
    let rec deadlock i =
      if i >= n then None
      else if region.(i) && Ts.deadlocked ts i then Some i
      else deadlock (i + 1)
    in
    match deadlock 0 with
    | Some i -> Fails (Deadlock (Ts.state ts i))
    | None -> (
      match Fairness.fair_sccs ~mask:(Array.get region) ts with
      | scc :: _ -> Fails (Fair_cycle (List.map (Ts.state ts) scc.members))
      | [] -> Holds)
  end

(* [eventually ts q]: every fair maximal computation of the system (from its
   initial states — and hence from every reachable state, by suffix closure)
   reaches [q].  Equivalent to [leads_to true q]. *)
let eventually ts q = leads_to ts Pred.true_ q

(* ------------------------------------------------------------------ *)
(* Converges-to (Section 2.2).                                         *)
(* ------------------------------------------------------------------ *)

(* [converges ts s r]: "S converges to R in p" — cl(S), cl(R), and along
   computations, S implies eventually R. *)
let converges ts s r =
  Obs.span "check.converges" @@ fun () ->
  first_fail
    [
      (fun () -> closed ts s);
      (fun () -> closed ts r);
      (fun () -> leads_to ts s r);
    ]

(* ------------------------------------------------------------------ *)
(* Predicate implication over the system's states.                     *)
(* ------------------------------------------------------------------ *)

let implies ts a b =
  Obs.span "check.implies" @@ fun () ->
  let a = Ts.pred_bitset ts a and b = Ts.pred_bitset ts b in
  let rec go i =
    Detcor_robust.Budget.tick ();
    if i >= Ts.num_states ts then Holds
    else if Bitset.get a i && not (Bitset.get b i) then
      Fails (Not_implied (Ts.state ts i))
    else go (i + 1)
  in
  go 0

(* No reachable deadlock inside the region. *)
let deadlock_free ts ~inside =
  Obs.span "check.deadlock_free" @@ fun () ->
  let inside = Ts.pred_bitset ts inside in
  let rec go i =
    Detcor_robust.Budget.tick ();
    if i >= Ts.num_states ts then Holds
    else if Bitset.get inside i && Ts.deadlocked ts i then
      Fails (Deadlock (Ts.state ts i))
    else go (i + 1)
  in
  go 0

let all outcomes = first_fail (List.map (fun o () -> o) outcomes)
