(* Weak fairness (Section 2.1: each action continuously enabled along a
   computation is eventually executed).

   The key decision procedure: does a region of states admit an infinite
   weakly-fair computation that stays in the region forever?

   Characterization used (exact for finite systems): such a computation
   exists iff some non-trivial SCC [C] of the subgraph induced by the region
   satisfies: for every action [a] whose guard holds at EVERY state of [C],
   some edge of [a] connects two states of [C].

   - If the condition holds, a run cycling through all states and all
     internal edges of [C] is fair: any action enabled at all states visited
     infinitely often (i.e. at all of [C]) fires infinitely often via its
     internal edge, and any other action is disabled infinitely often, hence
     not continuously enabled.
   - Conversely, a run staying forever inside a set [L] of states must stay
     inside one SCC [C ⊇ L]; an action enabled on all of [C] is enabled on
     all of [L], and firing it from [L] would follow one of its edges — if
     none of its edges is internal to [C], none is internal to [L], so the
     run never fires a continuously enabled action: unfair.

   Containment: every SCC of the subgraph G[R] a region induces lies
   inside one SCC of the whole graph G, and a trivial SCC of G stays
   trivial in G[R].  So the nontrivial SCCs of G[R] are those of G[C ∩ R]
   over the nontrivial components C of G: each system's G is decomposed
   once ([Graph.decomposition]), and a region re-decomposes only the
   nontrivial components it meets.  Witness rule: when a region has a
   fair SCC, [fair_sccs] decomposes the whole masked subgraph with roots
   in ascending order and lists its fair SCCs in that order, so a
   [Fair_cycle] witness is the same whichever way it was found. *)

(* [fair ts ~enabled d c]: can component [c] of the decomposition [d]
   host an infinite weakly-fair run?  [enabled.(aid)] is action [aid]'s
   enabled set, fetched once per call; an edge is internal when its
   target's component is [c]. *)
let fair ts ~enabled (d : Ts.components) c =
  Bitset.get d.cyclic c
  && begin
    let enabled = Lazy.force enabled in
    let num_actions = Array.length enabled in
    let enabled_everywhere = Array.make num_actions true in
    let lo = d.first.(c) and hi = d.first.(c + 1) in
    for k = lo to hi - 1 do
      Detcor_robust.Budget.tick ();
      let v = d.members.(k) in
      for aid = 0 to num_actions - 1 do
        if enabled_everywhere.(aid) && not (Bitset.get enabled.(aid) v) then
          enabled_everywhere.(aid) <- false
      done
    done;
    let has_internal_edge = Array.make num_actions false in
    for k = lo to hi - 1 do
      Ts.iter_out ts d.members.(k) (fun aid j ->
          if d.component.(j) = c then has_internal_edge.(aid) <- true)
    done;
    let ok = ref true in
    for aid = 0 to num_actions - 1 do
      if enabled_everywhere.(aid) && not has_internal_edge.(aid) then ok := false
    done;
    !ok
  end

let enabled_sets ts =
  lazy (Array.init (Ts.num_actions ts) (Ts.enabled_bitset ts))

(* The fair components of [d], ascending. *)
let fair_components ts ~enabled (d : Ts.components) =
  List.filter (fair ts ~enabled d) (List.init d.count Fun.id)

(* The fair SCCs of the subgraph induced by [region], as sets: the
   decomposition of [region]'s states in the nontrivial components of the
   whole graph (cached on [ts]), with its fair components.  Every SCC of
   the region's subgraph lies inside one SCC of the whole graph, and a
   trivial one stays trivial, so the nontrivial SCCs of the region are
   exactly those of this smaller subgraph.  [None] when the region meets
   no nontrivial component. *)
let fair_in_region ts ~enabled region =
  let whole = Graph.decomposition ts in
  let n = Ts.num_states ts in
  let inside = Bitset.create n in
  for i = 0 to n - 1 do
    if Bitset.get whole.cyclic whole.component.(i) && region i then
      Bitset.set inside i
  done;
  if not (Bitset.any inside) then None
  else
    let d = Graph.decompose ~inside ts in
    Some (d, fair_components ts ~enabled d)

let annotate ~sccs ~fair =
  if Detcor_obs.Obs.on () then
    Detcor_obs.Obs.annotate
      [ Detcor_obs.Attr.int "sccs" sccs; Detcor_obs.Attr.int "fair" fair ]

(* All SCCs of the masked subgraph that can host a fair infinite run, in
   the order Tarjan's algorithm on the masked subgraph completes them.
   Unmasked, they are read off the system's decomposition.  Masked, the
   region's nontrivial components decide whether there are any; only then
   is the masked subgraph decomposed whole, rooted in ascending order, so
   the list and each member list are those of that decomposition. *)
let fair_sccs ?mask ts =
  Detcor_obs.Obs.span "fairness.fair_sccs" @@ fun () ->
  let enabled = enabled_sets ts in
  let listed (d : Ts.components) =
    let fair = fair_components ts ~enabled d in
    annotate ~sccs:d.count ~fair:(List.length fair);
    List.map (Graph.scc_of d) fair
  in
  match mask with
  | None -> listed (Graph.decomposition ts)
  | Some mask -> (
    match fair_in_region ts ~enabled mask with
    | None | Some (_, []) ->
      annotate ~sccs:0 ~fair:0;
      []
    | Some (_, _ :: _) ->
      listed
        (Graph.decompose ~inside:(Bitset.of_fn (Ts.num_states ts) mask) ts))

(* [trapped ts ~region]: the region's states from which some fair maximal
   computation stays in the region forever — those that reach, within the
   region, a deadlock or a member of a fair SCC of the region.  A
   deadlock ends a finite maximal computation; a fair SCC hosts an
   infinite fair run (see above).  Only the SCCs' members matter, so they
   come from the region's nontrivial components alone. *)
let trapped ts ~region =
  let stuck = ref [] in
  for i = Ts.num_states ts - 1 downto 0 do
    if region i && Ts.deadlocked ts i then stuck := i :: !stuck
  done;
  (Detcor_obs.Obs.span "fairness.fair_sccs" @@ fun () ->
   match fair_in_region ts ~enabled:(enabled_sets ts) region with
   | None -> annotate ~sccs:0 ~fair:0
   | Some (d, fair) ->
     annotate ~sccs:d.count ~fair:(List.length fair);
     List.iter
       (fun c ->
         for k = d.first.(c) to d.first.(c + 1) - 1 do
           stuck := d.members.(k) :: !stuck
         done)
       fair);
  if !stuck = [] then Array.make (Ts.num_states ts) false
  else Graph.co_reachable ~mask:region ts ~target:!stuck
