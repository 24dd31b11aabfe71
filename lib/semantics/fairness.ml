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
     run never fires a continuously enabled action: unfair. *)

(* [fair_scc ts ~stamp ~enabled scc]: can this SCC host an infinite
   weakly-fair run?  [stamp] is membership, shared by all the SCCs of one
   call: a member of the SCC with id [c] has stamp [c + 1].
   [enabled.(aid)] is action [aid]'s enabled set, fetched once per call. *)
let fair_scc ts ~stamp ~enabled (scc : Graph.scc) =
  if scc.trivial then None
  else begin
    let mark = scc.id + 1 in
    List.iter (fun v -> stamp.(v) <- mark) scc.members;
    let num_actions = Array.length enabled in
    let enabled_everywhere = Array.make num_actions true in
    List.iter
      (fun v ->
        Detcor_robust.Budget.tick ();
        for aid = 0 to num_actions - 1 do
          if enabled_everywhere.(aid) && not (Bitset.get enabled.(aid) v) then
            enabled_everywhere.(aid) <- false
        done)
      scc.members;
    let has_internal_edge = Array.make num_actions false in
    List.iter
      (fun v ->
        Ts.iter_out ts v (fun aid j ->
            if stamp.(j) = mark then has_internal_edge.(aid) <- true))
      scc.members;
    let ok = ref true in
    for aid = 0 to num_actions - 1 do
      if enabled_everywhere.(aid) && not has_internal_edge.(aid) then ok := false
    done;
    if !ok then Some scc else None
  end

(* All SCCs of the masked subgraph that can host a fair infinite run. *)
let fair_sccs ?mask ts =
  Detcor_obs.Obs.span "fairness.fair_sccs" @@ fun () ->
  let components = Graph.sccs ?mask ts in
  let fair =
    if List.for_all (fun (c : Graph.scc) -> c.trivial) components then []
    else
      let stamp = Array.make (Ts.num_states ts) 0 in
      let enabled = Array.init (Ts.num_actions ts) (Ts.enabled_bitset ts) in
      List.filter_map (fair_scc ts ~stamp ~enabled) components
  in
  if Detcor_obs.Obs.on () then
    Detcor_obs.Obs.annotate
      [
        Detcor_obs.Attr.int "sccs" (List.length components);
        Detcor_obs.Attr.int "fair" (List.length fair);
      ];
  fair

(* [trapped ts ~region]: the region's states from which some fair maximal
   computation stays in the region forever — those that reach, within the
   region, a deadlock or a member of a fair SCC of the region.  A
   deadlock ends a finite maximal computation; a fair SCC hosts an
   infinite fair run (see above). *)
let trapped ts ~region =
  let stuck = ref [] in
  for i = Ts.num_states ts - 1 downto 0 do
    if region i && Ts.deadlocked ts i then stuck := i :: !stuck
  done;
  List.iter
    (fun (scc : Graph.scc) -> stuck := List.rev_append scc.members !stuck)
    (fair_sccs ~mask:region ts);
  if !stuck = [] then Array.make (Ts.num_states ts) false
  else Graph.co_reachable ~mask:region ts ~target:!stuck
