(** Weak fairness (Section 2.1): each action continuously enabled along a
    computation is eventually executed.

    The central decision procedure asks whether a region admits an infinite
    weakly-fair computation confined to it — exact for finite systems via
    SCC analysis: a non-trivial SCC hosts a fair run iff every action
    enabled at all of its states has an edge internal to it.  {!trapped}
    is the one answer to "can p stay in R forever": the region's
    deadlocks and fair-SCC members, closed backward within the region.
    {!Check.leads_to} asks the forward form of the same question. *)

(** All fair SCCs of the masked subgraph: those that can host an
    infinite weakly-fair run. *)
val fair_sccs : ?mask:(int -> bool) -> Ts.t -> Graph.scc list

(** [trapped ts ~region].(i) iff some fair maximal computation from state
    [i] stays in [region] forever: [i] reaches, inside the region, a
    deadlock or a state of a fair SCC of the region.  [false] outside the
    region. *)
val trapped : Ts.t -> region:(int -> bool) -> bool array
