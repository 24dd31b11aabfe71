(** Reachability and strongly-connected components over transition systems,
    with an optional node mask to restrict to the subgraph induced by a
    region of states. *)

(** Forward reachability: [reachable ts ~from].(i) iff state [i] is
    reachable from [from] inside the masked subgraph. *)
val reachable : ?mask:(int -> bool) -> Ts.t -> from:int list -> bool array

(** Backward reachability: states from which [target] is reachable inside
    the masked subgraph, walked over the {!Ts.reverse} arrays. *)
val co_reachable : ?mask:(int -> bool) -> Ts.t -> target:int list -> bool array

(** Shortest action-labeled path from [from] to a state satisfying
    [target] inside the masked subgraph: the start index plus
    [(action id, state id)] steps. *)
val shortest_path :
  ?mask:(int -> bool) ->
  Ts.t ->
  from:int list ->
  target:(int -> bool) ->
  (int * (int * int) list) option

type scc = {
  id : int;
  members : int list;
  trivial : bool;
      (** single state with no self-loop — cannot host an infinite run *)
}

(** [decompose ?inside ts]: Tarjan's algorithm, iterative, on the
    subgraph induced by the states of [inside] (the whole graph without
    it), roots in ascending state order.  Each state's row is read once,
    through {!Ts.with_out_row}, so every store serves it. *)
val decompose : ?inside:Bitset.t -> Ts.t -> Ts.components

(** The decomposition of [ts]'s whole graph, {!decompose}d once per
    system and cached on it ({!Ts.components}); the first call runs in a
    [graph.components] span (attributes [states], [components],
    [nontrivial]) and bumps the [graph.decompositions] counter. *)
val decomposition : Ts.t -> Ts.components

(** Component [c] of a decomposition as an {!scc}. *)
val scc_of : Ts.components -> int -> scc

(** The SCCs of the masked subgraph, as {!decompose} completes them: the
    cached {!decomposition} without a mask. *)
val sccs : ?mask:(int -> bool) -> Ts.t -> scc list

(** Component id per node ([-1] outside the mask), plus the components. *)
val scc_ids : ?mask:(int -> bool) -> Ts.t -> int array * scc list
