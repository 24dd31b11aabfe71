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

(** Tarjan's algorithm on the masked subgraph. *)
val sccs : ?mask:(int -> bool) -> Ts.t -> scc list

(** Component id per node ([-1] outside the mask), plus the components. *)
val scc_ids : ?mask:(int -> bool) -> Ts.t -> int array * scc list
