(* Graph algorithms over transition systems: reachability and Tarjan's
   strongly-connected components, both with an optional node mask so they
   can run on the subgraph induced by a region of states. *)

let no_mask : int -> bool = fun _ -> true

(* The breadth-first walks below use an n-slot int-array FIFO: a state
   enters the queue at most once (it is marked seen on entry), so [n]
   slots suffice and a push allocates nothing. *)

(* Forward reachability within the masked subgraph. *)
let reachable ?(mask = no_mask) ts ~from =
  let n = Ts.num_states ts in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  let push i =
    if mask i && not seen.(i) then begin
      seen.(i) <- true;
      queue.(!tail) <- i;
      incr tail
    end
  in
  List.iter push from;
  let on_edge _aid j = push j in
  while !head < !tail do
    Detcor_robust.Budget.tick ();
    let i = queue.(!head) in
    incr head;
    Ts.iter_out ts i on_edge
  done;
  seen

(* Backward reachability: states from which [target] is reachable within the
   masked subgraph, walking the reverse CSR of [ts]. *)
let co_reachable ?(mask = no_mask) ts ~target =
  let rev = Ts.reverse ts in
  let n = Ts.num_states ts in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  let push i =
    if mask i && not seen.(i) then begin
      seen.(i) <- true;
      queue.(!tail) <- i;
      incr tail
    end
  in
  List.iter push target;
  let on_edge _aid i = push i in
  while !head < !tail do
    Detcor_robust.Budget.tick ();
    let j = queue.(!head) in
    incr head;
    Ts.iter_in rev j on_edge
  done;
  seen

(* Shortest action-labeled path from any state of [from] to any state
   satisfying [target], inside the masked subgraph.  Returns the start
   index and the (action id, state id) steps. *)
let shortest_path ?(mask = no_mask) ts ~from ~target =
  let n = Ts.num_states ts in
  (* [parent.(j)] is the state [j] was first reached from ([-1] for a
     start), by action [via.(j)]. *)
  let parent = Array.make n (-1) and via = Array.make n 0 in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  let push ~from:i aid j =
    if mask j && not seen.(j) then begin
      seen.(j) <- true;
      parent.(j) <- i;
      via.(j) <- aid;
      queue.(!tail) <- j;
      incr tail
    end
  in
  List.iter (push ~from:(-1) 0) from;
  let found = ref (-1) in
  while !found < 0 && !head < !tail do
    let i = queue.(!head) in
    incr head;
    if target i then found := i else Ts.iter_out ts i (push ~from:i)
  done;
  if !found < 0 then None
  else begin
    let rec unwind i acc =
      if parent.(i) < 0 then (i, acc)
      else unwind parent.(i) ((via.(i), i) :: acc)
    in
    Some (unwind !found [])
  end

type scc = {
  id : int;
  members : int list;
  (* An SCC is trivial when it is a single state with no self-loop: it
     cannot host an infinite computation. *)
  trivial : bool;
}

let m_decompositions = Detcor_obs.Metrics.counter "graph.decompositions"

(* A lent row's target at edge offset [e], read with the primitive (no
   call per edge, whatever the build profile). *)
let target (row : Ts.row) e = Int32.to_int (Csr.get32 (row :> Bytes.t) (4 * e))

(* Tarjan's algorithm, iterative to survive deep graphs, on the subgraph
   induced by [inside] (the whole graph without it), roots taken in
   ascending state order.

   [index.(w)] is the one per-state column: [max_int] outside the set,
   [-1] unvisited, the discovery number while [w] is on the component
   stack, and [n + c] once [w] is popped into component [c].  Neither
   sentinel can lower a lowlink (both exceed every discovery number), so
   an edge costs one read of it, and the mask and the on-stack test are
   that same read; at the end the column becomes the component ids.
   Every other array is indexed by discovery number and sized by the
   set.  A call-stack frame holds its node and the node's lent row of
   targets ([Ts.with_out_row], fetched once on entry, read by
   [target]) with a cursor into it; a popped frame drops its row.
   A component is the top segment of the stack when its root completes,
   copied out as it stands: its members in discovery order.  The budget
   is ticked once per state. *)
let decompose ?inside ts : Ts.components =
  let n = Ts.num_states ts in
  let index, m =
    match inside with
    | None -> (Array.make n (-1), n)
    | Some set ->
      (Array.init n (fun i -> if Bitset.get set i then -1 else max_int),
       Bitset.cardinal set)
  in
  let lowlink = Array.make m 0 in
  let stack = Array.make m 0 and sp = ref 0 in
  let frame_node = Array.make m 0 and frame_row = Array.make m Ts.empty_row in
  let frame_pos = Array.make m 0 and frame_stop = Array.make m 0 in
  let depth = ref 0 in
  let members = Array.make m 0 and first = Array.make (m + 1) 0 in
  let looped = Bitset.create m (* by discovery number *)
  and cyclic = Bitset.create m (* by component *) in
  let counter = ref 0 and count = ref 0 in
  let set_row row lo hi =
    frame_row.(!depth) <- row;
    frame_pos.(!depth) <- lo;
    frame_stop.(!depth) <- hi
  in
  let enter v =
    Detcor_robust.Budget.tick ();
    let d = !counter in
    index.(v) <- d;
    lowlink.(d) <- d;
    counter := d + 1;
    stack.(!sp) <- v;
    incr sp;
    frame_node.(!depth) <- v;
    Ts.with_out_row ts v set_row;
    incr depth
  in
  (* [v], of discovery number [d], roots a component: pop it. *)
  let pop_component v d =
    let c = !count and top = !sp in
    while
      decr sp;
      stack.(!sp) <> v
    do
      ()
    done;
    for k = !sp to top - 1 do
      index.(stack.(k)) <- n + c
    done;
    let filled = first.(c) in
    Array.blit stack !sp members filled (top - !sp);
    first.(c + 1) <- filled + top - !sp;
    if top - !sp > 1 || Bitset.get looped d then Bitset.set cyclic c;
    count := c + 1
  in
  let visit root =
    enter root;
    while !depth > 0 do
      let top = !depth - 1 in
      let v = frame_node.(top) and row = frame_row.(top) in
      let stop = frame_stop.(top) in
      let d = index.(v) in
      let e = ref frame_pos.(top) and low = ref lowlink.(d) in
      let next = ref (-1) in
      while !next < 0 && !e < stop do
        let w = target row !e in
        incr e;
        let iw = Array.unsafe_get index w in
        if iw = -1 then next := w
        else begin
          if iw < !low then low := iw;
          if w = v then Bitset.set looped d
        end
      done;
      lowlink.(d) <- !low;
      if !next >= 0 then begin
        frame_pos.(top) <- !e;
        enter !next
      end
      else begin
        depth := top;
        frame_row.(top) <- Ts.empty_row;
        if top > 0 then begin
          let parent = index.(frame_node.(top - 1)) in
          if !low < lowlink.(parent) then lowlink.(parent) <- !low
        end;
        if !low = d then pop_component v d
      end
    done
  in
  for i = 0 to n - 1 do
    if index.(i) = -1 then visit i
  done;
  for i = 0 to n - 1 do
    let x = index.(i) in
    index.(i) <- (if x = max_int then -1 else x - n)
  done;
  {
    component = index;
    count = !count;
    members;
    first = Array.sub first 0 (!count + 1);
    cyclic;
  }

(* The decomposition of the whole graph, computed once per system. *)
let decomposition ts =
  Ts.components ts (fun ts ->
      Detcor_obs.Obs.span "graph.components" @@ fun () ->
      Detcor_obs.Metrics.incr m_decompositions;
      let c = decompose ts in
      if Detcor_obs.Obs.on () then
        Detcor_obs.Obs.annotate
          [
            Detcor_obs.Attr.int "states" (Ts.num_states ts);
            Detcor_obs.Attr.int "components" c.count;
            Detcor_obs.Attr.int "nontrivial" (Bitset.cardinal c.cyclic);
          ];
      c)

let members_of (c : Ts.components) k =
  List.init (c.first.(k + 1) - c.first.(k)) (fun i -> c.members.(c.first.(k) + i))

let scc_of (c : Ts.components) k =
  { id = k; members = members_of c k; trivial = not (Bitset.get c.cyclic k) }

let decompose_masked ?mask ts =
  match mask with
  | None -> decomposition ts
  | Some mask -> decompose ~inside:(Bitset.of_fn (Ts.num_states ts) mask) ts

let sccs ?mask ts =
  let c = decompose_masked ?mask ts in
  List.init c.count (scc_of c)

(* Component id of every node (or -1 outside the mask). *)
let scc_ids ?mask ts =
  let c = decompose_masked ?mask ts in
  (Array.copy c.component, List.init c.count (scc_of c))
