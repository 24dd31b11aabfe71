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

(* Tarjan's algorithm, iterative to survive deep graphs, restricted to the
   masked subgraph.  A call-stack frame holds its node and the node's
   lent row of targets ([Ts.with_out_row], fetched once on entry, read by
   [Ts.row_target]) with a cursor into it, and resumes the row at the
   cursor; a popped frame drops its row.  Each node is on the call stack and
   on the component stack at most once, so [n] slots bound both.  A node
   popped into its component gets index [max_int]: it can no longer lower
   a lowlink, which is all an on-stack test would decide. *)
let sccs ?(mask = no_mask) ts =
  let n = Ts.num_states ts in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let stack = Array.make n 0 and sp = ref 0 in
  let frame_node = Array.make n 0 and frame_row = Array.make n Ts.empty_row in
  let frame_pos = Array.make n 0 and frame_stop = Array.make n 0 in
  let depth = ref 0 in
  let set_row row lo hi =
    frame_row.(!depth) <- row;
    frame_pos.(!depth) <- lo;
    frame_stop.(!depth) <- hi
  in
  let counter = ref 0 in
  let components = ref [] in
  let enter v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack.(!sp) <- v;
    incr sp;
    frame_node.(!depth) <- v;
    Ts.with_out_row ts v set_row;
    incr depth
  in
  let visit root =
    enter root;
    while !depth > 0 do
      Detcor_robust.Budget.tick ();
      let top = !depth - 1 in
      let v = frame_node.(top) and e = frame_pos.(top) in
      if e < frame_stop.(top) then begin
        frame_pos.(top) <- e + 1;
        let w = Ts.row_target frame_row.(top) e in
        if mask w then
          if index.(w) = -1 then enter w
          else if index.(w) < lowlink.(v) then lowlink.(v) <- index.(w)
      end
      else begin
        depth := top;
        frame_row.(top) <- Ts.empty_row;
        if top > 0 then begin
          let parent = frame_node.(top - 1) in
          if lowlink.(v) < lowlink.(parent) then
            lowlink.(parent) <- lowlink.(v)
        end;
        if lowlink.(v) = index.(v) then begin
          (* v is the root of an SCC: pop it. *)
          let members = ref [] in
          let continue_ = ref true in
          while !continue_ do
            decr sp;
            let w = stack.(!sp) in
            index.(w) <- max_int;
            members := w :: !members;
            if w = v then continue_ := false
          done;
          components := !members :: !components
        end
      end
    done
  in
  for i = 0 to n - 1 do
    if mask i && index.(i) = -1 then visit i
  done;
  let rec self_loop v row e hi =
    e < hi && (Ts.row_target row e = v || self_loop v row (e + 1) hi)
  in
  let make_scc id members =
    let trivial =
      match members with
      | [ v ] -> not (Ts.with_out_row ts v (self_loop v))
      | _ -> false
    in
    { id; members; trivial }
  in
  List.mapi make_scc (List.rev !components)

(* Component id of every node (or -1 outside the mask). *)
let scc_ids ?(mask = no_mask) ts =
  let n = Ts.num_states ts in
  let ids = Array.make n (-1) in
  let components = sccs ~mask ts in
  List.iter
    (fun c -> List.iter (fun v -> ids.(v) <- c.id) c.members)
    components;
  (ids, components)
