(* Graph algorithms over transition systems: reachability and Tarjan's
   strongly-connected components, both with an optional node mask so they
   can run on the subgraph induced by a region of states. *)

let no_mask : int -> bool = fun _ -> true

(* Forward reachability within the masked subgraph. *)
let reachable ?(mask = no_mask) ts ~from =
  let n = Ts.num_states ts in
  let seen = Array.make n false in
  let queue = Queue.create () in
  List.iter
    (fun i ->
      if mask i && not seen.(i) then begin
        seen.(i) <- true;
        Queue.add i queue
      end)
    from;
  while not (Queue.is_empty queue) do
    Detcor_robust.Budget.tick ();
    let i = Queue.pop queue in
    Ts.iter_out ts i (fun _aid j ->
        if mask j && not seen.(j) then begin
          seen.(j) <- true;
          Queue.add j queue
        end)
  done;
  seen

(* Backward reachability: states from which [target] is reachable within the
   masked subgraph, walking the reverse CSR of [ts]. *)
let co_reachable ?(mask = no_mask) ts ~target =
  let rev = Ts.reverse ts in
  let seen = Array.make (Ts.num_states ts) false in
  let queue = Queue.create () in
  let add i =
    if mask i && not seen.(i) then begin
      seen.(i) <- true;
      Queue.add i queue
    end
  in
  List.iter add target;
  while not (Queue.is_empty queue) do
    Detcor_robust.Budget.tick ();
    Ts.iter_in rev (Queue.pop queue) (fun _aid i -> add i)
  done;
  seen

(* Shortest action-labeled path from any state of [from] to any state
   satisfying [target], inside the masked subgraph.  Returns the start
   index and the (action id, state id) steps. *)
let shortest_path ?(mask = no_mask) ts ~from ~target =
  let n = Ts.num_states ts in
  let parent = Array.make n None in
  let seen = Array.make n false in
  let queue = Queue.create () in
  let start_of = Array.make n (-1) in
  List.iter
    (fun i ->
      if mask i && not seen.(i) then begin
        seen.(i) <- true;
        start_of.(i) <- i;
        Queue.add i queue
      end)
    from;
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    if target i then found := Some i
    else
      Ts.iter_out ts i (fun aid j ->
          if mask j && not seen.(j) then begin
            seen.(j) <- true;
            parent.(j) <- Some (i, aid);
            start_of.(j) <- start_of.(i);
            Queue.add j queue
          end)
  done;
  match !found with
  | None -> None
  | Some goal ->
    let rec unwind i acc =
      match parent.(i) with
      | None -> (i, acc)
      | Some (p, aid) -> unwind p ((aid, i) :: acc)
    in
    let start, steps = unwind goal [] in
    Some (start, steps)

type scc = {
  id : int;
  members : int list;
  (* An SCC is trivial when it is a single state with no self-loop: it
     cannot host an infinite computation. *)
  trivial : bool;
}

(* Tarjan's algorithm, iterative to survive deep graphs, restricted to the
   masked subgraph. *)
let sccs ?(mask = no_mask) ts =
  let n = Ts.num_states ts in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let succs i =
    List.rev
      (Ts.fold_out ts i (fun acc _aid j -> if mask j then j :: acc else acc) [])
  in
  let visit root =
    (* Explicit call stack: (node, remaining successors). *)
    let call_stack = ref [ (root, succs root) ] in
    index.(root) <- !counter;
    lowlink.(root) <- !counter;
    incr counter;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !call_stack <> [] do
      Detcor_robust.Budget.tick ();
      match !call_stack with
      | [] -> ()
      | (v, remaining) :: rest -> (
        match remaining with
        | [] ->
          call_stack := rest;
          (match rest with
          | (parent, _) :: _ ->
            if lowlink.(v) < lowlink.(parent) then lowlink.(parent) <- lowlink.(v)
          | [] -> ());
          if lowlink.(v) = index.(v) then begin
            (* v is the root of an SCC: pop it. *)
            let members = ref [] in
            let continue_ = ref true in
            while !continue_ do
              match !stack with
              | [] -> continue_ := false
              | w :: tl ->
                stack := tl;
                on_stack.(w) <- false;
                members := w :: !members;
                if w = v then continue_ := false
            done;
            components := !members :: !components
          end
        | w :: ws ->
          call_stack := (v, ws) :: rest;
          if index.(w) = -1 then begin
            index.(w) <- !counter;
            lowlink.(w) <- !counter;
            incr counter;
            stack := w :: !stack;
            on_stack.(w) <- true;
            call_stack := (w, succs w) :: !call_stack
          end
          else if on_stack.(w) then
            if index.(w) < lowlink.(v) then lowlink.(v) <- index.(w))
    done
  in
  for i = 0 to n - 1 do
    if mask i && index.(i) = -1 then visit i
  done;
  let make_scc id members =
    let trivial =
      match members with
      | [ v ] -> not (Ts.fold_out ts v (fun acc _aid j -> acc || j = v) false)
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
