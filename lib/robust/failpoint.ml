(* Fault injection for the chaos harness.

   A failpoint is a named site in the toolkit that can be armed to raise
   [Injected] with a given probability — the snapshot write path and
   dcheck's job entry call [hit].  Disarmed sites cost one hashtable
   probe on an empty table, and nothing at all is armed unless the
   process opts in, so production behaviour is untouched.

   Arming is programmatic ([set]) for in-process tests, or via the
   DETCOR_FAILPOINTS environment variable for spawned binaries:

     DETCOR_FAILPOINTS="checkpoint.write=0.3;seed=7"

   The draw stream is seeded (default 0) so a chaos run is replayable
   from its environment alone.  The RNG is guarded by a mutex, so a site
   may be hit from any domain. *)

exception Injected of string

let table : (string, float) Hashtbl.t = Hashtbl.create 8

let rng = ref (Random.State.make [| 0 |])

let lock = Mutex.create ()

let set name probability = Hashtbl.replace table name probability

let clear () = Hashtbl.reset table

let seed s = rng := Random.State.make [| s |]

(* "name=prob,name=prob;seed=N"; malformed segments are ignored — a chaos
   harness with a typo degrades to no injection, never to a crash. *)
let configure spec =
  String.split_on_char ';' spec
  |> List.iter (fun part ->
         match String.index_opt part '=' with
         | None -> ()
         | Some _ ->
           String.split_on_char ',' part
           |> List.iter (fun binding ->
                  match String.split_on_char '=' (String.trim binding) with
                  | [ "seed"; v ] ->
                    Option.iter seed (int_of_string_opt v)
                  | [ name; v ] when name <> "" -> (
                    match float_of_string_opt v with
                    | Some p when p > 0.0 -> set name p
                    | _ -> ())
                  | _ -> ()))

let () =
  match Sys.getenv_opt "DETCOR_FAILPOINTS" with
  | Some spec when spec <> "" -> configure spec
  | _ -> ()

let hit name =
  if Hashtbl.length table > 0 then
    match Hashtbl.find_opt table name with
    | None -> ()
    | Some p ->
      let draw =
        Mutex.lock lock;
        let d = Random.State.float !rng 1.0 in
        Mutex.unlock lock;
        d
      in
      if draw < p then raise (Injected name)

let armed name = Hashtbl.mem table name
