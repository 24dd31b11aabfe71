(* The four workloads, their job lists, and the answers every job must
   reach.

   A job is one dcheck invocation.  Jobs are grouped into units that run
   back to back in one workspace: a unit is a single job, except on
   simulate-monitor where [monitor] replays the stream its [simulate]
   recorded.  A pass runs every unit once; [--seed] shuffles the unit
   order of each pass and draws the [simulate --seed] values. *)

type sub =
  | Verify
  | Synthesize of string  (** tolerance class *)
  | Simulate of { runs : int; steps : int option; sim_seed : int }
  | Monitor

type job = { key : string; model : string; sub : sub }

type t = {
  name : string;
  warmup : int;  (** warm-up passes; their median wall time is [setup_s] *)
  units : job list list;
}

let model_path name = Filename.concat "examples/dc" (name ^ ".dc")
let verify m = [ { key = "verify " ^ m; model = m; sub = Verify } ]

let synthesize m tol =
  [ { key = Fmt.str "synthesize %s %s" m tol; model = m; sub = Synthesize tol } ]

let stream_file unit_dir = Filename.concat unit_dir "run.stream"

(* The dcheck arguments of [job]; [unit_dir] is the unit's workspace. *)
let args job ~unit_dir =
  let file = model_path job.model in
  match job.sub with
  | Verify -> [ "verify"; file ]
  | Synthesize tol -> [ "synthesize"; file; "--tolerance"; tol ]
  | Simulate { runs; steps; sim_seed } ->
    [ "simulate"; file; "--runs"; string_of_int runs ]
    @ (match steps with
      | Some s -> [ "--steps"; string_of_int s ]
      | None -> [])
    @ [ "--seed"; string_of_int sim_seed; "--record"; stream_file unit_dir ]
  | Monitor -> [ "monitor"; file; "--stream"; stream_file unit_dir ]

let names = [ "verify-small"; "verify-large"; "synthesize"; "simulate-monitor" ]

let make ~seed name =
  let rng = Random.State.make [| seed |] in
  let sim m ~runs ~steps =
    let sim_seed = 1 + Random.State.int rng 1_000_000 in
    [
      { key = "simulate " ^ m; model = m; sub = Simulate { runs; steps; sim_seed } };
      { key = "monitor " ^ m; model = m; sub = Monitor };
    ]
  in
  match name with
  | "verify-small" ->
    Some
      {
        name;
        warmup = 100;
        units =
          List.map verify
            [ "barrier"; "leader"; "memory"; "memory_intolerant"; "tmr"; "token_ring" ];
      }
  | "verify-large" ->
    Some { name; warmup = 5; units = List.map verify [ "byz4"; "reset7"; "ring5" ] }
  | "synthesize" ->
    Some
      {
        name;
        warmup = 3;
        units =
          [
            synthesize "byz4" "masking"; synthesize "ring5" "nonmasking";
            synthesize "reset7" "nonmasking"; synthesize "ring5" "failsafe";
          ];
      }
  | "simulate-monitor" ->
    Some
      {
        name;
        warmup = 5;
        units =
          [ sim "ring5" ~runs:400 ~steps:(Some 400); sim "byz4" ~runs:200 ~steps:None ];
      }
  | _ -> None

let jobs w = List.concat w.units

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Expected answers.                                                   *)
(* ------------------------------------------------------------------ *)

type exit_rule =
  | Exit of int
  | Exit_if_violations  (** 1 exactly when the run saw a safety violation *)

type expected = { exit : exit_rule; lines : string list }

(* bench/perf/expected.txt: [key | exit | lines | source], lines separated
   by " ; ", "-" for none.  The source column documents where the answer
   comes from and is not read. *)
let load_expected path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match List.map String.trim (String.split_on_char '|' line) with
           | key :: exit :: lines :: _source ->
             let exit =
               match exit with
               | "violations" -> Exit_if_violations
               | n -> (
                 match int_of_string_opt n with
                 | Some n -> Exit n
                 | None -> failwith ("expected.txt: bad exit field: " ^ line))
             in
             let lines =
               if lines = "-" then []
               else List.map String.trim (String.split_on_char ';' lines)
             in
             Some (key, { exit; lines })
           | _ -> failwith ("expected.txt: malformed line: " ^ line))

let output_lines text = List.map String.trim (String.split_on_char '\n' text)

(* The verdict lines of a job's combined stdout and stderr. *)
let verdict_lines text =
  List.filter_map
    (fun l ->
      if String.starts_with ~prefix:"=> VERDICT:" l then
        Some (String.sub l 3 (String.length l - 3))
      else if
        String.starts_with ~prefix:"synthesized " l
        || String.starts_with ~prefix:"synthesis failed" l
      then Some l
      else None)
    (output_lines text)

(* "safety violations: a/b" as (a, b), from simulate or monitor output. *)
let violations text =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix:"safety violations: " l then
        Scanf.sscanf_opt l "safety violations: %d/%d" (fun a b -> (a, b))
      else None)
    (output_lines text)

(* [None] when [code] and [text] match [e], else the reason. *)
let mismatch (e : expected) ~code ~text =
  let want_exit =
    match e.exit with
    | Exit n -> Some n
    | Exit_if_violations -> (
      match violations text with
      | Some (a, _) -> Some (if a > 0 then 1 else 0)
      | None -> None)
  in
  match want_exit with
  | None -> Some "no \"safety violations\" line"
  | Some want when want <> code -> Some (Fmt.str "exit %d, expected %d" code want)
  | Some _ ->
    let got = verdict_lines text in
    if got = e.lines then None
    else
      Some
        (Fmt.str "verdict lines [%s], expected [%s]" (String.concat "; " got)
           (String.concat "; " e.lines))
