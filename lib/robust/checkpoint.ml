(* Crash-safe snapshots of long-running fixpoints.

   The paper reads fault tolerance as a detector (notice the bad state)
   composed with a corrector (converge back to the invariant).  This
   module is the toolkit practicing that decomposition on itself: the
   detector is whatever interrupts a run — a tripped budget, a SIGKILL,
   a lost worker — and the corrector is the last persisted snapshot,
   from which a resumed run converges to the same verdict it would have
   produced uninterrupted.

   A run under [start] is a deterministic sequence of *phases*: the
   packed engine's BFS, the synthesis backward fixpoints, the recovery
   layering, the simulator's run loop.  Each phase [enter]s in program
   order and receives a dense step number; because the toolkit is
   deterministic, the same command replays the same phase sequence, so
   a snapshot taken at step k can be consumed positionally by the next
   run.  Phases serialize their own loop state (packed ranks, CSR
   prefixes, bitset words — never closures) to strings with [Marshal];
   this module only moves those strings.

   The file format is versioned and checksummed, and every write goes
   to a temporary file in the same directory followed by [Sys.rename],
   so a reader only ever observes a complete snapshot or the previous
   one — never a torn write.  Any defect found while loading (truncated
   payload, checksum mismatch, foreign fingerprint) raises the
   resource-class [Error.Snapshot], never [Internal]: a damaged
   recovery artifact is an environmental fault, not a toolkit bug.

   Periodic writes ride the existing [Budget] cooperative checkpoints:
   [Budget.tick]/[count_state] call [pulse], which saves when the
   monotonic interval has elapsed (suspends and NTP jumps cannot starve
   or spuriously fire it).  Only the domain that called [start] writes;
   pulses from worker domains are no-ops, so captures always observe
   loop state at a consistent point of the orchestrating domain. *)

open Detcor_obs

let m_written = Metrics.counter "robust.snapshots_written"
let m_errors = Metrics.counter "robust.snapshot_errors"
let m_resumed = Metrics.counter "robust.phases_resumed"
let h_bytes = Metrics.histogram "robust.snapshot_bytes"

(* ------------------------------------------------------------------ *)
(* File format.                                                        *)
(* ------------------------------------------------------------------ *)

let magic = "DCSNAP01"

(* Version 2: the [ts.bfs] payload holds its edge columns as [Bytes]
   (16-bit labels, 32-bit targets) where version 1 held [int array]s.
   Version 3: the [synth.recovery] payloads carry the anti-undo veto
   flag.  [Marshal] is not type-safe, so an older file is refused here
   rather than misread.  The edge columns are native-endian words, which
   [Marshal] copies as raw bytes, so the file also records its writer's
   byte order, and a host of the other order refuses it. *)
let format_version = 3

type entry = { step : int; kind : string; complete : bool; data : string }

type file_record = {
  f_version : int;
  f_ocaml : string; (* Marshal payloads do not cross compiler versions *)
  f_big_endian : bool; (* nor do raw native-endian words in [Bytes] *)
  f_fingerprint : string;
  f_entries : entry array;
}

(* FNV-1a 64-bit over the payload bytes: enough to reject the torn and
   bit-flipped files the chaos harness produces, with no dependencies. *)
let fnv64 ?(off = 0) s =
  let h = ref 0xcbf29ce484222325L in
  for i = off to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

(* Length-prefixing each part keeps ["ab";"c"] and ["a";"bc"] distinct. *)
let digest parts =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    parts;
  Printf.sprintf "%016Lx" (fnv64 (Buffer.contents buf))

(* Header: 8 magic bytes, 16 hex payload-length bytes, 16 hex checksum
   bytes; then the marshalled payload. *)
let header_len = 40

let write_file ~path ~fingerprint entries =
  Failpoint.hit "checkpoint.write";
  let payload =
    Marshal.to_string
      {
        f_version = format_version;
        f_ocaml = Sys.ocaml_version;
        f_big_endian = Sys.big_endian;
        f_fingerprint = fingerprint;
        f_entries = entries;
      }
      []
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc magic;
     output_string oc (Printf.sprintf "%016x" (String.length payload));
     output_string oc (Printf.sprintf "%016Lx" (fnv64 payload));
     output_string oc payload;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  String.length payload

let read_file ~path =
  (* Read in one allocation of the file's size, and checksum and
     unmarshal the payload in place: a spilled shard segment is reloaded
     through here, and every copy is garbage the heap budget sees. *)
  let contents =
    try
      In_channel.with_open_bin path (fun ic ->
          really_input_string ic (in_channel_length ic))
    with
    | Sys_error m | Failure m -> Error.snapshot ~path "cannot read: %s" m
    | End_of_file -> Error.snapshot ~path "cannot read: file shrank"
  in
  let fail fmt = Error.snapshot ~path fmt in
  if String.length contents < header_len then
    fail "truncated header (%d of %d bytes)" (String.length contents)
      header_len;
  if not (String.equal (String.sub contents 0 8) magic) then
    fail "not a detcor snapshot (bad magic)";
  (* The checksum is parsed as [Int64]: hex literals cover the full
     unsigned range there, while a set top bit overflows OCaml's int.
     A field must read back in the exact form [write_file] prints, so a
     flipped letter case is damage too, not an equal value. *)
  let field off parse print =
    let text = String.sub contents off 16 in
    match parse ("0x" ^ text) with
    | Some v when String.equal (print v) text -> v
    | _ -> fail "unreadable header field"
  in
  let len = field 8 int_of_string_opt (Printf.sprintf "%016x") in
  let sum = field 24 Int64.of_string_opt (Printf.sprintf "%016Lx") in
  if String.length contents <> header_len + len then
    fail "truncated payload (%d of %d bytes)"
      (String.length contents - header_len)
      len;
  if not (Int64.equal (fnv64 ~off:header_len contents) sum) then
    fail "checksum mismatch (damaged file)";
  let record : file_record =
    try Marshal.from_string contents header_len
    with Failure _ -> fail "undecodable payload"
  in
  if record.f_version <> format_version then
    fail "format version %d (this binary reads %d)" record.f_version
      format_version;
  if not (String.equal record.f_ocaml Sys.ocaml_version) then
    fail "written by OCaml %s (this binary is %s)" record.f_ocaml
      Sys.ocaml_version;
  if record.f_big_endian <> Sys.big_endian then begin
    let order b = if b then "big-endian" else "little-endian" in
    fail "written on a %s host (this one is %s)" (order record.f_big_endian)
      (order Sys.big_endian)
  end;
  (record.f_fingerprint, record.f_entries)

(* ------------------------------------------------------------------ *)
(* Sessions.                                                           *)
(* ------------------------------------------------------------------ *)

type phase_data = {
  p_step : int;
  p_kind : string;
  mutable p_capture : (unit -> string) option;
  (* A partial payload restored from the resumed file is kept until the
     phase registers its own capture, so an early save never loses it. *)
  mutable p_resumed : entry option;
}

(* [None] is the inert phase handed out when no session is active. *)
type phase = phase_data option

type session = {
  write_path : string option;
  interval_ns : int64;
  fingerprint : string;
  owner : int; (* only this domain's pulses write *)
  resume_entries : (int, entry) Hashtbl.t;
  mutable next_step : int;
  completed : (int, entry Lazy.t) Hashtbl.t;
      (* completed phases, by step; a payload is computed at the first
         save that needs it *)
  mutable stack : phase_data list; (* active phases, innermost first *)
  mutable last_save_ns : int64;
  mutable last_save_dur_ns : int64;
}

let current : session option ref = ref None

(* Read from [Budget.tick]'s fast path (including worker domains): a
   plain flag, racy reads are benign because [pulse] re-checks. *)
let armed_flag = ref false

let active () = !current <> None

let armed () = !armed_flag

let default_interval = 30.0

let start ?(interval = default_interval) ?write ?resume ~fingerprint () =
  let resume_entries = Hashtbl.create 16 in
  (match resume with
  | None -> ()
  | Some path ->
    let fp, entries = read_file ~path in
    if not (String.equal fp fingerprint) then
      Error.snapshot ~path
        "fingerprint mismatch: snapshot is from a different program or \
         command line";
    Array.iter (fun e -> Hashtbl.replace resume_entries e.step e) entries;
    if Obs.on () then
      Obs.event "robust.resume"
        ~attrs:
          [ Attr.str "path" path; Attr.int "entries" (Array.length entries) ]);
  current :=
    Some
      {
        write_path = write;
        interval_ns = Int64.of_float (interval *. 1e9);
        fingerprint;
        owner = (Stdlib.Domain.self () :> int);
        resume_entries;
        next_step = 0;
        completed = Hashtbl.create 16;
        stack = [];
        last_save_ns = Obs.now_ns ();
        last_save_dur_ns = 0L;
      };
  armed_flag := write <> None

let entries_of s =
  let act =
    List.filter_map
      (fun p ->
        match p.p_capture with
        | Some capture ->
          Some { step = p.p_step; kind = p.p_kind; complete = false;
                 data = capture () }
        | None -> p.p_resumed)
      s.stack
  in
  List.sort
    (fun a b -> Int.compare a.step b.step)
    (Hashtbl.fold (fun _ e acc -> Lazy.force e :: acc) s.completed act)
  |> Array.of_list

(* Write the session's current entries.  A failed write (full disk, an
   armed failpoint) is counted and reported but never aborts the run:
   losing a snapshot only loses progress insurance, not correctness. *)
let save s =
  match s.write_path with
  | None -> ()
  | Some path -> (
    s.last_save_ns <- Obs.now_ns ();
    match write_file ~path ~fingerprint:s.fingerprint (entries_of s) with
    | bytes ->
      s.last_save_dur_ns <- Int64.sub (Obs.now_ns ()) s.last_save_ns;
      Metrics.incr m_written;
      Metrics.observe h_bytes bytes;
      if Obs.on () then
        Obs.event "robust.snapshot" ~level:Attr.Debug
          ~attrs:[ Attr.str "path" path; Attr.int "bytes" bytes ]
    | exception (Sys_error _ | Failpoint.Injected _) ->
      Metrics.incr m_errors;
      if Obs.on () then
        Obs.event "robust.snapshot_error" ~level:Attr.Warn
          ~attrs:[ Attr.str "path" path ])

let on_owner s = (Stdlib.Domain.self () :> int) = s.owner

(* Amortized pacing: when snapshots grow large enough that a single
   write outlasts the configured interval, pure wall-clock pacing would
   put the run back into [save] the moment it returns, spending nearly
   all of its time serializing.  Requiring the gap to also exceed a
   multiple of the previous save's own duration bounds snapshot cost to
   a fixed fraction of the run, however big the payload gets. *)
let min_gap s =
  let amortized = Int64.mul 4L s.last_save_dur_ns in
  if Int64.compare amortized s.interval_ns > 0 then amortized
  else s.interval_ns

let pulse () =
  match !current with
  | Some s when s.write_path <> None && on_owner s ->
    if Int64.sub (Obs.now_ns ()) s.last_save_ns >= min_gap s then save s
  | _ -> ()

let stop () =
  (match !current with Some s when on_owner s -> save s | _ -> ());
  current := None;
  armed_flag := false

(* ------------------------------------------------------------------ *)
(* Phases.                                                             *)
(* ------------------------------------------------------------------ *)

type resumed = Midway of string | Done of string

let enter ~kind : phase =
  match !current with
  | None -> None
  | Some s when not (on_owner s) -> None
  | Some s ->
    let step = s.next_step in
    s.next_step <- step + 1;
    let resumed = Hashtbl.find_opt s.resume_entries step in
    (match resumed with
    | Some e when not (String.equal e.kind kind) ->
      Error.snapshot
        ~path:(Option.value s.write_path ~default:"<resume>")
        "phase %d is %S in the snapshot but %S in this run" step e.kind kind
    | Some e ->
      Metrics.incr m_resumed;
      if Obs.on () then
        Obs.event "robust.phase_resumed"
          ~attrs:
            [
              Attr.int "step" step; Attr.str "kind" kind;
              Attr.bool "complete" e.complete;
            ];
      (* A completed phase's payload stays in every later save. *)
      if e.complete then Hashtbl.replace s.completed step (Lazy.from_val e)
    | None -> ());
    let p = { p_step = step; p_kind = kind; p_capture = None;
              p_resumed = (match resumed with
                           | Some e when not e.complete -> resumed
                           | _ -> None) }
    in
    s.stack <- p :: s.stack;
    Some p

let resume_data (p : phase) =
  match (p, !current) with
  | Some p, Some s -> (
    match Hashtbl.find_opt s.resume_entries p.p_step with
    | Some e when e.complete -> Some (Done e.data)
    | Some e -> Some (Midway e.data)
    | None -> None)
  | _ -> None

let set_capture (p : phase) capture =
  match p with
  | None -> ()
  | Some p ->
    p.p_capture <- Some capture;
    p.p_resumed <- None

let drop_phase s (p : phase_data) =
  s.stack <- List.filter (fun q -> q != p) s.stack

let complete_with (p : phase) payload =
  match (p, !current) with
  | Some p, Some s ->
    drop_phase s p;
    (* Replace, don't accumulate: a phase resumed as complete and re-run
       to completion keeps one entry for its step. *)
    Hashtbl.replace s.completed p.p_step
      (lazy
        { step = p.p_step; kind = p.p_kind; complete = true;
          data = payload () })
  | _ -> ()

let complete p data = complete_with p (fun () -> data)
