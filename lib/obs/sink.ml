(* Trace sinks: where span/event records go.

   A sink is three callbacks (emit / flush / close).  Emission can happen
   from any domain, so every writing sink serializes through its own
   mutex.  Timestamps are
   nanoseconds of monotonic clock relative to process start; the Chrome
   sink converts to the microseconds Perfetto / about://tracing expect. *)

type record =
  | Begin of { name : string; ts : int64; tid : int; attrs : Attr.t list }
  | End of {
      name : string;
      ts : int64; (* end timestamp *)
      dur : int64; (* span duration, ns *)
      tid : int;
      attrs : Attr.t list;
    }
  | Instant of {
      name : string;
      ts : int64;
      tid : int;
      level : Attr.level;
      attrs : Attr.t list;
    }
  | Anchor of { wall_epoch_ms : float; ts : int64 }

type t = {
  emit : record -> unit;
  flush : unit -> unit;
  close : unit -> unit;
}

let null = { emit = ignore; flush = ignore; close = ignore }

let multiplex sinks =
  match sinks with
  | [] -> null
  | [ s ] -> s
  | sinks ->
    {
      emit = (fun r -> List.iter (fun s -> s.emit r) sinks);
      flush = (fun () -> List.iter (fun s -> s.flush ()) sinks);
      close = (fun () -> List.iter (fun s -> s.close ()) sinks);
    }

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* ------------------------------------------------------------------ *)
(* Human-readable stderr log.                                          *)
(* ------------------------------------------------------------------ *)

let ms_of_ns ns = Int64.to_float ns /. 1e6

(* Spans log at Debug (begin and end), instants at their own level. *)
let stderr_log ?(min_level = Attr.Info) () =
  let m = Mutex.create () in
  let line ts tid level name attrs =
    if Attr.level_geq level min_level then
      locked m (fun () ->
          Fmt.epr "[detcor %8.2fms d%d %-5s] %s%s%a@." (ms_of_ns ts) tid
            (Attr.level_to_string level)
            name
            (if attrs = [] then "" else " ")
            Attr.pp_list attrs)
  in
  {
    emit =
      (fun r ->
        match r with
        | Begin { name; ts; tid; attrs } ->
          line ts tid Attr.Debug (name ^ " {") attrs
        | End { name; ts; dur; tid; attrs } ->
          line ts tid Attr.Debug
            (Fmt.str "} %s (%.2fms)" name (ms_of_ns dur))
            attrs
        | Instant { name; ts; tid; level; attrs } -> line ts tid level name attrs
        | Anchor _ -> ());
    flush = (fun () -> locked m (fun () -> Format.pp_print_flush Format.err_formatter ()));
    close = ignore;
  }

(* ------------------------------------------------------------------ *)
(* JSONL: one self-contained JSON object per line.                     *)
(* ------------------------------------------------------------------ *)

let jsonl oc =
  let m = Mutex.create () in
  let write fields =
    locked m (fun () ->
        output_string oc (Jsonx.to_string (Jsonx.Obj fields));
        output_char oc '\n')
  in
  let base kind name ts tid attrs =
    [
      ("type", Jsonx.Str kind);
      ("name", Jsonx.Str name);
      ("ts_ns", Jsonx.Int (Int64.to_int ts));
      ("tid", Jsonx.Int tid);
      ("attrs", Attr.to_json attrs);
    ]
  in
  {
    emit =
      (fun r ->
        match r with
        | Begin { name; ts; tid; attrs } -> write (base "begin" name ts tid attrs)
        | End { name; ts; dur; tid; attrs } ->
          write
            (base "end" name ts tid attrs
            @ [ ("dur_ns", Jsonx.Int (Int64.to_int dur)) ])
        | Instant { name; ts; tid; level; attrs } ->
          write
            (base "event" name ts tid attrs
            @ [ ("level", Jsonx.Str (Attr.level_to_string level)) ])
        | Anchor { wall_epoch_ms; ts } ->
          (* Header line correlating the monotonic timeline with the wall
             clock; keeps the common per-line fields so line-oriented
             consumers need no special case. *)
          write
            (base "anchor" "clock" ts 0 []
            @ [ ("wall_epoch_ms", Jsonx.Float wall_epoch_ms) ]));
    flush = (fun () -> locked m (fun () -> flush oc));
    close = (fun () -> locked m (fun () -> close_out oc));
  }

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON array (Perfetto / about://tracing).         *)
(* ------------------------------------------------------------------ *)

let chrome oc =
  let m = Mutex.create () in
  let first = ref true in
  output_string oc "[\n";
  let write fields =
    locked m (fun () ->
        if !first then first := false else output_string oc ",\n";
        output_string oc (Jsonx.to_string (Jsonx.Obj fields)))
  in
  let us_of_ns ns = Int64.to_float ns /. 1e3 in
  let common name ph ts tid attrs =
    [
      ("name", Jsonx.Str name);
      ("cat", Jsonx.Str "detcor");
      ("ph", Jsonx.Str ph);
      ("ts", Jsonx.Float (us_of_ns ts));
      ("pid", Jsonx.Int 1);
      ("tid", Jsonx.Int tid);
      ("args", Attr.to_json attrs);
    ]
  in
  {
    emit =
      (fun r ->
        match r with
        | Begin { name; ts; tid; attrs } -> write (common name "B" ts tid attrs)
        | End { name; ts; dur = _; tid; attrs } ->
          write (common name "E" ts tid attrs)
        | Instant { name; ts; tid; level; attrs } ->
          (* "severity" rather than "level": event attrs own the args
             namespace and must not collide. *)
          let attrs =
            Attr.str "severity" (Attr.level_to_string level) :: attrs
          in
          write (common name "i" ts tid attrs @ [ ("s", Jsonx.Str "t") ])
        | Anchor { wall_epoch_ms; ts } ->
          (* Metadata record; Perfetto ignores unknown metadata names. *)
          write
            [
              ("name", Jsonx.Str "clock_anchor");
              ("cat", Jsonx.Str "detcor");
              ("ph", Jsonx.Str "M");
              ("ts", Jsonx.Float (us_of_ns ts));
              ("pid", Jsonx.Int 1);
              ("tid", Jsonx.Int 0);
              ( "args",
                Jsonx.Obj [ ("wall_epoch_ms", Jsonx.Float wall_epoch_ms) ] );
            ]);
    flush = (fun () -> locked m (fun () -> flush oc));
    close =
      (fun () ->
        locked m (fun () ->
            output_string oc "\n]\n";
            close_out oc));
  }

(* ------------------------------------------------------------------ *)
(* In-memory sink (tests, dcheck profile).                             *)
(* ------------------------------------------------------------------ *)

let memory () =
  let m = Mutex.create () in
  let records = ref [] in
  let sink =
    {
      emit = (fun r -> locked m (fun () -> records := r :: !records));
      flush = ignore;
      close = ignore;
    }
  in
  (sink, fun () -> locked m (fun () -> List.rev !records))

(* [to_file make path]: open [path], wrap it in [make] (jsonl or chrome);
   closing the sink closes the channel. *)
let to_file make path = make (open_out path)
