(* The tracing façade: contexts, spans and events.

   A context is a recording flag plus a sink.  The default context is
   disabled, and every instrumentation site in the toolkit guards itself
   with [on ()] — a plain ref read and one branch — so a build with
   observability off pays nothing beyond that branch (the E11 bench claim
   holds the packed-engine numbers to the PR 1 baseline).

   Spans nest per domain: each domain keeps its own stack in domain-local
   storage, so any domain can open spans without locking.  [annotate] attaches attributes to the innermost open span of
   the calling domain — used to report results (state counts, verdicts)
   discovered only at the end of the work. *)

type ctx = { recording : bool; sink : Sink.t }

let disabled = { recording = false; sink = Sink.null }

let current_ctx = ref disabled

let current () = !current_ctx

let set_current ctx = current_ctx := ctx

let on () = !current_ctx.recording

let with_ctx ctx f =
  let saved = !current_ctx in
  current_ctx := ctx;
  Fun.protect ~finally:(fun () -> current_ctx := saved) f

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let t0 = Monotonic_clock.now ()

(* Monotonic nanoseconds since process start. *)
let now_ns () = Int64.sub (Monotonic_clock.now ()) t0

(* A fresh recording context leads its trace with a wall-clock anchor, so
   the monotonic timeline can be placed on the calendar after the fact
   (and traces from separate processes correlated). *)
let make ~sinks () =
  let sink = Sink.multiplex sinks in
  sink.Sink.emit
    (Sink.Anchor
       { wall_epoch_ms = Unix.gettimeofday () *. 1e3; ts = now_ns () });
  { recording = true; sink }

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type frame = { f_name : string; start : int64; mutable extra : Attr.t list }

let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let tid () = (Domain.self () :> int)

let span ?(attrs = []) name f =
  let ctx = !current_ctx in
  if not ctx.recording then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let start = now_ns () in
    let tid = tid () in
    ctx.sink.emit (Sink.Begin { name; ts = start; tid; attrs });
    let fr = { f_name = name; start; extra = [] } in
    stack := fr :: !stack;
    (* GC attribution: [quick_stat] reads counters without walking the
       heap, so two reads per span are cheap enough for recording mode.
       Allocation is everything the mutator allocated inside the span
       (minor + direct-major, promotions excluded to avoid double
       counting); both deltas ride the End record as ordinary integer
       attrs, which [Profile] already sums per span name.  Minor words
       come from [Gc.minor_words], exact at any point: [quick_stat]'s
       count only advances at a minor collection, so a span that
       allocates less than the minor heap would read 0. *)
    let gc0 = Gc.quick_stat () and minor0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () ->
        (match !stack with
        | top :: rest when top == fr -> stack := rest
        | _ -> () (* unbalanced exit: keep going, the trace stays readable *));
        let gc1 = Gc.quick_stat () and minor1 = Gc.minor_words () in
        let alloc_words =
          minor1 -. minor0
          +. (gc1.Gc.major_words -. gc0.Gc.major_words)
          -. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words)
        in
        let gc_attrs =
          [
            Attr.int "alloc_words" (int_of_float alloc_words);
            Attr.int "major_gcs"
              (gc1.Gc.major_collections - gc0.Gc.major_collections);
          ]
        in
        let stop = now_ns () in
        ctx.sink.emit
          (Sink.End
             {
               name;
               ts = stop;
               dur = Int64.sub stop start;
               tid;
               attrs = attrs @ List.rev fr.extra @ gc_attrs;
             }))
      f
  end

let annotate attrs =
  let ctx = !current_ctx in
  if ctx.recording then
    match !(Domain.DLS.get stack_key) with
    | fr :: _ -> fr.extra <- List.rev_append attrs fr.extra
    | [] -> ()

let event ?(level = Attr.Info) ?(attrs = []) name =
  let ctx = !current_ctx in
  if ctx.recording then
    ctx.sink.emit
      (Sink.Instant { name; ts = now_ns (); tid = tid (); level; attrs })

let flush () = !current_ctx.sink.flush ()

(* Close the current context's sink and fall back to [disabled]. *)
let close () =
  let ctx = !current_ctx in
  current_ctx := disabled;
  if ctx.recording then ctx.sink.close ()
