module Sjson = Qxm_json.Sjson

type arg = Int of int | Str of string | Float of float | Bool of bool

type event = {
  ph : [ `B | `E | `I | `C ];
  name : string;
  ts_us : float;
  tid : int;
  args : (string * arg) list;
}

(* Per-domain buffer.  Events are prepended (cheap) and reversed at
   export.  [gen] ties the buffer to one tracer generation: a [reset]
   bumps the generation, so a domain holding a stale cached buffer
   re-registers instead of appending into a dropped list. *)
type buffer = { tid : int; gen : int; mutable rev_events : event list }

(* One atomic word gates every recording path: bit 0 is the unbounded
   in-memory buffer (enable/disable), bit 1 an external sink (the flight
   recorder).  A single load and branch on zero keeps the disabled path
   as cheap as the old boolean. *)
let flag_buffer = 1
let flag_sink = 2
let flags = Atomic.make 0

let set_flag bit v =
  let rec go () =
    let cur = Atomic.get flags in
    let next = if v then cur lor bit else cur land lnot bit in
    if not (Atomic.compare_and_set flags cur next) then go ()
  in
  go ()

let generation = Atomic.make 0

(* Clock origin of the current generation.  [Unix.gettimeofday] is the
   only portable clock in the stdlib; rebasing to the origin keeps
   timestamps small and monotone in practice (the paper-scale runs are
   far shorter than any NTP step). *)
let origin = ref (Unix.gettimeofday ())
let now_us () = (Unix.gettimeofday () -. !origin) *. 1e6

let registry_lock = Mutex.create ()
let registry : buffer list ref = ref []

let enabled () = Atomic.get flags land flag_buffer <> 0

let rebase () =
  Mutex.lock registry_lock;
  registry := [];
  origin := Unix.gettimeofday ();
  Atomic.incr generation;
  Mutex.unlock registry_lock

let enable () =
  if not (enabled ()) then begin
    rebase ();
    set_flag flag_buffer true
  end

let disable () = set_flag flag_buffer false
let reset () = rebase ()

(* External per-event sink (the flight recorder's ring).  The closure is
   published before the flag is raised, so a recording domain that sees
   the flag also sees the closure. *)
let sink_fn : (event -> unit) ref = ref (fun _ -> ())

let set_sink = function
  | None -> set_flag flag_sink false
  | Some f ->
      sink_fn := f;
      set_flag flag_sink true

(* Domain-local cache of the current generation's buffer. *)
let dls_key : buffer option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let local_buffer () =
  let cache = Domain.DLS.get dls_key in
  let gen = Atomic.get generation in
  match !cache with
  | Some b when b.gen = gen -> b
  | _ ->
      let b =
        { tid = (Domain.self () :> int); gen; rev_events = [] }
      in
      Mutex.lock registry_lock;
      (* the generation may have moved while we allocated; registering a
         stale buffer is harmless (export filters by generation) *)
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      cache := Some b;
      b

let record b ev = b.rev_events <- ev :: b.rev_events

let emit ev =
  let fl = Atomic.get flags in
  if fl land flag_buffer <> 0 then record (local_buffer ()) ev;
  if fl land flag_sink <> 0 then !sink_fn ev

let with_span ?(args = []) ~name f =
  if Atomic.get flags = 0 then f ()
  else begin
    let tid = (Domain.self () :> int) in
    emit { ph = `B; name; ts_us = now_us (); tid; args };
    Fun.protect
      ~finally:(fun () ->
        emit { ph = `E; name; ts_us = now_us (); tid; args = [] })
      f
  end

let instant ?(args = []) name =
  if Atomic.get flags <> 0 then
    emit { ph = `I; name; ts_us = now_us (); tid = (Domain.self () :> int); args }

(* Merge two event streams, both grouped by tid with monotone timestamps
   within each tid, into one stream grouped by ascending tid and merged
   by timestamp within a tid.  Used to interleave counter samples
   ([extra]) with the span buffers at export time. *)
let merge_events a b =
  let module M = Map.Make (Int) in
  let group m evs =
    List.fold_left
      (fun m (ev : event) ->
        M.update ev.tid
          (fun l -> Some (ev :: Option.value ~default:[] l))
          m)
      m evs
  in
  let am = group M.empty a and bm = group M.empty b in
  let rec merge x y =
    match (x, y) with
    | [], l | l, [] -> l
    | (ex : event) :: rx, ey :: ry ->
        if ex.ts_us <= ey.ts_us then ex :: merge rx y else ey :: merge x ry
  in
  let tids =
    M.fold (fun t _ acc -> t :: acc) am (M.fold (fun t _ acc -> t :: acc) bm [])
    |> List.sort_uniq compare
  in
  List.concat_map
    (fun tid ->
      let pick m = List.rev (Option.value ~default:[] (M.find_opt tid m)) in
      merge (pick am) (pick bm))
    tids

let events ?(extra = []) () =
  Mutex.lock registry_lock;
  let gen = Atomic.get generation in
  let buffers =
    List.filter (fun b -> b.gen = gen) !registry
    |> List.sort (fun a b -> compare a.tid b.tid)
  in
  let out =
    List.concat_map (fun b -> List.rev b.rev_events) buffers
  in
  Mutex.unlock registry_lock;
  match extra with [] -> out | extra -> merge_events out extra

(* -- JSON rendering ------------------------------------------------------- *)

let ph_string = function `B -> "B" | `E -> "E" | `I -> "i" | `C -> "C"

let event_json ev =
  let arg = function
    | Int i -> Sjson.int i
    | Float f -> Sjson.Num f
    | Bool b -> Sjson.Bool b
    | Str s -> Sjson.Str s
  in
  Sjson.Obj
    [
      ("name", Sjson.Str ev.name);
      ("ph", Sjson.Str (ph_string ev.ph));
      ("ts", Sjson.fixed 1 ev.ts_us);
      ("pid", Sjson.int 0);
      ("tid", Sjson.int ev.tid);
      ("args", Sjson.Obj (List.map (fun (k, v) -> (k, arg v)) ev.args));
    ]

let event_lines ?extra () =
  List.map (fun ev -> Sjson.print (event_json ev)) (events ?extra ())

let to_chrome_string ?extra () =
  "{\"traceEvents\": [\n"
  ^ String.concat ",\n" (event_lines ?extra ())
  ^ "\n]}\n"

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

let write_chrome ?extra path = write_file path (to_chrome_string ?extra ())

let write_ndjson ?extra path =
  write_file path
    (String.concat "" (List.map (fun l -> l ^ "\n") (event_lines ?extra ())))
