(* trace_check — validate a qxmap span trace.

   Works on both outputs of the tracer: the Chrome trace-event file
   (--trace, one event object per line inside a {"traceEvents": [...]}
   wrapper) and the NDJSON event log (--events).  Checks, per worker
   (tid):

     - every E event closes the most recent open B of the same name
       (well-nested spans, no cross-worker interleaving);
     - timestamps are monotonically non-decreasing;
     - no span is left open at the end of the file.

   Counter events (ph "C", e.g. the solver's telemetry samples) pass
   through the timestamp check like any other event.  A flight-recorder
   dump also parses: its header line (the object with a "flight" key)
   is skipped.

   The input is read with Sjson: the whole document when it is a Chrome
   trace, otherwise one JSON object per line.  A line that does not
   parse — a truncated write, say — is a check failure, never skipped.

   Flags:
     --min-workers N    require at least N distinct tids
     --require PREFIX   require at least one event name with this prefix
                        (repeatable)
     --samples          require solver.sample counter events and check
                        their shape (each must carry a conflicts arg)
     --request-ids      check the service request-id convention: every
                        svc.solve span carries a "request" arg, and
                        every "request"/watchdog reference resolves to
                        an "id" registered by an svc.request span.
                        Needs a complete trace (--trace/--events), not
                        a flight dump, whose ring may have evicted the
                        registering span.

   Exit 0 when all checks pass, 1 otherwise. *)

module Sjson = Qxm_json.Sjson

let fail = ref false

let error fmt =
  fail := true;
  Printf.eprintf "trace_check: ";
  Printf.kfprintf (fun oc -> output_char oc '\n') stderr fmt

(* -- input ---------------------------------------------------------------- *)

let str_mem k j = Option.bind (Sjson.member k j) Sjson.to_string_opt
let num_mem k j = Option.bind (Sjson.member k j) Sjson.to_float_opt
let arg_mem k j = Option.bind (Sjson.member "args" j) (Sjson.member k)
let arg_str k j = Option.bind (arg_mem k j) Sjson.to_string_opt

(* The event objects of a trace, each with where it came from ("event
   N" inside a Chrome document, "line N" in a line stream), and the
   lines that did not parse. *)
let read_events content =
  match Result.map (Sjson.member "traceEvents") (Sjson.parse content) with
  | Ok (Some (Sjson.List evs)) ->
      (List.mapi (fun i ev -> (Printf.sprintf "event %d" (i + 1), ev)) evs, [])
  | Ok (Some _) -> ([], [ "traceEvents is not an array" ])
  | Ok None | Error _ ->
      let events = ref [] and bad = ref [] in
      List.iteri
        (fun i raw ->
          let line = String.trim raw in
          if line <> "" then
            match Sjson.parse line with
            | Ok j when Sjson.member "flight" j <> None -> ()
            | Ok j ->
                events := (Printf.sprintf "line %d" (i + 1), j) :: !events
            | Error e ->
                bad := Printf.sprintf "line %d: %s" (i + 1) e :: !bad)
        (String.split_on_char '\n' content);
      (List.rev !events, List.rev !bad)

(* -- checks --------------------------------------------------------------- *)

type worker = {
  mutable stack : string list;  (* open span names, innermost first *)
  mutable last_ts : float;
  mutable events : int;
}

let () =
  let min_workers = ref 0 in
  let required = ref [] in
  let check_samples = ref false in
  let check_request_ids = ref false in
  let file = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--min-workers" :: n :: rest ->
        (match int_of_string_opt n with
        | Some v -> min_workers := v
        | None ->
            prerr_endline "trace_check: --min-workers needs an integer";
            exit 2);
        parse_args rest
    | "--require" :: p :: rest ->
        required := p :: !required;
        parse_args rest
    | "--samples" :: rest ->
        check_samples := true;
        parse_args rest
    | "--request-ids" :: rest ->
        check_request_ids := true;
        parse_args rest
    | path :: rest ->
        (match !file with
        | None -> file := Some path
        | Some _ ->
            prerr_endline "trace_check: exactly one input file expected";
            exit 2);
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let path =
    match !file with
    | Some p -> p
    | None ->
        prerr_endline
          "usage: trace_check [--min-workers N] [--require PREFIX]... \
           [--samples] [--request-ids] FILE";
        exit 2
  in
  let workers : (int, worker) Hashtbl.t = Hashtbl.create 8 in
  let seen_prefix = Hashtbl.create 8 in
  let total = ref 0 in
  let samples = ref 0 in
  (* Request-id convention: svc.request B events register their "id";
     every later "request" reference (svc.solve spans, watchdog cancel
     instants) must resolve to one.  Events are grouped by tid in the
     export, so references can precede their registration in file
     order — collect and resolve after the pass. *)
  let known_ids : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let id_refs : (string * string * string) list ref = ref [] in
  let content =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e ->
      prerr_endline ("trace_check: " ^ e);
      exit 2
  in
  let events, bad = read_events content in
  (match bad with
  | [] -> ()
  | first :: rest ->
      error "%s" first;
      if rest <> [] then
        error "%d more line(s) are not JSON objects" (List.length rest));
  List.iter
    (fun (where, ev) ->
      match
        (str_mem "name" ev, str_mem "ph" ev, num_mem "ts" ev, num_mem "tid" ev)
      with
      | Some name, Some ph, Some ts, Some tid ->
          incr total;
          let tid = int_of_float tid in
          let w =
            match Hashtbl.find_opt workers tid with
            | Some w -> w
            | None ->
                let w = { stack = []; last_ts = neg_infinity; events = 0 } in
                Hashtbl.add workers tid w;
                w
          in
          w.events <- w.events + 1;
          if ts < w.last_ts then
            error "%s: tid %d timestamp goes backwards (%.1f < %.1f)" where
              tid ts w.last_ts;
          w.last_ts <- ts;
          List.iter
            (fun prefix ->
              if String.starts_with ~prefix name then
                Hashtbl.replace seen_prefix prefix true)
            !required;
          if !check_samples && ph = "C" && name = "solver.sample" then begin
            incr samples;
            if arg_mem "conflicts" ev = None then
              error "%s: solver.sample without a conflicts arg" where
          end;
          if !check_request_ids && String.starts_with ~prefix:"svc." name
          then begin
            if name = "svc.request" && ph = "B" then
              match arg_str "id" ev with
              | Some id -> Hashtbl.replace known_ids id ()
              | None -> error "%s: svc.request span without an id arg" where
            else begin
              (match arg_str "request" ev with
              | Some id -> id_refs := (where, name, id) :: !id_refs
              | None -> ());
              if name = "svc.solve" && ph = "B" && arg_str "request" ev = None
              then error "%s: svc.solve span without a request arg" where
            end
          end;
          (match ph with
          | "B" -> w.stack <- name :: w.stack
          | "E" -> (
              match w.stack with
              | top :: rest when top = name -> w.stack <- rest
              | top :: _ ->
                  error "%s: tid %d closes span %S but %S is innermost" where
                    tid name top
              | [] ->
                  error "%s: tid %d closes span %S with none open"
                    where tid name)
          | "i" | "I" | "C" -> ()
          | _ -> error "%s: unknown phase %S" where ph)
      | _ -> error "%s: event object missing name/ph/ts/tid" where)
    events;
  Hashtbl.iter
    (fun tid w ->
      List.iter
        (fun name -> error "tid %d: span %S never closed" tid name)
        w.stack)
    workers;
  let nworkers = Hashtbl.length workers in
  if nworkers < !min_workers then
    error "only %d distinct worker tid(s), need at least %d" nworkers
      !min_workers;
  List.iter
    (fun p ->
      if not (Hashtbl.mem seen_prefix p) then
        error "no event with name prefix %S" p)
    !required;
  if !check_samples && !samples = 0 then
    error "no solver.sample counter events found (--samples)";
  if !check_request_ids then
    List.iter
      (fun (where, name, id) ->
        if not (Hashtbl.mem known_ids id) then
          error "%s: %s references request id %S never registered \
                 by an svc.request span"
            where name id)
      (List.rev !id_refs);
  if !total = 0 then error "no trace events found in %s" path;
  if !fail then exit 1
  else
    Printf.printf "trace_check: OK — %d events, %d worker(s)\n" !total nworkers
