(* Offline profile analysis: ingest a trace (Chrome JSON or NDJSON), a
   flight-recorder dump, or a bench JSON stream, and explain where the
   time went.

   The analysis leans on two complementary signals:

   - Spans (B/E pairs) give exact durations for everything that
     completed inside the recorded window: mapper phases, minimize
     steps, portfolio stages, solver solves.
   - Counter samples ("solver.sample" C events, one per 64 conflicts)
     carry the active context as a label ("stage=… cand=… rung=…").
     Labels are generic [key=value] pairs, so any key a dump carries
     becomes its own dimension.  Attributing each inter-sample gap to the labels of the
     sample that closes it recovers a wall-time breakdown even when the
     enclosing spans never closed — which is exactly the shape of a
     flight dump taken mid-solve or of a run killed by the watchdog.

   Durations are histogrammed into the same log2 buckets as
   [Qxm_obs.Metrics] so quantiles come from one shared interpolation. *)

module Sjson = Qxm_json.Sjson
module Metrics = Qxm_obs.Metrics

(* -- input ----------------------------------------------------------------- *)

type event = {
  e_name : string;
  e_ph : string;
  e_ts : float; (* microseconds since trace origin *)
  e_tid : int;
  e_args : Sjson.t;
}

type bench_row = {
  b_key : string; (* suite/benchmark/device/strategy/jobs: the diff join key *)
  b_name : string;
  b_wall : float;
  b_optimal : bool;
  b_failed : bool;
  b_timed_out : bool;
  b_stages : (string * float) list; (* stage name -> seconds *)
  b_counters : (string * float) list;
}

type input =
  | Flight of { f_reason : string; f_dropped : int; f_events : event list }
  | Trace_events of event list
  | Bench_rows of bench_row list

let str_mem k j = Option.bind (Sjson.member k j) Sjson.to_string_opt
let num_mem k j = Option.bind (Sjson.member k j) Sjson.to_float_opt
let int_mem k j = Option.bind (Sjson.member k j) Sjson.to_int_opt

let event_of_json j =
  match (str_mem "name" j, str_mem "ph" j, num_mem "ts" j) with
  | Some e_name, Some e_ph, Some e_ts ->
      Some
        {
          e_name;
          e_ph;
          e_ts;
          e_tid = Option.value ~default:0 (int_mem "tid" j);
          e_args = Option.value ~default:Sjson.Null (Sjson.member "args" j);
        }
  | _ -> None

let stage_prefix = "stage_"
let stage_suffix = "_s"

let bench_row_of_json j =
  match (str_mem "benchmark" j, num_mem "wall_s" j) with
  | Some b_name, Some b_wall ->
      let fields = match j with Sjson.Obj kvs -> kvs | _ -> [] in
      let stages, counters =
        List.fold_left
          (fun (stages, counters) (k, v) ->
            match v with
            | Sjson.Num f ->
                let pl = String.length stage_prefix
                and sl = String.length stage_suffix in
                if
                  String.length k > pl + sl
                  && String.starts_with ~prefix:stage_prefix k
                  && String.ends_with ~suffix:stage_suffix k
                then
                  let stage = String.sub k pl (String.length k - pl - sl) in
                  ((stage, f) :: stages, counters)
                else if k = "wall_s" then (stages, counters)
                else (stages, (k, f) :: counters)
            | _ -> (stages, counters))
          ([], []) fields
      in
      let key field = Option.value ~default:"" (str_mem field j) in
      let flag field =
        Option.value ~default:false
          (Option.bind (Sjson.member field j) Sjson.to_bool_opt)
      in
      Some
        {
          (* jobs is part of the join key: the quick suite emits the
             same benchmark at two worker counts, and diffing a -j1 row
             against a -jN row would manufacture a regression.  Records
             that predate the suite tag are quick-suite rows. *)
          b_key =
            String.concat "/"
              [
                Option.value ~default:"quick" (str_mem "suite" j);
                b_name;
                key "device";
                key "strategy";
                (match num_mem "jobs" j with
                | Some n -> Printf.sprintf "j%d" (int_of_float n)
                | None -> "j?");
              ];
          b_name;
          b_wall;
          b_optimal = flag "optimal";
          b_failed = flag "failed";
          b_timed_out = flag "timed_out";
          b_stages = List.rev stages;
          b_counters = List.rev counters;
        }
  | _ -> None

let non_empty_lines content =
  String.split_on_char '\n' content
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" then None else Some l)

(* Input auto-detection: a whole-document Chrome trace object, or a
   line stream whose first line is a flight header, a trace event, or a
   bench record. *)
let parse_string content =
  (* A Chrome trace and a bench emission are both single JSON documents
     (an object wrapper and an array of rows respectively — bench rows
     carry trailing commas that defeat line-at-a-time parsing), so try
     the whole document first. *)
  let whole_doc =
    match Sjson.parse content with
    | Ok j -> (
        match (Sjson.member "traceEvents" j, j) with
        | Some (Sjson.List evs), _ ->
            Some (Trace_events (List.filter_map event_of_json evs))
        | _, Sjson.List rows -> (
            match List.filter_map bench_row_of_json rows with
            | [] -> None
            | parsed -> Some (Bench_rows parsed))
        | _ -> None)
    | Error _ -> None
  in
  let lines = non_empty_lines content in
  (* a line stream: lines that do not parse are skipped *)
  let parsed =
    List.filter_map (fun l -> Result.to_option (Sjson.parse l)) lines
  in
  match (whole_doc, lines) with
  | Some input, _ -> Ok input
  | None, [] -> Error "empty input"
  | None, first :: _ -> (
      match Sjson.parse first with
      | Error e -> Error ("line 1: bad JSON: " ^ e)
      | Ok j when Sjson.member "flight" j <> None ->
          Ok
            (Flight
               {
                 f_reason =
                   Option.value ~default:"unknown" (str_mem "reason" j);
                 f_dropped = Option.value ~default:0 (int_mem "dropped" j);
                 f_events = List.filter_map event_of_json parsed;
               })
      | Ok j when Sjson.member "ph" j <> None ->
          Ok (Trace_events (List.filter_map event_of_json parsed))
      | Ok j when Sjson.member "benchmark" j <> None ->
          Ok (Bench_rows (List.filter_map bench_row_of_json parsed))
      | Ok _ ->
          Error
            "unrecognised input: expected a Chrome trace, a flight dump, \
             an NDJSON event stream, or bench JSON lines")

let parse_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | content -> parse_string content

(* -- span statistics ------------------------------------------------------- *)

type span_stat = {
  s_name : string;
  s_count : int; (* completed instances *)
  s_open : int; (* B without a matching E inside the window *)
  s_total_us : float; (* completed + censored-at-window-end time *)
  s_buckets : int array; (* log2 buckets of completed durations, in us *)
}

let nbuckets = 32

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      b := !b + 1;
      v := !v lsr 1
    done;
    min !b (nbuckets - 1)
  end

let span_quantile st q =
  Option.map
    (fun v -> v /. 1e6)
    (Metrics.quantile_of_buckets st.s_buckets q)

(* Replay the per-tid B/E streams.  Spans still open when the window
   ends are censored: their elapsed time counts toward the total (it
   was genuinely spent inside the window) but not toward the duration
   histogram. *)
let span_stats events ~t1 =
  let stats : (string, span_stat ref) Hashtbl.t = Hashtbl.create 32 in
  let get name =
    match Hashtbl.find_opt stats name with
    | Some r -> r
    | None ->
        let r =
          ref
            {
              s_name = name;
              s_count = 0;
              s_open = 0;
              s_total_us = 0.0;
              s_buckets = Array.make nbuckets 0;
            }
        in
        Hashtbl.add stats name r;
        r
  in
  let stacks : (int, (string * float) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
  in
  List.iter
    (fun ev ->
      match ev.e_ph with
      | "B" -> (
          let s = stack ev.e_tid in
          s := (ev.e_name, ev.e_ts) :: !s)
      | "E" -> (
          let s = stack ev.e_tid in
          (* Pop to the matching begin; a flight ring can evict a B
             while keeping its E, so an unmatched end is dropped rather
             than allowed to corrupt the enclosing frames. *)
          match List.assoc_opt ev.e_name !s with
          | None -> ()
          | Some t_begin ->
              let rec drop = function
                | [] -> []
                | (n, _) :: rest when n = ev.e_name -> rest
                | _ :: rest -> drop rest
              in
              s := drop !s;
              let r = get ev.e_name in
              let dur = Float.max 0.0 (ev.e_ts -. t_begin) in
              let st = !r in
              st.s_buckets.(bucket_of (int_of_float dur)) <-
                st.s_buckets.(bucket_of (int_of_float dur)) + 1;
              r :=
                {
                  st with
                  s_count = st.s_count + 1;
                  s_total_us = st.s_total_us +. dur;
                })
      | _ -> ())
    events;
  Hashtbl.iter
    (fun _tid s ->
      List.iter
        (fun (name, t_begin) ->
          let r = get name in
          let st = !r in
          r :=
            {
              st with
              s_open = st.s_open + 1;
              s_total_us = st.s_total_us +. Float.max 0.0 (t1 -. t_begin);
            })
        !s)
    stacks;
  Hashtbl.fold (fun _ r acc -> !r :: acc) stats []
  |> List.sort (fun a b -> compare b.s_total_us a.s_total_us)

(* -- sample attribution ---------------------------------------------------- *)

(* "stage=ladder cand=0 rung=61" -> [(stage, ladder); ...] *)
let parse_label label =
  String.split_on_char ' ' label
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i when i > 0 ->
             Some
               ( String.sub kv 0 i,
                 String.sub kv (i + 1) (String.length kv - i - 1) )
         | _ -> None)

type dim = { d_name : string; d_slices : (string * float) list }

let sample_event_name = "solver.sample"

let is_sample ev = ev.e_ph = "C" && ev.e_name = sample_event_name

(* Attribute each inter-sample gap (per tid) to the label components of
   the closing sample, plus the phase dimension ("solve": samples only
   fire inside the search loop).  Returns the dimensions and the total
   attributed time. *)
let sample_attribution events =
  let dims : (string, (string, float) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let add dim value dt =
    let tbl =
      match Hashtbl.find_opt dims dim with
      | Some t -> t
      | None ->
          let t = Hashtbl.create 8 in
          Hashtbl.add dims dim t;
          t
    in
    Hashtbl.replace tbl value
      (dt +. Option.value ~default:0.0 (Hashtbl.find_opt tbl value))
  in
  let last_sample : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let total = ref 0.0 in
  List.iter
    (fun ev ->
      if is_sample ev then begin
        (match Hashtbl.find_opt last_sample ev.e_tid with
        | Some prev when ev.e_ts > prev ->
            let dt = ev.e_ts -. prev in
            total := !total +. dt;
            add "phase" "solve" dt;
            let label =
              Option.value ~default:"" (str_mem "label" ev.e_args)
            in
            let kvs = parse_label label in
            List.iter (fun (k, v) -> add k v dt) kvs;
            (* A sample inside a minimize step always knows its bound;
               surface it as the rung dimension even when the label
               path came from elsewhere. *)
            if not (List.mem_assoc "rung" kvs) then
              Option.iter
                (fun b -> add "rung" (string_of_int b) dt)
                (int_mem "bound" ev.e_args)
        | _ -> ());
        Hashtbl.replace last_sample ev.e_tid ev.e_ts
      end)
    events;
  let dim_list =
    Hashtbl.fold
      (fun name tbl acc ->
        let slices =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
          |> List.sort (fun (_, a) (_, b) -> compare b a)
        in
        { d_name = name; d_slices = slices } :: acc)
      dims []
    |> List.sort (fun a b -> compare a.d_name b.d_name)
  in
  (dim_list, !total)

(* -- trajectory ------------------------------------------------------------ *)

type trajectory = {
  t_first_bound : int;
  t_best_bound : int;
  t_improvements : int;
  t_last_improvement_us : float;
  t_tail_us : float; (* window time after the last improvement *)
  t_tail_rung : int option; (* the rung being ground when it ended *)
}

let trajectory events ~t0 ~t1 =
  let bounds =
    List.filter_map
      (fun ev ->
        if is_sample ev then
          Option.map (fun b -> (ev.e_ts, b)) (int_mem "bound" ev.e_args)
        else None)
      events
  in
  match bounds with
  | [] -> None
  | (ts0, b0) :: rest ->
      let first = b0 in
      let best = ref b0 in
      let improvements = ref 0 in
      let last_improvement = ref ts0 in
      let last_rung = ref b0 in
      List.iter
        (fun (ts, b) ->
          last_rung := b;
          if b < !best then begin
            best := b;
            incr improvements;
            last_improvement := ts
          end)
        rest;
      Some
        {
          t_first_bound = first;
          t_best_bound = !best;
          t_improvements = !improvements;
          t_last_improvement_us = !last_improvement -. t0;
          t_tail_us = t1 -. !last_improvement;
          t_tail_rung = Some !last_rung;
        }

(* -- the report ------------------------------------------------------------ *)

type report = {
  r_source : string;
  r_reason : string option;
  r_dropped : int;
  r_num_events : int;
  r_wall_us : float; (* recorded window: max ts - min ts *)
  r_busy_us : float; (* sum over tids of per-tid recorded span *)
  r_tids : int;
  r_spans : span_stat list;
  r_dims : dim list;
  r_coverage : float; (* attributed phase time / busy time *)
  r_trajectory : trajectory option;
}

let analyze_events ~source ?reason ?(dropped = 0) events =
  let ts = List.map (fun e -> e.e_ts) events in
  let t0 = List.fold_left Float.min infinity ts
  and t1 = List.fold_left Float.max neg_infinity ts in
  let t0 = if t0 = infinity then 0.0 else t0
  and t1 = if t1 = neg_infinity then 0.0 else t1 in
  let module IM = Map.Make (Int) in
  let per_tid =
    List.fold_left
      (fun m e ->
        IM.update e.e_tid
          (function
            | None -> Some (e.e_ts, e.e_ts)
            | Some (lo, hi) ->
                Some (Float.min lo e.e_ts, Float.max hi e.e_ts))
          m)
      IM.empty events
  in
  let busy =
    IM.fold (fun _ (lo, hi) acc -> acc +. (hi -. lo)) per_tid 0.0
  in
  let spans = span_stats events ~t1 in
  let dims, sampled = sample_attribution events in
  (* The phase dimension merges both signals: sampled time is "solve"
     by construction; completed mapper phase spans supply the rest
     (encode, warm_start, reconstruct, verify).  mapper.solve spans are
     *not* added on top — the samples inside them already account for
     that time, and on a flight dump the span's B is usually evicted
     anyway. *)
  let phase_extra =
    List.filter_map
      (fun st ->
        match st.s_name with
        | "mapper.encode" -> Some ("encode", st.s_total_us)
        | "mapper.warm_start" -> Some ("warm_start", st.s_total_us)
        | "mapper.reconstruct" -> Some ("reconstruct", st.s_total_us)
        | "mapper.verify" -> Some ("verify", st.s_total_us)
        | _ -> None)
      spans
  in
  let solve_from_spans =
    List.fold_left
      (fun acc st ->
        if st.s_name = "mapper.solve" then acc +. st.s_total_us else acc)
      0.0 spans
  in
  let dims =
    let upgrade d =
      if d.d_name <> "phase" then d
      else
        let sampled_solve =
          Option.value ~default:0.0 (List.assoc_opt "solve" d.d_slices)
        in
        let solve = Float.max sampled_solve solve_from_spans in
        let slices =
          ("solve", solve)
          :: List.remove_assoc "solve" d.d_slices
          @ phase_extra
        in
        {
          d with
          d_slices =
            List.sort (fun (_, a) (_, b) -> compare b a) slices;
        }
    in
    if List.exists (fun d -> d.d_name = "phase") dims then
      List.map upgrade dims
    else if phase_extra <> [] || solve_from_spans > 0.0 then
      {
        d_name = "phase";
        d_slices =
          List.sort
            (fun (_, a) (_, b) -> compare b a)
            (if solve_from_spans > 0.0 then
               ("solve", solve_from_spans) :: phase_extra
             else phase_extra);
      }
      :: dims
    else dims
  in
  let phase_total =
    match List.find_opt (fun d -> d.d_name = "phase") dims with
    | Some d -> List.fold_left (fun acc (_, v) -> acc +. v) 0.0 d.d_slices
    | None -> 0.0
  in
  let _ = sampled in
  {
    r_source = source;
    r_reason = reason;
    r_dropped = dropped;
    r_num_events = List.length events;
    r_wall_us = t1 -. t0;
    r_busy_us = busy;
    r_tids = IM.cardinal per_tid;
    r_spans = spans;
    r_dims = dims;
    r_coverage = (if busy > 0.0 then phase_total /. busy else 0.0);
    r_trajectory = trajectory events ~t0 ~t1;
  }

let analyze = function
  | Flight { f_reason; f_dropped; f_events } ->
      analyze_events ~source:"flight dump" ~reason:f_reason
        ~dropped:f_dropped f_events
  | Trace_events events -> analyze_events ~source:"trace" events
  | Bench_rows _ -> invalid_arg "Profile.analyze: bench input; use diff"

(* -- bench diff ------------------------------------------------------------ *)

(* The regression gate.  Only rows the baseline proved optimal within
   budget are gated: anytime incumbents are timing-dependent, so their
   costs and wall times are too unstable to gate on, but one that newly
   finishes is worth reporting. *)
type verdict = Pass | Improved | Unstable | Regressed of string list

(* Rows below this much propagation work are too noisy to gate on
   throughput or allocation. *)
let min_gated_propagations = 100_000.0

(* Minor-words-per-propagation ceiling when the baseline predates the
   allocation counters: the arena solver sits well under one word per
   propagation, and a boxed hot loop costs tens. *)
let absolute_words_per_prop = 8.0

let gate (b : bench_row) (n : bench_row) =
  if (not b.b_optimal) || b.b_timed_out then
    if n.b_optimal && not n.b_timed_out then Improved else Unstable
  else if n.b_failed then Regressed [ "was optimal, now failed" ]
  else if n.b_timed_out then
    Regressed [ Printf.sprintf "newly times out (was %.3fs)" b.b_wall ]
  else if not n.b_optimal then Regressed [ "optimal flipped true -> false" ]
  else
    let counter (r : bench_row) k = List.assoc_opt k r.b_counters in
    let allowed = (b.b_wall *. 1.25) +. 0.25 in
    let wall =
      if n.b_wall > allowed then
        [
          Printf.sprintf "wall %.3fs > allowed %.3fs (baseline %.3fs)"
            n.b_wall allowed b.b_wall;
        ]
      else []
    in
    let gated =
      match (counter b "propagations", counter n "propagations") with
      | Some bp, Some np ->
          bp >= min_gated_propagations && np >= min_gated_propagations
      | _ -> false
    in
    let throughput =
      match (counter b "props_per_sec", counter n "props_per_sec") with
      | Some bp, Some np when gated && bp > 0.0 && np < bp /. 1.5 ->
          [
            Printf.sprintf "props/sec %.2fM < %.2fM (baseline %.2fM / 1.5)"
              (np /. 1e6) (bp /. 1.5 /. 1e6) (bp /. 1e6);
          ]
      | _ -> []
    in
    let allocation =
      match (counter n "minor_words", counter n "propagations") with
      | Some words, Some props when gated && props > 0.0 ->
          let per_prop = words /. props in
          let allowed, origin =
            match (counter b "minor_words", counter b "propagations") with
            | Some bw, Some bp when bp > 0.0 ->
                ((bw /. bp *. 1.5) +. 0.5, "baseline * 1.5 + 0.5")
            | _ -> (absolute_words_per_prop, "absolute ceiling")
          in
          if per_prop > allowed then
            [
              Printf.sprintf "minor words/prop %.2f > %.2f (%s)" per_prop
                allowed origin;
            ]
          else []
      | _ -> []
    in
    match wall @ throughput @ allocation with
    | [] -> Pass
    | reasons -> Regressed reasons

type diff_entry = {
  de_name : string;
  de_wall_base : float;
  de_wall_new : float;
  de_stage : (string * float * float) option;
      (* stage with the largest absolute growth: name, base_s, new_s *)
  de_counter : (string * float * float) option;
      (* counter with the largest relative growth: name, base, new *)
  de_timed_out_change : bool; (* newly timed out *)
  de_verdict : verdict;
}

type diff_report = {
  dr_entries : diff_entry list; (* sorted by wall growth, descending *)
  dr_missing : string list; (* ungated rows present on one side only *)
  dr_lost : string list; (* gated baseline rows missing from the new run *)
}

let regressions d =
  List.length d.dr_lost
  + List.fold_left
      (fun acc e ->
        match e.de_verdict with
        | Regressed reasons -> acc + List.length reasons
        | Pass | Improved | Unstable -> acc)
      0 d.dr_entries

(* Counters whose growth plausibly explains a slowdown; gate noise like
   seeds or qubit counts out of the blame list. *)
let blameable_counter name =
  match name with
  | "conflicts" | "decisions" | "propagations" | "binary_propagations"
  | "restarts" | "minor_words" | "solves" | "subsets_tried" ->
      true
  | _ ->
      (* learned-clause maintenance counters are also fair game *)
      List.exists
        (fun prefix -> String.starts_with ~prefix name)
        [ "glue_"; "subsumed"; "minimized"; "vivified" ]

let diff_entry (b : bench_row) (n : bench_row) =
  let stage =
    List.fold_left
      (fun acc (name, nv) ->
        let bv = Option.value ~default:0.0 (List.assoc_opt name b.b_stages) in
        let growth = nv -. bv in
        match acc with
        | Some (_, _, _, g) when g >= growth -> acc
        | _ -> Some (name, bv, nv, growth))
      None n.b_stages
  in
  let counter =
    List.fold_left
      (fun acc (name, nv) ->
        if not (blameable_counter name) then acc
        else
          match List.assoc_opt name b.b_counters with
          | Some bv when bv > 0.0 && nv > bv -> (
              let ratio = nv /. bv in
              match acc with
              | Some (_, _, _, r) when r >= ratio -> acc
              | _ -> Some (name, bv, nv, ratio))
          | _ -> acc)
      None n.b_counters
  in
  {
    de_name = n.b_key;
    de_wall_base = b.b_wall;
    de_wall_new = n.b_wall;
    de_stage = Option.map (fun (s, bv, nv, _) -> (s, bv, nv)) stage;
    de_counter = Option.map (fun (c, bv, nv, _) -> (c, bv, nv)) counter;
    de_timed_out_change = n.b_timed_out && not b.b_timed_out;
    de_verdict = gate b n;
  }

let diff_rows base_rows new_rows =
  let find rows key = List.find_opt (fun r -> r.b_key = key) rows in
  let new_only =
    List.filter_map
      (fun (n : bench_row) ->
        match find base_rows n.b_key with
        | None -> Some (n.b_key ^ " (new only)")
        | Some _ -> None)
      new_rows
  in
  let entries, base_only, lost =
    List.fold_left
      (fun (entries, base_only, lost) (b : bench_row) ->
        match find new_rows b.b_key with
        | Some n -> (diff_entry b n :: entries, base_only, lost)
        | None when b.b_optimal && not b.b_timed_out ->
            (entries, base_only, b.b_key :: lost)
        | None -> (entries, (b.b_key ^ " (base only)") :: base_only, lost))
      ([], [], []) base_rows
  in
  {
    dr_entries =
      List.stable_sort
        (fun a b ->
          compare
            (b.de_wall_new -. b.de_wall_base)
            (a.de_wall_new -. a.de_wall_base))
        (List.rev entries);
    dr_missing = new_only @ List.rev base_only;
    dr_lost = List.rev lost;
  }

let diff input_base input_new =
  match (input_base, input_new) with
  | Bench_rows base, Bench_rows fresh -> Ok (diff_rows base fresh)
  | _ -> Error "--diff needs two bench JSON files (one record per line)"

(* -- rendering ------------------------------------------------------------- *)

let s_of_us us = us /. 1e6

let render_text ?(top = 10) r =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "source: %s%s\n" r.r_source
    (match r.r_reason with
    | Some reason -> Printf.sprintf " (reason: %s)" reason
    | None -> "");
  pf "events: %d%s, %d worker%s\n" r.r_num_events
    (if r.r_dropped > 0 then
       Printf.sprintf " (+%d dropped from the ring)" r.r_dropped
     else "")
    r.r_tids
    (if r.r_tids = 1 then "" else "s");
  pf "recorded wall: %.3fs (busy across workers: %.3fs)\n"
    (s_of_us r.r_wall_us) (s_of_us r.r_busy_us);
  pf "attributed: %.1f%% of busy time\n" (100.0 *. r.r_coverage);
  (match r.r_trajectory with
  | None -> ()
  | Some t ->
      pf "trajectory: bound %d -> %d (%d improvement%s), last at t=%.1fs%s\n"
        t.t_first_bound t.t_best_bound t.t_improvements
        (if t.t_improvements = 1 then "" else "s")
        (s_of_us t.t_last_improvement_us)
        (match t.t_tail_rung with
        | Some rung when t.t_tail_us > 0.0 ->
            Printf.sprintf ", then %.1fs grinding at rung F=%d"
              (s_of_us t.t_tail_us) rung
        | _ -> ""));
  List.iter
    (fun d ->
      pf "\nby %s:\n" d.d_name;
      let total =
        List.fold_left (fun acc (_, v) -> acc +. v) 0.0 d.d_slices
      in
      List.iter
        (fun (k, v) ->
          pf "  %-24s %9.3fs  %5.1f%%\n" k (s_of_us v)
            (if total > 0.0 then 100.0 *. v /. total else 0.0))
        d.d_slices)
    r.r_dims;
  let spans =
    List.filteri (fun i _ -> i < top) r.r_spans
  in
  if spans <> [] then begin
    pf "\nhot spans (top %d by total time):\n" (List.length spans);
    pf "  %-26s %9s %7s %6s %9s %9s %9s\n" "span" "total" "count" "open"
      "p50" "p90" "p99";
    List.iter
      (fun st ->
        let q p =
          match span_quantile st p with
          | Some v -> Printf.sprintf "%.4fs" v
          | None -> "-"
        in
        pf "  %-26s %8.3fs %7d %6d %9s %9s %9s\n" st.s_name
          (s_of_us st.s_total_us) st.s_count st.s_open (q 0.5) (q 0.9)
          (q 0.99))
      spans
  end;
  Buffer.contents buf

let json_of_report ?(top = 10) r =
  let open Sjson in
  let dim d =
    Obj
      [
        ("name", Str d.d_name);
        ( "slices",
          List
            (List.map
               (fun (k, v) ->
                 Obj [ ("key", Str k); ("seconds", Num (s_of_us v)) ])
               d.d_slices) );
      ]
  in
  let span st =
    let q p =
      match span_quantile st p with Some v -> Num v | None -> Null
    in
    Obj
      [
        ("name", Str st.s_name);
        ("total_s", Num (s_of_us st.s_total_us));
        ("count", int st.s_count);
        ("open", int st.s_open);
        ("p50_s", q 0.5);
        ("p90_s", q 0.9);
        ("p99_s", q 0.99);
      ]
  in
  Obj
    [
      ("source", Str r.r_source);
      ( "reason",
        match r.r_reason with Some s -> Str s | None -> Null );
      ("dropped", int r.r_dropped);
      ("events", int r.r_num_events);
      ("workers", int r.r_tids);
      ("wall_s", Num (s_of_us r.r_wall_us));
      ("busy_s", Num (s_of_us r.r_busy_us));
      ("coverage", Num r.r_coverage);
      ( "trajectory",
        match r.r_trajectory with
        | None -> Null
        | Some t ->
            Obj
              [
                ("first_bound", int t.t_first_bound);
                ("best_bound", int t.t_best_bound);
                ("improvements", int t.t_improvements);
                ("last_improvement_s", Num (s_of_us t.t_last_improvement_us));
                ("tail_s", Num (s_of_us t.t_tail_us));
                ( "tail_rung",
                  match t.t_tail_rung with Some r -> int r | None -> Null );
              ] );
      ("dimensions", List (List.map dim r.r_dims));
      ( "spans",
        List
          (List.map span (List.filteri (fun i _ -> i < top) r.r_spans)) );
    ]

let render_json ?top r = Sjson.print (json_of_report ?top r)

let verdict_label = function
  | Pass -> "ok"
  | Improved -> "improved"
  | Unstable -> "unstable"
  | Regressed _ -> "REGRESSED"

let render_diff_text d =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if d.dr_entries = [] && d.dr_lost = [] then pf "no comparable rows\n";
  List.iter
    (fun e ->
      let delta = e.de_wall_new -. e.de_wall_base in
      pf "%-10s %-40s %8.3fs -> %8.3fs (%+.3fs)%s\n"
        (verdict_label e.de_verdict)
        e.de_name e.de_wall_base e.de_wall_new delta
        (if e.de_timed_out_change then "  NEWLY TIMED OUT" else "");
      (match e.de_verdict with
      | Regressed reasons -> List.iter (pf "    %s\n") reasons
      | Improved -> pf "    newly finishes within budget\n"
      | Pass | Unstable -> ());
      if delta > 0.0 then begin
        (match e.de_stage with
        | Some (stage, bv, nv) when nv > bv ->
            pf "    stage %-12s grew %+.3fs (%.3fs -> %.3fs)\n" stage
              (nv -. bv) bv nv
        | _ -> ());
        match e.de_counter with
        | Some (counter, bv, nv) ->
            pf "    counter %-12s x%.2f (%.0f -> %.0f)\n" counter (nv /. bv)
              bv nv
        | None -> ()
      end)
    d.dr_entries;
  List.iter (pf "%-10s %-40s missing from the new run\n" "REGRESSED") d.dr_lost;
  List.iter (fun m -> pf "unmatched row: %s\n" m) d.dr_missing;
  (match regressions d with
  | 0 -> pf "no regressions\n"
  | n -> pf "%d regression(s)\n" n);
  Buffer.contents buf

let json_of_diff d =
  let open Sjson in
  Obj
    [
      ( "rows",
        List
          (List.map
             (fun e ->
               Obj
                 [
                   ("name", Str e.de_name);
                   ("wall_base_s", Num e.de_wall_base);
                   ("wall_new_s", Num e.de_wall_new);
                   ("delta_s", Num (e.de_wall_new -. e.de_wall_base));
                   ("newly_timed_out", Bool e.de_timed_out_change);
                   ("verdict", Str (verdict_label e.de_verdict));
                   ( "reasons",
                     List
                       (match e.de_verdict with
                       | Regressed reasons -> List.map (fun r -> Str r) reasons
                       | Pass | Improved | Unstable -> []) );
                   ( "stage",
                     match e.de_stage with
                     | Some (s, bv, nv) ->
                         Obj
                           [
                             ("name", Str s);
                             ("base_s", Num bv);
                             ("new_s", Num nv);
                           ]
                     | None -> Null );
                   ( "counter",
                     match e.de_counter with
                     | Some (c, bv, nv) ->
                         Obj
                           [
                             ("name", Str c);
                             ("base", Num bv);
                             ("new", Num nv);
                           ]
                     | None -> Null );
                 ])
             d.dr_entries) );
      ("lost", List (List.map (fun m -> Str m) d.dr_lost));
      ("unmatched", List (List.map (fun m -> Str m) d.dr_missing));
      ("regressions", int (regressions d));
    ]

let render_diff_json d = Sjson.print (json_of_diff d)
