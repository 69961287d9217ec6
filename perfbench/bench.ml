(* The benchmark program: runs one workload, checks every answer, and
   prints one JSON result line.

     bench.exe --workload exact-proven|anytime-hard|daemon-mix
               --seed N --seconds S --trace 0|1

   The amount of work is fixed: no wall-clock budget anywhere, one
   solving domain, and a number of passes derived from --seconds alone
   (each pass repeats the same deterministic work).  With --trace 0 the
   result carries the end-to-end metrics; with --trace 1 the same passes
   run once untraced and once traced, and the result carries the
   per-layer metrics plus the tracing overhead.  See README.md. *)

module Metrics = Qxm_obs.Metrics
module Circuit = Qxm_circuit.Circuit
module Mapper = Qxm_exact.Mapper
module Portfolio = Qxm_exact.Portfolio
module Encoding = Qxm_exact.Encoding
module Strategy = Qxm_exact.Strategy
module Daemon = Qxm_svc.Daemon
module Sjson = Qxm_json.Sjson
open Perfbench

let arch = Qxm_arch.Devices.qx4
let now = Unix.gettimeofday
let out_dir = ".perfbench"

(* -- tracing ---------------------------------------------------------------

   Spans are recorded around the benchmark's own calls into the library,
   kept in memory and written out at the end.  Spans of one row or
   request share its id; [parent] is the enclosing span. *)

type span = {
  sid : int;
  parent : int;
  id : string;
  name : string;
  t0 : float;
  t1 : float;
  args : (string * float) list;
}

let tracing = ref false
let spans = ref []
let next_sid = ref 0
let current = ref 0

let span ~id ?(args = fun _ -> []) name f =
  if not !tracing then f ()
  else begin
    incr next_sid;
    let sid = !next_sid and parent = !current in
    current := sid;
    let t0 = now () in
    let r = Fun.protect ~finally:(fun () -> current := parent) f in
    spans := { sid; parent; id; name; t0; t1 = now (); args = args r } :: !spans;
    r
  end

(* Solver work of [f] from registry diffs, attached to its span. *)
let counted ~id name f =
  let before = if !tracing then Metrics.snapshot () else [] in
  span ~id name f ~args:(fun _ ->
      let d = Metrics.diff (Metrics.snapshot ()) before in
      [
        ("conflicts", float (Metrics.count d "solver.conflicts"));
        ("propagations", float (Metrics.count d "solver.propagations"));
      ])

let write_spans path =
  let json s =
    Sjson.Obj
      ([
         ("sid", Sjson.Num (float s.sid));
         ("parent", Sjson.Num (float s.parent));
         ("id", Sjson.Str s.id);
         ("name", Sjson.Str s.name);
         ("start_s", Sjson.Num s.t0);
         ("dur_s", Sjson.Num (s.t1 -. s.t0));
       ]
      @ List.map (fun (k, v) -> (k, Sjson.Num v)) s.args)
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s -> output_string oc (Sjson.print (json s) ^ "\n"))
        (List.rev !spans))

(* -- one pass --------------------------------------------------------------- *)

type answer = {
  label : string;
  f_cost : int;
  proven : bool;
  verdict : (unit, string) result;
  latency : float;
  best_at : float;  (** seconds into the call when the returned F existed *)
  first_model : float option;  (** seconds into the call of the first model *)
}

type pass = {
  wall : float;
  answers : answer list;
  work : Metrics.snapshot;  (** registry diff over the timed region *)
  peak_words : int;  (** the heap's peak at the end of the timed region *)
  layers : (string * float) list;  (** per-layer figures of this pass *)
  extra_fingerprint : string;
}

(* Progress log of one call: the first time each incumbent cost was
   seen.  [best_at f] is the first time an incumbent no worse than [f]
   existed; an answer no exact stage produced exists only at return. *)
let progress_log () =
  let seen = ref [] in
  let on_progress (p : Mapper.progress) =
    match (p.p_best, !seen) with
    | Some b, (_, last) :: _ when b >= last -> ()
    | Some b, _ -> seen := (p.p_elapsed, b) :: !seen
    | None, _ -> ()
  in
  let first_model () =
    match List.rev !seen with (t, _) :: _ -> Some t | [] -> None
  in
  let best_at ~latency f =
    List.fold_left (fun acc (t, b) -> if b <= f then t else acc) latency !seen
  in
  (on_progress, first_model, best_at)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let share a b = if b = 0 then 0.0 else float a /. float b

(* The heap's peak is read while every domain the workload started is
   still running: the runtime sums the peaks of the running domains, and
   forgets a domain's peak when the domain ends. *)
let timed_region f =
  let before = Metrics.snapshot () in
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  (r, wall, Metrics.diff (Metrics.snapshot ()) before, peak_words)

(* Minimal-strategy encoding of [circuit] on the whole device: the
   instance the paper's Table 1 solves. *)
let encode circuit =
  let cnots = Array.of_list (Circuit.cnots circuit) in
  let inst =
    {
      Encoding.arch;
      num_logical = Circuit.num_qubits circuit;
      cnots;
      spots = Strategy.spots Strategy.Minimal (Array.to_list cnots);
    }
  in
  let solver =
    Qxm_sat.Solver.create ~capacity:(Encoding.var_capacity_hint inst) ()
  in
  let t0 = now () in
  let built =
    Encoding.build ~amo:Mapper.default.amo ~symmetry:Mapper.default.symmetry
      (Qxm_encode.Cnf.create solver) inst
  in
  (Encoding.var_count built, Encoding.clause_count built, now () -. t0)

type encoded = { vars : int; clauses : int; encode_s : float }

let encode_all circuits =
  List.fold_left
    (fun acc c ->
      let v, cl, s = encode c in
      { vars = acc.vars + v; clauses = acc.clauses + cl; encode_s = acc.encode_s +. s })
    { vars = 0; clauses = 0; encode_s = 0.0 }
    circuits

let encode_layers e =
  [
    ("encode.vars", float e.vars);
    ("encode.clauses", float e.clauses);
    ("encode.s", e.encode_s);
  ]

let table1 names =
  List.map
    (fun name ->
      match Qxm_benchmarks.Suite.by_name name with
      | Some e -> (name, e.Qxm_benchmarks.Suite.circuit)
      | None -> failwith ("unknown Table-1 row " ^ name))
    names

(* One timed pass over Table-1 rows.  [call] maps a row, [view] reads
   F, [optimal] and the elementary circuit off its report, and [expect]
   adds the workload's own conditions to the common answer check.
   Checks run after the timed region. *)
let rows_pass rows ~span_name ~call ~pp_failure ~view ~expect =
  let results, wall, work, peak_words =
    timed_region (fun () ->
        List.map
          (fun (name, circuit) ->
            let on_progress, first_model, best_at = progress_log () in
            let t0 = now () in
            let r = counted ~id:name span_name (fun () -> call ~on_progress circuit) in
            let latency = now () -. t0 in
            (name, circuit, r, latency, first_model (), best_at ~latency))
          rows)
  in
  let answers =
    List.map
      (fun (name, circuit, r, latency, first_model, best_at) ->
        match r with
        | Error e ->
            {
              label = name;
              f_cost = -1;
              proven = false;
              verdict = Error (Format.asprintf "%a" pp_failure e);
              latency;
              best_at = latency;
              first_model;
            }
        | Ok r ->
            let f_cost, proven, elementary = view r in
            let verdict =
              Result.bind (expect name ~f_cost ~proven) (fun () ->
                  Check.answer ~arch ~original:circuit ~elementary ~f_cost)
            in
            { label = name; f_cost; proven; verdict; latency; best_at = best_at f_cost; first_model })
      results
  in
  let reports = List.filter_map (fun (_, _, r, _, _, _) -> Result.to_option r) results in
  (answers, reports, wall, work, peak_words)

(* Time to the first model, and the proof tail: from the returned
   incumbent to the end of a proven call (the final UNSAT rung). *)
let opt_layers answers =
  [
    ("opt.first_model_s", sum (fun a -> Option.value ~default:0.0 a.first_model) answers);
    ( "opt.proof_tail_s",
      sum (fun a -> if a.proven then a.latency -. a.best_at else 0.0) answers );
  ]

(* -- exact-proven ------------------------------------------------------------

   The quick Table-1 rows, each with its optimum F (c_min − original in
   results/table1.csv), through Mapper.run at jobs = 1, no timeout. *)

let exact_rows =
  [
    ("3_17_13", 0); ("ex-1_166", 8); ("ham3_102", 8); ("miller_11", 26);
    ("4gt11_84", 7); ("rd32-v0_66", 22); ("rd32-v1_68", 18);
    ("4mod5-v0_20", 4); ("mod5d1_63", 11); ("4mod5-v1_22", 18);
  ]

let exact_pass (rows, enc) =
  let options = { Mapper.default with jobs = 1 } in
  let answers, reports, wall, work, peak_words =
    rows_pass rows ~span_name:"mapper.run"
      ~call:(fun ~on_progress c -> Mapper.run ~options ~on_progress ~arch c)
      ~pp_failure:Mapper.pp_failure
      ~view:(fun (r : Mapper.report) -> (r.f_cost, r.optimal, r.elementary))
      ~expect:(fun name ~f_cost ~proven ->
        let optimum = List.assoc name exact_rows in
        if f_cost <> optimum then
          Error (Printf.sprintf "F=%d, optimum is %d" f_cost optimum)
        else if not proven then Error "optimum not proven"
        else Ok ())
  in
  let total f = List.fold_left (fun n (r : Mapper.report) -> n + f r) 0 reports in
  let phase p = sum (fun (r : Mapper.report) -> List.assoc p r.phase_seconds) reports in
  let candidates = total (fun r -> r.subsets_tried) in
  let layers =
    encode_layers enc @ opt_layers answers
    @ [
        ("mapper.warm_start_s", phase "warm_start");
        ("mapper.reconstruct_s", phase "reconstruct");
        ("mapper.verify_s", phase "verify");
        ("mapper.candidates", float candidates);
        ("mapper.pruned_share", share (total (fun r -> r.pruned_by_incumbent)) candidates);
      ]
  in
  { wall; answers; work; peak_words; layers; extra_fingerprint = "" }

(* -- anytime-hard ------------------------------------------------------------

   The hard Table-1 rows through Portfolio.run: relaxed-strategy probe,
   one conflict-capped rung, then the heuristic cascade. *)

let hard_rows =
  [ "4gt11_82"; "4gt13_92"; "alu-v1_28"; "alu-v1_29"; "alu-v3_34"; "qe_qft_4"; "qe_qft_5" ]

let hard_options =
  {
    Portfolio.default with
    exact = { Mapper.default with jobs = 1 };
    ladder = [ 4000 ];
    probe = true;
    budget = None;
    jobs = 1;
  }

(* F of a stage outcome such as "incumbent F=43" or "ok F=68". *)
let outcome_f outcome =
  match String.index_opt outcome '=' with
  | Some i when i > 0 && outcome.[i - 1] = 'F' ->
      int_of_string_opt (String.sub outcome (i + 1) (String.length outcome - i - 1))
  | _ -> None

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let hard_pass (rows, enc) =
  let answers, reports, wall, work, peak_words =
    rows_pass rows ~span_name:"portfolio.run"
      ~call:(fun ~on_progress c ->
        Portfolio.run ~options:hard_options ~on_progress ~arch c)
      ~pp_failure:Portfolio.pp_failure
      ~view:(fun (r : Portfolio.report) -> (r.f_cost, r.optimal, r.elementary))
      ~expect:(fun _ ~f_cost:_ ~proven:_ -> Ok ())
  in
  let stages pred =
    List.concat_map
      (fun (r : Portfolio.report) -> List.filter (fun s -> pred s.Portfolio.stage) r.stages)
      reports
  in
  let spent pred = sum (fun s -> s.Portfolio.spent) (stages pred) in
  let is_probe = starts_with "probe:" and is_rung = starts_with "exact:" in
  let is_heuristic s = List.mem s [ "sabre"; "astar"; "stochastic" ] in
  let improved (r : Portfolio.report) =
    let fs pred =
      List.filter_map
        (fun s -> if pred s.Portfolio.stage then outcome_f s.outcome else None)
        r.stages
    in
    match (fs is_probe, fs is_rung) with
    | p :: _, rungs -> List.exists (fun f -> f < p) rungs
    | [], _ :: _ -> true
    | [], [] -> false
  in
  let sabre =
    List.filter_map
      (fun (r : Portfolio.report) ->
        List.find_map
          (fun s ->
            if s.Portfolio.stage = "sabre" then Option.map (fun f -> (f, r.f_cost)) (outcome_f s.outcome)
            else None)
          r.stages)
      reports
  in
  let sabre_f = List.fold_left (fun n (s, _) -> n + s) 0 sabre in
  let chosen_f = List.fold_left (fun n (_, f) -> n + f) 0 sabre in
  let reported =
    List.fold_left
      (fun n (r : Portfolio.report) -> n + r.sat_stats.Qxm_sat.Solver.conflicts)
      0 reports
  in
  let layers =
    encode_layers enc @ opt_layers answers
    @ [
        ("portfolio.probe_s", spent is_probe);
        ("portfolio.ladder_s", spent is_rung);
        ("portfolio.cascade_s", spent is_heuristic);
        ( "portfolio.ladder_improve_share",
          share (List.length (List.filter improved reports)) (List.length reports) );
        ( "portfolio.unreported_conflicts",
          float (Metrics.count work "solver.conflicts" - reported) );
        ("heuristic.sabre_s", spent (( = ) "sabre"));
        ( "heuristic.sabre_excess_pct",
          if chosen_f = 0 then 0.0 else 100.0 *. float (sabre_f - chosen_f) /. float chosen_f );
      ]
  in
  { wall; answers; work; peak_words; layers; extra_fingerprint = "" }

(* -- daemon-mix --------------------------------------------------------------

   A closed loop, one client with one outstanding request, against an
   in-process daemon (default config, one worker, memory cache).  Each
   request is a JSON line through parse_request → submit_async →
   response_json. *)

type mix_inputs = {
  mix : Mix.t;
  lines : string array;
  daemon : Daemon.t;
  enc : encoded;
}

let mix_setup ~seed () =
  let mix = Mix.generate ~seed in
  let lines =
    Array.map
      (fun (r : Mix.request) ->
        Sjson.print
          (Sjson.Obj
             [
               ("op", Sjson.Str "map");
               ("id", Sjson.Str r.id);
               ("qasm", Sjson.Str r.qasm);
               ("device", Sjson.Str "qx4");
             ]))
      mix.requests
  in
  let enc = encode_all (Array.to_list mix.circuits) in
  let daemon = Daemon.create ~config:{ Daemon.default_config with jobs = 1 } () in
  { mix; lines; daemon; enc }

type exchange = {
  x_parse : float;
  x_respond : float;
  x_latency : float;
  x_out : string;
}

let one_request daemon ~id line =
  let m = Mutex.create () and cv = Condition.create () and slot = ref None in
  let t0 = now () in
  let request =
    span ~id "svc.parse" (fun () ->
        match Sjson.parse line with
        | Error e -> Error e
        | Ok j -> Daemon.parse_request j)
  in
  let t1 = now () in
  let response =
    match request with
    | Error e -> Daemon.Rejected e
    | Ok req ->
        counted ~id "svc.wait" (fun () ->
            Daemon.submit_async daemon req (fun resp ->
                Mutex.lock m;
                slot := Some resp;
                Condition.signal cv;
                Mutex.unlock m);
            Mutex.lock m;
            while !slot = None do
              Condition.wait cv m
            done;
            Mutex.unlock m;
            Option.get !slot)
  in
  let t2 = now () in
  let out = span ~id "svc.respond" (fun () -> Sjson.print (Daemon.response_json ~id response)) in
  let t3 = now () in
  { x_parse = t1 -. t0; x_respond = t3 -. t2; x_latency = t3 -. t0; x_out = out }

let check_response (mix : Mix.t) (req : Mix.request) out =
  let original = mix.circuits.(req.circuit) in
  let ( let* ) = Result.bind in
  let* j = Sjson.parse out in
  let field k conv = Option.bind (Sjson.member k j) conv in
  let* () =
    match field "status" Sjson.to_string_opt with
    | Some "ok" -> Ok ()
    | s -> Error ("status " ^ Option.value ~default:"missing" s)
  in
  match
    ( field "f_cost" Sjson.to_int_opt,
      field "optimal" Sjson.to_bool_opt,
      field "cached" Sjson.to_bool_opt,
      field "qasm" Sjson.to_string_opt )
  with
  | Some f, Some optimal, Some cached, Some qasm ->
      let verdict =
        if cached <> req.hit then
          Error (Printf.sprintf "cached=%b, the LRU model predicts %b" cached req.hit)
        else if not optimal then Error "optimum not proven"
        else
          match Qxm_circuit.Qasm.parse_string qasm with
          | exception Qxm_circuit.Qasm.Parse_error { message; _ } -> Error message
          | elementary -> Check.answer ~arch ~original ~elementary ~f_cost:f
      in
      Ok (f, optimal, verdict)
  | _ -> Error "response lacks f_cost, optimal, cached or qasm"

let mix_pass (inp : mix_inputs) =
  let exchanges, wall, work, peak_words =
    timed_region (fun () ->
        Array.mapi
          (fun k line ->
            let id = inp.mix.requests.(k).Mix.id in
            span ~id "request" (fun () -> one_request inp.daemon ~id line))
          inp.lines)
  in
  Daemon.shutdown inp.daemon;
  (* A hit's answer exists before the request arrives; a miss's only
     when it returns, as the service reports no progress. *)
  let answers =
    Array.to_list
      (Array.mapi
         (fun k x ->
           let req = inp.mix.requests.(k) in
           let f_cost, proven, verdict =
             match check_response inp.mix req x.x_out with
             | Ok (f, p, v) -> (f, p, v)
             | Error e -> (-1, false, Error e)
           in
           {
             label = req.id;
             f_cost;
             proven;
             verdict;
             latency = x.x_latency;
             best_at = (if req.hit then 0.0 else x.x_latency);
             first_model = None;
           })
         exchanges)
  in
  let by_hit want =
    List.filteri (fun k _ -> inp.mix.requests.(k).Mix.hit = want) (Array.to_list exchanges)
  in
  let hits = by_hit true and misses = by_hit false in
  let ms pm xs = 1000.0 *. Pstats.percentile ~permille:pm (List.map (fun x -> x.x_latency) xs) in
  let tail_label xs =
    match Pstats.tail_permille (List.length xs) with
    | Some pm -> (pm, Pstats.permille_label pm)
    | None -> failwith "too few samples for a tail percentile"
  in
  let hit_tail, hit_tail_name = tail_label hits in
  let miss_tail, miss_tail_name = tail_label misses in
  let all = Array.to_list exchanges in
  let median_ms f = 1000.0 *. Pstats.median (List.map f all) in
  let layers =
    encode_layers inp.enc
    @ [
        ("svc.parse_ms", median_ms (fun x -> x.x_parse));
        ("svc.respond_ms", median_ms (fun x -> x.x_respond));
        ("svc.requests", float (List.length all));
        ("svc.hits", float (List.length hits));
        ("svc.misses", float (List.length misses));
        ( "svc.hit_share",
          share (Metrics.count work "svc.cache_hits_served") (Metrics.count work "svc.requests") );
        ("svc.evictions", float (Metrics.count work "svc.cache_evictions"));
        ("svc.sheds", float (Metrics.count work "svc.sheds"));
        ("svc.retries", float (Metrics.count work "svc.retries"));
        ("svc.hit_p50_ms", ms 500 hits);
        ("svc.hit_" ^ hit_tail_name ^ "_ms", ms hit_tail hits);
        ("svc.miss_p50_ms", ms 500 misses);
        ("svc.miss_" ^ miss_tail_name ^ "_ms", ms miss_tail misses);
      ]
  in
  {
    wall;
    answers;
    work;
    peak_words;
    layers;
    extra_fingerprint =
      Printf.sprintf "served=%d evicted=%d"
        (Metrics.count work "svc.cache_hits_served")
        (Metrics.count work "svc.cache_evictions");
  }

(* -- main -------------------------------------------------------------------- *)

(* Every metric a result can carry, by mode.  A workload that does not
   exercise (or cannot observe) a layer reports 0 for it; README.md has
   the table. *)
let end_to_end =
  [
    ("setup_s", "s"); ("wall_s", "s"); ("cost_f_sum", "gates");
    ("time_to_best_s", "s"); ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("answers.proven", "count"); ("answers.failed_share", "share");
    ("sat.conflicts", "count"); ("sat.propagations", "count");
    ("sat.props_per_s", "1/s"); ("sat.minor_words_per_prop", "words");
    ("opt.solves", "count"); ("opt.first_model_s", "s"); ("opt.proof_tail_s", "s");
    ("encode.vars", "count"); ("encode.clauses", "count"); ("encode.s", "s");
    ("mapper.warm_start_s", "s"); ("mapper.reconstruct_s", "s");
    ("mapper.verify_s", "s"); ("mapper.candidates", "count");
    ("mapper.pruned_share", "share");
    ("portfolio.probe_s", "s"); ("portfolio.ladder_s", "s");
    ("portfolio.cascade_s", "s"); ("portfolio.ladder_improve_share", "share");
    ("portfolio.unreported_conflicts", "count");
    ("heuristic.sabre_s", "s"); ("heuristic.sabre_excess_pct", "%");
    ("svc.parse_ms", "ms"); ("svc.respond_ms", "ms"); ("svc.requests", "count");
    ("svc.hits", "count"); ("svc.misses", "count"); ("svc.hit_share", "share");
    ("svc.evictions", "count"); ("svc.sheds", "count"); ("svc.retries", "count");
    ("svc.hit_p50_ms", "ms"); ("svc.hit_p95_ms", "ms");
    ("svc.miss_p50_ms", "ms"); ("svc.miss_p90_ms", "ms");
    ("trace.overhead_s", "s");
  ]

(* A workload: [setup] builds inputs (timed as set-up, repeated), [pass]
   runs the fixed work once; [pass_s] is the nominal length of a pass,
   which turns --seconds into a pass count.  [setups] is how many
   set-ups a run times at least: more for the rows, whose set-up takes a
   fraction of a second.  [seeded] says whether the inputs depend on the
   seed. *)
type workload =
  | W : {
      setup : unit -> 'i;
      discard : 'i -> unit;
      pass : 'i -> pass;
      pass_s : float;
      setups : int;
      seeded : bool;
    }
      -> workload

let rows_setup names () =
  let rows = table1 names in
  (rows, encode_all (List.map snd rows))

let workload ~seed = function
  | "exact-proven" ->
      W
        {
          setup = rows_setup (List.map fst exact_rows);
          discard = ignore;
          pass = exact_pass;
          pass_s = 30.0;
          setups = 15;
          seeded = false;
        }
  | "anytime-hard" ->
      W
        {
          setup = rows_setup hard_rows;
          discard = ignore;
          pass = hard_pass;
          pass_s = 10.0;
          setups = 15;
          seeded = false;
        }
  | "daemon-mix" ->
      W
        {
          setup = mix_setup ~seed;
          discard = (fun i -> Daemon.shutdown i.daemon);
          pass = mix_pass;
          pass_s = 30.0;
          setups = 5;
          seeded = true;
        }
  | w -> failwith ("unknown workload " ^ w)

(* Run [passes] passes, each on freshly set-up inputs.  Extra set-ups
   after them make up [w.setups] set-up timings, so they do not count
   in the passes' heap peak.  Every set-up and every pass starts from a
   compacted heap, so none of them pays for another's garbage. *)
let run_passes (W w) ~passes =
  let setup_times = ref [] in
  let setup () =
    Gc.compact ();
    let t0 = now () in
    let i = w.setup () in
    setup_times := (now () -. t0) :: !setup_times;
    i
  in
  let pass i =
    Gc.compact ();
    w.pass i
  in
  let results = List.init passes (fun _ -> pass (setup ())) in
  for _ = passes + 1 to w.setups do
    w.discard (setup ())
  done;
  (results, Pstats.median !setup_times)

let fingerprint p =
  String.concat " "
    (List.map
       (fun a -> Printf.sprintf "%s:%d%s" a.label a.f_cost (if a.proven then "*" else ""))
       p.answers
    @ [
        Printf.sprintf "conflicts=%d propagations=%d %s"
          (Metrics.count p.work "solver.conflicts")
          (Metrics.count p.work "solver.propagations")
          p.extra_fingerprint;
      ])

let binary_digest = Digest.to_hex (Digest.file Sys.executable_name)

(* The fingerprint of a pass is stored per binary, workload and inputs;
   any later run of the same binary on the same inputs that differs is
   nondeterministic.  [seed] is None for inputs that ignore the seed. *)
let check_stored_fingerprint ~workload ~seed fp =
  let dir = Filename.concat out_dir "fingerprints" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ out_dir; dir ];
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-%s-%s.txt" workload
         (match seed with Some s -> Printf.sprintf "seed%d" s | None -> "fixed")
         binary_digest)
  in
  if Sys.file_exists path then
    In_channel.with_open_text path In_channel.input_all = fp
  else begin
    Out_channel.with_open_text path (fun oc -> output_string oc fp);
    true
  end

let sat_layers passes =
  let count k = List.fold_left (fun n p -> n + Metrics.count p.work k) 0 passes in
  let solve_steps =
    List.fold_left
      (fun n p ->
        match Metrics.find p.work "minimize.step_conflicts" with
        | Some (Metrics.Buckets b) -> n + Array.fold_left ( + ) 0 b
        | _ -> n)
      0 passes
  in
  let props = count "solver.propagations" in
  let np = List.length passes in
  let per_pass x = float x /. float np in
  [
    ("sat.conflicts", per_pass (count "solver.conflicts"));
    ("sat.propagations", per_pass props);
    ("sat.props_per_s", float props /. sum (fun p -> p.wall) passes);
    ("sat.minor_words_per_prop", share (count "solver.minor_words") props);
    ("opt.solves", per_pass solve_steps);
  ]

let () =
  let workload_name = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload_name, "NAME exact-proven | anytime-hard | daemon-mix");
      ("--seed", Arg.Set_int seed, "N input seed (daemon-mix)");
      ("--seconds", Arg.Set_int seconds, "S nominal measured time; sets the pass count");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w = workload ~seed:!seed !workload_name in
  let (W { pass_s; seeded; _ }) = w in
  let passes = max 1 (Float.to_int (Float.round (float !seconds /. pass_s))) in
  let results, setup_s = run_passes w ~passes in
  let traced =
    if !trace = 0 then []
    else begin
      tracing := true;
      let r, _ = run_passes w ~passes in
      tracing := false;
      r
    end
  in
  let all = results @ traced in
  let first = List.hd all in
  let fp = fingerprint first in
  let deterministic =
    List.for_all (fun p -> fingerprint p = fp) all
    && check_stored_fingerprint ~workload:!workload_name
         ~seed:(if seeded then Some !seed else None)
         fp
  in
  let failures =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun a -> match a.verdict with Error e -> Some (a.label ^ ": " ^ e) | Ok () -> None)
          p.answers)
      all
  in
  List.iter prerr_endline failures;
  if not deterministic then prerr_endline ("nondeterministic work; first pass: " ^ fp);
  Printf.eprintf "fingerprint %s: %s\n" (Digest.to_hex (Digest.string fp))
    (if String.length fp > 200 then String.sub fp (String.length fp - 120) 120 else fp);
  List.iter (fun p -> Printf.eprintf "pass wall %.3f s\n" p.wall) all;
  let attempted = List.length first.answers in
  let failed = List.length (List.filter (fun a -> Result.is_error a.verdict) first.answers) in
  let median_of f ps = Pstats.median (List.map f ps) in
  let metrics =
    if !trace = 0 then
      [
        ("setup_s", setup_s);
        ("wall_s", median_of (fun p -> p.wall) results);
        ("cost_f_sum", float (List.fold_left (fun n a -> n + a.f_cost) 0 first.answers));
        ("time_to_best_s", median_of (fun p -> sum (fun a -> a.best_at) p.answers) results);
        ( "peak_heap_mb",
          float (List.fold_left (fun m p -> max m p.peak_words) 0 results)
          *. float (Sys.word_size / 8) /. 1e6 );
      ]
      |> List.map (fun (k, v) -> (k, v, List.assoc k end_to_end))
    else begin
      let p = List.hd traced in
      let measured =
        [
          ("answers.proven", float (List.length (List.filter (fun a -> a.proven) p.answers)));
          ("answers.failed_share", share failed attempted);
          ( "trace.overhead_s",
            median_of (fun p -> p.wall) traced -. median_of (fun p -> p.wall) results );
        ]
        @ sat_layers traced @ p.layers
      in
      List.iter
        (fun (k, _) ->
          if not (List.mem_assoc k per_layer) then failwith ("unlisted metric " ^ k))
        measured;
      let path =
        Filename.concat out_dir
          (Printf.sprintf "trace-%s-seed%d.jsonl" !workload_name !seed)
      in
      write_spans path;
      prerr_endline ("spans: " ^ path);
      List.map
        (fun (k, unit) -> (k, Option.value ~default:0.0 (List.assoc_opt k measured), unit))
        per_layer
    end
  in
  let result =
    Sjson.Obj
      [
        ("correct", Sjson.Bool (failures = [] && deterministic));
        ("attempted", Sjson.Num (float attempted));
        ("failed", Sjson.Num (float failed));
        ( "metrics",
          Sjson.Obj
            (List.map
               (fun (k, v, unit) ->
                 (k, Sjson.Obj [ ("value", Sjson.Num v); ("unit", Sjson.Str unit) ]))
               metrics) );
      ]
  in
  print_endline (Sjson.print result)
