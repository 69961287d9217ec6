(* Tests for the offline profiler behind qxm_prof: input auto-detection
   (Chrome trace / NDJSON events / flight dump / bench JSON), span and
   sample-gap attribution, trajectory extraction, and the bench diff
   that names the stage and counter behind a regression. *)

open Test_util
module Profile = Qxm_profile.Profile

(* -- synthetic inputs ----------------------------------------------------- *)

let ev ?(args = "") name ph ts tid =
  Printf.sprintf
    "{\"name\": \"%s\", \"ph\": \"%s\", \"ts\": %.1f, \"pid\": 0, \"tid\": \
     %d, \"args\": {%s}}"
    name ph ts tid args

let sample ?(extra = "") ts tid conflicts =
  ev "solver.sample" "C" ts tid
    ~args:(Printf.sprintf "\"conflicts\": %d%s" conflicts extra)

(* One worker: 100us of encode, then a 1000us solve whose interior is
   covered by three samples — the first gap under rung 5, the second
   under rung 4.  Every microsecond of the window is attributable. *)
let trace_lines =
  [
    ev "mapper.encode" "B" 0.0 1;
    ev "mapper.encode" "E" 100.0 1;
    ev "mapper.solve" "B" 100.0 1;
    sample 100.0 1 0;
    sample 600.0 1 64
      ~extra:", \"bound\": 5, \"label\": \"stage=ladder rung=5\"";
    sample 1100.0 1 128
      ~extra:", \"bound\": 4, \"label\": \"stage=ladder rung=4\"";
    ev "mapper.solve" "E" 1100.0 1;
  ]

let ndjson = String.concat "\n" trace_lines ^ "\n"

let chrome =
  "{\"traceEvents\": [\n" ^ String.concat ",\n" trace_lines ^ "\n]}\n"

let flight =
  "{\"flight\": 1, \"reason\": \"unit timeout\", \"dumped_ts_us\": 2000.0, \
   \"dropped\": 3, \"events\": 7}\n" ^ ndjson

let bench_row ?(stage_solve = 1.0) ?(conflicts = 1000) ?(timed_out = false)
    ?(wall = 1.2) name =
  Printf.sprintf
    "  {\"suite\": \"quick\", \"benchmark\": \"%s\", \"device\": \"qx4\", \
     \"strategy\": \"minimal\", \"seed\": 0, \"jobs\": 1, \"wall_s\": %.3f, \
     \"stage_encode_s\": 0.100, \"stage_solve_s\": %.3f, \"timed_out\": %b, \
     \"conflicts\": %d, \"propagations\": %d}"
    name wall stage_solve timed_out conflicts (conflicts * 100)

let bench_doc rows = "[\n" ^ String.concat ",\n" rows ^ "\n]\n"

(* -- parsing -------------------------------------------------------------- *)

let parse s =
  match Profile.parse_string s with
  | Ok input -> input
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_autodetect () =
  (match parse ndjson with
  | Profile.Trace_events events ->
      Alcotest.(check int) "ndjson events" 7 (List.length events)
  | _ -> Alcotest.fail "ndjson not detected as events");
  (match parse chrome with
  | Profile.Trace_events events ->
      Alcotest.(check int) "chrome events" 7 (List.length events)
  | _ -> Alcotest.fail "chrome doc not detected as events");
  (match parse flight with
  | Profile.Flight { f_reason; f_dropped; f_events } ->
      Alcotest.(check string) "flight reason" "unit timeout" f_reason;
      Alcotest.(check int) "flight dropped" 3 f_dropped;
      Alcotest.(check int) "flight events" 7 (List.length f_events)
  | _ -> Alcotest.fail "flight dump not detected");
  match parse (bench_doc [ bench_row "a"; bench_row "b" ]) with
  | Profile.Bench_rows rows ->
      Alcotest.(check int) "bench rows" 2 (List.length rows)
  | _ -> Alcotest.fail "bench JSON not detected"

(* -- attribution ---------------------------------------------------------- *)

let slice report dim name =
  match
    List.find_opt (fun (d : Profile.dim) -> d.d_name = dim) report.Profile.r_dims
  with
  | None -> Alcotest.failf "dimension %S missing" dim
  | Some d -> Option.value ~default:0.0 (List.assoc_opt name d.d_slices)

let test_attribution () =
  let r = Profile.analyze (parse flight) in
  Alcotest.(check (option string)) "reason surfaces" (Some "unit timeout")
    r.r_reason;
  Alcotest.(check int) "dropped surfaces" 3 r.r_dropped;
  Alcotest.(check int) "one worker" 1 r.r_tids;
  Alcotest.(check (float 1e-6)) "window is last - first ts" 1100.0 r.r_wall_us;
  (* span replay: totals for the two completed spans *)
  let span name =
    match
      List.find_opt (fun (s : Profile.span_stat) -> s.s_name = name) r.r_spans
    with
    | Some s -> s
    | None -> Alcotest.failf "span %S missing" name
  in
  Alcotest.(check (float 1e-6)) "encode span total" 100.0
    (span "mapper.encode").s_total_us;
  Alcotest.(check (float 1e-6)) "solve span total" 1000.0
    (span "mapper.solve").s_total_us;
  Alcotest.(check int) "solve span completed once" 1
    (span "mapper.solve").s_count;
  (* sample-gap attribution: the two 500us gaps land on their rungs and
     the ladder stage; the phase dimension merges samples and spans
     without double counting *)
  Alcotest.(check (float 1e-6)) "rung 5 charged its gap" 500.0
    (slice r "rung" "5");
  Alcotest.(check (float 1e-6)) "rung 4 charged its gap" 500.0
    (slice r "rung" "4");
  Alcotest.(check (float 1e-6)) "stage ladder charged both gaps" 1000.0
    (slice r "stage" "ladder");
  Alcotest.(check (float 1e-6)) "phase solve not double counted" 1000.0
    (slice r "phase" "solve");
  Alcotest.(check (float 1e-6)) "phase encode from its span" 100.0
    (slice r "phase" "encode");
  Alcotest.(check bool)
    (Printf.sprintf "coverage within [0.95, 1.05] (got %.3f)" r.r_coverage)
    true
    (r.r_coverage >= 0.95 && r.r_coverage <= 1.05);
  (* trajectory: first bound 5, improved once to 4 *)
  match r.r_trajectory with
  | None -> Alcotest.fail "trajectory missing"
  | Some t ->
      Alcotest.(check int) "first bound" 5 t.t_first_bound;
      Alcotest.(check int) "best bound" 4 t.t_best_bound;
      Alcotest.(check bool) "at least one improvement" true
        (t.t_improvements >= 1)

let test_open_span_censored () =
  (* a span that never closes — the normal shape for a timeout — is
     charged up to the end of the window, not dropped *)
  let lines =
    [ ev "mapper.solve" "B" 0.0 1; ev "solver.reduce_db" "I" 800.0 1 ]
  in
  let r =
    Profile.analyze (parse (String.concat "\n" lines ^ "\n"))
  in
  match
    List.find_opt
      (fun (s : Profile.span_stat) -> s.s_name = "mapper.solve")
      r.r_spans
  with
  | None -> Alcotest.fail "open span missing from stats"
  | Some s ->
      Alcotest.(check int) "no completed instance" 0 s.s_count;
      Alcotest.(check int) "one open instance" 1 s.s_open;
      Alcotest.(check (float 1e-6)) "censored at window end" 800.0 s.s_total_us

let test_renderers_run () =
  let r = Profile.analyze (parse flight) in
  let text = Profile.render_text ~top:5 r in
  Alcotest.(check bool) "text names the reason" true
    (contains_substring text "unit timeout");
  Alcotest.(check bool) "text has the rung dimension" true
    (contains_substring text "by rung");
  let json = Profile.render_json r in
  match Qxm_json.Sjson.parse json with
  | Error e -> Alcotest.failf "render_json is not JSON: %s" e
  | Ok doc ->
      Alcotest.(check (option string)) "json carries the source"
        (Some "flight dump")
        Qxm_json.Sjson.(Option.bind (member "source" doc) to_string_opt)

let test_analyze_rejects_bench () =
  match Profile.analyze (parse (bench_doc [ bench_row "a" ])) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "analyze must reject bench rows"

(* -- bench diff ----------------------------------------------------------- *)

let test_diff_names_the_stage () =
  (* synthetic regression: benchmark "slow" triples its solve stage and
     its conflict count; "steady" is unchanged; "gone" exists only in
     the base run *)
  let base =
    parse
      (bench_doc
         [
           bench_row "slow" ~stage_solve:1.0 ~conflicts:1000 ~wall:1.2;
           bench_row "steady";
           bench_row "gone";
         ])
  in
  let fresh =
    parse
      (bench_doc
         [
           bench_row "slow" ~stage_solve:3.0 ~conflicts:9000 ~wall:3.2
             ~timed_out:true;
           bench_row "steady";
         ])
  in
  match Profile.diff base fresh with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok d ->
      (match d.dr_missing with
      | [ entry ] ->
          Alcotest.(check bool) "one-sided row named" true
            (contains_substring entry "gone"
            && contains_substring entry "base only")
      | l ->
          Alcotest.failf "expected one one-sided row, got %d" (List.length l));
      let entry =
        match
          List.find_opt
            (fun (e : Profile.diff_entry) ->
              contains_substring e.de_name "slow")
            d.dr_entries
        with
        | Some e -> e
        | None -> Alcotest.fail "regressed row missing from diff"
      in
      (match d.dr_entries with
      | first :: _ ->
          Alcotest.(check bool) "biggest regression sorts first" true
            (contains_substring first.de_name "slow")
      | [] -> Alcotest.fail "empty diff");
      (match entry.de_stage with
      | Some (stage, base_s, new_s) ->
          Alcotest.(check string) "stage that grew is named" "solve" stage;
          Alcotest.(check (float 1e-6)) "stage base seconds" 1.0 base_s;
          Alcotest.(check (float 1e-6)) "stage new seconds" 3.0 new_s
      | None -> Alcotest.fail "no stage attributed");
      (match entry.de_counter with
      | Some (counter, _, _) ->
          Alcotest.(check string) "counter that grew is named" "conflicts"
            counter
      | None -> Alcotest.fail "no counter attributed");
      Alcotest.(check bool) "timed_out flip flagged" true
        entry.de_timed_out_change;
      let text = Profile.render_diff_text d in
      Alcotest.(check bool) "diff text names the stage" true
        (contains_substring text "solve");
      match Qxm_json.Sjson.parse (Profile.render_diff_json d) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "render_diff_json is not JSON: %s" e

(* -- the regression gate -------------------------------------------------- *)

(* One bench record with the fields the gate reads.  A failed row
   carries only the failure markers; [?words] omitted models a baseline
   that predates the allocation counters. *)
let gate_row ?suite ?(jobs = 1) ?(optimal = true) ?timed_out ?(failed = false)
    ?(wall = 1.0) ?(props = 200_000) ?(pps = 1.5e6) ?words name =
  let open Qxm_json.Sjson in
  let fields =
    (match suite with Some s -> [ ("suite", Str s) ] | None -> [])
    @ [
        ("benchmark", Str name);
        ("device", Str "qx4");
        ("strategy", Str "minimal");
        ("jobs", int jobs);
        ("wall_s", Num wall);
      ]
    @
    if failed then [ ("failed", Bool true); ("timed_out", Bool true) ]
    else
      [
        ("optimal", Bool optimal);
        ("timed_out", Bool (Option.value ~default:(not optimal) timed_out));
        ("propagations", int props);
        ("props_per_sec", Num pps);
      ]
      @ match words with Some w -> [ ("minor_words", int w) ] | None -> []
  in
  "  " ^ print (Obj fields)

let gate base fresh =
  match Profile.diff (parse (bench_doc base)) (parse (bench_doc fresh)) with
  | Ok d -> d
  | Error e -> Alcotest.failf "diff failed: %s" e

(* (row key, verdict label, reasons) for every joined row, in key order *)
let verdicts (d : Profile.diff_report) =
  List.map
    (fun (e : Profile.diff_entry) ->
      match e.de_verdict with
      | Profile.Pass -> (e.de_name, "ok", [])
      | Profile.Improved -> (e.de_name, "improved", [])
      | Profile.Unstable -> (e.de_name, "unstable", [])
      | Profile.Regressed reasons -> (e.de_name, "REGRESSED", reasons))
    d.dr_entries
  |> List.sort compare

let check_single name ?(reason = "") expected (d : Profile.diff_report) =
  match verdicts d with
  | [ (_, label, reasons) ] ->
      Alcotest.(check string) (name ^ ": verdict") expected label;
      if reason <> "" then
        Alcotest.(check bool)
          (Printf.sprintf "%s: reason mentions %S (got %s)" name reason
             (String.concat "; " reasons))
          true
          (List.exists (fun r -> contains_substring r reason) reasons);
      Alcotest.(check int)
        (name ^ ": exit status follows the verdict")
        (if expected = "REGRESSED" then 1 else 0)
        (min 1 (Profile.regressions d))
  | l -> Alcotest.failf "%s: expected one joined row, got %d" name (List.length l)

let test_gate_completeness () =
  let base = [ gate_row "r" ] in
  check_single "optimal -> failed" "REGRESSED" ~reason:"now failed"
    (gate base [ gate_row ~failed:true "r" ]);
  check_single "optimal -> not optimal" "REGRESSED" ~reason:"optimal flipped"
    (gate base [ gate_row ~optimal:false ~timed_out:false "r" ]);
  check_single "newly times out" "REGRESSED" ~reason:"newly times out"
    (gate base [ gate_row ~optimal:false ~timed_out:true "r" ]);
  check_single "unchanged" "ok" (gate base base);
  (* a gated row missing from the fresh run is lost, not unmatched *)
  let d = gate base [ gate_row "other" ] in
  Alcotest.(check (list string)) "lost row" [ "quick/r/qx4/minimal/j1" ]
    d.dr_lost;
  Alcotest.(check int) "lost row regresses" 1 (Profile.regressions d)

let test_gate_wall () =
  let base = [ gate_row ~wall:1.0 "r" ] in
  check_single "wall over 1.25x + 0.25s" "REGRESSED" ~reason:"allowed 1.500s"
    (gate base [ gate_row ~wall:1.6 "r" ]);
  check_single "wall inside the allowance" "ok"
    (gate base [ gate_row ~wall:1.45 "r" ])

let test_gate_throughput () =
  check_single "props/sec below base / 1.5" "REGRESSED" ~reason:"props/sec"
    (gate [ gate_row ~pps:1.5e6 "r" ] [ gate_row ~pps:0.9e6 "r" ]);
  check_single "props/sec within base / 1.5" "ok"
    (gate [ gate_row ~pps:1.5e6 "r" ] [ gate_row ~pps:1.1e6 "r" ]);
  check_single "too little work to gate" "ok"
    (gate
       [ gate_row ~props:50_000 ~pps:1.5e6 "r" ]
       [ gate_row ~props:50_000 ~pps:0.1e6 "r" ])

let test_gate_allocation () =
  (* baseline 0.1 words/prop: the ceiling is 0.1 * 1.5 + 0.5 = 0.65 *)
  check_single "words/prop over the baseline-derived ceiling" "REGRESSED"
    ~reason:"baseline * 1.5 + 0.5"
    (gate [ gate_row ~words:20_000 "r" ] [ gate_row ~words:200_000 "r" ]);
  check_single "words/prop under the baseline-derived ceiling" "ok"
    (gate [ gate_row ~words:20_000 "r" ] [ gate_row ~words:100_000 "r" ]);
  (* no baseline counters: the absolute 8 words/prop ceiling *)
  check_single "words/prop over the absolute ceiling" "REGRESSED"
    ~reason:"absolute ceiling"
    (gate [ gate_row "r" ] [ gate_row ~words:2_000_000 "r" ]);
  check_single "words/prop under the absolute ceiling" "ok"
    (gate [ gate_row "r" ] [ gate_row ~words:1_000_000 "r" ])

let test_gate_anytime () =
  let base = [ gate_row ~optimal:false ~wall:30.0 "r" ] in
  check_single "anytime row newly finishes" "improved"
    (gate base [ gate_row ~wall:5.0 "r" ]);
  check_single "anytime row still anytime" "unstable"
    (gate base [ gate_row ~optimal:false ~wall:60.0 "r" ]);
  check_single "anytime baseline failing is not gated" "unstable"
    (gate base [ gate_row ~failed:true "r" ])

let test_gate_join () =
  (* -j1 and -j2 rows of one benchmark join only with their own jobs
     count: crossed, the fast -j1 baseline would see the slow -j2 row *)
  let d =
    gate
      [ gate_row ~jobs:1 ~wall:1.0 "r"; gate_row ~jobs:2 ~wall:10.0 "r" ]
      [ gate_row ~jobs:2 ~wall:10.0 "r"; gate_row ~jobs:1 ~wall:1.0 "r" ]
  in
  Alcotest.(check (list (triple string string (list string))))
    "jobs not cross-joined"
    [
      ("quick/r/qx4/minimal/j1", "ok", []);
      ("quick/r/qx4/minimal/j2", "ok", []);
    ]
    (verdicts d);
  (* a baseline without suite tags holds quick-suite rows *)
  let d = gate [ gate_row "r" ] [ gate_row ~suite:"quick" "r" ] in
  check_single "untagged baseline joins quick rows" "ok" d;
  Alcotest.(check (list string)) "nothing unmatched" [] d.dr_missing;
  (* same benchmark name in both suites: never joined across suites *)
  let d =
    gate
      [
        gate_row ~suite:"quick" ~wall:1.0 "r";
        gate_row ~suite:"hard" ~optimal:false ~wall:90.0 "r";
      ]
      [
        gate_row ~suite:"hard" ~optimal:false ~wall:90.0 "r";
        gate_row ~suite:"quick" ~wall:1.0 "r";
      ]
  in
  Alcotest.(check (list (triple string string (list string))))
    "suites not cross-joined"
    [
      ("hard/r/qx4/minimal/j1", "unstable", []);
      ("quick/r/qx4/minimal/j1", "ok", []);
    ]
    (verdicts d)

let test_gate_renders () =
  let d = gate [ gate_row "r" ] [ gate_row ~failed:true "r" ] in
  let text = Profile.render_diff_text d in
  Alcotest.(check bool) "text flags the row" true
    (contains_substring text "REGRESSED");
  Alcotest.(check bool) "text counts the regression" true
    (contains_substring text "1 regression(s)");
  match Qxm_json.Sjson.parse (Profile.render_diff_json d) with
  | Ok doc ->
      Alcotest.(check (option int)) "json counts the regression" (Some 1)
        Qxm_json.Sjson.(Option.bind (member "regressions" doc) to_int_opt)
  | Error e -> Alcotest.failf "render_diff_json is not JSON: %s" e

let test_span_quantile () =
  (* ten completed 100us spans: every quantile interpolates inside the
     64..128us bucket, reported in seconds *)
  let lines =
    List.concat_map
      (fun i ->
        let t0 = float_of_int (i * 1000) in
        [ ev "s" "B" t0 1; ev "s" "E" (t0 +. 100.0) 1 ])
      (List.init 10 Fun.id)
  in
  let r = Profile.analyze (parse (String.concat "\n" lines ^ "\n")) in
  match r.r_spans with
  | [ s ] -> (
      match Profile.span_quantile s 0.5 with
      | Some q ->
          Alcotest.(check bool)
            (Printf.sprintf "p50 inside the 100us bucket (got %gs)" q)
            true
            (q >= 64e-6 && q <= 128e-6)
      | None -> Alcotest.fail "no quantile from a populated histogram")
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

let suite =
  [
    Alcotest.test_case "inputs auto-detected" `Quick test_autodetect;
    Alcotest.test_case "attribution: spans + sample gaps" `Quick
      test_attribution;
    Alcotest.test_case "open spans censored at window end" `Quick
      test_open_span_censored;
    Alcotest.test_case "renderers produce text and JSON" `Quick
      test_renderers_run;
    Alcotest.test_case "analyze rejects bench rows" `Quick
      test_analyze_rejects_bench;
    Alcotest.test_case "diff names stage and counter" `Quick
      test_diff_names_the_stage;
    Alcotest.test_case "span quantiles in seconds" `Quick test_span_quantile;
    Alcotest.test_case "gate: failed, flipped, newly timed out" `Quick
      test_gate_completeness;
    Alcotest.test_case "gate: wall allowance" `Quick test_gate_wall;
    Alcotest.test_case "gate: propagation throughput" `Quick
      test_gate_throughput;
    Alcotest.test_case "gate: minor words per propagation" `Quick
      test_gate_allocation;
    Alcotest.test_case "gate: anytime rows" `Quick test_gate_anytime;
    Alcotest.test_case "gate: join on suite and jobs" `Quick test_gate_join;
    Alcotest.test_case "gate: verdicts rendered" `Quick test_gate_renders;
  ]
