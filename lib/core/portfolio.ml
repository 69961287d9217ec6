module Circuit = Qxm_circuit.Circuit
module Coupling = Qxm_arch.Coupling
module Sabre = Qxm_heuristic.Sabre
module Astar = Qxm_heuristic.Astar_mapper
module Stochastic = Qxm_heuristic.Stochastic_swap
module Pool = Qxm_par.Pool
module Cancel = Qxm_par.Cancel
module Solver = Qxm_sat.Solver
module Trace = Qxm_obs.Trace
module Metrics = Qxm_obs.Metrics
module Timeseries = Qxm_obs.Timeseries

let lane_cancellations = lazy (Metrics.counter "portfolio.lane_cancellations")

let ladder_budget =
  lazy (Metrics.histogram "portfolio.ladder_conflict_budget")

type provenance = Exact_optimal | Exact_incumbent | Heuristic of string

let provenance_string = function
  | Exact_optimal -> "exact-optimal"
  | Exact_incumbent -> "exact-incumbent"
  | Heuristic e -> "heuristic:" ^ e

let pp_provenance fmt p = Format.pp_print_string fmt (provenance_string p)

type engine = Sabre | Astar | Stochastic

let engine_name = function
  | Sabre -> "sabre"
  | Astar -> "astar"
  | Stochastic -> "stochastic"

let engine_of_string = function
  | "sabre" -> Some Sabre
  | "astar" | "a*" -> Some Astar
  | "stochastic" | "swap" -> Some Stochastic
  | _ -> None

type stage = { stage : string; spent : float; solves : int; outcome : string }

type options = {
  exact : Mapper.options;
  budget : float option;
  exact_budget : float option;
  exact_share : float;
  ladder : int list;
  probe : bool;
  cascade : engine list;
  seed : int;
  jobs : int;
}

let default =
  {
    exact = Mapper.default;
    budget = None;
    exact_budget = None;
    exact_share = 0.7;
    ladder = [ 4000; -1 ];
    probe = true;
    cascade = [ Sabre; Astar; Stochastic ];
    seed = 0;
    jobs = 1;
  }

type report = {
  mapped : Circuit.t;
  elementary : Circuit.t;
  initial : int array;
  final : int array;
  f_cost : int;
  total_gates : int;
  provenance : provenance;
  optimal : bool;
  verified : bool option;
  runtime : float;
  solves : int;
  stages : stage list;
  sat_stats : Solver.stats;
  seed : int;
  strategy_name : string;
  trajectory : (float * int) list;
  notes : string list;
  witness : Mapper.witness option;
}

type failure =
  | Too_many_logical of { logical : int; physical : int }
  | Exhausted of stage list

let pp_failure fmt = function
  | Too_many_logical { logical; physical } ->
      Format.fprintf fmt "circuit needs %d qubits, device has %d" logical
        physical
  | Exhausted stages ->
      (* plain spaces, not break hints: the message stays on one line *)
      Format.pp_print_string fmt "every portfolio stage failed:";
      List.iter
        (fun s -> Format.fprintf fmt " [%s: %s]" s.stage s.outcome)
        stages

(* A stage result awaiting the final provenance decision. *)
type candidate = {
  c_mapped : Circuit.t;
  c_elementary : Circuit.t;
  c_initial : int array;
  c_final : int array;
  c_f_cost : int;
  c_total : int;
  c_verified : bool option;
  c_provenance : provenance;
  c_witness : Mapper.witness option;
}

let certified ~arch c =
  match (Certify.compliance ~arch c.c_elementary, c.c_verified) with
  | Error msg, _ -> Error ("rejected: " ^ msg)
  | Ok (), Some false -> Error "rejected: equivalence check failed"
  | Ok (), (None | Some true) -> Ok c

let run ?(options = default) ?cancel ?on_progress ~arch circuit =
  let start = Unix.gettimeofday () in
  let m = Coupling.num_qubits arch in
  let n = Circuit.num_qubits circuit in
  if n > m then Error (Too_many_logical { logical = n; physical = m })
  else begin
    (* Fault schedules count solve calls; racing lanes would make that
       order nondeterministic, so degradation tests always run the
       sequential path. *)
    let jobs =
      if Qxm_sat.Fault.armed () <> None then 1 else max 1 options.jobs
    in
    let stage_lock = Mutex.create () in
    let stages = ref [] in
    let solves = ref 0 in
    let sat_stats = ref Solver.zero_stats in
    let note_stats st =
      Mutex.lock stage_lock;
      sat_stats := Solver.add_stats !sat_stats st;
      Mutex.unlock stage_lock
    in
    (* Telemetry order: per lane it is execution order; across racing
       lanes it is completion order, which is the honest one. *)
    let record ~stage ~t0 ~stage_solves outcome =
      Mutex.lock stage_lock;
      solves := !solves + stage_solves;
      stages :=
        {
          stage;
          spent = Unix.gettimeofday () -. t0;
          solves = stage_solves;
          outcome;
        }
        :: !stages;
      Mutex.unlock stage_lock
    in
    let exact_deadline =
      match (options.exact_budget, options.budget) with
      | Some e, _ -> Some (start +. e)
      | None, Some b -> Some (start +. (options.exact_share *. b))
      | None, None -> None
    in
    let exact_time_left () =
      match exact_deadline with
      | None -> None
      | Some d -> Some (d -. Unix.gettimeofday ())
    in
    (* Best exact result so far (optimal or anytime incumbent). *)
    let best_exact : Mapper.report option ref = ref None in
    (* Objective trajectory across all exact stages, in absolute time;
       normalized to a monotone run-relative series in the report. *)
    let raw_traj : (float * int) list ref = ref [] in
    let note_exact ~t0 (r : Mapper.report) =
      Mutex.lock stage_lock;
      List.iter
        (fun (t, c) -> raw_traj := (t0 +. t, c) :: !raw_traj)
        r.trajectory;
      (match !best_exact with
      | Some prev when prev.f_cost <= r.f_cost -> ()
      | _ -> best_exact := Some r);
      Mutex.unlock stage_lock
    in
    let final_trajectory () =
      let pts =
        List.sort (fun (a, _) (b, _) -> compare a b) !raw_traj
      in
      let _, rev =
        List.fold_left
          (fun (best, acc) (t, c) ->
            if c < best then (c, (t -. start, c) :: acc) else (best, acc))
          (max_int, []) pts
      in
      List.rev rev
    in
    let proved_optimal = ref false in
    (* Set whenever the exact deadline cut the pipeline short: a rung
       skipped for spent budget, a rung whose result was still unproven
       when the budget ran out, or a rung that timed out outright.  The
       report then carries a ["deadline_expired"] provenance note, so a
       degraded answer is distinguishable from a genuinely finished one. *)
    let deadline_hit = ref false in
    let exact_cancel = Cancel.create () in
    let heur_cancel = Cancel.create () in
    (* The caller's supervisor token (a daemon watchdog, a batch driver)
       reaches every lane: cancelling it stops racing solves promptly
       through the lane tokens the solvers poll. *)
    (match cancel with
    | Some sup ->
        Cancel.attach ~parent:sup exact_cancel;
        Cancel.attach ~parent:sup heur_cancel
    | None -> ());
    let cancel_lane ~lane ~cause token =
      if not (Cancel.cancelled token) then begin
        Metrics.incr (Lazy.force lane_cancellations);
        Trace.instant
          ~args:[ ("lane", Trace.Str lane); ("cause", Trace.Str cause) ]
          "portfolio.cancel"
      end;
      Cancel.cancel token
    in
    (* Forward mapper progress under the portfolio stage's name, with
       elapsed time rebased to the portfolio's own start. *)
    let stage_progress stage =
      Option.map
        (fun cb (p : Mapper.progress) ->
          cb
            {
              p with
              Mapper.p_phase = stage;
              p_elapsed = Unix.gettimeofday () -. start;
            })
        on_progress
    in
    (* One exact stage: [strategy] is either the requested strategy (a
       ladder rung) or one of its relaxations (the probe), so the best
       incumbent's objective value is always a sound upper bound. *)
    let run_exact ?pool ?cancel ?session ~stage ~strategy
        ~conflict_limit () =
      let t0 = Unix.gettimeofday () in
      Trace.with_span ~name:"portfolio.stage"
        ~args:
          [
            ("stage", Trace.Str stage);
            ("conflict_limit", Trace.Int conflict_limit);
          ]
      @@ fun () ->
      (* telemetry: samples taken during this stage carry its name *)
      Timeseries.with_label ("stage=" ^ stage) @@ fun () ->
      Metrics.observe (Lazy.force ladder_budget) conflict_limit;
      let deadline_spent () =
        match exact_time_left () with Some l -> l <= 0.0 | None -> false
      in
      match exact_time_left () with
      | Some left when left <= 0.0 ->
          deadline_hit := true;
          record ~stage ~t0 ~stage_solves:0 "skipped: exact budget spent"
      | left ->
          let upper_bound =
            match
              ( Option.map
                  (fun (r : Mapper.report) -> r.objective_cost)
                  !best_exact,
                options.exact.upper_bound )
            with
            | Some a, Some b -> Some (min a b)
            | (Some _ as s), None | None, (Some _ as s) -> s
            | None, None -> None
          in
          let opts =
            {
              options.exact with
              strategy;
              conflict_limit;
              timeout = left;
              upper_bound;
            }
          in
          let seeded = upper_bound <> options.exact.upper_bound in
          (match
             Mapper.run ~options:opts ?session ?pool ?cancel
               ?on_progress:(stage_progress stage) ~arch circuit
           with
          | Ok r ->
              note_stats r.sat_stats;
              note_exact ~t0 r;
              if r.optimal && strategy = options.exact.strategy then
                proved_optimal := true
              else if
                (* A deadline-bearing unlimited rung can only come back
                   unproven because the clock cut it (possibly inside the
                   canonical winner re-solve, which reserves a slice of
                   the budget and stops slightly early). *)
                not r.optimal
                && ((conflict_limit < 0 && exact_deadline <> None)
                   || deadline_spent ())
              then deadline_hit := true;
              record ~stage ~t0 ~stage_solves:r.solves
                (Printf.sprintf "%s F=%d"
                   (if r.optimal then "optimal" else "incumbent")
                   r.f_cost)
          | Error Mapper.Timeout ->
              if deadline_spent () then deadline_hit := true;
              record ~stage ~t0 ~stage_solves:0 "budget exhausted"
          | Error Mapper.Unmappable ->
              (* With a seeded bound, UNSAT only means "nothing cheaper
                 than the incumbent", which proves the incumbent optimal
                 when this rung had no other budget pressure. *)
              if seeded && conflict_limit < 0 && strategy = options.exact.strategy
              then proved_optimal := true;
              record ~stage ~t0 ~stage_solves:0
                (if seeded then "no improvement on incumbent" else "unsat")
          | Error (Mapper.Too_many_logical _) ->
              record ~stage ~t0 ~stage_solves:0 "failed: instance too large"
          | exception e ->
              record ~stage ~t0 ~stage_solves:0
                ("failed: " ^ Printexc.to_string e))
    in
    (* The exact lane: relaxed-strategy probe, then the conflict-limit
       ladder.  The ladder rungs thread one {!Mapper.session}, so each
       rung resumes the previous rung's solvers (learnt clauses, phases,
       activity, enforced bounds) instead of re-encoding — the probe
       runs a different strategy and stays outside the session.
       [cancel] is the lane's own token — a raced lane that lost stops
       between rungs (and, through [Solver.set_stop], mid-solve). *)
    let exact_lane ?pool ?cancel () =
      Trace.with_span ~name:"portfolio.exact_lane" @@ fun () ->
      let lane_cancelled () =
        match cancel with Some c -> Cancel.cancelled c | None -> false
      in
      let lost_race = ref false in
      (* Stage 1: relaxed-strategy probe for a fast incumbent. *)
      (if options.probe && options.ladder <> [] then
         match Strategy.relaxations options.exact.strategy with
         | [] -> ()
         | relax :: _ ->
             let limit =
               match options.ladder with
               | l :: _ when l >= 0 -> l
               | _ -> 4000
             in
             if lane_cancelled () then lost_race := true
             else
               run_exact ?pool ?cancel
                 ~stage:("probe:" ^ Strategy.name relax)
                 ~strategy:relax ~conflict_limit:limit ());
      (* Stage 2: conflict-limit ladder on the requested strategy, one
         shared incremental session across the rungs. *)
      let ladder_session = Mapper.new_session () in
      List.iter
        (fun limit ->
          if not !proved_optimal then
            if lane_cancelled () then lost_race := true
            else
              run_exact ?pool ?cancel ~session:ladder_session
                ~stage:
                  (Printf.sprintf "exact:%s"
                     (if limit < 0 then "unlimited" else string_of_int limit))
                ~strategy:options.exact.strategy ~conflict_limit:limit ())
        options.ladder;
      if !lost_race then
        record ~stage:"exact" ~t0:(Unix.gettimeofday ()) ~stage_solves:0
          "cancelled"
    in
    (* Assemble (and gate) the exact side's best result. *)
    let assemble_exact () =
      let exact_candidate =
        Option.map
          (fun (r : Mapper.report) ->
            {
              c_mapped = r.mapped;
              c_elementary = r.elementary;
              c_initial = r.initial;
              c_final = r.final;
              c_f_cost = r.f_cost;
              c_total = r.total_gates;
              c_verified = r.verified;
              c_provenance =
                (if !proved_optimal then Exact_optimal else Exact_incumbent);
              c_witness = r.witness;
            })
          !best_exact
      in
      (* An exact result must pass the same gate as any fallback. *)
      match exact_candidate with
      | None -> None
      | Some c -> (
          match certified ~arch c with
          | Ok c -> Some c
          | Error msg ->
              record ~stage:"certify:exact" ~t0:(Unix.gettimeofday ())
                ~stage_solves:0 msg;
              None)
    in
    (* The heuristic lane: the cascade, stopping at the first certified
       success.  [on_success] fires right after certification — the racing
       path uses it to cancel the exact lane in latency mode. *)
    let heuristic_lane ?cancel ~on_success () =
      Trace.with_span ~name:"portfolio.heuristic_lane" @@ fun () ->
      let verify = options.exact.verify in
      let rec cascade = function
        | [] -> None
        | engine :: rest -> (
            let name = engine_name engine in
            let t0 = Unix.gettimeofday () in
            if match cancel with Some c -> Cancel.cancelled c | None -> false
            then begin
              record ~stage:name ~t0 ~stage_solves:0 "skipped: cancelled";
              None
            end
            else
              match
                match engine with
                | Sabre ->
                    let r = Sabre.run ~verify ~arch circuit in
                    {
                      c_mapped = r.mapped;
                      c_elementary = r.elementary;
                      c_initial = r.initial;
                      c_final = r.final;
                      c_f_cost = r.f_cost;
                      c_total = r.total_gates;
                      c_verified = r.verified;
                      c_provenance = Heuristic name;
                      c_witness = None;
                    }
                | Astar ->
                    let r = Astar.run ~verify ~arch circuit in
                    {
                      c_mapped = r.mapped;
                      c_elementary = r.elementary;
                      c_initial = r.initial;
                      c_final = r.final;
                      c_f_cost = r.f_cost;
                      c_total = r.total_gates;
                      c_verified = r.verified;
                      c_provenance = Heuristic name;
                      c_witness = None;
                    }
                | Stochastic ->
                    let r =
                      Stochastic.run_best ~seed:options.seed ~verify ~arch
                        circuit
                    in
                    {
                      c_mapped = r.mapped;
                      c_elementary = r.elementary;
                      c_initial = r.initial;
                      c_final = r.final;
                      c_f_cost = r.f_cost;
                      c_total = r.total_gates;
                      c_verified = r.verified;
                      c_provenance = Heuristic name;
                      c_witness = None;
                    }
              with
              | candidate -> (
                  match certified ~arch candidate with
                  | Ok c ->
                      record ~stage:name ~t0 ~stage_solves:0
                        (Printf.sprintf "ok F=%d" c.c_f_cost);
                      on_success ();
                      Some c
                  | Error msg ->
                      record ~stage:name ~t0 ~stage_solves:0 msg;
                      cascade rest)
              | exception e ->
                  record ~stage:name ~t0 ~stage_solves:0
                    ("failed: " ^ Printexc.to_string e);
                  cascade rest)
      in
      cascade options.cascade
    in
    let exact_candidate, heuristic_candidate =
      if jobs <= 1 then begin
        (* Sequential portfolio: exact stages first, heuristics only when
           optimality is still open — exactly the pre-racing pipeline. *)
        exact_lane ~cancel:exact_cancel ();
        let e = assemble_exact () in
        let h =
          if !proved_optimal && e <> None then None
          else heuristic_lane ~cancel:heur_cancel ~on_success:ignore ()
        in
        (e, h)
      end
      else
        (* Racing portfolio: the lanes share one pool.  The exact lane
           passes the pool down so the candidate fan-out and the lanes
           draw from the same workers; futures are joined in lane order,
           so the combination below is deterministic given each lane's
           own result. *)
        Pool.with_pool jobs (fun pool ->
            let e_fut =
              Pool.submit pool (fun () ->
                  exact_lane ~pool ~cancel:exact_cancel ();
                  (* A proven optimum is final: the heuristic lane can
                     only lose the comparison, so stop paying for it. *)
                  if !proved_optimal && !best_exact <> None then
                    cancel_lane ~lane:"heuristic" ~cause:"exact proved optimal"
                      heur_cancel)
            in
            let h_fut =
              Pool.submit pool (fun () ->
                  heuristic_lane ~cancel:heur_cancel
                    ~on_success:(fun () ->
                      (* First certified heuristic ends the race only in
                         latency mode (a wall-clock budget is set); an
                         unbudgeted run still wants the exact proof. *)
                      if options.budget <> None || options.exact_budget <> None
                      then
                        cancel_lane ~lane:"exact"
                          ~cause:"heuristic certified first (latency mode)"
                          exact_cancel)
                    ())
            in
            Pool.await e_fut;
            let h = Pool.await h_fut in
            (assemble_exact (), h))
    in
    let chosen =
      match (exact_candidate, heuristic_candidate) with
      | Some e, Some h -> Some (if h.c_f_cost < e.c_f_cost then h else e)
      | (Some _ as c), None | None, (Some _ as c) -> c
      | None, None -> None
    in
    match chosen with
    | None -> Error (Exhausted (List.rev !stages))
    | Some c ->
        Ok
          {
            mapped = c.c_mapped;
            elementary = c.c_elementary;
            initial = c.c_initial;
            final = c.c_final;
            f_cost = c.c_f_cost;
            total_gates = c.c_total;
            provenance = c.c_provenance;
            optimal = c.c_provenance = Exact_optimal;
            verified = c.c_verified;
            runtime = Unix.gettimeofday () -. start;
            solves = !solves;
            stages = List.rev !stages;
            sat_stats = !sat_stats;
            seed = options.seed;
            strategy_name = Strategy.name options.exact.strategy;
            trajectory = final_trajectory ();
            witness = c.c_witness;
            notes =
              (if !deadline_hit && c.c_provenance <> Exact_optimal then
                 [ "deadline_expired" ]
               else [])
              @
              (match cancel with
              | Some sup when Cancel.cancelled sup -> [ "cancelled" ]
              | _ -> []);
          }
  end
