module Solver = Qxm_sat.Solver
module Lit = Qxm_sat.Lit
module Pb = Qxm_encode.Pb
module Cnf = Qxm_encode.Cnf
module Trace = Qxm_obs.Trace
module Metrics = Qxm_obs.Metrics
module Timeseries = Qxm_obs.Timeseries

type strategy = Linear_descent | Binary_search

type outcome = {
  cost : int option;
  model : bool array option;
  optimal : bool;
  solves : int;
  unsatisfiable : bool;
  trajectory : (float * int) list;
  proof : Qxm_sat.Proof.t option;
  bounds : int list;
}

(* Persistent minimization state over one long-lived solver: the PB
   circuit (built once), the best model, the lowest permanently enforced
   bound (a watermark — bounds are only re-enforced when strictly
   tighter, so the cumulative [s_bounds] list reproduces the solver's
   exact input stream), the binary-search floor, and whether the descent
   already concluded. *)
type session = {
  mutable s_pb : Pb.t option;
  mutable s_best : (int * bool array) option;
  mutable s_enforced : int option;
  mutable s_bounds : int list; (* reversed, cumulative across calls *)
  mutable s_lo : int;
  mutable s_seeded : bool;
  mutable s_proof : Qxm_sat.Proof.t option;
  mutable s_finished : [ `Optimal | `Unsat ] option;
}

let new_session () =
  {
    s_pb = None;
    s_best = None;
    s_enforced = None;
    s_bounds = [];
    s_lo = 0;
    s_seeded = false;
    s_proof = None;
    s_finished = None;
  }

let step_conflicts = lazy (Metrics.histogram "minimize.step_conflicts")

let cost_of_model objective model =
  List.fold_left
    (fun acc (w, l) ->
      let v = Lit.var l in
      let value = if Lit.sign l then model.(v) else not model.(v) in
      if value then acc + w else acc)
    0 objective

let minimize ?session ?(strategy = Linear_descent) ?(deadline = 0.0)
    ?(conflict_limit = -1) ?upper_bound ?warm_start ?on_incumbent ~cnf
    ~objective () =
  let solver = Cnf.solver cnf in
  let sn = match session with Some sn -> sn | None -> new_session () in
  match sn.s_finished with
  | Some `Unsat ->
      {
        cost = None;
        model = None;
        optimal = false;
        solves = 0;
        unsatisfiable = true;
        trajectory = [];
        proof = sn.s_proof;
        bounds = List.rev sn.s_bounds;
      }
  | Some `Optimal ->
      let c, m = Option.get sn.s_best in
      {
        cost = Some c;
        model = Some m;
        optimal = true;
        solves = 0;
        unsatisfiable = false;
        trajectory = [];
        proof = sn.s_proof;
        bounds = List.rev sn.s_bounds;
      }
  | None -> (
      let rev_trajectory = ref [] in
      let note cost =
        rev_trajectory := (Unix.gettimeofday (), cost) :: !rev_trajectory;
        match on_incumbent with Some cb -> cb cost | None -> ()
      in
      (* Phase seeding: bias the search toward the heuristic solution when
         one is supplied, and toward cost 0 on the objective literals either
         way.  Phases steer branching order only, so this cannot change
         which costs are reachable — only how fast the descent starts.
         Done once per session: on a resumed solver the saved phases of the
         previous descent are worth more than the cold seed. *)
      if not sn.s_seeded then begin
        List.iter
          (fun (_, l) ->
            Solver.set_phase solver (Lit.var l) (not (Lit.sign l)))
          objective;
        (match warm_start with
        | Some model -> Solver.suggest_model solver model
        | None -> ());
        sn.s_seeded <- true
      end;
      let solves = ref 0 in
      let solve ?(assumptions = []) ?bound () =
        incr solves;
        (* The solver's [conflict_limit] is a cap on its *lifetime* conflict
           count; rebase it so each minimization step gets the full per-call
           budget instead of the first step starving all later ones. *)
        let before = (Solver.stats solver).Solver.conflicts in
        let conflict_limit =
          if conflict_limit < 0 then -1 else before + conflict_limit
        in
        (* Telemetry context: samples recorded inside this step carry the
           rung (the bound under attempt), so a trajectory is attributable
           per rung. *)
        let run () = Solver.solve ~assumptions ~deadline ~conflict_limit solver in
        let run =
          match bound with
          | None -> run
          | Some b ->
              fun () ->
                Timeseries.set_bound b;
                Fun.protect
                  ~finally:(fun () -> Timeseries.set_bound (-1))
                  (fun () ->
                    Timeseries.with_label (Printf.sprintf "rung=%d" b) run)
        in
        let r =
          Trace.with_span ~name:"minimize.step"
            ~args:
              (("step", Trace.Int !solves)
              ::
              (match bound with
              | Some b -> [ ("bound", Trace.Int b) ]
              | None -> []))
            run
        in
        Metrics.observe (Lazy.force step_conflicts)
          ((Solver.stats solver).Solver.conflicts - before);
        r
      in
      (* Certificate support: record every bound permanently enforced on
         the PB circuit, in order and cumulatively across the session's
         calls — replaying [bounds] reproduces the exact solver input
         stream however many rungs shared this solver.  The watermark skip
         keeps the stream duplicate-free: a bound is enforced only when
         strictly tighter than everything already enforced. *)
      let enforce pb b =
        let tighter =
          match sn.s_enforced with None -> true | Some e -> b < e
        in
        if tighter then begin
          sn.s_enforced <- Some b;
          sn.s_bounds <- b :: sn.s_bounds;
          Pb.enforce_at_most cnf pb b
        end
      in
      let get_pb () =
        match sn.s_pb with
        | Some pb -> pb
        | None ->
            let pb = Pb.build cnf objective in
            sn.s_pb <- Some pb;
            pb
      in
      (match upper_bound with
      | Some b when objective <> [] -> enforce (get_pb ()) b
      | _ -> ());
      let initial =
        match sn.s_best with
        | Some _ -> Solver.Sat (* resume: a model is already in hand *)
        | None -> (
            (* The initial solve runs under whatever bound is already
               permanently enforced (a seeded upper bound): carry it as
               the rung so a long UNSAT grind here is attributable. *)
            match solve ?bound:sn.s_enforced () with
            | Solver.Sat ->
                let m = Solver.model solver in
                let c = cost_of_model objective m in
                sn.s_best <- Some (c, m);
                note c;
                Solver.Sat
            | r -> r)
      in
      match initial with
      | Solver.Unsat ->
          let proof = Solver.proof solver in
          sn.s_finished <- Some `Unsat;
          sn.s_proof <- proof;
          {
            cost = None;
            model = None;
            optimal = false;
            solves = !solves;
            unsatisfiable = true;
            trajectory = [];
            proof;
            bounds = List.rev sn.s_bounds;
          }
      | Solver.Unknown ->
          {
            cost = None;
            model = None;
            optimal = false;
            solves = !solves;
            unsatisfiable = false;
            trajectory = [];
            proof = None;
            bounds = List.rev sn.s_bounds;
          }
      | Solver.Sat ->
          let b0, m0 = Option.get sn.s_best in
          let best = ref b0 in
          let best_model = ref m0 in
          let optimal = ref false in
          let proof = ref None in
          let record_sat () =
            best_model := Solver.model solver;
            best := cost_of_model objective !best_model;
            sn.s_best <- Some (!best, !best_model);
            note !best
          in
          if !best = 0 then optimal := true
          else begin
            let pb = get_pb () in
            match strategy with
            | Linear_descent ->
                let stop = ref false in
                while not !stop do
                  let bound = Pb.tighten pb (!best - 1) in
                  enforce pb bound;
                  match solve ~bound () with
                  | Solver.Sat ->
                      record_sat ();
                      if !best = 0 then begin
                        optimal := true;
                        stop := true
                      end
                  | Solver.Unsat ->
                      optimal := true;
                      proof := Solver.proof solver;
                      stop := true
                  | Solver.Unknown -> stop := true
                done
            | Binary_search ->
                (* Invariant: a model of cost [hi] is known; no model of
                   cost < [lo] exists. *)
                let lo = ref (min sn.s_lo !best)
                and hi = ref !best in
                let stop = ref false in
                while (not !stop) && !lo < !hi do
                  let mid = !lo + ((!hi - !lo - 1) / 2) in
                  let bound = Pb.tighten pb mid in
                  if bound < !lo then
                    (* No attainable cost within [lo, mid]: the optimum is
                       at least the next attainable value above mid. *)
                    lo :=
                      (match Pb.next_above pb mid with
                      | Some v -> min v !hi
                      | None -> !hi)
                  else begin
                    let assumptions = Pb.assume_at_most pb bound in
                    match solve ~assumptions ~bound () with
                    | Solver.Sat ->
                        record_sat ();
                        hi := !best
                    | Solver.Unsat -> lo := bound + 1
                    | Solver.Unknown -> stop := true
                  end;
                  sn.s_lo <- !lo
                done;
                if !lo >= !hi then begin
                  optimal := true;
                  (* Assumption-based UNSAT answers never derive the empty
                     clause, so the bisection alone cannot feed a
                     certificate.  When a trace is being recorded, confirm
                     the proven bound with one assumption-free solve: the
                     permanent bound enters [bounds] (so the auditor can
                     replay the input stream) and the UNSAT answer ends the
                     trace with the empty clause. *)
                  if !best > 0 && Solver.proof solver <> None then begin
                    let bound = Pb.tighten pb (!best - 1) in
                    enforce pb bound;
                    match solve ~bound () with
                    | Solver.Unsat -> proof := Solver.proof solver
                    | Solver.Unknown ->
                        (* budget ran out confirming an already-proven
                           bound: optimality stands, only the proof
                           artifact is missing *)
                        ()
                    | Solver.Sat ->
                        (* contradicts the bisection floor — trust the
                           model over the flag *)
                        record_sat ();
                        optimal := false
                  end
                end
          end;
          if !optimal then begin
            sn.s_finished <- Some `Optimal;
            sn.s_proof <- !proof
          end;
          {
            cost = Some !best;
            model = Some !best_model;
            optimal = !optimal;
            solves = !solves;
            unsatisfiable = false;
            trajectory = List.rev !rev_trajectory;
            proof = !proof;
            bounds = List.rev sn.s_bounds;
          })
