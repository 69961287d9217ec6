(** Resilient portfolio mapper: staged exact solving with graceful
    degradation to the heuristic engines.

    The paper's exact formulation is NP-complete, so on large instances
    the optimizer's budgets (deadline, conflict limit) are routinely
    exhausted.  {!Mapper.run} alone then reports a bare [Timeout] even
    though the repository ships three heuristic mappers that always
    produce *some* valid mapping fast.  This module turns the exact
    pipeline into the first stage of a budgeted portfolio:

    + an optional {e probe} solves the instance under a relaxed
      permutation strategy ({!Strategy.relaxations}) with a small
      conflict budget, grabbing a cheap incumbent whose objective value
      warm-starts everything after it;
    + the exact pipeline runs under an escalating conflict-limit ladder,
      each rung seeded with the best incumbent so far ([upper_bound]),
      inside the exact stage's share of the wall-clock budget;
    + on exhaustion the best SAT incumbent (the anytime
      {!Qxm_opt.Minimize.outcome} surfaced through {!Mapper.report}) is
      kept as a candidate and the configured heuristic cascade
      (SABRE / A* / stochastic swap) runs until one engine succeeds;
    + every candidate — exact or degraded — must pass
      {!Certify.compliance} (and equivalence verification where
      feasible) before it can be returned: a fallback may be
      suboptimal, never invalid.

    The returned {!report} carries honest provenance, per-stage timings
    and budget-spend telemetry.  Degradation paths are exercised
    deterministically by arming {!Qxm_sat.Fault} schedules in the tests
    and via the [--inject] CLI knob. *)

type provenance =
  | Exact_optimal
      (** The exact pipeline finished and proved minimality for the
          requested strategy. *)
  | Exact_incumbent
      (** The returned circuit is a SAT model, but optimality was not
          proven before the budget ran out (or the model came from a
          relaxed-strategy probe). *)
  | Heuristic of string
      (** The named fallback engine (["sabre"], ["astar"],
          ["stochastic"]) produced the returned circuit. *)

val provenance_string : provenance -> string
val pp_provenance : Format.formatter -> provenance -> unit

type engine = Sabre | Astar | Stochastic

val engine_name : engine -> string
val engine_of_string : string -> engine option

(** One pipeline stage's telemetry, in execution order. *)
type stage = {
  stage : string;  (** e.g. ["probe:triangle"], ["exact:4000"], ["sabre"] *)
  spent : float;  (** wall-clock seconds consumed by the stage *)
  solves : int;  (** SAT solver calls made by the stage *)
  outcome : string;
      (** ["optimal"], ["incumbent F=…"], ["budget exhausted"],
          ["skipped: …"], ["rejected: …"], ["failed: …"], ["ok F=…"] *)
}

type options = {
  exact : Mapper.options;
      (** Options for the exact stages.  [timeout] is ignored (the
          portfolio budgets below govern); [conflict_limit] is ignored
          (the ladder governs); [upper_bound] composes with incumbent
          seeding (the tighter bound wins). *)
  budget : float option;
      (** Total wall-clock budget.  [None] (default) lets the final
          ladder rung run to completion, like the plain exact mapper. *)
  exact_budget : float option;
      (** Explicit wall-clock budget for probe + ladder; overrides
          [exact_share].  The remainder of [budget] is the reserve for
          fallback, reconstruction and verification. *)
  exact_share : float;
      (** Fraction of [budget] given to the exact stages when
          [exact_budget] is [None] (default 0.7). *)
  ladder : int list;
      (** Escalating per-solve conflict limits for the exact rungs,
          [-1] = unlimited (default [[4000; -1]]).  [[]] disables the
          exact stage entirely. *)
  probe : bool;
      (** Run the relaxed-strategy probe first (default [true]; only
          effective when the requested strategy has relaxations). *)
  cascade : engine list;
      (** Fallback engines in order (default
          [[Sabre; Astar; Stochastic]]).  The first engine whose result
          passes certification wins. *)
  seed : int;  (** Seed for the stochastic fallback (determinism). *)
  jobs : int;
      (** Worker domains for the portfolio (default 1 = the classic
          sequential pipeline).  With [jobs > 1] the exact lane
          (probe + ladder) and the heuristic cascade {e race} on one
          shared [Qxm_par.Pool]: a proven exact optimum cancels the
          cascade, and — when a wall-clock budget is set — the first
          certified heuristic cancels the exact lane (latency mode;
          unbudgeted runs let the exact proof finish).  The exact lane
          passes the pool down to {!Mapper.run}, so sub-architecture
          candidates fan out on the same workers.  Clamped to 1 while a
          {!Qxm_sat.Fault} schedule is armed, keeping degradation tests
          deterministic. *)
}

val default : options

type report = {
  mapped : Qxm_circuit.Circuit.t;
  elementary : Qxm_circuit.Circuit.t;
  initial : int array;
  final : int array;
  f_cost : int;
  total_gates : int;
  provenance : provenance;
  optimal : bool;  (** [true] iff [provenance = Exact_optimal] *)
  verified : bool option;
      (** equivalence proof of the returned circuit, where feasible *)
  runtime : float;
  solves : int;  (** SAT solver calls across all stages *)
  stages : stage list;  (** telemetry, in execution order *)
  sat_stats : Qxm_sat.Solver.stats;
      (** Field-wise sum of {!Mapper.report.sat_stats} over every exact
          stage that produced a report (probe and ladder rungs alike);
          heuristic stages contribute nothing.  See
          [doc/PERFORMANCE.md] for how to read the counters. *)
  seed : int;
      (** The RNG seed in force for this run ([options.seed]; [0] means
          every engine's built-in default). *)
  strategy_name : string;
      (** Name of the exact strategy actually targeted, after
          defaulting ({!Strategy.name} of [options.exact.strategy]). *)
  trajectory : (float * int) list;
      (** Objective trajectory merged over all exact stages: one
          [(seconds-since-start, cost)] entry per global incumbent
          improvement, time-ordered with strictly decreasing costs.
          Empty when no exact stage found a model. *)
  notes : string list;
      (** Provenance qualifiers. ["deadline_expired"]: the exact
          deadline cut the pipeline (a rung was skipped for spent
          budget, or came back unproven when the clock — possibly
          during the canonical winner re-solve — ran out), so the
          returned answer is the certified incumbent rather than a
          finished proof.  ["cancelled"]: the caller's supervisor token
          was cancelled during the run.  Empty for a run that finished
          inside its budgets. *)
  witness : Mapper.witness option;
      (** Raw optimality evidence from the winning exact stage, present
          iff the chosen answer came from the exact lane and
          [options.exact.certificate] was set.  [None] for heuristic
          answers — only exact results can witness optimality.  Note
          that on the "no improvement on incumbent" path the witness's
          own proof can predate the final rung; [Qxm_audit.Emit]
          re-proves the bound directly in that case. *)
}

type failure =
  | Too_many_logical of { logical : int; physical : int }
  | Exhausted of stage list
      (** Every stage failed or was rejected; the telemetry says why.
          With a connected architecture and a sane circuit this cannot
          happen unless every engine is disabled or faulted. *)

val pp_failure : Format.formatter -> failure -> unit
(** One line, however many stages [Exhausted] lists. *)

val run :
  ?options:options ->
  ?cancel:Qxm_par.Cancel.t ->
  ?on_progress:(Mapper.progress -> unit) ->
  arch:Qxm_arch.Coupling.t ->
  Qxm_circuit.Circuit.t ->
  (report, failure) result
(** Map [circuit] onto [arch] with graceful degradation.  Never raises
    on engine failures (they become [stages] telemetry); the input
    contract is the same as {!Mapper.run}'s (no SWAP gates).

    [?cancel] is a supervisor token (e.g. a daemon watchdog's): it is
    attached above both lanes' own tokens, so cancelling it stops
    queued rungs at the next stage boundary and racing solves promptly
    via [Solver.set_stop].  The run then returns the best certified
    candidate found so far (with a ["cancelled"] note), or
    [Exhausted] when nothing was certified yet.

    [?on_progress] receives the exact stages' live progress samples with
    [p_phase] set to the portfolio stage name (e.g. ["exact:4000"]) and
    [p_elapsed] rebased to this call's start.  Same thread-safety
    contract as {!Mapper.run}'s [?on_progress]. *)
