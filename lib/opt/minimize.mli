(** SAT-based minimization of a weighted Boolean objective.

    Implements the optimization role Z3 plays in the paper: find an
    assignment satisfying the clause database that minimizes
    F = Σ wᵢ·ℓᵢ (Def. 3, extended interpretation).  Two strategies are
    provided; both are *anytime* — on budget exhaustion they report the
    best model found so far together with an optimality flag. *)

type strategy =
  | Linear_descent
      (** Solve, read the model's cost c, constrain F ≤ c−1, repeat until
          UNSAT.  Bounds only tighten, so they are added as unit clauses,
          which lets the solver keep all learnt clauses. *)
  | Binary_search
      (** Maintain [lo, hi] and bisect with assumptions; converges in
          O(log Σw) solves but each UNSAT answer is harder. *)

type outcome = {
  cost : int option;  (** Best objective value found, if any model exists. *)
  model : bool array option;  (** Model achieving [cost]. *)
  optimal : bool;  (** [true] iff [cost] is proven minimal. *)
  solves : int;  (** Number of [solve] calls performed. *)
  unsatisfiable : bool;  (** [true] iff the hard clauses admit no model. *)
  trajectory : (float * int) list;
      (** Objective trajectory: one [(timestamp, cost)] entry per
          incumbent, in discovery order (so costs are strictly
          decreasing and the last entry equals [cost]).  Timestamps are
          absolute [Unix.gettimeofday] values; callers rebase them to
          their own origin. *)
  proof : Qxm_sat.Proof.t option;
      (** DRUP trace captured at the final assumption-free [Unsat]
          answer, when the solver had proof logging enabled.  For [Linear_descent] this certifies "no
          model with F ≤ last enforced bound"; combined with [cost] it
          witnesses optimality.  [Binary_search] bisects with
          assumptions, whose UNSAT answers carry no empty clause — on
          convergence it therefore re-proves the final bound with one
          assumption-free confirming solve (recorded in [bounds]) so
          both strategies can feed a certificate. *)
  bounds : int list;
      (** Every bound permanently enforced on the PB circuit
          ({!Qxm_encode.Pb.enforce_at_most} arguments, in call order,
          including the seeded [upper_bound]) — cumulative over the
          whole {!session} when one is supplied, not just this call.
          Replaying these calls reproduces the exact solver input
          stream, which is how an offline auditor re-derives the proof's
          input clauses; a session's later rungs extend the same stream,
          so only the cumulative list replays correctly. *)
}

(** {2 Sessions}

    A {!session} threads minimization state across several [minimize]
    calls on the {e same} solver: the PB circuit is built once, enforced
    bounds accumulate behind a watermark (never re-enforced, never
    loosened), the best model and binary-search floor carry over, and a
    concluded session short-circuits.  This is what lets the mapper's
    conflict-limit ladder resume a descent instead of re-encoding —
    learnt clauses, saved phases and VSIDS activity all survive between
    rungs.  A session must never be shared between different solvers or
    different objectives. *)

type session

val new_session : unit -> session
(** Fresh session state.  Supplying it to [minimize] is equivalent to the
    session-free call; supplying the same value again resumes. *)

val minimize :
  ?session:session ->
  ?strategy:strategy ->
  ?deadline:float ->
  ?conflict_limit:int ->
  ?upper_bound:int ->
  ?warm_start:bool array ->
  ?on_incumbent:(int -> unit) ->
  cnf:Qxm_encode.Cnf.t ->
  objective:(int * Qxm_sat.Lit.t) list ->
  unit ->
  outcome
(** Minimize [objective] subject to the clauses already loaded in [cnf]'s
    solver.  [deadline] is an absolute timestamp; [conflict_limit] bounds
    each individual solve call (it is rebased on the solver's cumulative
    conflict count before every call, so a descent of [k] steps may spend
    up to [k · conflict_limit] conflicts in total).  Weights must be
    positive.  Exhausting either budget ends the search with the best
    model found so far and [optimal = false].

    [upper_bound] permanently constrains the objective to at most that
    value before the first solve — a warm start when a solution of known
    cost exists (e.g. from a heuristic mapper), or a pruning device when
    the caller only cares about solutions cheaper than a bound.  With a
    bound below the true optimum, the outcome reports [unsatisfiable];
    the caller is responsible for interpreting that correctly.

    [warm_start] seeds the solver's saved phases from a (partial) model,
    indexed by variable ({!Qxm_sat.Solver.suggest_model}): the first
    descent then starts at — or near — the heuristic solution instead of
    a cold phase assignment.  Unlike [upper_bound] this is only a hint;
    it cannot change the optimum or make the problem unsatisfiable.
    Objective literals are always phase-seeded toward cost 0.

    [on_incumbent] fires synchronously each time a new best-cost model
    is found (the same points recorded in [trajectory]) — the live
    progress hook behind [qxmap map --progress]. *)

val cost_of_model : (int * Qxm_sat.Lit.t) list -> bool array -> int
(** Evaluate an objective on a model. *)
