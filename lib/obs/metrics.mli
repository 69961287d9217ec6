(** Process-wide metrics registry: named counters, gauges and log-scaled
    histograms.

    Every metric is registered once by name (repeat registration returns
    the same cell; re-registering a name under a different kind is an
    error) and updated through lock-free atomics, so workers on any
    domain can update the same counter without coordination — the
    registry is the merge point for per-worker statistics.  A
    {!snapshot} is a plain sorted association list, so callers can
    {!diff} windows of activity and {!merge} snapshots taken from
    independent sources; merging per-worker contributions through the
    registry yields the same totals as sequential field-wise summation
    (the [Qxm_sat.Solver.add_stats] contract — see [test/test_obs.ml]).

    Counter names follow a [layer.metric] convention, e.g.
    [solver.conflicts], [mapper.candidates_pruned],
    [par.incumbent_updates]; the full catalogue lives in
    [doc/OBSERVABILITY.md]. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Register (or look up) a monotonically increasing counter.
    @raise Invalid_argument if the name is registered as another kind. *)

val add : counter -> int -> unit
val incr : counter -> unit

val gauge : string -> gauge
(** Register (or look up) a gauge — a last-writer-wins level, e.g. a
    queue depth. *)

val set_gauge : gauge -> float -> unit

val max_gauge : gauge -> float -> unit
(** Raise the gauge to [v] if [v] is larger — a high-water mark. *)

val histogram : string -> histogram
(** Register (or look up) a log₂-bucketed histogram of non-negative
    integers: bucket [k] counts observations with [2^(k-1) <= v < 2^k]
    (bucket 0 counts [v <= 0]). *)

val observe : histogram -> int -> unit

(** A snapshot value: a counter's count, a gauge's level, or a
    histogram's bucket array. *)
type value = Count of int | Level of float | Buckets of int array

type snapshot = (string * value) list
(** Name-sorted view of the registry at one instant. *)

val snapshot : unit -> snapshot

val find : snapshot -> string -> value option

val count : snapshot -> string -> int
(** The [Count] under a name, 0 when absent — the common case for
    counter arithmetic in tests and reports. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier]: counters and histogram buckets subtract
    (clamped at 0 — a [reset] between snapshots yields zeros, not
    negatives); gauges keep the later level. *)

val merge : snapshot -> snapshot -> snapshot
(** Field-wise union: counters and histogram buckets add, gauges take
    the maximum.  Associative and commutative with the empty snapshot
    as unit — the registry analogue of [Solver.add_stats]. *)

val quantile_of_buckets : int array -> float -> float option
(** [quantile_of_buckets b q] — the interpolated [q]-quantile ([q] is
    clamped to [0..1]) of a log₂ bucket array: the bucket holding the
    q-th observation is found by cumulative count, and the value is
    placed linearly inside that bucket's range ([[2^(k-1), 2^k)];
    bucket 0 reads as 0).  [None] when the histogram is empty. *)

val quantile : snapshot -> string -> float -> float option
(** [quantile snap name q] — {!quantile_of_buckets} applied to the
    [Buckets] registered under [name]; [None] when absent, empty, or
    not a histogram. *)

val render_text : snapshot -> string
(** Plain-text rendering, one metric per line: counters and gauges as
    ["name value"], histograms as
    ["name n=<total> p50=<v> p90=<v> p99=<v>"] (quantiles from
    {!quantile_of_buckets}).  The format behind
    [qxmapd --metrics-out] / the ["metrics"] wire op and
    [qxmap map --metrics-out]. *)

val reset : unit -> unit
(** Zero every registered metric (registrations survive).  For tests
    and the start of instrumented CLI runs. *)
