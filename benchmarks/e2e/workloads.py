"""The four workloads of the e2e benchmark, all on the default configuration.

Every workload drives the program through its public API only
(``create_planner``, ``AdmissionService``, ``SimulationHarness``) with
``PlannerConfig()`` / ``ServiceConfig()`` defaults, so ``backend=AUTO``
resolves to HiGHS and the federated planner plans its shards serially
(``workers=None``).  A workload is three functions:

* ``params(scale)`` — operation counts for a run of ``scale`` × the
  reference length (``--seconds`` / ``REF_SECONDS``),
* ``setup(params)`` — scenario, catalog and planner construction plus one
  throw-away warm-up solve on a scratch planner; with the import of the
  program before it, what ``setup_s`` times in fresh interpreters
  (seed-independent, so it does not move with the inputs),
* ``run(state, seed, params, recorder)`` — generate the inputs from the
  seed, drive them, check the outputs, and return a :class:`Measurement`.

The seed decides *which* queries, streams and victims a run sees; how
much work is submitted is a parameter, so two seeds submit the same
amount of work.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from measure import percentile, timing_summary

from repro import (
    AdmissionService,
    ChurnTraceConfig,
    ClusterEngine,
    SimulationHarness,
    SimulationScenarioConfig,
    build_churn_schedule,
    build_simulation_scenario,
    create_planner,
)
from repro.dsps.catalog import SystemCatalog
from repro.dsps.cost_model import LinearCostModel
from repro.dsps.query import DecompositionMode, QueryWorkloadItem
from repro.experiments.federated import site_local_workload
from repro.milp.result import SolveStatus

#: ``--seconds`` value the operation counts below are sized for.
REF_SECONDS = 24.0


class Measurement:
    """What one workload run hands back to the runner."""

    def __init__(self) -> None:
        self.timed_wall = 0.0
        self.attempted = 0
        self.failed = 0
        #: check name -> passed; any ``False`` makes the run incorrect.
        self.checks: Dict[str, bool] = {}
        #: completed operations per second of timed wall (reported, not bounded).
        self.throughput_ops_s = 0.0
        #: latency of the workload's primary operation (see README.md).
        self.op_latency_s = 0.0
        self.admitted = 0
        self.decided = 0
        #: workload-specific timings and counts (reported, never bounded).
        self.detail: Dict[str, Any] = {}
        #: counts and ratios read from the program's public surfaces.
        self.layer: Dict[str, float] = {}
        #: planning rounds behind ``layer`` (stage-B share = solves / rounds − 1).
        self.planning_rounds = 0
        self.notes: List[str] = []

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = bool(passed) and self.checks.get(name, True)


# --------------------------------------------------------------------- helpers
def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(round(count * scale)))


def _warm_up() -> None:
    """One throw-away solve on a tiny scratch cluster: absorbs the first-call
    scipy/HiGHS import and initialisation cost before anything is timed.

    The scratch cluster is the same for every workload and seed and solves
    in milliseconds, so ``setup_s`` stays a measure of what building the
    scenario, catalog and planner costs rather than of one solve."""
    scenario = build_simulation_scenario(
        SimulationScenarioConfig(num_hosts=2, num_base_streams=4)
    )
    create_planner("sqpr", scenario.build_catalog()).submit(
        QueryWorkloadItem(base_names=("b0", "b1"))
    )


def _solver_layer(outcomes: Sequence[Any], m: Measurement) -> Dict[str, float]:
    """Solver and model-builder ratios from the recorded outcomes' extras."""
    results: Dict[int, Any] = {}
    rounds = set()
    sizes: List[float] = []
    for outcome in outcomes:
        result = outcome.extras.get("solve_result")
        if result is None:
            continue
        results[id(result)] = result
        rounds.add(id(outcome.extras.get("solver_counters")))
        sizes.append(float(outcome.extras.get("model_size", 0)))
    statuses = [result.status for result in results.values()]
    total = len(statuses)
    limit_hit = sum(
        1 for s in statuses if s in (SolveStatus.FEASIBLE, SolveStatus.TIMEOUT)
    )
    optimal = sum(1 for s in statuses if s is SolveStatus.OPTIMAL)
    m.planning_rounds = len(rounds)
    return {
        "milp.solver.limit_hit_frac": limit_hit / total if total else 0.0,
        "milp.solver.optimal_frac": optimal / total if total else 0.0,
        "core.model_builder.model_vars_p50": percentile(sizes, 50.0) if sizes else 0.0,
    }


def _planner_layer(planner: Any, m: Measurement) -> Dict[str, float]:
    """Reuse-cache and sub-plan-index ratios from the planner's stat views."""
    layer = _solver_layer(planner.outcomes, m)
    reuse = planner.reuse_stats
    lookups = reuse.get("hits", 0) + reuse.get("misses", 0)
    layer["core.model_builder.reuse_hit_frac"] = (
        reuse.get("hits", 0) / lookups if lookups else 0.0
    )
    subplan = getattr(planner, "subplan_stats", None) or {}
    touched = subplan.get("records_reused", 0) + subplan.get("records_reextracted", 0)
    layer["dsps.subplan.records_reused_frac"] = (
        subplan.get("records_reused", 0) / touched if touched else 0.0
    )
    layer["dsps.subplan.stale_fallbacks"] = float(subplan.get("stale_fallbacks", 0))
    return layer


def _kind(outcome: Any) -> str:
    """The timing bucket a decision belongs to."""
    if outcome.duplicate:
        return "dup"
    return "admit" if outcome.admitted else "reject"


def _tally(outcome: Any, m: Measurement) -> str:
    """Count one decision towards ``admitted_frac``; returns its bucket."""
    m.decided += 1
    m.admitted += bool(outcome.admitted)
    return _kind(outcome)


def _buckets() -> Dict[str, List[float]]:
    return {"admit": [], "dup": [], "reject": []}


def _median(seconds: Sequence[float]) -> float:
    """The median, or 0.0 for an empty sample (the runner then fails the
    ``op_latency_measured`` check instead of reporting a made-up number)."""
    return percentile(seconds, 50.0) if seconds else 0.0


# ---------------------------------------------------------------- fill_default
def fill_default_params(scale: float) -> Dict[str, Any]:
    return {"num_queries": _scaled(38, scale, 1)}


def fill_default_setup(params: Dict[str, Any]) -> Dict[str, Any]:
    scenario = build_simulation_scenario()
    catalog = scenario.build_catalog()
    planner = create_planner("sqpr", catalog)
    _warm_up()
    return {"scenario": scenario, "planner": planner}


def fill_default_run(
    state: Dict[str, Any], seed: int, params: Dict[str, Any], recorder: Any
) -> Measurement:
    """Closed loop, one client: the README quickstart path from an empty
    cluster up to the saturation knee."""
    m = Measurement()
    planner = state["planner"]
    workload = state["scenario"].workload(params["num_queries"], seed_offset=seed)
    timings = _buckets()
    completed = 0
    start = time.perf_counter()
    for index, item in enumerate(workload):
        m.attempted += 1
        if recorder is not None:
            recorder.set_operation(index)
        began = time.perf_counter()
        try:
            outcome = planner.submit(item)
        except Exception as error:  # a failed request misses every latency metric
            m.failed += 1
            m.notes.append("submit %d raised %r" % (index, error))
            continue
        timings[_tally(outcome, m)].append(time.perf_counter() - began)
        completed += 1
    m.timed_wall = time.perf_counter() - start
    m.throughput_ops_s = completed / m.timed_wall
    m.op_latency_s = _median(timings["admit"])
    m.check("allocation_valid", planner.allocation.validate() == [])
    m.layer = _planner_layer(planner, m)
    m.check("no_stale_fallbacks", m.layer["dsps.subplan.stale_fallbacks"] == 0)
    m.detail["admit_ms"] = timing_summary(timings["admit"])
    m.detail["reject_ms"] = timing_summary(timings["reject"])
    m.detail["dup_admit_us"] = timing_summary(timings["dup"], scale=1e6)
    return m


# ----------------------------------------------------------- resident_turnover
TURNOVER_HOSTS = 8
TURNOVER_BASE_STREAMS = 16
TURNOVER_ZIPF = 1.5
#: Percentile of the steady-state ``retire()`` samples reported as the
#: workload's ``op_latency_ms``.
RETIRE_FLOOR_Q = 1.0


def resident_turnover_params(scale: float) -> Dict[str, Any]:
    # Retirement costs O(residents), so run time grows with
    # residents × (cycles + residents / 2): scale both by sqrt.
    root = scale ** 0.5
    residents = _scaled(1536, root, 32)
    return {
        "residents": residents,
        "cycles": _scaled(1000, root, 10),
        # Distinct queries the Zipf draws cycle over; every first copy is a
        # planned admission (~50 ms each), so short runs shrink the pool too.
        "pool": min(40, max(4, residents // 16)),
    }


def _turnover_catalog() -> SystemCatalog:
    catalog = SystemCatalog(
        cost_model=LinearCostModel(seed=1),
        decomposition=DecompositionMode.CANONICAL,
        default_link_capacity=4000.0,
    )
    for index in range(TURNOVER_HOSTS):
        catalog.add_host(
            cpu_capacity=200.0, bandwidth_capacity=2000.0, name="h%d" % index, site=0
        )
    for index in range(TURNOVER_BASE_STREAMS):
        catalog.add_base_stream("b%d" % index, 10.0, index % TURNOVER_HOSTS)
    return catalog


def resident_turnover_setup(params: Dict[str, Any]) -> Dict[str, Any]:
    planner = create_planner("sqpr", _turnover_catalog())
    _warm_up()
    return {"planner": planner}


def resident_turnover_run(
    state: Dict[str, Any], seed: int, params: Dict[str, Any], recorder: Any
) -> Measurement:
    """Closed loop, one client: grow to many residents drawn Zipf from a
    small pool of distinct queries, then retire-one/submit-one cycles at
    that population, then drain.  Writes beside reads on the allocation and
    the sub-plan index; the solver runs only for the pool's first copies."""
    m = Measurement()
    planner = state["planner"]
    rng = random.Random(seed)
    combos = list(combinations(["b%d" % i for i in range(TURNOVER_BASE_STREAMS)], 2))
    rng.shuffle(combos)
    pool = combos[: params["pool"]]
    weights = [1.0 / (rank + 1) ** TURNOVER_ZIPF for rank in range(len(pool))]
    growth = rng.choices(pool, weights=weights, k=params["residents"])
    fresh = rng.choices(pool, weights=weights, k=params["cycles"])

    growth_timings = _buckets()
    steady_timings = _buckets()
    steady_retire: List[float] = []
    residents: List[int] = []
    op = 0
    completed = 0

    def submit(names: Tuple[str, ...], timings: Dict[str, List[float]]) -> None:
        nonlocal op, completed
        m.attempted += 1
        if recorder is not None:
            recorder.set_operation(op)
        op += 1
        began = time.perf_counter()
        try:
            outcome = planner.submit(QueryWorkloadItem(base_names=names))
        except Exception as error:
            m.failed += 1
            m.notes.append("submit raised %r" % (error,))
            return
        timings[_tally(outcome, m)].append(time.perf_counter() - began)
        completed += 1
        if outcome.admitted:
            residents.append(outcome.query.query_id)

    def retire(query_id: int, bucket: List[float]) -> None:
        nonlocal op, completed
        m.attempted += 1
        if recorder is not None:
            recorder.set_operation(op)
        op += 1
        began = time.perf_counter()
        try:
            removed = planner.retire(query_id)
        except Exception as error:
            m.failed += 1
            m.notes.append("retire raised %r" % (error,))
            return
        ended = time.perf_counter()
        if not removed:
            m.failed += 1
            return
        completed += 1
        bucket.append(ended - began)

    start = time.perf_counter()
    for names in growth:
        submit(names, growth_timings)
    for names in fresh:
        slot = rng.randrange(len(residents))
        residents[slot], residents[-1] = residents[-1], residents[slot]
        retire(residents.pop(), steady_retire)
        submit(names, steady_timings)
    paused = time.perf_counter()
    # The full validator is a check, not part of the workload: stop the clock.
    m.check("allocation_valid", planner.allocation.validate() == [])
    m.check(
        "population_held",
        len(planner.allocation.admitted_queries) == len(residents),
    )
    resumed = time.perf_counter()
    rng.shuffle(residents)
    drain: List[float] = []
    for query_id in residents:
        retire(query_id, drain)
    finished = time.perf_counter()
    m.timed_wall = (paused - start) + (finished - resumed)
    m.throughput_ops_s = completed / m.timed_wall
    # The floor (1st percentile, ten samples below it), not the median:
    # retirement is pure Python, and a shared host slows whole runs by up
    # to 1.8x at the median and the lower quartile while the fastest
    # calls, which met no contention, move a few percent (README.md).
    m.op_latency_s = (
        percentile(steady_retire, RETIRE_FLOOR_Q) if steady_retire else 0.0
    )
    allocation = planner.allocation
    m.check(
        "drained_empty",
        not allocation.admitted_queries and not allocation.placements
        and not allocation.flows,
    )
    m.layer = _planner_layer(planner, m)
    m.check("no_stale_fallbacks", m.layer["dsps.subplan.stale_fallbacks"] == 0)
    m.detail["admit_ms"] = timing_summary(
        growth_timings["admit"] + steady_timings["admit"]
    )
    m.detail["retire_ms"] = timing_summary(steady_retire)
    m.detail["dup_admit_us"] = timing_summary(steady_timings["dup"], scale=1e6)
    m.detail["growth_dup_admit_us"] = timing_summary(growth_timings["dup"], scale=1e6)
    m.detail["drain_retire_ms"] = timing_summary(drain)
    return m


# -------------------------------------------------------------- service_poisson
SERVICE_SITES = 4
SERVICE_HOSTS_PER_SITE = 3
SERVICE_STREAMS = 48
#: Generator lateness above which the overload phase's numbers are flagged.
LATENESS_FLAG_MS = 150.0


def service_poisson_params(scale: float) -> Dict[str, Any]:
    return {
        "lo_rate_qps": 10.0,
        "lo_queries": 4 * _scaled(25, scale, 1),
        "hi_rate_qps": 120.0,
        "hi_queries": 4 * _scaled(120, scale, 2),
    }


def _service_scenario() -> Any:
    # Capacities sized so the cluster never saturates (>= 95 % admitted):
    # this workload measures the admission pipeline, not rejection.
    return build_simulation_scenario(
        SimulationScenarioConfig(
            num_hosts=SERVICE_SITES * SERVICE_HOSTS_PER_SITE,
            num_base_streams=SERVICE_STREAMS,
            host_cpu_capacity=200.0,
            host_bandwidth=3000.0,
            link_capacity=4000.0,
            decomposition=DecompositionMode.CANONICAL,
            num_sites=SERVICE_SITES,
            wan_capacity=200.0,
        )
    )


def service_poisson_setup(params: Dict[str, Any]) -> Dict[str, Any]:
    scenario = _service_scenario()
    phases = {}
    for phase in ("lo", "hi"):
        catalog = scenario.build_catalog()
        planner = create_planner("federated:sqpr", catalog)
        phases[phase] = (planner, ClusterEngine(catalog))
    _warm_up()
    return {"scenario": scenario, "phases": phases}


def _drive_service(
    planner: Any,
    engine: Any,
    workload: Sequence[QueryWorkloadItem],
    offsets: Sequence[float],
    m: Measurement,
) -> Dict[str, Any]:
    """Open loop: one generator thread submits on schedule whatever the
    service is doing; latency counts from each query's scheduled arrival."""
    service = AdmissionService(planner, engine=engine)
    tickets: List[Tuple[float, Any]] = []
    lateness: List[float] = []
    start = time.perf_counter()
    with service:
        for offset, item in zip(offsets, workload):
            now = time.perf_counter() - start
            if offset > now:
                time.sleep(offset - now)
            m.attempted += 1
            lateness.append(max(0.0, (time.perf_counter() - start) - offset))
            try:
                tickets.append((offset, service.submit(item)))
            except Exception as error:  # shed or closed: a failed request
                m.failed += 1
                m.notes.append("service.submit raised %r" % (error,))
        service.flush(timeout=120.0)
        wall = time.perf_counter() - start
    latencies: List[float] = []
    resolved = True
    for offset, ticket in tickets:
        if not ticket.done():
            resolved = False
            m.failed += 1
            continue
        try:
            outcome = ticket.result(timeout=0.0)
        except Exception as error:
            m.failed += 1
            m.notes.append("ticket failed %r" % (error,))
            continue
        m.decided += 1
        m.admitted += bool(outcome.admitted)
        latencies.append((ticket.completed_at - start) - offset)
    m.check("tickets_resolved", resolved)
    m.check("engine_consistent", engine.report().is_consistent)
    m.check("allocation_valid", planner.allocation.validate() == [])
    snapshot = service.metrics.snapshot()
    return {
        "wall": wall,
        "start": start,
        "latencies": latencies,
        "lateness": lateness,
        "tickets": [ticket for _offset, ticket in tickets if ticket.done()],
        "metrics": snapshot,
    }


def service_poisson_run(
    state: Dict[str, Any], seed: int, params: Dict[str, Any], recorder: Any
) -> Measurement:
    """Open loop through the pipelined admission service over the federated
    planner: a light phase for the latency floor, then an overload phase on
    a fresh service whose backlog forces batch coalescing."""
    m = Measurement()
    scenario = state["scenario"]
    rng = np.random.default_rng(seed)
    phases: Dict[str, Dict[str, Any]] = {}
    for index, phase in enumerate(("lo", "hi")):
        count = params["%s_queries" % phase]
        workload = site_local_workload(
            scenario,
            queries_per_site=count // SERVICE_SITES,
            seed_offset=1000 * seed + index,
        )
        gaps = rng.exponential(1.0 / params["%s_rate_qps" % phase], size=len(workload))
        planner, engine = state["phases"][phase]
        phases[phase] = _drive_service(
            planner, engine, workload, list(np.cumsum(gaps)), m
        )
        phases[phase]["planner"] = planner
    lo, hi = phases["lo"], phases["hi"]
    m.timed_wall = lo["wall"] + hi["wall"]
    m.throughput_ops_s = len(hi["latencies"]) / hi["wall"]
    m.op_latency_s = _median(lo["latencies"])

    lateness_ms = [1e3 * v for v in lo["lateness"] + hi["lateness"]]
    hi_late_p99 = percentile([1e3 * v for v in hi["lateness"]], 99.0)
    m.detail["decision_ms"] = timing_summary(lo["latencies"])
    m.detail["hi_decision_ms"] = timing_summary(hi["latencies"])
    m.detail["hi_gen_lateness_p99_ms"] = hi_late_p99
    m.detail["hi_lateness_flagged"] = hi_late_p99 > LATENESS_FLAG_MS
    if m.detail["hi_lateness_flagged"]:
        m.notes.append(
            "hi phase: generator ran %.0f ms late at p99 (> %.0f ms); the "
            "offered rate was lower than scheduled" % (hi_late_p99, LATENESS_FLAG_MS)
        )

    outcomes = list(lo["planner"].outcomes) + list(hi["planner"].outcomes)
    m.layer = _solver_layer(outcomes, m)
    hits = misses = 0
    for phase in (lo, hi):
        reuse = phase["planner"].reuse_stats
        hits += reuse.get("hits", 0)
        misses += reuse.get("misses", 0)
    m.layer["core.model_builder.reuse_hit_frac"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    # Latency decomposition from the idle phase, batching from the loaded one.
    queue_wait = [t.queue_wait for t in lo["tickets"] if t.queue_wait is not None]
    m.layer["service.admission.queue_wait_p50_ms"] = (
        1e3 * percentile(queue_wait, 50.0) if queue_wait else 0.0
    )
    for key, name in (("solve_mean_ms", "solve_seconds"), ("deploy_mean_ms", "deploy_seconds")):
        histogram = lo["metrics"]["histograms"].get(name, {})
        m.layer["service.admission." + key] = 1e3 * float(histogram.get("mean", 0.0))
    counters = hi["metrics"]["counters"]
    batches = float(counters.get("batches_total", 0))
    m.layer["service.admission.batch_size_mean"] = (
        len(hi["tickets"]) / batches if batches else 0.0
    )
    m.layer["service.admission.fallback_batches"] = float(
        counters.get("fallback_batches_total", 0)
    )
    m.layer["service.admission.shed"] = float(
        counters.get("shed_total", 0) + lo["metrics"]["counters"].get("shed_total", 0)
    )
    m.layer["bench.gen_lateness_p99_ms"] = percentile(lateness_ms, 99.0)
    return m


# ----------------------------------------------------------------- churn_mixed
def churn_mixed_params(scale: float) -> Dict[str, Any]:
    return {
        "duration": max(3.0, round(42.0 * scale, 1)),
        "arrival_rate": 0.6,
        "num_host_failures": 1,
        "recovery_delay": 3.0,
        "drift_period": 10.0,
        "drift_factor": 2.2,
        "drift_operators": 3,
        "replan_period": 15.0,
        "arities": (2, 3, 4),
    }


def _churn_scenario() -> Any:
    return build_simulation_scenario()


def churn_mixed_setup(params: Dict[str, Any]) -> Dict[str, Any]:
    scenario = _churn_scenario()
    planner = create_planner("sqpr", scenario.build_catalog())
    _warm_up()
    return {"scenario": scenario, "planner": planner}


class _TaggedSchedule:
    """Schedule view that tags each event's spans with its schedule index.

    ``SimulationHarness.run`` pulls events one by one, so the pull is the
    one place outside ``src/`` that sees where one event ends and the next
    begins.
    """

    def __init__(self, schedule: Any, recorder: Any) -> None:
        self._schedule = schedule
        self._recorder = recorder
        self.seed = schedule.seed
        self.duration = schedule.duration

    def __len__(self) -> int:
        return len(self._schedule)

    def __iter__(self) -> Any:
        for index, event in enumerate(self._schedule):
            self._recorder.set_operation(index)
            yield event


def churn_mixed_run(
    state: Dict[str, Any], seed: int, params: Dict[str, Any], recorder: Any
) -> Measurement:
    """Event replay: arrivals, departures, a host failure and recovery,
    operator-cost drift and adaptive re-planning ticks through the
    simulation harness — the re-planning use of the solver path."""
    m = Measurement()
    planner = state["planner"]
    config = ChurnTraceConfig(
        duration=params["duration"],
        arrival_rate=params["arrival_rate"],
        num_host_failures=params["num_host_failures"],
        recovery_delay=params["recovery_delay"],
        drift_period=params["drift_period"],
        drift_factor=params["drift_factor"],
        drift_operators=params["drift_operators"],
        replan_period=params["replan_period"],
        arities=tuple(params["arities"]),
        seed=seed,
    )
    schedule = build_churn_schedule(state["scenario"], config)
    if recorder is not None:
        schedule = _TaggedSchedule(schedule, recorder)
    harness = SimulationHarness(planner, on_violation="record")

    # Per-decision latency from outside, untraced pass included: shadow the
    # planner's bound ``submit`` on this instance (``resubmit`` routes
    # through it too) with a stopwatch.
    timings = _buckets()
    timings["readmit"] = []
    bound_submit = planner.submit

    def timed_submit(*args: Any, **kwargs: Any) -> Any:
        began = time.perf_counter()
        outcome = bound_submit(*args, **kwargs)
        seconds = time.perf_counter() - began
        kind = _kind(outcome)
        if kind == "admit" and outcome.extras.get("perturbation_resolve"):
            kind = "readmit"  # eviction victim or adaptive re-plan
        timings[kind].append(seconds)
        return outcome

    planner.submit = timed_submit
    m.attempted = len(schedule)
    start = time.perf_counter()
    try:
        result = harness.run(schedule)
    except Exception as error:
        m.failed += 1
        m.notes.append("harness.run raised %r" % (error,))
        m.timed_wall = time.perf_counter() - start
        m.check("replay_completed", False)
        return m
    finally:
        del planner.submit
    m.timed_wall = time.perf_counter() - start
    m.throughput_ops_s = len(schedule) / m.timed_wall
    m.op_latency_s = _median(timings["admit"])
    counters = result.counters
    m.decided = counters["arrivals"]
    m.admitted = counters["admitted"]
    m.failed += len(result.violation_events)
    m.check("no_violation_events", result.violation_events == [])
    m.check("final_allocation_valid", result.final_violations == [])
    m.layer = _planner_layer(planner, m)
    m.layer["sim.harness.validate_s"] = float(result.validate_seconds)
    for key in ("evicted", "readmitted", "dropped"):
        m.layer["sim.harness." + key] = float(counters[key])
    m.detail["admit_ms"] = timing_summary(timings["admit"])
    m.detail["readmit_ms"] = timing_summary(timings["readmit"])
    m.detail["reject_ms"] = timing_summary(timings["reject"])
    m.detail["events"] = {k: v for k, v in counters.items() if v}
    return m


# --------------------------------------------------------------------- registry
WORKLOADS: Dict[str, Dict[str, Callable]] = {
    "fill_default": {
        "params": fill_default_params,
        "setup": fill_default_setup,
        "run": fill_default_run,
    },
    "resident_turnover": {
        "params": resident_turnover_params,
        "setup": resident_turnover_setup,
        "run": resident_turnover_run,
    },
    "service_poisson": {
        "params": service_poisson_params,
        "setup": service_poisson_setup,
        "run": service_poisson_run,
    },
    "churn_mixed": {
        "params": churn_mixed_params,
        "setup": churn_mixed_setup,
        "run": churn_mixed_run,
    },
}

#: Workloads whose driving thread does all the work, so the layer spans on
#: it must account for (nearly) the whole timed wall.
CLOSED_LOOP = ("fill_default", "resident_turnover", "churn_mixed")
