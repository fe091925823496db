"""The declarative scenario matrix: named regimes × scale tiers.

``SCENARIO_MATRIX`` holds one :class:`~repro.scenarios.spec.ScenarioSpec`
per operating regime.  Regimes are *specs*, not configs: each names only
the fields it perturbs, so regimes compose — the default sweep includes
the expression ``flash_crowd+site_partition`` rather than a hand-written
"flash crowd during a partition" file.

``MATRIX_SCALES`` pins the base configs a spec resolves over: the
catalog/topology (:class:`SimulationScenarioConfig`) and the trace
envelope (:class:`ChurnTraceConfig` — duration, arrival rate, seeds).
Every scale is solver-deterministic by construction (small enough that
``PlannerConfig(time_limit=None)`` solves to optimality), which is what
makes matrix fingerprints reproducible across machines.

``MATRIX_REGIMES`` is the default sweep list — the enumerable table the
ROADMAP's "as many scenarios as you can imagine" item asks for.
"""

from __future__ import annotations

from typing import Dict, Tuple

from dataclasses import dataclass

from repro.dsps.query import DecompositionMode
from repro.scenarios.spec import ScenarioSpec
from repro.workloads.churn import ChurnTraceConfig
from repro.workloads.scenarios import SimulationScenarioConfig

#: The pinned baseline regime every cell's KPI deltas are taken against.
BASELINE_SCENARIO = "baseline"

_SPECS = [
    ScenarioSpec(
        BASELINE_SCENARIO,
        "The unperturbed open system: Poisson arrivals, Zipf lifetimes, "
        "no failures, no drift — the pinned delta reference of the matrix.",
    ),
    ScenarioSpec(
        "flash_crowd",
        "A 3x arrival burst in the middle third of the run — admission "
        "under pressure and recovery after.",
        trace={
            "burst_factor": 3.0,
            "burst_start_frac": 1.0 / 3.0,
            "burst_end_frac": 2.0 / 3.0,
        },
    ),
    ScenarioSpec(
        "site_partition",
        "Mostly site-local arrivals with one site cut off the WAN "
        "mid-run, healing later — eviction and re-planning at the cut.",
        trace={
            "site_locality": 0.7,
            "num_site_partitions": 1,
            "partition_recovery_delay": 12.0,
        },
    ),
    ScenarioSpec(
        "diurnal_wave",
        "Sinusoidal day/night arrival modulation (amplitude 0.85) — the "
        "smooth load swing of a planetary user base, unlike the flash "
        "crowd's step.",
        trace={"diurnal_period": 12.0, "diurnal_amplitude": 0.85},
    ),
    ScenarioSpec(
        "correlated_site_failures",
        "Two sites partitioned at the same instant by a shared-cause WAN "
        "outage, healing together — the failure mode independent "
        "partitions never produce.",
        topology={"num_sites": 3},
        trace={
            "site_locality": 0.6,
            "correlated_site_partitions": 2,
            "partition_recovery_delay": 12.0,
        },
    ),
    ScenarioSpec(
        "hot_key_skew",
        "All global arrivals hit the first five base streams with an "
        "extreme Zipf exponent — the hot-key regime where popular streams "
        "receive nearly every query.",
        trace={"zipf_exponent": 3.0, "universe_limit": 5},
    ),
    ScenarioSpec(
        "reuse_heavy",
        "Strongly skewed stream popularity (Zipf 2.0): most arrivals "
        "overlap popular streams, the regime where SQPR's sub-plan reuse "
        "should dominate.",
        trace={"zipf_exponent": 2.0},
    ),
    ScenarioSpec(
        "reuse_free",
        "Uniform stream popularity (Zipf 0): arrivals barely overlap, so "
        "reuse opportunities vanish and every planner pays full freight.",
        trace={"zipf_exponent": 0.0},
    ),
    ScenarioSpec(
        "adversarial_fragmentation",
        "40% of arrivals replaced by capacity-fragmenting queries that "
        "join streams from three distinct hosts each — crafted to "
        "splinter CPU and link headroom into unusable slivers.",
        trace={"adversarial_fraction": 0.4, "adversarial_span": 3},
    ),
]

#: Name -> spec.  Compound regimes are *expressions* over these names
#: (see :func:`~repro.scenarios.spec.parse_spec`), not registry entries.
SCENARIO_MATRIX: Dict[str, ScenarioSpec] = {spec.name: spec for spec in _SPECS}

#: The default sweep: every registered regime plus the compound
#: flash-crowd-during-partition expression.
MATRIX_REGIMES: Tuple[str, ...] = (
    BASELINE_SCENARIO,
    "flash_crowd",
    "site_partition",
    "flash_crowd+site_partition",
    "diurnal_wave",
    "correlated_site_failures",
    "hot_key_skew",
    "reuse_heavy",
    "reuse_free",
    "adversarial_fragmentation",
)


@dataclass(frozen=True)
class MatrixScale:
    """One scale tier: the base configs a regime's overrides resolve over.

    ``deterministic`` tiers are small enough that every cell solves to
    optimality, so their artifact fingerprints are machine-independent
    and pinned by the golden fixture.  Non-deterministic tiers (the
    ``large`` stress tier runs under a solver time limit, where the
    incumbent at timeout can differ across machines) are checked against
    **KPI tolerance bands** instead: ``kpi_tolerances`` maps KPI name to
    the accepted relative deviation from a reference sweep (see
    :func:`~repro.scenarios.artifacts.diff_kpi_bands`).
    """

    name: str
    description: str
    topology: SimulationScenarioConfig
    trace: ChurnTraceConfig
    deterministic: bool = True
    kpi_tolerances: Tuple[Tuple[str, float], ...] = ()

    def tolerance_map(self) -> Dict[str, float]:
        """``kpi_tolerances`` as a dict (stored as pairs to stay frozen)."""
        return dict(self.kpi_tolerances)


MATRIX_SCALES: Dict[str, MatrixScale] = {
    scale.name: scale
    for scale in (
        MatrixScale(
            name="quick",
            description=(
                "CI tier: 4 hosts / 2 sites / 12 streams over 40 time "
                "units — every cell solver-deterministic and sub-second."
            ),
            topology=SimulationScenarioConfig(
                num_hosts=4,
                num_base_streams=12,
                host_cpu_capacity=5.0,
                host_bandwidth=150.0,
                decomposition=DecompositionMode.CANONICAL,
                seed=3,
                num_sites=2,
                wan_capacity=300.0,
            ),
            trace=ChurnTraceConfig(
                duration=40.0,
                arrival_rate=0.6,
                arities=(2,),
                min_lifetime=8.0,
                lifetime_buckets=8,
                seed=9406,
            ),
        ),
        MatrixScale(
            name="small",
            description=(
                "Laptop tier: 6 hosts / 3 sites / 24 streams over 100 "
                "time units with mixed arities."
            ),
            topology=SimulationScenarioConfig(
                num_hosts=6,
                num_base_streams=24,
                host_cpu_capacity=6.0,
                host_bandwidth=250.0,
                decomposition=DecompositionMode.CANONICAL,
                seed=5,
                num_sites=3,
                wan_capacity=400.0,
            ),
            trace=ChurnTraceConfig(
                duration=100.0,
                arrival_rate=0.6,
                arities=(2, 3),
                seed=9407,
            ),
        ),
        MatrixScale(
            name="medium",
            description=(
                "Workstation tier: the §V-A simulated data centre (8 "
                "hosts / 4 sites / 60 streams) over 150 time units."
            ),
            topology=SimulationScenarioConfig(
                num_hosts=8,
                num_base_streams=60,
                decomposition=DecompositionMode.CANONICAL,
                seed=7,
                num_sites=4,
                wan_capacity=600.0,
            ),
            trace=ChurnTraceConfig(
                duration=150.0,
                arrival_rate=0.7,
                arities=(2, 3),
                seed=9408,
            ),
        ),
        MatrixScale(
            name="large",
            description=(
                "Stress tier: 12 hosts / 4 sites / 96 streams over 200 "
                "time units under a solver time limit; checked by KPI "
                "tolerance bands, not determinism fingerprints."
            ),
            topology=SimulationScenarioConfig(
                num_hosts=12,
                num_base_streams=96,
                host_cpu_capacity=6.0,
                host_bandwidth=250.0,
                decomposition=DecompositionMode.CANONICAL,
                seed=11,
                num_sites=4,
                wan_capacity=800.0,
            ),
            trace=ChurnTraceConfig(
                duration=200.0,
                arrival_rate=0.8,
                arities=(2, 3),
                seed=9409,
            ),
            deterministic=False,
            kpi_tolerances=(
                ("admitted", 0.10),
                ("rejected", 0.15),
                ("dropped", 0.25),
                ("departed", 0.10),
                ("submitted", 0.0),
            ),
        ),
    )
}
