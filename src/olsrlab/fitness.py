"""Aggregative cost function tying QoS metrics to a single scalar.

The communication cost rewards delivery and penalizes overhead and
latency::

    cost = w_nrl * NRL + w_e2ed * E2ED - w_pdr * PDR

with PDR as a fraction in [0, 1], NRL as a fraction (control frames per
delivered data packet), and E2ED in seconds.  Lower is better; a perfect
run with no overhead and no delay scores -w_pdr.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

from .netsim import QosMetrics, run_simulation
from .olsr import OlsrConfig
from .params import decode_params
from .scenario import ScenarioSpec


@dataclass(frozen=True)
class FitnessWeights:
    """Relative importance of delivery, overhead, and latency."""

    pdr: float = 0.5
    nrl: float = 0.2
    e2ed: float = 0.3


DEFAULT_WEIGHTS = FitnessWeights()


@dataclass(frozen=True)
class Evaluation:
    """One scored candidate: decoded config, metrics, cost, provenance."""

    config: OlsrConfig
    metrics: QosMetrics | None
    cost: float
    seed: int
    wall_time: float


def comm_cost(metrics: QosMetrics, weights: FitnessWeights = DEFAULT_WEIGHTS) -> float:
    """Scalar cost of a metrics bundle; lower is better."""
    for name in ("pdr", "nrl", "e2ed"):
        if not math.isfinite(getattr(metrics, name)):
            raise ValueError(f"{name} is not finite")
    if not 0.0 <= metrics.pdr <= 1.0:
        raise ValueError(f"pdr={metrics.pdr!r} outside [0, 1]")
    if metrics.nrl < 0 or metrics.e2ed < 0:
        raise ValueError("nrl and e2ed must be nonnegative")
    return weights.nrl * metrics.nrl + weights.e2ed * metrics.e2ed - weights.pdr * metrics.pdr


def _median_metrics(per_seed: list[QosMetrics]) -> QosMetrics:
    if len(per_seed) == 1:
        return per_seed[0]
    fields = QosMetrics.__dataclass_fields__
    agg = {name: statistics.median(getattr(m, name) for m in per_seed) for name in fields}
    return QosMetrics(**agg)


class OlsrObjective:
    """Callable objective: raw vector -> scored :class:`Evaluation` on a scenario.

    Each evaluation decodes the vector, simulates once per seed, takes the
    per-field median across seeds, and scores that aggregate.  It keeps no
    state between calls, so one objective can serve any number of searches.
    """

    def __init__(self, scenario: ScenarioSpec, weights: FitnessWeights = DEFAULT_WEIGHTS,
                 seeds=(0,)):
        if not seeds:
            raise ValueError("at least one simulation seed is required")
        self.scenario = scenario
        self.weights = weights
        self.seeds = tuple(int(s) for s in seeds)

    def evaluate(self, raw) -> Evaluation:
        started = time.perf_counter()
        config = decode_params(raw)
        per_seed = [run_simulation(self.scenario, config, seed) for seed in self.seeds]
        metrics = _median_metrics(per_seed)
        cost = comm_cost(metrics, self.weights)
        return Evaluation(config, metrics, cost, self.seeds[0],
                          time.perf_counter() - started)

    def __call__(self, raw) -> Evaluation:
        return self.evaluate(raw)
