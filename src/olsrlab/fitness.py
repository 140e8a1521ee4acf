"""Aggregative cost function tying QoS metrics to a single scalar.

The communication cost rewards delivery and penalizes overhead and
latency::

    cost = w_nrl * NRL + w_e2ed * E2ED - w_pdr * PDR

with PDR as a fraction in [0, 1], NRL as a fraction (control frames per
delivered data packet), and E2ED in seconds.  The weights are the paper's
fixed ``COST_WEIGHTS`` (pdr 0.5, nrl 0.2, e2ed 0.3); every run is scored
with them.  Lower is better; a perfect run with no overhead and no delay
scores -0.5.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from types import MappingProxyType

from .netsim import QosMetrics, run_simulation
from .olsr import OlsrConfig
from .params import decode_params
from .scenario import ScenarioSpec


# Relative importance of delivery, overhead, and latency; read-only
COST_WEIGHTS = MappingProxyType({"pdr": 0.5, "nrl": 0.2, "e2ed": 0.3})


@dataclass(frozen=True)
class Evaluation:
    """One scored candidate: decoded config, metrics and cost."""

    config: OlsrConfig
    metrics: QosMetrics | None
    cost: float


def comm_cost(metrics: QosMetrics) -> float:
    """Scalar cost of a metrics bundle; lower is better."""
    for name in ("pdr", "nrl", "e2ed"):
        if not math.isfinite(getattr(metrics, name)):
            raise ValueError(f"{name} is not finite")
    if not 0.0 <= metrics.pdr <= 1.0:
        raise ValueError(f"pdr={metrics.pdr!r} outside [0, 1]")
    if metrics.nrl < 0 or metrics.e2ed < 0:
        raise ValueError("nrl and e2ed must be nonnegative")
    w = COST_WEIGHTS
    return w["nrl"] * metrics.nrl + w["e2ed"] * metrics.e2ed - w["pdr"] * metrics.pdr


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

    def __init__(self, scenario: ScenarioSpec, seeds: tuple[int, ...]):
        if not seeds:
            raise ValueError("at least one simulation seed is required")
        self.scenario = scenario
        self.seeds = tuple(int(s) for s in seeds)

    def evaluate(self, raw) -> Evaluation:
        config = decode_params(raw)
        per_seed = [run_simulation(self.scenario, config, seed) for seed in self.seeds]
        metrics = _median_metrics(per_seed)
        return Evaluation(config, metrics, comm_cost(metrics))

    def __call__(self, raw) -> Evaluation:
        return self.evaluate(raw)
