"""Scalar cost function and the simulation-backed objective."""

import statistics

import pytest

from olsrlab.fitness import (
    DEFAULT_WEIGHTS,
    FitnessWeights,
    OlsrObjective,
    _median_metrics,
    comm_cost,
)
from olsrlab.netsim import QosMetrics, run_simulation
from olsrlab.olsr import OlsrConfig
from olsrlab.scenario import catalog


def metrics(pdr=1.0, nrl=0.0, e2ed=0.0, **extra):
    fields = dict(pdr=pdr, nrl=nrl, e2ed=e2ed, rpl=1.0, data_sent=100,
                  data_delivered=int(round(pdr * 100)), data_dropped=0,
                  data_in_flight=0, routing_tx=0)
    fields.update(extra)
    return QosMetrics(**fields)


def test_perfect_run_scores_minus_half():
    assert comm_cost(metrics()) == -0.5


def test_weighted_sum_matches_hand_arithmetic():
    m = metrics(pdr=1.0, nrl=0.0271, e2ed=0.0156)
    expected = 0.2 * 0.0271 + 0.3 * 0.0156 - 0.5 * 1.0
    value = comm_cost(m)
    assert abs(value - expected) < 1e-15
    # 0.00542 + 0.00468 - 0.5 by hand
    assert abs(value - (-0.4899)) < 1e-9
    assert abs(value - (-0.480)) < 0.01


def test_custom_weights():
    m = metrics(pdr=0.8, nrl=2.0, e2ed=0.05)
    w = FitnessWeights(pdr=1.0, nrl=0.1, e2ed=0.0)
    assert comm_cost(m, w) == pytest.approx(0.1 * 2.0 - 1.0 * 0.8)
    assert DEFAULT_WEIGHTS == FitnessWeights(0.5, 0.2, 0.3)


@pytest.mark.parametrize("bad", [
    metrics(pdr=1.2),
    metrics(pdr=-0.1),
    metrics(nrl=-1.0),
    metrics(e2ed=float("nan")),
    metrics(nrl=float("inf")),
])
def test_rejects_out_of_domain_metrics(bad):
    with pytest.raises(ValueError):
        comm_cost(bad)


def test_median_is_taken_per_field():
    rows = [metrics(pdr=0.9, nrl=1.0), metrics(pdr=1.0, nrl=3.0),
            metrics(pdr=0.8, nrl=2.0)]
    agg = _median_metrics(rows)
    assert agg.pdr == 0.9
    assert agg.nrl == 2.0


def test_objective_aggregates_across_seeds_like_manual_medians():
    spec = catalog()["static-mesh-smoke"]
    seeds = (1, 2, 3)
    objective = OlsrObjective(spec, seeds=seeds)
    result = objective.evaluate(OlsrConfig().as_vector())

    manual = [run_simulation(spec, OlsrConfig(), s) for s in seeds]
    for name in ("pdr", "nrl", "e2ed", "rpl"):
        want = statistics.median(getattr(m, name) for m in manual)
        assert getattr(result.metrics, name) == want
    assert result.cost == comm_cost(result.metrics)
    assert objective.evaluations == 3
    assert objective.best is result


def test_objective_tracks_the_best_candidate():
    objective = OlsrObjective(catalog()["static-mesh-smoke"], seeds=(1,))
    first = objective.evaluate(OlsrConfig().as_vector())
    # starving the control plane on a static mesh cannot beat the default
    worse = objective.evaluate(OlsrConfig(hello_interval=30.0, tc_interval=30.0,
                                          neighb_hold_time=90.0).as_vector())
    assert objective.evaluations == 2
    assert objective.best is (first if first.cost <= worse.cost else worse)
    assert objective(OlsrConfig().as_vector()) == first.cost  # deterministic


def test_objective_requires_seeds():
    with pytest.raises(ValueError, match="seed"):
        OlsrObjective(catalog()["static-mesh-smoke"], seeds=())
