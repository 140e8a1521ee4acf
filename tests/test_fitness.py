"""Scalar cost function and the simulation-backed objective."""

import statistics

import pytest

from olsrlab.fitness import COST_WEIGHTS, OlsrObjective, _median_metrics, comm_cost
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
    assert COST_WEIGHTS == {"pdr": 0.5, "nrl": 0.2, "e2ed": 0.3}
    m = metrics(pdr=1.0, nrl=0.0271, e2ed=0.0156)
    expected = 0.2 * 0.0271 + 0.3 * 0.0156 - 0.5 * 1.0
    value = comm_cost(m)
    assert abs(value - expected) < 1e-15
    # 0.00542 + 0.00468 - 0.5 by hand
    assert abs(value - (-0.4899)) < 1e-9
    assert abs(value - (-0.480)) < 0.01


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


def test_objective_returns_its_evaluation_and_keeps_no_run_state():
    objective = OlsrObjective(catalog()["static-mesh-smoke"], seeds=(1,))
    state = dict(vars(objective))
    first = objective(OlsrConfig().as_vector())
    assert first.config == OlsrConfig()
    assert first.cost == comm_cost(first.metrics)
    objective(OlsrConfig(hello_interval=30.0, tc_interval=30.0,
                         neighb_hold_time=90.0).as_vector())
    again = objective(OlsrConfig().as_vector())  # deterministic, whatever came before
    assert (again.config, again.metrics, again.cost) == (first.config, first.metrics, first.cost)
    assert vars(objective) == state


def test_objective_requires_seeds():
    with pytest.raises(ValueError, match="seed"):
        OlsrObjective(catalog()["static-mesh-smoke"], seeds=())
