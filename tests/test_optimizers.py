"""Metaheuristics: budget accounting, step mechanics, run records."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olsrlab import optimizers
from olsrlab.fitness import Evaluation, OlsrObjective
from olsrlab.netsim import QosMetrics
from olsrlab.optimizers import (
    ALGORITHMS,
    OptimizerConfig,
    RunRecord,
    de_step,
    ga_step,
    pso_step,
    sa_step,
    search,
)
from olsrlab.params import LOWER, UPPER, decode_params
from olsrlab.scenario import catalog

from oracles import BENCHMARKS, rastrigin, sphere


class CountingSphere:
    def __init__(self):
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return sphere(x)


def symmetric_space(dims=4, half_width=5.0):
    """The box [-half_width, half_width]^dims as a (lo, hi) pair."""
    return np.full(dims, -half_width), np.full(dims, half_width)


# ---------------------------------------------------------------------------
# benchmark functions
# ---------------------------------------------------------------------------

def test_benchmarks_are_zero_at_the_origin():
    assert sphere([0.0] * 8) == 0.0
    assert rastrigin([0.0] * 8) == 0.0
    assert sphere([3.0, 4.0]) == 25.0
    assert rastrigin([0.5] * 4) > 0.0


# ---------------------------------------------------------------------------
# budget accounting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_algorithm_spends_the_budget_exactly(algorithm):
    objective = CountingSphere()
    record = search(OptimizerConfig(algorithm, budget=37, population=10, seed=3),
                    objective)
    assert objective.calls == 37
    assert len(record.trajectory) == 37
    assert [i for i, _, _ in record.trajectory] == list(range(37))


def test_sa_budget_can_be_smaller_than_its_calibration_phase():
    objective = CountingSphere()
    record = search(OptimizerConfig("SA", budget=10, seed=1), objective)
    assert objective.calls == 10
    assert len(record.trajectory) == 10


@pytest.mark.parametrize("algorithm", ["PSO", "DE", "GA"])
def test_budget_equal_to_population_stops_after_initialization(algorithm):
    objective = CountingSphere()
    search(OptimizerConfig(algorithm, budget=10, population=10, seed=5), objective)
    assert objective.calls == 10


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_cost_fails_the_run_at_the_evaluation_that_returned_it(bad):
    with pytest.raises(ValueError, match="evaluation 0 returned a non-finite cost"):
        search(OptimizerConfig("RAND", budget=3, seed=1), lambda x: bad)
    costs = iter([1.0, bad, 2.0])
    with pytest.raises(ValueError, match="evaluation 1 returned a non-finite cost"):
        search(OptimizerConfig("RAND", budget=3, seed=1), lambda x: next(costs))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_candidate_stays_inside_the_box(algorithm):
    record = search(OptimizerConfig(algorithm, budget=60, population=10, seed=2),
                    sphere)
    for _, _, candidate in record.trajectory:
        for v, lo, hi in zip(candidate, LOWER, UPPER, strict=True):
            assert lo <= v <= hi


# ---------------------------------------------------------------------------
# step mechanics
# ---------------------------------------------------------------------------

def test_pso_step_with_zero_coefficients_is_a_fixed_point(monkeypatch):
    monkeypatch.setattr(optimizers, "INERTIA", 0.5)
    monkeypatch.setattr(optimizers, "COGNITIVE_COEF", 0.0)
    monkeypatch.setattr(optimizers, "SOCIAL_COEF", 0.0)
    lo, hi = symmetric_space()
    rng = np.random.default_rng(0)
    pos = np.array([[1.0, -2.0, 3.0, 0.5], [0.0, 0.0, 4.0, -4.0]])
    vel = np.zeros_like(pos)
    new_pos, new_vel = pso_step(pos, vel, pos.copy(), pos[0], lo, hi, rng)
    assert np.array_equal(new_pos, pos)
    assert np.array_equal(new_vel, vel)


def test_pso_step_zeroes_velocity_on_the_wall(monkeypatch):
    monkeypatch.setattr(optimizers, "INERTIA", 1.0)
    monkeypatch.setattr(optimizers, "COGNITIVE_COEF", 0.0)
    monkeypatch.setattr(optimizers, "SOCIAL_COEF", 0.0)
    lo, hi = symmetric_space()
    rng = np.random.default_rng(0)
    pos = np.array([[5.0, 0.0, 0.0, 0.0]])
    vel = np.array([[3.0, 0.0, 0.0, 0.0]])  # would overshoot the upper bound
    new_pos, new_vel = pso_step(pos, vel, pos.copy(), pos[0], lo, hi, rng)
    assert new_pos[0, 0] == 5.0
    assert new_vel[0, 0] == 0.0


def test_de_step_selection_is_greedy_per_slot():
    lo, hi = symmetric_space(dims=6)
    rng = np.random.default_rng(4)
    population = rng.uniform(-5, 5, size=(8, 6))
    costs = np.array([sphere(x) for x in population])
    before = costs.copy()
    population, costs = de_step(population, costs, sphere, lo, hi, rng)
    assert np.all(costs <= before)
    assert np.array_equal(costs, np.array([sphere(x) for x in population]))


def test_ga_step_carries_the_elite_unchanged():
    lo, hi = symmetric_space(dims=5)
    rng = np.random.default_rng(9)
    population = rng.uniform(-5, 5, size=(6, 5))
    costs = np.array([sphere(x) for x in population])
    elite = population[int(np.argmin(costs))].copy()
    new_pop, new_costs = ga_step(population, costs, sphere, lo, hi, rng)
    assert np.array_equal(new_pop[0], elite)
    assert new_costs[0] == min(costs)
    assert new_pop.shape == population.shape


def test_ga_generation_minima_never_regress_on_a_deterministic_objective():
    record = search(OptimizerConfig("GA", budget=50, population=10, seed=6), sphere)
    costs = [c for _, c, _ in record.trajectory]
    per_gen = [min(costs[g:g + 10]) for g in range(0, 50, 10)]
    assert per_gen == sorted(per_gen, reverse=True)


def test_sa_step_frozen_cold_rejects_every_uphill_move():
    lo, hi = symmetric_space()
    rng = np.random.default_rng(12)
    current = np.zeros(4)
    for step in range(25):
        current, cost, temp = sa_step(current, 0.0, 1e-12, step, sphere, lo, hi, rng)
        assert np.array_equal(current, np.zeros(4))  # origin is the optimum
        assert cost == 0.0
        # geometric cooling fires exactly at epoch boundaries
        assert temp == (1e-12 * 0.8 if (step + 1) % 20 == 0 else 1e-12)


def test_sa_step_hot_accepts_uphill_moves():
    lo, hi = symmetric_space()
    rng = np.random.default_rng(12)
    current, cost, _ = sa_step(np.zeros(4), 0.0, 1e12, 0, sphere, lo, hi, rng)
    assert cost > 0.0
    assert not np.array_equal(current, np.zeros(4))


def _pso_stays_put(velocity=0.0, personal=0.0, social=0.0):
    """Whether one PSO step leaves a particle where it is and at rest, given
    its velocity and the offsets of its personal and the global best."""
    lo, hi = symmetric_space()
    pos = np.array([[1.0, -2.0, 3.0, 0.5]])
    new_pos, new_vel = pso_step(pos, np.full_like(pos, velocity), pos + personal,
                                pos[0] + social, lo, hi, np.random.default_rng(0))
    return np.array_equal(new_pos, pos) and not new_vel.any()


def _de_trials():
    """A population and the trials one DE generation evaluated on it; every
    trial costs more than its target, so none replaces it."""
    lo, hi = symmetric_space(dims=6)
    rng = np.random.default_rng(4)
    population = rng.uniform(-4, 4, size=(8, 6))
    trials = []
    de_step(population.copy(), np.zeros(8), lambda t: trials.append(t) or 1.0, lo, hi, rng)
    return population, np.array(trials)


def _ga_children(population):
    lo, hi = symmetric_space()
    children, _ = ga_step(population, np.arange(len(population), dtype=float),
                          lambda c: 0.0, lo, hi, np.random.default_rng(5))
    return children


def _ga_children_copy_members():
    """Whether every child of one GA generation equals a member in all but at
    most one coordinate, as when no child is a blend."""
    population = np.random.default_rng(3).uniform(-4, 4, size=(10, 4))
    return all(max((child == member).sum() for member in population) >= 3
               for child in _ga_children(population))


def _ga_children_all_mutated():
    """Whether every gene of every child but the elite is redrawn, from a
    population of one repeated point that blending cannot leave."""
    point = np.array([1.0, -2.0, 3.0, 0.5])
    children = _ga_children(np.tile(point, (10, 1)))
    return not np.isclose(children[1:], point).any()


def _sa_move(step_index=0):
    """The point one SA step proposed from the origin, and the temperature it
    left of a start at 1."""
    lo, hi = symmetric_space()
    proposals = []
    _, _, temperature = sa_step(np.zeros(4), 0.0, 1.0, step_index,
                                lambda x: proposals.append(x) or 0.0, lo, hi,
                                np.random.default_rng(6))
    return proposals[0], temperature


# each hyperparameter: a value, and a behaviour of the step that reads it that
# shows at that value and not at the shipped one
HYPERPARAMETERS = {
    "INERTIA": (0.0, lambda: _pso_stays_put(velocity=1.0)),
    "COGNITIVE_COEF": (0.0, lambda: _pso_stays_put(personal=1.0)),
    "SOCIAL_COEF": (0.0, lambda: _pso_stays_put(social=1.0)),
    # a trial takes only its forced coordinate from the mutant
    "CROSSOVER_RATE": (0.0, lambda: all((t != p).sum() <= 1 for p, t in zip(*_de_trials()))),
    # the mutant is a member, so every trial coordinate is a member's
    "DIFF_WEIGHT": (0.0, lambda: all(np.isin(t, p).all()
                                     for p, t in zip(*(a.T for a in _de_trials())))),
    "CROSSOVER_PROB": (0.0, _ga_children_copy_members),
    "MUTATION_PROB": (1.0, _ga_children_all_mutated),
    "NEIGHBORHOOD_SIGMA": (0.0, lambda: not _sa_move()[0].any()),
    "EPOCH_LENGTH": (1, lambda: _sa_move()[1] < 1.0),
    "TEMP_DECAY": (0.5, lambda: _sa_move(optimizers.EPOCH_LENGTH - 1)[1] == 0.5),
}


@pytest.mark.parametrize("name", HYPERPARAMETERS)
def test_each_step_reads_its_hyperparameters_at_call_time(name, monkeypatch):
    value, shows = HYPERPARAMETERS[name]
    assert not shows()
    monkeypatch.setattr(optimizers, name, value)
    assert shows()


# ---------------------------------------------------------------------------
# records, determinism, serialization
# ---------------------------------------------------------------------------

def test_best_so_far_is_the_running_minimum():
    record = search(OptimizerConfig("PSO", budget=40, population=10, seed=7), sphere)
    series = record.best_so_far()
    assert len(series) == 40
    assert all(b <= a for a, b in zip(series, series[1:]))
    assert series[-1] == record.best_cost == min(c for _, c, _ in record.trajectory)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_same_seed_reproduces_the_whole_run(algorithm):
    cfg = OptimizerConfig(algorithm, budget=30, population=10, seed=11)
    a = search(cfg, sphere).to_text(include_timing=False)
    b = search(cfg, sphere).to_text(include_timing=False)
    c = search(OptimizerConfig(algorithm, budget=30, population=10, seed=12),
               sphere).to_text(include_timing=False)
    assert a == b
    assert a != c


@pytest.mark.parametrize("seed", [1, 2])
def test_runs_with_one_seed_share_their_starting_points(seed):
    # common random numbers: RAND's first population points are the first
    # generation of PSO, DE and GA, and SA starts from the first of them
    population = 6
    starts = {}
    for algorithm in ALGORITHMS:
        record = search(OptimizerConfig(algorithm, budget=12, population=population,
                                        seed=seed), sphere)
        starts[algorithm] = [candidate for _, _, candidate in record.trajectory]
    first = starts["RAND"][:population]
    assert len(set(first)) == population
    for algorithm in ("PSO", "DE", "GA"):
        assert starts[algorithm][:population] == first, algorithm
    assert starts["SA"][0] == first[0]
    assert starts["SA"][1] not in first
    other = search(OptimizerConfig("RAND", budget=population, population=population,
                                   seed=seed + 10), sphere)
    assert [candidate for _, _, candidate in other.trajectory] != first


# sha256 of to_text(include_timing=False) at budget 60, population 10, seed 1;
# any change to how a search draws or steps moves these
PINNED_RECORDS = {
    ("sphere", "PSO"): "5752295caea88e109d9a20f90c0110c0a02cbdc73911380016d573fa045132d4",
    ("sphere", "DE"): "6e05576b718a48adc5261f565c0c948018ee39b1b0519f48eb9346ded183115e",
    ("sphere", "GA"): "76ae6a4f6f927769f41b5ed5072842e5712b60d8401bfe3e6ab7ff7a60651612",
    ("sphere", "SA"): "4f1391bad159d94b80689b10705c8f822fe934db7cc0b998079b61c14dfeea13",
    ("sphere", "RAND"): "039dd4d1d9680c0201f6210916cccafe183aac7f1545f80d1684fc7f834ba5ad",
    ("rastrigin", "PSO"): "950bd6c2abbc3881cd7c0c5cf3519dfd02ac84b8e16877d7ff49e5cb22b7e3ee",
    ("rastrigin", "DE"): "fd459a92d98b55ee5987eb6f5b529ec2965d6925c54654174c922b7eb75ef248",
    ("rastrigin", "GA"): "d01a487e01e5b68403093cd674161b76f2830c4b549d83df797dcd04fa4eeb3b",
    ("rastrigin", "SA"): "23c4c351a8ef5f01c3f9fe28ff5cea8978ff12c2925c7bc3f6dc4045032fb026",
    ("rastrigin", "RAND"): "afc9f98c3805608acba4e7727664cd703f35521dbc8168aa4994b132d7e7bffe",
}


@pytest.mark.parametrize("objective,algorithm", sorted(PINNED_RECORDS))
def test_search_records_match_their_pinned_digests(objective, algorithm):
    record = search(OptimizerConfig(algorithm, budget=60, population=10, seed=1),
                    BENCHMARKS[objective])
    digest = hashlib.sha256(record.to_text(include_timing=False).encode()).hexdigest()
    assert digest == PINNED_RECORDS[objective, algorithm]


def test_benchmark_record_decodes_the_best_candidate():
    record = search(OptimizerConfig("RAND", budget=8, seed=1), sphere)
    assert record.best.metrics is None
    best_x = min(record.trajectory, key=lambda t: t[1])[2]
    assert record.best.config == decode_params(best_x)


def test_record_text_round_trip_is_lossless():
    record = search(OptimizerConfig("DE", budget=25, population=5, seed=8), rastrigin)
    clone = RunRecord.from_text(record.to_text())
    assert clone.algorithm == record.algorithm
    assert clone.seed == record.seed
    assert clone.trajectory == record.trajectory
    assert clone.best == record.best
    assert clone.best_index == record.best_index
    assert record.trajectory[record.best_index][1] == record.best_cost
    assert clone.total_time == record.total_time


def test_record_without_timing_round_trips_with_zeroed_clocks():
    record = search(OptimizerConfig("SA", budget=12, seed=3), sphere)
    clone = RunRecord.from_text(record.to_text(include_timing=False))
    assert clone.trajectory == record.trajectory
    assert clone.best.cost == record.best.cost
    assert (clone.time_to_best, clone.total_time) == (0.0, 0.0)


@pytest.mark.parametrize("key", ["best_seed", "best_wall_time"])
def test_record_with_a_best_seed_loads_and_is_rewritten_without_it(key):
    # older records carry these keys; nothing reads them
    record = search(OptimizerConfig("RAND", budget=3, seed=4), sphere)
    lines = record.to_text().splitlines()
    summary = json.loads(lines[-1])
    summary[key] = 4
    older = "\n".join(lines[:-1] + [json.dumps(summary, sort_keys=True)]) + "\n"
    clone = RunRecord.from_text(older)
    assert clone == record
    assert key not in clone.to_text()


@pytest.mark.parametrize("field,value,message", [
    ("seed", "2", "seed '2'"),
    ("seed", 1.0, "seed 1.0"),
    ("seed", True, "seed True"),
    ("seed", -1, "seed -1"),
    ("algorithm", "FOO", "unknown algorithm 'FOO'"),
    ("algorithm", "rand", "unknown algorithm 'rand'"),
])
def test_from_text_rejects_a_header_no_search_writes(field, value, message):
    record = search(OptimizerConfig("RAND", budget=3, seed=4), sphere)
    lines = record.to_text().splitlines()
    header = {**json.loads(lines[1]), field: value}
    with pytest.raises(ValueError, match=re.escape(message)):
        RunRecord.from_text("\n".join([lines[0], json.dumps(header)] + lines[2:]) + "\n")


def test_from_text_rejects_other_formats():
    with pytest.raises(ValueError, match="format"):
        RunRecord.from_text("something-else v9\n{}\n{}\n")


@pytest.mark.parametrize("where", ["trajectory", "best"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_from_text_rejects_a_non_finite_cost(where, value):
    record = search(OptimizerConfig("RAND", budget=3, seed=4), sphere)
    if where == "trajectory":
        index, _, candidate = record.trajectory[1]
        record.trajectory[1] = (index, value, candidate)
    else:
        record.best = Evaluation(record.best.config, None, value)
    with pytest.raises(ValueError, match="non-finite cost"):
        RunRecord.from_text(record.to_text())


def test_optimize_attaches_simulation_metrics_and_round_trips():
    record = search(OptimizerConfig("RAND", budget=4, seed=2),
                    OlsrObjective(catalog()["static-mesh-smoke"], seeds=(1,)))
    assert len(record.trajectory) == 4
    assert record.best.metrics is not None
    assert 0.0 <= record.best.metrics.pdr <= 1.0
    clone = RunRecord.from_text(record.to_text())
    assert clone.best.metrics == record.best.metrics
    assert clone.best.config == record.best.config


def test_one_objective_serves_many_searches():
    """The recorder alone keeps the best, so a shared objective loses nothing."""
    objective = OlsrObjective(catalog()["static-mesh-smoke"], seeds=(1,))
    for seed in (1, 2, 3, 4):
        record = search(OptimizerConfig("RAND", budget=2, seed=seed), objective)
        assert record.best.metrics is not None, seed
        assert record.best.cost == record.best_cost == min(c for _, c, _ in record.trajectory)
        assert record.best.config == decode_params(record.trajectory[record.best_index][2])


finite = st.floats(allow_nan=False, allow_infinity=False)
vectors = st.lists(finite, min_size=8, max_size=8)
metrics = st.builds(
    QosMetrics,
    pdr=finite, nrl=finite, e2ed=finite, rpl=finite,
    data_sent=st.integers(0, 10**6), data_delivered=st.integers(0, 10**6),
    data_dropped=st.integers(0, 10**6), data_in_flight=st.integers(-10, 10**6),
    routing_tx=st.integers(0, 10**7),
)
nonnegative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def records(draw):
    trajectory = [(i, cost, tuple(x)) for i, (cost, x) in enumerate(
        draw(st.lists(st.tuples(finite, vectors), max_size=6)))]
    best = Evaluation(
        config=decode_params(draw(vectors)),
        metrics=draw(st.none() | metrics),
        cost=draw(finite),
    )
    return RunRecord(
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        seed=draw(st.integers(0, 2**31)),
        trajectory=trajectory,
        best=best,
        best_index=draw(st.integers(0, max(len(trajectory) - 1, 0))),
        time_to_best=draw(nonnegative),
        total_time=draw(nonnegative),
    )


@settings(max_examples=200, deadline=None)
@given(records(), st.booleans())
def test_record_text_round_trips_any_finite_record(record, include_timing):
    clone = RunRecord.from_text(record.to_text(include_timing))
    if not include_timing:
        record.time_to_best = record.total_time = 0.0
    assert clone == record


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs,message", [
    (dict(algorithm="CMAES"), "unknown algorithm"),
    (dict(algorithm="PSO", budget=0), "budget"),
    (dict(algorithm="DE", population=3), "at least 4"),
    (dict(algorithm="GA", budget=5, population=10), "full generation"),
])
def test_optimizer_config_rejects_bad_settings(kwargs, message):
    with pytest.raises(ValueError, match=message):
        OptimizerConfig(**kwargs).validate()


def test_default_hyperparameters():
    o = optimizers
    assert (o.INERTIA, o.COGNITIVE_COEF, o.SOCIAL_COEF) == (0.5, 2.0, 2.0)
    assert (o.CROSSOVER_RATE, o.DIFF_WEIGHT) == (0.90, 0.50)
    assert (o.CROSSOVER_PROB, o.MUTATION_PROB) == (0.80, 0.01)
    assert (o.TEMP_DECAY, o.EPOCH_LENGTH, o.CALIBRATION_PROBES) == (0.80, 20, 50)
    assert math.isclose(o.NEIGHBORHOOD_SIGMA, 0.10)
