"""Metaheuristics: budget accounting, step mechanics, run records."""

import math

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
    optimize,
    pso_step,
    rastrigin,
    sa_step,
    search,
    sphere,
)
from olsrlab.params import Dimension, ParamSpace, decode_params, default_param_space
from olsrlab.scenario import catalog


class CountingSphere:
    def __init__(self):
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return sphere(x)


def symmetric_space(dims=4, half_width=5.0):
    return ParamSpace(tuple(
        Dimension(f"d{i}", -half_width, half_width) for i in range(dims)
    ))


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


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_candidate_stays_inside_the_box(algorithm):
    space = default_param_space()
    record = search(OptimizerConfig(algorithm, budget=60, population=10, seed=2),
                    sphere)
    for _, _, candidate in record.trajectory:
        for v, lo, hi in zip(candidate, space.lower, space.upper):
            assert lo <= v <= hi


# ---------------------------------------------------------------------------
# step mechanics
# ---------------------------------------------------------------------------

def test_pso_step_with_zero_coefficients_is_a_fixed_point():
    space = symmetric_space()
    rng = np.random.default_rng(0)
    pos = np.array([[1.0, -2.0, 3.0, 0.5], [0.0, 0.0, 4.0, -4.0]])
    vel = np.zeros_like(pos)
    new_pos, new_vel = pso_step(pos, vel, pos.copy(), pos[0], space, rng,
                                inertia=0.5, cognitive_coef=0.0, social_coef=0.0)
    assert np.array_equal(new_pos, pos)
    assert np.array_equal(new_vel, vel)


def test_pso_step_zeroes_velocity_on_the_wall():
    space = symmetric_space()
    rng = np.random.default_rng(0)
    pos = np.array([[5.0, 0.0, 0.0, 0.0]])
    vel = np.array([[3.0, 0.0, 0.0, 0.0]])  # would overshoot the upper bound
    new_pos, new_vel = pso_step(pos, vel, pos.copy(), pos[0], space, rng,
                                inertia=1.0, cognitive_coef=0.0, social_coef=0.0)
    assert new_pos[0, 0] == 5.0
    assert new_vel[0, 0] == 0.0


def test_de_step_selection_is_greedy_per_slot():
    space = symmetric_space(dims=6)
    rng = np.random.default_rng(4)
    population = rng.uniform(-5, 5, size=(8, 6))
    costs = np.array([sphere(x) for x in population])
    before = costs.copy()
    population, costs = de_step(population, costs, sphere, space, rng)
    assert np.all(costs <= before)
    assert np.array_equal(costs, np.array([sphere(x) for x in population]))


def test_ga_step_carries_the_elite_unchanged():
    space = symmetric_space(dims=5)
    rng = np.random.default_rng(9)
    population = rng.uniform(-5, 5, size=(6, 5))
    costs = np.array([sphere(x) for x in population])
    elite = population[int(np.argmin(costs))].copy()
    new_pop, new_costs = ga_step(population, costs, sphere, space, rng)
    assert np.array_equal(new_pop[0], elite)
    assert new_costs[0] == min(costs)
    assert new_pop.shape == population.shape


def test_ga_generation_minima_never_regress_on_a_deterministic_objective():
    record = search(OptimizerConfig("GA", budget=50, population=10, seed=6), sphere)
    costs = [c for _, c, _ in record.trajectory]
    per_gen = [min(costs[g:g + 10]) for g in range(0, 50, 10)]
    assert per_gen == sorted(per_gen, reverse=True)


def test_sa_step_frozen_cold_rejects_every_uphill_move():
    space = symmetric_space()
    rng = np.random.default_rng(12)
    current = np.zeros(4)
    for step in range(25):
        current, cost, temp = sa_step(current, 0.0, 1e-12, step, sphere, space, rng)
        assert np.array_equal(current, np.zeros(4))  # origin is the optimum
        assert cost == 0.0
        # geometric cooling fires exactly at epoch boundaries
        assert temp == (1e-12 * 0.8 if (step + 1) % 20 == 0 else 1e-12)


def test_sa_step_hot_accepts_uphill_moves():
    space = symmetric_space()
    rng = np.random.default_rng(12)
    current, cost, _ = sa_step(np.zeros(4), 0.0, 1e12, 0, sphere, space, rng)
    assert cost > 0.0
    assert not np.array_equal(current, np.zeros(4))


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
    assert (clone.time_to_best, clone.total_time, clone.best.wall_time) == (0.0, 0.0, 0.0)


def test_from_text_rejects_other_formats():
    with pytest.raises(ValueError, match="format"):
        RunRecord.from_text("something-else v9\n{}\n{}\n")


def test_optimize_attaches_simulation_metrics_and_round_trips():
    record = optimize(OptimizerConfig("RAND", budget=4, seed=2),
                      catalog()["static-mesh-smoke"], eval_seeds=(1,))
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
        seed=draw(st.integers(0, 2**31)),
        wall_time=draw(nonnegative),
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
        record.best = Evaluation(record.best.config, record.best.metrics, record.best.cost,
                                 record.best.seed, 0.0)
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
