"""Metaheuristic search over the protocol parameter box.

Five strategies share one budget-exact driver: particle swarm (PSO),
differential evolution (DE, rand/1/bin), a real-coded genetic algorithm
(GA), simulated annealing (SA), and uniform random search (RAND) as the
baseline.  A run performs exactly ``budget`` objective evaluations, no
matter how the algorithm's generation structure divides it: a final
partial generation is evaluated then truncated mid-stream.

Each run is reproducible from its seed and yields a :class:`RunRecord`
holding the full evaluation trajectory, the best candidate, and wall
clock timings.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .fitness import DEFAULT_WEIGHTS, Evaluation, FitnessWeights, OlsrObjective
from .netsim import QosMetrics
from .olsr import OlsrConfig
from .params import ParamSpace, decode_params, default_param_space

ALGORITHMS = ("PSO", "DE", "GA", "SA", "RAND")
POPULATION_BASED = ("PSO", "DE", "GA")

RUN_FORMAT = "olsrlab-run v1"


# -- benchmark objectives used for sanity campaigns -----------------------

def sphere(x) -> float:
    v = np.asarray(x, dtype=float)
    return float(np.sum(v * v))


def rastrigin(x) -> float:
    v = np.asarray(x, dtype=float)
    return float(10.0 * v.size + np.sum(v * v - 10.0 * np.cos(2.0 * math.pi * v)))


BENCHMARKS = {"sphere": sphere, "rastrigin": rastrigin}


# Each algorithm runs at fixed hyperparameters; the step functions take them
# as keyword defaults so tests can zero a coefficient.
# PSO
INERTIA = 0.50
COGNITIVE_COEF = 2.0
SOCIAL_COEF = 2.0
# DE; the scale factor is the classic recommended 0.5: small enough to
# refine, large enough that the population cannot collapse prematurely
CROSSOVER_RATE = 0.90
DIFF_WEIGHT = 0.50
# GA
CROSSOVER_PROB = 0.80
MUTATION_PROB = 0.01
# SA
TEMP_DECAY = 0.80
EPOCH_LENGTH = 20
NEIGHBORHOOD_SIGMA = 0.10
CALIBRATION_PROBES = 50


@dataclass(frozen=True)
class OptimizerConfig:
    algorithm: str
    budget: int = 1000
    population: int = 10
    seed: int = 0

    def validate(self) -> "OptimizerConfig":
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; pick from {ALGORITHMS}")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.algorithm in POPULATION_BASED:
            minimum = 4 if self.algorithm == "DE" else 2
            if self.population < minimum:
                raise ValueError(f"{self.algorithm} needs a population of at least {minimum}")
            if self.budget < self.population:
                raise ValueError("budget must cover at least one full generation")
        return self


@dataclass
class RunRecord:
    """Everything one optimization run produced."""

    algorithm: str
    seed: int
    trajectory: list[tuple[int, float, tuple[float, ...]]]
    best: Evaluation
    best_index: int  # first trajectory entry that reached the best cost
    time_to_best: float
    total_time: float

    @property
    def best_cost(self) -> float:
        return self.best.cost

    def best_so_far(self) -> list[float]:
        """Monotone best-cost series aligned with the trajectory."""
        series = []
        best = math.inf
        for _, cost, _ in self.trajectory:
            best = min(best, cost)
            series.append(best)
        return series

    def to_text(self, include_timing: bool = True) -> str:
        header = {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "budget": len(self.trajectory),
        }
        summary = {
            "best_index": self.best_index,
            "best_cost": self.best.cost,
            "best_config": asdict(self.best.config),
            "best_metrics": asdict(self.best.metrics) if self.best.metrics is not None else None,
            "best_seed": self.best.seed,
        }
        if include_timing:
            summary["time_to_best"] = self.time_to_best
            summary["total_time"] = self.total_time
            summary["best_wall_time"] = self.best.wall_time
        lines = [RUN_FORMAT, json.dumps(header, sort_keys=True)]
        for index, cost, candidate in self.trajectory:
            lines.append(f"{index} {cost!r} " + " ".join(repr(v) for v in candidate))
        lines.append(json.dumps(summary, sort_keys=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunRecord":
        lines = text.strip().splitlines()
        if not lines or lines[0] != RUN_FORMAT:
            raise ValueError(f"unsupported run record format: {lines[:1]!r}")
        header = json.loads(lines[1])
        summary = json.loads(lines[-1])
        trajectory = []
        for line in lines[2:-1]:
            parts = line.split()
            trajectory.append(
                (int(parts[0]), float(parts[1]), tuple(float(p) for p in parts[2:]))
            )
        metrics = summary.get("best_metrics")
        best = Evaluation(
            config=OlsrConfig(**summary["best_config"]),
            metrics=QosMetrics(**metrics) if metrics is not None else None,
            cost=summary["best_cost"],
            seed=summary.get("best_seed", header["seed"]),
            wall_time=summary.get("best_wall_time", 0.0),
        )
        return cls(
            algorithm=header["algorithm"],
            seed=header["seed"],
            trajectory=trajectory,
            best=best,
            best_index=summary["best_index"],
            time_to_best=summary.get("time_to_best", 0.0),
            total_time=summary.get("total_time", 0.0),
        )


# -- budget bookkeeping ----------------------------------------------------

class _BudgetExhausted(Exception):
    pass


class _Recorder:
    """Wraps the objective, enforces the budget, logs the trajectory, and
    keeps what the objective returned for the first strict minimum: an
    :class:`Evaluation`, or a bare cost for a benchmark function."""

    def __init__(self, objective, budget: int):
        self.objective = objective
        self.budget = budget
        self.trajectory: list[tuple[int, float, tuple[float, ...]]] = []
        self.best: Evaluation | float | None = None
        self.best_cost = math.inf
        self.best_index: int | None = None
        self.started = time.perf_counter()
        self.time_to_best = 0.0

    def __call__(self, x) -> float:
        if len(self.trajectory) >= self.budget:
            raise _BudgetExhausted
        candidate = tuple(float(v) for v in x)
        result = self.objective(candidate)
        cost = result.cost if isinstance(result, Evaluation) else float(result)
        self.trajectory.append((len(self.trajectory), cost, candidate))
        if cost < self.best_cost:
            self.best = result
            self.best_cost = cost
            self.best_index = len(self.trajectory) - 1
            self.time_to_best = time.perf_counter() - self.started
        return cost


# -- step functions ---------------------------------------------------------

def pso_step(positions, velocities, personal_best, global_best, space: ParamSpace,
             rng, inertia: float = INERTIA, cognitive_coef: float = COGNITIVE_COEF,
             social_coef: float = SOCIAL_COEF):
    """One velocity/position update of the whole swarm (no evaluation).

    Velocities are clamped to +-(upper-lower) per dimension; positions are
    clamped into the box and the velocity of a clamped component is zeroed.
    """
    lo = np.asarray(space.lower)
    hi = np.asarray(space.upper)
    span = hi - lo
    shape = positions.shape
    r1 = rng.random(shape)
    r2 = rng.random(shape)
    vel = (inertia * velocities
           + cognitive_coef * r1 * (personal_best - positions)
           + social_coef * r2 * (global_best - positions))
    vel = np.clip(vel, -span, span)
    pos = positions + vel
    out = (pos < lo) | (pos > hi)
    pos = np.clip(pos, lo, hi)
    vel = np.where(out, 0.0, vel)
    return pos, vel


def de_step(population, costs, evaluate, space: ParamSpace, rng,
            crossover_rate: float = CROSSOVER_RATE, diff_weight: float = DIFF_WEIGHT):
    """One rand/1/bin generation with greedy (<=) selection, in place."""
    lo = np.asarray(space.lower)
    hi = np.asarray(space.upper)
    size, dims = population.shape
    for i in range(size):
        others = [j for j in range(size) if j != i]
        r1, r2, r3 = rng.choice(others, size=3, replace=False)
        mutant = population[r1] + diff_weight * (population[r2] - population[r3])
        cross = rng.random(dims) < crossover_rate
        cross[rng.integers(dims)] = True
        trial = np.clip(np.where(cross, mutant, population[i]), lo, hi)
        cost = evaluate(trial)
        if cost <= costs[i]:
            population[i] = trial
            costs[i] = cost
    return population, costs


def ga_step(population, costs, evaluate, space: ParamSpace, rng,
            crossover_prob: float = CROSSOVER_PROB, mutation_prob: float = MUTATION_PROB):
    """One generational replacement: tournaments, blend crossover, reset
    mutation, elitism of one.  The elite is re-evaluated with the rest so
    every generation costs exactly ``population`` evaluations."""
    lo = np.asarray(space.lower)
    hi = np.asarray(space.upper)
    size, dims = population.shape

    def tournament():
        i, j = rng.integers(0, size, size=2)
        return population[i] if costs[i] <= costs[j] else population[j]

    children = [population[int(np.argmin(costs))].copy()]
    while len(children) < size:
        p1, p2 = tournament(), tournament()
        if rng.random() < crossover_prob:
            alpha = rng.random()
            c1 = alpha * p1 + (1.0 - alpha) * p2
            c2 = (1.0 - alpha) * p1 + alpha * p2
        else:
            c1, c2 = p1.copy(), p2.copy()
        for child in (c1, c2):
            if len(children) >= size:
                break
            mask = rng.random(dims) < mutation_prob
            for d in np.nonzero(mask)[0]:
                child[d] = rng.uniform(lo[d], hi[d])
            children.append(np.clip(child, lo, hi))
    new_pop = np.stack(children)
    new_costs = np.array([evaluate(c) for c in new_pop])
    return new_pop, new_costs


def sa_step(current, current_cost, temperature, step_index, evaluate,
            space: ParamSpace, rng, neighborhood_sigma: float = NEIGHBORHOOD_SIGMA,
            temp_decay: float = TEMP_DECAY, epoch_length: int = EPOCH_LENGTH):
    """One annealing move: Gaussian neighbor, Metropolis acceptance, and
    geometric cooling every ``epoch_length`` steps."""
    lo = np.asarray(space.lower)
    hi = np.asarray(space.upper)
    neighbor = np.clip(current + rng.normal(0.0, neighborhood_sigma * (hi - lo)), lo, hi)
    cost = evaluate(neighbor)
    delta = cost - current_cost
    if delta <= 0 or rng.random() < math.exp(-delta / temperature):
        current, current_cost = neighbor, cost
    if (step_index + 1) % epoch_length == 0:
        temperature *= temp_decay
    return current, current_cost, temperature


# -- drivers ----------------------------------------------------------------

def _init_population(space: ParamSpace, rng, size: int):
    lo = np.asarray(space.lower)
    hi = np.asarray(space.upper)
    return rng.uniform(lo, hi, size=(size, len(space)))


def _drive_rand(rec, space, cfg, rng):
    for _ in range(cfg.budget):
        rec(space.sample(rng))


def _drive_pso(rec, space, cfg, rng):
    pop = cfg.population
    positions = _init_population(space, rng, pop)
    velocities = np.zeros_like(positions)
    costs = np.array([rec(x) for x in positions])
    pbest = positions.copy()
    pbest_costs = costs.copy()
    g = int(np.argmin(pbest_costs))
    while True:
        positions, velocities = pso_step(positions, velocities, pbest, pbest[g], space, rng)
        for i in range(pop):
            cost = rec(positions[i])
            if cost <= pbest_costs[i]:
                pbest_costs[i] = cost
                pbest[i] = positions[i]
            if cost < pbest_costs[g]:
                g = i


def _drive_de(rec, space, cfg, rng):
    population = _init_population(space, rng, cfg.population)
    costs = np.array([rec(x) for x in population])
    while True:
        population, costs = de_step(population, costs, rec, space, rng)


def _drive_ga(rec, space, cfg, rng):
    population = _init_population(space, rng, cfg.population)
    costs = np.array([rec(x) for x in population])
    while True:
        population, costs = ga_step(population, costs, rec, space, rng)


def _drive_sa(rec, space, cfg, rng):
    lo = np.asarray(space.lower)
    hi = np.asarray(space.upper)
    current = np.asarray(space.sample(rng))
    current_cost = rec(current)
    # temperature calibration: probe the neighborhood of the start point and
    # pick T0 so a typical uphill move is accepted with probability ~0.8
    uphill = []
    best = (current_cost, current)
    for _ in range(CALIBRATION_PROBES):
        probe = np.clip(current + rng.normal(0.0, NEIGHBORHOOD_SIGMA * (hi - lo)), lo, hi)
        cost = rec(probe)
        if cost > current_cost:
            uphill.append(cost - current_cost)
        elif cost < best[0]:
            best = (cost, probe)
    if best[0] < current_cost:
        current_cost, current = best
    temperature = (sum(uphill) / len(uphill)) / -math.log(0.8) if uphill else 1.0
    step = 0
    while True:
        current, current_cost, temperature = sa_step(
            current, current_cost, temperature, step, rec, space, rng)
        step += 1


_DRIVERS = {
    "RAND": _drive_rand,
    "PSO": _drive_pso,
    "DE": _drive_de,
    "GA": _drive_ga,
    "SA": _drive_sa,
}


def search(opt_config: OptimizerConfig, objective) -> RunRecord:
    """Run one algorithm against an objective callable over the default box.

    The objective is called exactly ``budget`` times and returns either an
    :class:`Evaluation` (as :class:`OlsrObjective` does), which becomes the
    record's best, or a bare cost, whose best candidate is decoded into a
    config with no metrics attached.
    """
    opt_config.validate()
    space = default_param_space()
    rng = np.random.default_rng(opt_config.seed)
    rec = _Recorder(objective, opt_config.budget)
    try:
        _DRIVERS[opt_config.algorithm](rec, space, opt_config, rng)
    except _BudgetExhausted:
        pass
    total = time.perf_counter() - rec.started
    best = rec.best
    if not isinstance(best, Evaluation):
        best = Evaluation(
            config=decode_params(rec.trajectory[rec.best_index][2], space),
            metrics=None,
            cost=rec.best_cost,
            seed=opt_config.seed,
            wall_time=0.0,
        )
    return RunRecord(
        algorithm=opt_config.algorithm,
        seed=opt_config.seed,
        trajectory=rec.trajectory,
        best=best,
        best_index=rec.best_index,
        time_to_best=rec.time_to_best,
        total_time=total,
    )


def optimize(opt_config: OptimizerConfig, scenario, weights: FitnessWeights = DEFAULT_WEIGHTS,
             *, eval_seeds=(0,)) -> RunRecord:
    """Tune the protocol for a scenario; exactly ``budget`` evaluations."""
    return search(opt_config, OlsrObjective(scenario, weights, eval_seeds))
