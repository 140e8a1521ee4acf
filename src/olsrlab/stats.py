"""Nonparametric comparison of optimizer result samples.

Costs from stochastic runs are compared without distributional
assumptions: Friedman mean ranks across blocks (runs) and the
Kruskal-Wallis H test across independent samples, both with mid-rank
tie handling, tie-corrected statistics, and chi-square p-values.

Both tests have k - 1 degrees of freedom for k samples, always a
positive integer, so the p-value comes from the closed-form chi-square
upper tail for integer degrees of freedom (Abramowitz & Stegun 26.4.4
and 26.4.5) in ``_chi2_sf``, with the standard library alone.  It agrees
with ``scipy.stats.chi2.sf`` to about 1e-14 relative, not bit for bit.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


def _chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square distributed with integer ``df`` >= 1.

    With h = x/2, even df: exp(-h) * sum_{i < df/2} h^i / i!  (A&S 26.4.4);
    odd df: erfc(sqrt(h)) + exp(-h) * sum_{j < (df-1)/2} h^(j+1/2) / Gamma(j+3/2)
    (A&S 26.4.5).  Every term is positive, so nothing cancels.
    """
    if x <= 0.0:
        return 1.0
    h = x / 2.0
    if df % 2 == 0:
        tail, term, step = 0.0, 1.0, 1.0  # term = h^i / i!
    else:
        tail, term, step = math.erfc(math.sqrt(h)), 2.0 * math.sqrt(h / math.pi), 1.5
    series = 0.0
    for i in range(df // 2):
        series += term
        term *= h / (step + i)
    return tail + math.exp(-h) * series


def _midranks(values) -> list[float]:
    """Ranks 1..n, ties sharing the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


@dataclass(frozen=True)
class FriedmanResult:
    mean_ranks: tuple[float, ...]
    statistic: float
    p_value: float


def friedman_mean_ranks(matrix) -> FriedmanResult:
    """Friedman test over a runs-by-algorithms cost matrix.

    Each row is ranked ascending (rank 1 = lowest cost = best).  Returns
    the per-column mean rank, the tie-corrected chi-square statistic, and
    its p-value with k-1 degrees of freedom.  A matrix in which every row
    is fully tied carries no ranking information: statistic 0, p 1.
    """
    rows = [list(r) for r in matrix]
    if len(rows) < 2:
        raise ValueError("need at least two rows (runs)")
    k = len(rows[0])
    if k < 2:
        raise ValueError("need at least two columns (algorithms)")
    if any(len(r) != k for r in rows):
        raise ValueError("matrix rows have unequal lengths")
    n = len(rows)
    rank_rows = [_midranks(r) for r in rows]
    rank_sums = [sum(rr[j] for rr in rank_rows) for j in range(k)]
    mean_ranks = tuple(rs / n for rs in rank_sums)

    ssbn = sum(rs * rs for rs in rank_sums)
    statistic = 12.0 / (n * k * (k + 1)) * ssbn - 3.0 * n * (k + 1)
    ties = 0
    for row in rows:
        for value in set(row):
            t = row.count(value)
            ties += t ** 3 - t
    correction = 1.0 - ties / (k * (k * k - 1) * n)
    if correction <= 0.0 or statistic <= 0.0:
        return FriedmanResult(mean_ranks, 0.0, 1.0)
    statistic /= correction
    return FriedmanResult(mean_ranks, statistic, _chi2_sf(statistic, k - 1))


@dataclass(frozen=True)
class KruskalResult:
    statistic: float
    p_value: float


def kruskal_wallis(samples) -> KruskalResult:
    """Kruskal-Wallis H over two or more independent samples.

    Tie-corrected; p-value from the chi-square approximation with k-1
    degrees of freedom.  Identical samples yield H 0, p 1.

    This deliberately differs from ``scipy.stats.kruskal``, which gives no
    usable value on all-tied input: it raises ``ValueError`` or returns NaN,
    depending on the version.  The guard keeps NaN out of ``summary.json``,
    where ``json.dumps`` would write it as the non-JSON token ``NaN``.
    """
    groups = [list(g) for g in samples]
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    if any(not g for g in groups):
        raise ValueError("groups must be nonempty")
    pooled = [v for g in groups for v in g]
    n = len(pooled)
    ranks = _midranks(pooled)
    h = 0.0
    offset = 0
    for g in groups:
        r = sum(ranks[offset:offset + len(g)])
        h += r * r / len(g)
        offset += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    ties = 0
    for value in set(pooled):
        t = pooled.count(value)
        ties += t ** 3 - t
    correction = 1.0 - ties / (n ** 3 - n)
    if correction <= 0.0 or h <= 0.0:
        return KruskalResult(0.0, 1.0)
    h /= correction
    return KruskalResult(h, _chi2_sf(h, len(groups) - 1))


def kruskal_wallis_vs_rest(samples_by_label: dict) -> dict:
    """Per-label two-group test: that label's sample against all others pooled."""
    labels = list(samples_by_label)
    results = {}
    for label in labels:
        rest = [v for other in labels if other != label
                for v in samples_by_label[other]]
        results[label] = kruskal_wallis([list(samples_by_label[label]), rest])
    return results


@dataclass(frozen=True)
class AlgorithmSummary:
    algorithm: str
    runs: int
    mean: float
    std: float
    best: float
    median: float
    worst: float
    time_to_best: float
    total_time: float


def summary_table(records_by_algorithm: dict) -> list[AlgorithmSummary]:
    """Descriptive statistics of final costs per algorithm.

    ``std`` is the sample standard deviation, defined as 0 for a single
    run.  ``time_to_best`` and ``total_time`` are means over runs.
    """
    rows = []
    for algorithm in sorted(records_by_algorithm):
        records = list(records_by_algorithm[algorithm])
        if not records:
            raise ValueError(f"no records for {algorithm}")
        costs = [r.best_cost for r in records]
        rows.append(AlgorithmSummary(
            algorithm=algorithm,
            runs=len(costs),
            mean=statistics.fmean(costs),
            std=statistics.stdev(costs) if len(costs) > 1 else 0.0,
            best=min(costs),
            median=statistics.median(costs),
            worst=max(costs),
            time_to_best=statistics.fmean(r.time_to_best for r in records),
            total_time=statistics.fmean(r.total_time for r in records),
        ))
    return rows
