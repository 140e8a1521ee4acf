"""Rank tests cross-checked against scipy and a direct reference formula."""

import math
import random
import warnings

import pytest
import scipy.stats

from olsrlab.optimizers import OptimizerConfig, search
from olsrlab.stats import (
    AlgorithmSummary,
    _chi2_sf,
    _midranks,
    friedman_mean_ranks,
    kruskal_wallis,
    kruskal_wallis_vs_rest,
    summary_table,
)

from oracles import reference_friedman, reference_kruskal, sphere


def random_matrix(rng):
    n = rng.randint(2, 12)
    k = rng.randint(2, 6)
    # one decimal place forces plenty of ties
    return [[round(rng.uniform(0, 3), 1) for _ in range(k)] for _ in range(n)]


# ---------------------------------------------------------------------------
# ranking primitive
# ---------------------------------------------------------------------------

def test_midranks_average_tied_positions():
    assert _midranks([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]
    assert _midranks([5, 5, 5]) == [2.0, 2.0, 2.0]
    assert _midranks([3, 1, 2]) == [3.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# chi-square upper tail
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("df", range(1, 31))
def test_chi2_tail_matches_scipy(df):
    rng = random.Random(df)
    xs = [-3.0, 0.0, 1e-12, 0.5, 1.0, df - 1e-9, float(df), df + 1e-9, 2.0 * df, 1500.0]
    xs += [rng.uniform(0.0, 3.0 * df) for _ in range(200)]
    xs += [rng.uniform(0.0, 1500.0) for _ in range(200)]
    xs += [10.0 ** rng.uniform(-12.0, 3.0) for _ in range(100)]
    for x in xs:
        mine = _chi2_sf(x, df)
        want = float(scipy.stats.chi2.sf(x, df))
        if want > 1e-250:
            assert abs(mine - want) <= 1e-12 * want, (df, x, mine, want)
        else:
            assert abs(mine - want) <= 1e-250, (df, x, mine, want)


# ---------------------------------------------------------------------------
# Friedman
# ---------------------------------------------------------------------------

def test_friedman_matches_the_reference_on_random_matrices():
    rng = random.Random(5)
    for _ in range(20):
        matrix = random_matrix(rng)
        mine = friedman_mean_ranks(matrix)
        want_stat, want_p = reference_friedman(matrix)
        assert abs(mine.statistic - want_stat) < 1e-9
        assert abs(mine.p_value - want_p) < 1e-9


def test_friedman_matches_scipy_where_scipy_is_defined():
    # scipy's friedmanchisquare needs at least three columns
    rng = random.Random(6)
    checked = 0
    while checked < 20:
        matrix = random_matrix(rng)
        if len(matrix[0]) < 3:
            continue
        mine = friedman_mean_ranks(matrix)
        if mine.statistic == 0.0:
            continue  # scipy has no guard for fully tied input
        columns = list(zip(*matrix))
        want = scipy.stats.friedmanchisquare(*columns)
        assert abs(mine.statistic - want.statistic) < 1e-9
        assert abs(mine.p_value - want.pvalue) < 1e-9
        checked += 1


def test_friedman_mean_ranks_are_per_column_averages():
    matrix = [[1.0, 2.0, 3.0], [1.0, 3.0, 2.0], [1.0, 2.0, 3.0]]
    result = friedman_mean_ranks(matrix)
    assert result.mean_ranks == (1.0, (2 + 3 + 2) / 3, (3 + 2 + 3) / 3)


def test_friedman_fully_tied_matrix_is_informationless():
    result = friedman_mean_ranks([[2.0, 2.0, 2.0]] * 5)
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert result.mean_ranks == (2.0, 2.0, 2.0)


def test_friedman_is_invariant_under_monotone_transforms():
    rng = random.Random(7)
    matrix = random_matrix(rng)
    base = friedman_mean_ranks(matrix)
    warped = friedman_mean_ranks([[math.exp(v) for v in row] for row in matrix])
    assert warped.mean_ranks == base.mean_ranks
    assert warped.statistic == pytest.approx(base.statistic, abs=1e-12)


@pytest.mark.parametrize("matrix", [
    [[1.0, 2.0]],                      # one row
    [[1.0], [2.0]],                    # one column
    [[1.0, 2.0], [1.0, 2.0, 3.0]],     # ragged
])
def test_friedman_rejects_degenerate_matrices(matrix):
    with pytest.raises(ValueError):
        friedman_mean_ranks(matrix)


# ---------------------------------------------------------------------------
# Kruskal-Wallis
# ---------------------------------------------------------------------------

def test_kruskal_matches_scipy_and_the_reference_on_random_samples():
    rng = random.Random(8)
    for _ in range(20):
        groups = [[round(rng.uniform(0, 3), 1) for _ in range(rng.randint(2, 10))]
                  for _ in range(rng.randint(2, 5))]
        mine = kruskal_wallis(groups)
        want_stat, want_p = reference_kruskal(groups)
        assert abs(mine.statistic - want_stat) < 1e-9
        assert abs(mine.p_value - want_p) < 1e-9
        # On all-tied input scipy raises or returns NaN, depending on the version.
        if len({v for g in groups for v in g}) > 1:
            want = scipy.stats.kruskal(*groups)
            assert abs(mine.statistic - want.statistic) < 1e-9
            assert abs(mine.p_value - want.pvalue) < 1e-9


def test_kruskal_identical_samples_yield_no_evidence():
    result = kruskal_wallis([[1.5, 1.5], [1.5, 1.5, 1.5]])
    assert (result.statistic, result.p_value) == (0.0, 1.0)
    # scipy has no usable value here, so olsrlab cannot hand this case to
    # it: depending on the version it raises ValueError or returns NaN with
    # a RuntimeWarning.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = scipy.stats.kruskal([1.5, 1.5], [1.5, 1.5, 1.5])
    except ValueError:
        return
    assert math.isnan(want.statistic) and math.isnan(want.pvalue)


def test_kruskal_separated_samples_reject_strongly():
    result = kruskal_wallis([[1, 2, 3, 4, 5], [101, 102, 103, 104, 105]])
    assert result.p_value < 0.01


@pytest.mark.parametrize("groups", [
    [[1.0, 2.0]],          # a single group
    [[1.0], []],           # an empty group
])
def test_kruskal_rejects_degenerate_input(groups):
    with pytest.raises(ValueError):
        kruskal_wallis(groups)


def test_one_vs_rest_matches_the_pairwise_construction():
    samples = {"A": [1.0, 2.0, 3.0], "B": [4.0, 5.0], "C": [6.0, 7.0, 8.0]}
    results = kruskal_wallis_vs_rest(samples)
    assert set(results) == {"A", "B", "C"}
    direct = kruskal_wallis([samples["A"], samples["B"] + samples["C"]])
    assert results["A"] == direct


# ---------------------------------------------------------------------------
# summary table
# ---------------------------------------------------------------------------

def test_summary_table_descriptives():
    records = {
        "RAND": [search(OptimizerConfig("RAND", budget=6, seed=s), sphere)
                 for s in (1, 2, 3)],
        "SA": [search(OptimizerConfig("SA", budget=6, seed=1), sphere)],
    }
    rows = summary_table(records)
    assert [r.algorithm for r in rows] == ["RAND", "SA"]

    rand_costs = [r.best_cost for r in records["RAND"]]
    rand_row = rows[0]
    assert isinstance(rand_row, AlgorithmSummary)
    assert rand_row.runs == 3
    assert rand_row.mean == pytest.approx(sum(rand_costs) / 3)
    assert rand_row.best == min(rand_costs)
    assert rand_row.median == sorted(rand_costs)[1]
    assert rand_row.worst == max(rand_costs)
    assert rand_row.std > 0.0

    sa_row = rows[1]
    assert sa_row.runs == 1
    assert sa_row.std == 0.0  # defined as zero for a single run
    assert sa_row.mean == sa_row.best == sa_row.median == sa_row.worst


def test_summary_table_rejects_empty_algorithm_bins():
    with pytest.raises(ValueError, match="no records"):
        summary_table({"PSO": []})
