"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; the whole gate finishes in a few minutes on a laptop.
"""

import random
import statistics

from olsrlab.fitness import OlsrObjective, comm_cost
from olsrlab.netsim import QosMetrics, run_simulation
from olsrlab.olsr import NodeState, OlsrConfig, compute_routing_table, select_mprs
from olsrlab.optimizers import OptimizerConfig, search
from olsrlab.scenario import catalog
from olsrlab.stats import friedman_mean_ranks, kruskal_wallis

from oracles import (
    bfs_hops,
    bits,
    brute_minimum_cover,
    cover_map,
    coverage_sets,
    random_neighborhood,
    random_snapshot,
    rastrigin,
    reference_friedman,
    reference_kruskal,
    sphere,
)


def verdict(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_1_fitness_arithmetic():
    m = QosMetrics(pdr=1.0, nrl=0.0271, e2ed=0.0156, rpl=1.0, data_sent=100,
                   data_delivered=100, data_dropped=0, data_in_flight=0,
                   routing_tx=3)
    value = comm_cost(m)
    # by hand: 0.2*0.0271 + 0.3*0.0156 - 0.5*1.0 = -0.4899
    expected = 0.2 * 0.0271 + 0.3 * 0.0156 - 0.5 * 1.0
    ok = abs(value - expected) < 1e-9 and abs(value - (-0.480)) < 0.01
    verdict(1, "fitness arithmetic", ok,
            f"cost={value!r}, hand arithmetic={expected!r}, |diff to -0.480|="
            f"{abs(value + 0.480):.4f}")


def test_criterion_2_mpr_greedy_vs_exhaustive_cover():
    rng = random.Random(20260814)
    graphs = 500
    covered = 0
    near_minimal = 0
    for _ in range(graphs):
        will, two_hop = random_neighborhood(rng)
        relays = set(bits(select_mprs(will, cover_map(two_hop))))
        cover = coverage_sets(will, two_hop)
        if all(vias & relays for vias in cover.values() if vias):
            covered += 1
        if len(relays) <= brute_minimum_cover(will, two_hop) + 2:
            near_minimal += 1
    ok = covered == graphs and near_minimal >= 0.95 * graphs
    verdict(2, "relay cover vs brute force", ok,
            f"coverage {covered}/{graphs}, within minimum+2 {near_minimal}/{graphs}")


def test_criterion_3_routing_matches_bfs():
    rng = random.Random(31337)
    snapshots = 200
    exact = 0
    for _ in range(snapshots):
        state = random_snapshot(rng)
        table = compute_routing_table(state)
        expected, _ = bfs_hops(state)
        if {d: h for d, (_, h) in table.items()} == expected:
            exact += 1
    ok = exact == snapshots
    verdict(3, "routing hop counts vs BFS", ok, f"exact {exact}/{snapshots}")


def test_criterion_4_bitwise_determinism():
    base = catalog()["base-malaga-like"]
    metrics = [run_simulation(base, OlsrConfig(), 42) for _ in range(10)]
    metrics_ok = len({repr(m) for m in metrics}) == 1

    texts = {
        search(OptimizerConfig("RAND", budget=2, seed=5),
               OlsrObjective(base, seeds=(42,))).to_text(include_timing=False)
        for _ in range(10)
    }
    records_ok = len(texts) == 1
    ok = metrics_ok and records_ok
    verdict(4, "determinism", ok,
            f"10x metrics identical={metrics_ok}, 10x run records identical="
            f"{records_ok}, pdr={metrics[0].pdr:.4f}")


def test_criterion_5_metaheuristics_beat_random_on_benchmarks():
    runs, budget = 30, 1000
    lines = []
    ok = True
    for label, objective in (("sphere", sphere), ("rastrigin", rastrigin)):
        finals = {
            algorithm: [
                search(OptimizerConfig(algorithm, budget=budget, population=10,
                                       seed=s), objective).best_cost
                for s in range(1, runs + 1)
            ]
            for algorithm in ("PSO", "DE", "GA", "SA", "RAND")
        }
        rand_median = statistics.median(finals["RAND"])
        for algorithm in ("PSO", "DE", "GA", "SA"):
            med = statistics.median(finals[algorithm])
            p = kruskal_wallis([finals[algorithm], finals["RAND"]]).p_value
            good = med < rand_median and p < 0.05
            ok &= good
            lines.append(f"{label}/{algorithm} median {med:.1f} vs RAND "
                         f"{rand_median:.1f} p={p:.2e}")
    verdict(5, "benchmark separation", ok, "; ".join(lines))


def test_criterion_6_tuning_beats_the_standard_config():
    spec = catalog()["congested-small"]
    record = search(OptimizerConfig("PSO", budget=200, population=10, seed=1),
                    OlsrObjective(spec, seeds=(0,)))
    tuned = record.best.config
    seeds = range(101, 106)  # held out from the tuning seed
    tuned_runs = [run_simulation(spec, tuned, s) for s in seeds]
    rfc_runs = [run_simulation(spec, OlsrConfig(), s) for s in seeds]

    tuned_cost = statistics.median(comm_cost(m) for m in tuned_runs)
    rfc_cost = statistics.median(comm_cost(m) for m in rfc_runs)
    tuned_nrl = statistics.median(m.nrl for m in tuned_runs)
    rfc_nrl = statistics.median(m.nrl for m in rfc_runs)
    ok = tuned_cost < rfc_cost and tuned_nrl < rfc_nrl
    verdict(6, "end-to-end tuning", ok,
            f"median cost {tuned_cost:.5f} vs rfc3626 {rfc_cost:.5f}, "
            f"median nrl {tuned_nrl:.4f} vs {rfc_nrl:.4f}")


def test_criterion_7_shorter_intervals_cost_more_overhead():
    spec = catalog()["congested-small"]
    seeds = range(1, 6)
    standard = statistics.median(
        run_simulation(spec, OlsrConfig(), s).routing_tx for s in seeds)
    halved = statistics.median(
        run_simulation(spec, OlsrConfig(hello_interval=1.0, tc_interval=2.5),
                       s).routing_tx for s in seeds)
    ok = halved >= standard
    verdict(7, "interval sensitivity", ok,
            f"median routing_tx standard={standard}, halved intervals={halved}")


def test_criterion_8_rank_tests_match_brute_force():
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(20):
        n, k = rng.randint(2, 10), rng.randint(2, 5)
        matrix = [[round(rng.uniform(0, 3), 1) for _ in range(k)]
                  for _ in range(n)]
        fr = friedman_mean_ranks(matrix)
        want_stat, want_p = reference_friedman(matrix)
        worst = max(worst, abs(fr.statistic - want_stat), abs(fr.p_value - want_p))
        columns = [list(c) for c in zip(*matrix)]
        kw = kruskal_wallis(columns)
        want_stat, want_p = reference_kruskal(columns)
        worst = max(worst, abs(kw.statistic - want_stat), abs(kw.p_value - want_p))

    flat_f = friedman_mean_ranks([[1.0, 1.0, 1.0]] * 4)
    flat_k = kruskal_wallis([[2.0, 2.0], [2.0, 2.0]])
    degenerate_ok = (flat_f.statistic, flat_f.p_value) == (0.0, 1.0) \
        and (flat_k.statistic, flat_k.p_value) == (0.0, 1.0)
    ok = worst < 1e-9 and degenerate_ok
    verdict(8, "rank statistics vs brute force", ok,
            f"max |diff| {worst:.2e} over 20 matrices, all-equal gives H=0 p=1: "
            f"{degenerate_ok}")


def test_criterion_9_silenced_node_expires_everywhere():
    def run(rng):
        cfg = OlsrConfig()
        nodes = {i: NodeState(i, cfg) for i in range(3)}
        silence_at = 20.0
        deadline = silence_at + cfg.neighb_hold_time + cfg.hello_interval / 4.0
        while True:
            t = min(s.next_emission() for s in nodes.values())
            if t > deadline:
                break
            for node in nodes.values():
                if node.next_emission() > t:
                    continue
                msgs = node.emit_periodic(t, rng)
                if node.self_id == 1 and t > silence_at:
                    continue  # radio off: schedule advances, nothing is heard
                for msg in msgs:
                    for other in nodes.values():
                        if other.self_id != node.self_id:
                            other.process_message(msg, node.self_id, t)
        probe = deadline + 0.01
        clean = True
        for nid in (0, 2):
            state = nodes[nid]
            state.purge_expired(probe)
            clean &= 1 not in state.links
            clean &= not state.mprs >> 1 & 1
            clean &= 1 not in state.mpr_selectors
            clean &= not state.two_hop.get(1)
        return clean, deadline

    plain, deadline = run(None)
    jittered, _ = run(random.Random(99))
    ok = plain and jittered
    verdict(9, "link expiry after silence", ok,
            f"no trace of the silenced node by t={deadline}s "
            f"(unjittered={plain}, jittered={jittered})")
