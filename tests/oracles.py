"""Reference implementations the test suite checks the package against.

Everything here is written from first principles (exhaustive enumeration,
breadth-first search, textbook rank statistics) and deliberately shares no
code with the package under test.
"""

import bisect
import itertools
import math
import random
from collections import Counter

import numpy as np
import scipy.stats

from olsrlab.olsr import (
    WILL_ALWAYS,
    WILL_DEFAULT,
    WILL_NEVER,
    NodeState,
    OlsrConfig,
)

INF = math.inf


def bits(mask):
    """The node ids set in a bit mask (bit n for node n), ascending."""
    ids = []
    n = 0
    while mask >> n:
        if mask >> n & 1:
            ids.append(n)
        n += 1
    return ids


# ---------------------------------------------------------------------------
# relay selection: exhaustive minimum cover
# ---------------------------------------------------------------------------

def coverage_sets(will, two_hop):
    """target -> set of willing neighbors that reach it."""
    cover = {}
    for via, target in two_hop:
        if target in will:
            continue
        cover.setdefault(target, set())
        if will[via] > WILL_NEVER:
            cover[target].add(via)
    return cover


def brute_minimum_cover(will, two_hop):
    """Size of the smallest valid relay set, by exhaustive enumeration."""
    cover = coverage_sets(will, two_hop)
    forced = {n for n, w in will.items() if w == WILL_ALWAYS}
    need = [t for t, vias in cover.items() if vias and not (vias & forced)]
    optional = [n for n, w in will.items() if WILL_NEVER < w < WILL_ALWAYS]
    for k in range(len(optional) + 1):
        for combo in itertools.combinations(optional, k):
            chosen = set(combo)
            if all(cover[t] & chosen for t in need):
                return len(forced) + k
    return len(forced)


def cover_map(two_hop):
    """(via, target) pairs -> target -> bit mask of its vias (bit n for node n)."""
    cover = {}
    for via, target in two_hop:
        cover[target] = cover.get(target, 0) | 1 << via
    return cover


# The greedy relay heuristic as the package ran it on (via, target) pairs
# before selection moved to cover maps (target -> mask of its vias); kept
# unchanged as the reference the new selection must equal.
def reference_select_mprs(symmetric_neighbors, two_hop) -> set:
    """Pick a relay set covering every strict two-hop neighbor; return its ids.

    symmetric_neighbors: iterable of (node id, willingness) pairs.
    two_hop: iterable of (via neighbor, target) pairs; every via must be a
    symmetric neighbor.

    Neighbors with willingness 7 are always relays; willingness 0 is never
    selected, so targets that only willingness-0 neighbors reach stay
    uncovered.  The heuristic first takes sole covers, then repeatedly the
    neighbor covering the most still uncovered targets, ties broken by
    higher willingness then lower id.
    """
    will = dict(symmetric_neighbors)
    pairs = set(two_hop)
    for via, _ in pairs:
        if via not in will:
            raise ValueError(f"two-hop via {via!r} is not a symmetric neighbor")

    # strict targets: not ourselves (callers never insert self) and not
    # already reachable in one symmetric hop
    cover: dict = {}
    for via, target in pairs:
        if target in will:
            continue
        cover.setdefault(target, set())
        if will[via] > WILL_NEVER:
            cover[target].add(via)

    mprs = {n for n, w in will.items() if w == WILL_ALWAYS}

    uncovered = {t for t, vias in cover.items() if vias and not (vias & mprs)}
    # sole covers are forced picks
    for target in sorted(uncovered):
        vias = cover[target]
        if len(vias) == 1:
            mprs |= vias
    uncovered = {t for t in uncovered if not (cover[t] & mprs)}
    while uncovered:
        best = min(
            (n for n in will if will[n] > WILL_NEVER),
            key=lambda n: (-len({t for t in uncovered if n in cover[t]}), -will[n], n),
        )
        gained = {t for t in uncovered if best in cover[t]}
        if not gained:  # defensive; cannot happen while uncovered is coverable
            break
        mprs.add(best)
        uncovered -= gained
    return mprs


def random_neighborhood(rng: random.Random):
    """Willingness map plus two-hop edge set over at most 8 nodes."""
    n = rng.randint(3, 8)
    others = list(range(1, n))
    neighbors = [v for v in others if rng.random() < 0.6] or [rng.choice(others)]
    will = {v: rng.randint(0, 7) for v in neighbors}
    two_hop = set()
    for target in (v for v in others if v not in will):
        for via in neighbors:
            if rng.random() < 0.5:
                two_hop.add((via, target))
    return will, two_hop


# ---------------------------------------------------------------------------
# mobility: interpolation along one node's waypoints
# ---------------------------------------------------------------------------

def position_at(points, time: float) -> tuple[float, float]:
    """Linear interpolation along a waypoint list, clamped at both ends."""
    if time <= points[0][0]:
        return points[0][1], points[0][2]
    if time >= points[-1][0]:
        return points[-1][1], points[-1][2]
    i = bisect.bisect_right(points, time, key=lambda point: point[0])
    t0, x0, y0 = points[i - 1]
    t1, x1, y1 = points[i]
    frac = (time - t0) / (t1 - t0)
    return x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)


# ---------------------------------------------------------------------------
# routing: breadth-first search over the link state graph
# ---------------------------------------------------------------------------

def topology_edges(state):
    """Advertised edges as last hop -> set of destinations."""
    return {last: set(bits(dests)) for last, (dests, _) in state.topology.items()}


def _bfs(adj, dist, frontier):
    """Extend ``dist`` (node -> hops) along ``adj`` edges from ``frontier``."""
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(adj.get(u, ())):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def bfs_hops(state):
    """Reference distances over symmetric links plus advertised edges."""
    sym = bits(state.symmetric)
    dist = _bfs(topology_edges(state), {state.self_id: 0, **dict.fromkeys(sym, 1)}, sym)
    return {d: h for d, h in dist.items() if d != state.self_id}, set(sym)


def reference_next_hops(state):
    """Destination at two or more hops -> the next hop a router must pick.

    Among all shortest paths, the lowest next hop: the lowest symmetric
    neighbor whose distance to the destination over advertised edges alone
    is one less than the destination's.
    """
    hops, sym = bfs_hops(state)
    adj = topology_edges(state)
    # no advertised edge enters the node itself, so no path returns there
    from_neighbor = {n: _bfs(adj, {n: 0}, [n]) for n in sym}
    return {dest: min(n for n in sym if from_neighbor[n].get(dest) == d - 1)
            for dest, d in hops.items() if d >= 2}


def random_snapshot(rng: random.Random):
    """A 20-node protocol state with random links and advertised edges."""
    state = NodeState(0, OlsrConfig())
    others = list(range(1, 20))
    for n in rng.sample(others, rng.randint(1, 6)):
        state.links[n] = INF
        state.neighbor_willingness[n] = WILL_DEFAULT
        state.symmetric |= 1 << n
    spare = [v for v in others if v not in state.links]
    for n in rng.sample(spare, rng.randint(0, 3)):
        state.links[n] = INF  # one-way: not in symmetric
        state.neighbor_willingness[n] = WILL_DEFAULT
    edges = {}
    for _ in range(rng.randint(5, 60)):
        dest, last = rng.randint(1, 19), rng.randint(0, 19)
        if dest != last:
            edges.setdefault(last, set()).add(dest)
    for last, dests in edges.items():
        state.topology[last] = (sum(1 << d for d in dests), INF)
    return state


# ---------------------------------------------------------------------------
# rank statistics from their definitions
# ---------------------------------------------------------------------------

def reference_friedman(matrix):
    """Friedman chi-square with tie correction, straight from the formula."""
    n, k = len(matrix), len(matrix[0])
    ranks = [scipy.stats.rankdata(row) for row in matrix]
    rank_sums = [sum(r[j] for r in ranks) for j in range(k)]
    stat = 12.0 / (n * k * (k + 1)) * sum(s * s for s in rank_sums) - 3.0 * n * (k + 1)
    ties = sum(t ** 3 - t for row in matrix for t in Counter(row).values())
    correction = 1.0 - ties / (k * (k * k - 1) * n)
    if correction <= 0.0 or stat <= 0.0:
        return 0.0, 1.0
    stat /= correction
    return stat, float(scipy.stats.chi2.sf(stat, k - 1))


def reference_kruskal(groups):
    """Kruskal-Wallis H with tie correction, straight from the formula."""
    pooled = [v for g in groups for v in g]
    n = len(pooled)
    ranks = scipy.stats.rankdata(pooled)
    h = 0.0
    offset = 0
    for g in groups:
        r = float(sum(ranks[offset:offset + len(g)]))
        h += r * r / len(g)
        offset += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    ties = sum(t ** 3 - t for t in Counter(pooled).values())
    correction = 1.0 - ties / (n ** 3 - n)
    if correction <= 0.0 or h <= 0.0:
        return 0.0, 1.0
    h /= correction
    return h, float(scipy.stats.chi2.sf(h, len(groups) - 1))


# ---------------------------------------------------------------------------
# tuning box: the clamp-and-round decode as numpy computed it
# ---------------------------------------------------------------------------

BOX_LOWER = np.array([1.0, 1.0, 1.0, 0.0, 3.0, 3.0, 3.0, 3.0])
BOX_UPPER = np.array([30.0, 30.0, 30.0, 7.0, 100.0, 100.0, 100.0, 100.0])


# The package's decode before it dropped numpy for plain floats; kept
# unchanged as the reference the plain clamp must equal on finite input.
def reference_decode_params(raw) -> OlsrConfig:
    values = list(raw)
    names = list(OlsrConfig.__dataclass_fields__)
    clamped = dict(zip(names, np.clip(np.array(values, dtype=float), BOX_LOWER,
                                      BOX_UPPER).tolist()))
    clamped["willingness"] = math.floor(clamped["willingness"] + 0.5)
    return OlsrConfig(**clamped).validate()


# ---------------------------------------------------------------------------
# benchmark functions the optimizer tests search on
# ---------------------------------------------------------------------------

def sphere(x) -> float:
    v = np.asarray(x, dtype=float)
    return float(np.sum(v * v))


def rastrigin(x) -> float:
    v = np.asarray(x, dtype=float)
    return float(10.0 * v.size + np.sum(v * v - 10.0 * np.cos(2.0 * math.pi * v)))


BENCHMARKS = {"sphere": sphere, "rastrigin": rastrigin}
