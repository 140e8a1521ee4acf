"""Vehicular scenarios: mobility traces, radio/MAC parameters, CBR traffic.

A scenario bundles a rectangular area, a waypoint mobility trace, the
radio model constants, and the constant-bit-rate sessions that generate
data traffic.  Everything is plain data, serializable, and deterministic
for a given seed, so the same scenario can be replayed across runs and
machines.

Waypoint times are strictly increasing per node; positions are linearly
interpolated between waypoints and clamped outside the covered range.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
import random
from collections.abc import Callable
from dataclasses import dataclass, field, asdict

SCENARIO_FORMAT = "olsrlab-scenario-v1"

# speed envelope used by the bundled urban scenarios, in m/s (10-50 km/h)
URBAN_SPEED_RANGE = (2.78, 13.88)

# width of one time slot of the receiver-candidate table, in seconds
CANDIDATE_SLOT = 1.0
# slack on every candidate radius, in meters: far above the rounding of
# interpolated positions and leg speeds, far below any radio range
CANDIDATE_MARGIN = 1e-3

# a node's receiver candidates in one slot: (ids, near mask, sure mask)
Candidates = tuple[tuple[int, ...], int, int]


@dataclass(frozen=True)
class RadioMacParams:
    """Disk radio plus simplified carrier-sense MAC constants."""

    tx_range: float = 250.0          # meters
    bandwidth: float = 5.5e6         # bits per second
    max_retransmissions: int = 6     # extra unicast attempts before drop
    processing_delay: float = 0.0    # seconds added before a frame is handed up
    slot_time: float = 20e-6         # seconds per contention slot
    backoff_slots: int = 32          # backoff drawn uniformly from [0, slots*slot)

    def validate(self) -> "RadioMacParams":
        for name in ("tx_range", "bandwidth"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0):
                raise ValueError(f"{name}={value!r} must be finite and positive")
        for name in ("processing_delay", "slot_time"):
            value = getattr(self, name)
            if not (_finite(value) and value >= 0):
                raise ValueError(f"{name}={value!r} must be finite and >= 0")
        for name in ("max_retransmissions", "backoff_slots"):
            value = getattr(self, name)
            if not (_integer(value) and value >= 0):
                raise ValueError(f"{name}={value!r} must be an integer >= 0")
        return self


def _finite(value) -> bool:
    """Whether ``value`` is a finite int or float; a bool is neither."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _integer(value) -> bool:
    """Whether ``value`` is an int that is no bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CbrSession:
    """One constant-bit-rate UDP flow between two nodes."""

    source: int
    dest: int
    start: float
    duration: float
    packet_size: int = 512   # bytes
    packet_rate: float = 4.0  # packets per second

    def send_time(self, k: int) -> float | None:
        """Emission time of packet ``k``, or None when it falls outside the
        window, start inclusive, start+duration exclusive.  Times rise with
        ``k``, so every later packet falls outside too."""
        t = self.start + k / self.packet_rate
        return t if t < self.start + self.duration - 1e-9 else None


@dataclass
class MobilityTrace:
    """Waypoints per node: node id -> [(time, x, y), ...] sorted by time.

    The trace must not change once a simulation has run on it, because
    the receiver-candidate tables and each node's last leg are cached on it.
    """

    waypoints: dict[int, list[tuple[float, float, float]]]
    _candidates: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)
    # node -> (t0, t1, t1 - t0, x0, y0, x1 - x0, y1 - y0) of the leg that
    # answered the node's last interpolated position
    _legs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def nodes(self) -> list[int]:
        return sorted(self.waypoints)

    def position(self, node: int, time: float) -> tuple[float, float]:
        """Linear interpolation along the node's waypoints, clamped at both ends.

        A time strictly inside the node's last leg is answered from that leg
        with the same arithmetic; a waypoint time, a time on another leg and
        a time outside the trace go through the bisection.
        """
        leg = self._legs.get(node)
        if leg is not None:
            t0, t1, span, x0, y0, dx, dy = leg
            if t0 < time < t1:
                frac = (time - t0) / span
                return x0 + frac * dx, y0 + frac * dy
        points = self.waypoints[node]
        if time <= points[0][0]:
            return points[0][1], points[0][2]
        if time >= points[-1][0]:
            return points[-1][1], points[-1][2]
        i = bisect.bisect_right(points, time, key=_waypoint_time)
        t0, x0, y0 = points[i - 1]
        t1, x1, y1 = points[i]
        span, dx, dy = t1 - t0, x1 - x0, y1 - y0
        self._legs[node] = (t0, t1, span, x0, y0, dx, dy)
        frac = (time - t0) / span
        return x0 + frac * dx, y0 + frac * dy

    def receiver_candidates(self, tx_range: float) -> Callable[[int, float], Candidates]:
        """Return ``candidates(node, time)``: for ``time >= 0``, the entry
        ``(ids, near, sure)`` of the other nodes that may be within
        ``tx_range`` of ``node`` at ``time``.

        ``ids`` lists those candidates in ascending order and ``near`` is
        the same set as a bit mask (bit n for node n, so node ids are small
        integers >= 0, as a valid scenario's 0..n-1 are); ``sure`` is the
        mask of the candidates that are certainly in range.

        Time is cut into slots of ``CANDIDATE_SLOT`` seconds; the last slot
        also covers every later time, after which nothing moves.  Within a
        slot, node i stays within ``reach_i = v_i * CANDIDATE_SLOT`` of where
        it was at the slot start, v being its top leg speed.  So if d is the
        distance of nodes i and j at the slot start, the distance between i
        at any time t1 in the slot and j at any time t2 in it lies within
        ``d +- (reach_i + reach_j)``, and ``CANDIDATE_MARGIN`` more covers the
        rounding of positions and distances:

        * j is near i when ``d <= tx_range + reach_i + reach_j +
          CANDIDATE_MARGIN``; a pair that is not near is out of range at any
          two times in the slot;
        * j is sure for i when ``d + reach_i + reach_j <= tx_range -
          CANDIDATE_MARGIN``; a sure pair is in range at any two times in
          the slot.

        Only the ring, ``near & ~sure``, needs the exact distance test.

        The table depends only on the trace and ``tx_range``, so it is built
        once, one slot at a time, and cached on the trace.  Consecutive
        slots mostly agree: a node's entry is the previous slot's while both
        masks are unchanged, and keeps its ids while ``near`` is unchanged.
        """
        cached = self._candidates.get(tx_range)
        if cached is not None:
            return cached
        nodes = self.nodes
        count = len(nodes)
        bits = [1 << n for n in nodes]
        reach = [_top_speed(self.waypoints[n]) * CANDIDATE_SLOT for n in nodes]
        near_limits = [[tx_range + CANDIDATE_MARGIN + r + q for q in reach] for r in reach]
        sure_limits = [[tx_range - CANDIDATE_MARGIN - r - q for q in reach] for r in reach]
        end = max(points[-1][0] for points in self.waypoints.values())
        last = max(0, int(end / CANDIDATE_SLOT))
        # this slot's entries, by node id; an id that is no node keeps the empty one
        entries: list[Candidates] = [((), 0, 0)] * (nodes[-1] + 1)
        slots: list[list[Candidates]] = []
        for k in range(last + 1):
            pos = [self.position(n, k * CANDIDATE_SLOT) for n in nodes]
            near, sure = [0] * count, [0] * count
            found: list[list[int]] = [[] for _ in nodes]
            for a, i in enumerate(nodes):
                p, bit, near_limit, sure_limit = pos[a], bits[a], near_limits[a], sure_limits[a]
                near_a, sure_a, found_a = near[a], sure[a], found[a]
                for b in range(a + 1, count):
                    distance = math.dist(p, pos[b])
                    if distance <= near_limit[b]:
                        near_a |= bits[b]
                        near[b] |= bit
                        found_a.append(nodes[b])
                        found[b].append(i)
                        if distance <= sure_limit[b]:
                            sure_a |= bits[b]
                            sure[b] |= bit
                ids, near_mask, sure_mask = entries[i]
                if near_a != near_mask:
                    entries[i] = (tuple(found_a), near_a, sure_a)
                elif sure_a != sure_mask:
                    entries[i] = (ids, near_mask, sure_a)
            slots.append(entries.copy())

        def candidates(node: int, time: float) -> Candidates:
            return slots[min(int(time / CANDIDATE_SLOT), last)][node]

        self._candidates[tx_range] = candidates
        return candidates

    def validate(self, *, bounds: tuple[float, float], nodes: int) -> "MobilityTrace":
        if set(self.waypoints) != set(range(nodes)):
            raise ValueError(
                f"trace covers nodes {sorted(self.waypoints)}, expected 0..{nodes - 1}"
            )
        w, h = bounds
        for node, points in self.waypoints.items():
            if not points:
                raise ValueError(f"node {node} has no waypoints")
            last = None
            for point in points:
                if not (isinstance(point, tuple) and len(point) == 3
                        and all(map(_finite, point))):
                    raise ValueError(f"node {node}: waypoint {point!r} is not three "
                                     "finite numbers (t, x, y)")
                t, x, y = point
                if last is not None and t <= last:
                    raise ValueError(f"node {node}: waypoint times not increasing at t={t}")
                last = t
                if not (-1e-9 <= x <= w + 1e-9 and -1e-9 <= y <= h + 1e-9):
                    raise ValueError(f"node {node}: position ({x}, {y}) outside {w}x{h}")
        return self


_waypoint_time = operator.itemgetter(0)


def _top_speed(points) -> float:
    """Fastest leg speed along a waypoint list; zero for a parked node."""
    return max((math.dist((x0, y0), (x1, y1)) / (t1 - t0)
                for (t0, x0, y0), (t1, x1, y1) in zip(points, points[1:])),
               default=0.0)


def generate_random_waypoint(area: tuple[float, float], nodes: int, duration: float,
                             speed_range: tuple[float, float], seed: int) -> MobilityTrace:
    """Random-waypoint mobility with zero pause in an ``area = (w, h)`` box.

    Each node starts at a uniform position and repeatedly travels to a
    uniform destination at a per-leg speed drawn from ``speed_range``.
    The last leg is cut at ``duration`` (position interpolated), so every
    derived leg speed stays inside the envelope.
    """
    w, h = area
    lo, hi = speed_range
    if w <= 0 or h <= 0:
        raise ValueError("area sides must be positive")
    if not (0 < lo <= hi):
        raise ValueError("speed range must be positive and ordered")
    rng = random.Random(seed)
    waypoints: dict[int, list[tuple[float, float, float]]] = {}
    for node in range(nodes):
        x, y = rng.uniform(0, w), rng.uniform(0, h)
        points = [(0.0, x, y)]
        t = 0.0
        while t < duration:
            dx, dy = rng.uniform(0, w), rng.uniform(0, h)
            dist = math.dist((x, y), (dx, dy))
            if dist < 1e-9:
                continue
            speed = rng.uniform(lo, hi)
            leg = dist / speed
            if t + leg > duration:
                frac = (duration - t) / leg
                x, y = x + frac * (dx - x), y + frac * (dy - y)
                t = duration
            else:
                x, y = dx, dy
                t += leg
            points.append((t, x, y))
        waypoints[node] = points
    return MobilityTrace(waypoints)


@dataclass
class ScenarioSpec:
    """A complete simulation input: geometry, movement, radio, traffic."""

    name: str
    area: tuple[float, float]
    duration: float
    nodes: int
    trace: MobilityTrace
    sessions: list[CbrSession]
    radio_mac: RadioMacParams = field(default_factory=RadioMacParams)

    def validate(self) -> "ScenarioSpec":
        if not (isinstance(self.area, tuple) and len(self.area) == 2
                and all(_finite(side) and side > 0 for side in self.area)):
            raise ValueError(f"area={self.area!r} must be two finite positive numbers")
        if not (_finite(self.duration) and self.duration > 0):
            raise ValueError(f"duration={self.duration!r} must be finite and positive")
        if not (_integer(self.nodes) and self.nodes > 0):
            raise ValueError(f"nodes={self.nodes!r} must be a positive integer")
        self.radio_mac.validate()
        self.trace.validate(bounds=self.area, nodes=self.nodes)
        for i, s in enumerate(self.sessions):
            if s.source == s.dest:
                raise ValueError(f"session {i}: source == dest == {s.source}")
            for endpoint in (s.source, s.dest):
                if endpoint not in self.trace.waypoints:
                    raise ValueError(f"session {i}: unknown node {endpoint}")
            for name in ("start", "duration"):
                if not _finite(getattr(s, name)):
                    raise ValueError(f"session {i}: {name}={getattr(s, name)!r} "
                                     f"must be finite")
            if s.start < 0 or s.start + s.duration > self.duration + 1e-9:
                raise ValueError(f"session {i}: window [{s.start}, {s.start + s.duration}]"
                                 f" outside [0, {self.duration}]")
            for name in ("packet_size", "packet_rate"):
                value = getattr(s, name)
                if not (_finite(value) and value > 0):
                    raise ValueError(f"session {i}: {name}={value!r} must be finite "
                                     f"and positive")
        return self


def save_scenario(spec: ScenarioSpec, path) -> None:
    doc = {
        "format": SCENARIO_FORMAT,
        "name": spec.name,
        "area": list(spec.area),
        "duration": spec.duration,
        "nodes": spec.nodes,
        "radio_mac": asdict(spec.radio_mac),
        "sessions": [asdict(s) for s in spec.sessions],
        "trace": {str(n): spec.trace.waypoints[n] for n in spec.trace.nodes},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_scenario(path) -> ScenarioSpec:
    """Read a :func:`save_scenario` file; any fault in it, a scenario that
    fails :meth:`ScenarioSpec.validate` included, raises ValueError naming
    ``path``."""
    try:
        with open(path) as fh:
            return _scenario_from_doc(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _scenario_from_doc(doc) -> ScenarioSpec:
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    if doc.get("format") != SCENARIO_FORMAT:
        raise ValueError(f"unsupported scenario format {doc.get('format')!r}")
    try:
        trace = MobilityTrace(
            {int(n): [tuple(p) for p in pts] for n, pts in doc["trace"].items()}
        )
        spec = ScenarioSpec(
            name=doc["name"],
            area=tuple(doc["area"]),
            duration=doc["duration"],
            nodes=doc["nodes"],
            trace=trace,
            sessions=[CbrSession(**s) for s in doc["sessions"]],
            radio_mac=RadioMacParams(**doc["radio_mac"]),
        )
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from None
    except (TypeError, AttributeError) as exc:  # an unknown key or a wrong JSON type
        raise ValueError(str(exc)) from None
    return spec.validate()


# session start phases are staggered by an offset incommensurate with the
# 0.25 s packet period so independent sources never emit in lockstep
SESSION_PHASE = 0.137


def _pick_sessions(rng: random.Random, nodes: int, count: int, start: float,
                   duration: float) -> list[CbrSession]:
    """Distinct ordered source/dest pairs, deterministic for a given rng."""
    pairs = [(a, b) for a in range(nodes) for b in range(nodes) if a != b]
    chosen = rng.sample(pairs, count)
    return [CbrSession(source=a, dest=b, start=start + i * SESSION_PHASE,
                       duration=duration)
            for i, (a, b) in enumerate(chosen)]


def _urban_spec(name: str, area: tuple[float, float], nodes: int, session_count: int,
                seed: int, duration: float = 180.0,
                flow_duration: float = 30.0) -> ScenarioSpec:
    """Random-waypoint vehicles from ``seed`` and flows from ``seed + 1``
    that start at 30 s."""
    trace = generate_random_waypoint(area, nodes, duration, URBAN_SPEED_RANGE, seed)
    rng = random.Random(seed + 1)
    sessions = _pick_sessions(rng, nodes, session_count, start=30.0,
                              duration=flow_duration)
    return ScenarioSpec(name, area, duration, nodes, trace, sessions).validate()


def catalog() -> dict[str, ScenarioSpec]:
    """Bundled named scenarios, rebuilt deterministically on every call.

    * ``static-mesh-smoke``: five parked nodes in mutual radio range.
    * ``congested-small``: ten vehicles in a tight block, four flows.
    * ``base-malaga-like``: 30 vehicles on 1200x1200 m for 180 s, ten flows.
    * ``u{1,2,3}-{low,med,high}``: urban grid of 120k/240k/360k m2 with
      10/20/30 vehicles per 120k m2 block and one CBR flow per two vehicles.
    """
    specs: dict[str, ScenarioSpec] = {}

    mesh_positions = [(20.0, 20.0), (130.0, 25.0), (75.0, 75.0), (20.0, 130.0), (130.0, 130.0)]
    mesh_trace = MobilityTrace({i: [(0.0, x, y)] for i, (x, y) in enumerate(mesh_positions)})
    specs["static-mesh-smoke"] = ScenarioSpec(
        name="static-mesh-smoke",
        area=(150.0, 150.0),
        duration=100.0,
        nodes=5,
        trace=mesh_trace,
        sessions=[
            CbrSession(source=0, dest=4, start=30.0, duration=60.0),
            CbrSession(source=3, dest=1, start=30.0 + SESSION_PHASE, duration=60.0),
        ],
    ).validate()

    specs["congested-small"] = _urban_spec("congested-small", (400.0, 400.0), 10, 4,
                                           seed=2024, duration=60.0, flow_duration=25.0)
    specs["base-malaga-like"] = _urban_spec("base-malaga-like", (1200.0, 1200.0), 30, 10,
                                            seed=4101, flow_duration=140.0)

    # urban grid: U1/U2/U3 scale the area in 120,000 m2 blocks; density
    # tiers put 10/20/30 vehicles per block; one flow per two vehicles
    urban_areas = {"u1": (400.0, 300.0), "u2": (600.0, 400.0), "u3": (600.0, 600.0)}
    density = {"low": 10, "med": 20, "high": 30}
    for ui, (uname, area) in enumerate(urban_areas.items(), start=1):
        blocks = round(area[0] * area[1] / 120_000.0)
        for di, (dname, per_block) in enumerate(density.items()):
            nodes = per_block * blocks
            name = f"{uname}-{dname}"
            specs[name] = _urban_spec(name, area, nodes, nodes // 2,
                                      seed=9000 + 10 * ui + di)
    return specs
