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
from dataclasses import dataclass, field, asdict

SCENARIO_FORMAT = "olsrlab-scenario-v1"

# speed envelope used by the bundled urban scenarios, in m/s (10-50 km/h)
URBAN_SPEED_RANGE = (2.78, 13.88)


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
        if self.tx_range <= 0 or self.bandwidth <= 0:
            raise ValueError("tx_range and bandwidth must be positive")
        if self.max_retransmissions < 0 or self.backoff_slots < 0:
            raise ValueError("retransmissions and backoff_slots must be >= 0")
        if self.processing_delay < 0 or self.slot_time < 0:
            raise ValueError("delays must be >= 0")
        return self


@dataclass(frozen=True)
class CbrSession:
    """One constant-bit-rate UDP flow between two nodes."""

    source: int
    dest: int
    start: float
    duration: float
    packet_size: int = 512   # bytes
    packet_rate: float = 4.0  # packets per second

    def send_times(self):
        """Packet emission times, start inclusive, start+duration exclusive."""
        times = []
        k = 0
        while True:
            t = self.start + k / self.packet_rate
            if t >= self.start + self.duration - 1e-9:
                break
            times.append(t)
            k += 1
        return times


@dataclass
class MobilityTrace:
    """Waypoints per node: node id -> [(time, x, y), ...] sorted by time."""

    waypoints: dict[int, list[tuple[float, float, float]]]

    @property
    def nodes(self) -> list[int]:
        return sorted(self.waypoints)

    def position(self, node: int, time: float) -> tuple[float, float]:
        return position_at(self.waypoints[node], time)

    def validate(self, *, bounds: tuple[float, float] | None = None,
                 nodes: int | None = None) -> "MobilityTrace":
        if nodes is not None and set(self.waypoints) != set(range(nodes)):
            raise ValueError(
                f"trace covers nodes {sorted(self.waypoints)}, expected 0..{nodes - 1}"
            )
        for node, points in self.waypoints.items():
            if not points:
                raise ValueError(f"node {node} has no waypoints")
            last = None
            for t, x, y in points:
                if last is not None and t <= last:
                    raise ValueError(f"node {node}: waypoint times not increasing at t={t}")
                last = t
                if bounds is not None:
                    w, h = bounds
                    if not (-1e-9 <= x <= w + 1e-9 and -1e-9 <= y <= h + 1e-9):
                        raise ValueError(f"node {node}: position ({x}, {y}) outside {w}x{h}")
        return self


_waypoint_time = operator.itemgetter(0)


def position_at(points, time: float) -> tuple[float, float]:
    """Linear interpolation along a waypoint list, clamped at both ends."""
    if time <= points[0][0]:
        return points[0][1], points[0][2]
    if time >= points[-1][0]:
        return points[-1][1], points[-1][2]
    i = bisect.bisect_right(points, time, key=_waypoint_time)
    t0, x0, y0 = points[i - 1]
    t1, x1, y1 = points[i]
    frac = (time - t0) / (t1 - t0)
    return x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)


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
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.nodes <= 0:
            raise ValueError("node count must be positive")
        self.radio_mac.validate()
        self.trace.validate(bounds=self.area, nodes=self.nodes)
        for i, s in enumerate(self.sessions):
            if s.source == s.dest:
                raise ValueError(f"session {i}: source == dest == {s.source}")
            for endpoint in (s.source, s.dest):
                if endpoint not in self.trace.waypoints:
                    raise ValueError(f"session {i}: unknown node {endpoint}")
            if s.start < 0 or s.start + s.duration > self.duration + 1e-9:
                raise ValueError(f"session {i}: window [{s.start}, {s.start + s.duration}]"
                                 f" outside [0, {self.duration}]")
            if s.packet_size <= 0 or s.packet_rate <= 0:
                raise ValueError(f"session {i}: packet size/rate must be positive")
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
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if doc.get("format") != SCENARIO_FORMAT:
        raise ValueError(f"{path}: unsupported scenario format {doc.get('format')!r}")
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
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, AttributeError) as exc:  # an unknown key or a wrong JSON type
        raise ValueError(f"{path}: {exc}") from None
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


def _urban_spec(name: str, area: tuple[float, float], nodes: int,
                session_count: int, seed: int) -> ScenarioSpec:
    duration = 180.0
    trace = generate_random_waypoint(area, nodes, duration, URBAN_SPEED_RANGE, seed)
    rng = random.Random(seed + 1)
    sessions = _pick_sessions(rng, nodes, session_count, start=30.0, duration=30.0)
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

    congested_trace = generate_random_waypoint((400.0, 400.0), 10, 60.0,
                                               URBAN_SPEED_RANGE, seed=2024)
    congested_rng = random.Random(2025)
    specs["congested-small"] = ScenarioSpec(
        name="congested-small",
        area=(400.0, 400.0),
        duration=60.0,
        nodes=10,
        trace=congested_trace,
        sessions=_pick_sessions(congested_rng, 10, 4, start=30.0, duration=25.0),
    ).validate()

    base_trace = generate_random_waypoint((1200.0, 1200.0), 30, 180.0,
                                          URBAN_SPEED_RANGE, seed=4101)
    base_rng = random.Random(4102)
    specs["base-malaga-like"] = ScenarioSpec(
        name="base-malaga-like",
        area=(1200.0, 1200.0),
        duration=180.0,
        nodes=30,
        trace=base_trace,
        sessions=_pick_sessions(base_rng, 30, 10, start=30.0, duration=140.0),
    ).validate()

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
