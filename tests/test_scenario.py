"""Scenario layer: traces, mobility generation, traffic, bundled catalog."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from olsrlab.scenario import (
    CANDIDATE_SLOT,
    SESSION_PHASE,
    URBAN_SPEED_RANGE,
    CbrSession,
    MobilityTrace,
    RadioMacParams,
    ScenarioSpec,
    catalog,
    generate_random_waypoint,
    load_scenario,
    save_scenario,
)

from oracles import position_at


# ---------------------------------------------------------------------------
# trace validation and interpolation
# ---------------------------------------------------------------------------

def test_trace_validate_enforces_node_set_bounds_and_time_order():
    trace = MobilityTrace({0: [(0.0, 10.0, 10.0)], 1: [(0.0, 20.0, 20.0), (5.0, 30.0, 30.0)]})
    assert trace.validate(nodes=2, bounds=(50.0, 50.0)) is trace
    with pytest.raises(ValueError, match="expected 0..2"):
        trace.validate(nodes=3, bounds=(50.0, 50.0))
    with pytest.raises(ValueError, match="outside"):
        MobilityTrace({0: [(0.0, 500.0, 10.0)]}).validate(nodes=1, bounds=(400.0, 300.0))
    with pytest.raises(ValueError, match="outside"):
        MobilityTrace({0: [(0.0, -4.0, 20.0)]}).validate(nodes=1, bounds=(400.0, 300.0))
    with pytest.raises(ValueError, match="not increasing"):
        MobilityTrace({0: [(5.0, 1.0, 1.0), (5.0, 2.0, 2.0)]}).validate(
            nodes=1, bounds=(50.0, 50.0))
    with pytest.raises(ValueError, match="no waypoints"):
        MobilityTrace({0: [(0.0, 1.0, 1.0)], 1: []}).validate(nodes=2, bounds=(50.0, 50.0))


@pytest.mark.parametrize("point", [
    (math.nan, 20.0, 20.0),
    (math.inf, 20.0, 20.0),
    (5.0, math.nan, 20.0),
    ("abc", 20.0, 20.0),
    (5.0, True, 20.0),
    (5.0, 20.0),
    [5.0, 20.0, 20.0],
], ids=["nan-time", "inf-time", "nan-x", "string", "bool", "two-numbers", "list"])
def test_trace_validate_refuses_a_waypoint_that_is_not_three_finite_numbers(point):
    trace = MobilityTrace({0: [(0.0, 10.0, 10.0)], 1: [(0.0, 90.0, 20.0), point]})
    with pytest.raises(ValueError, match=r"^node 1: waypoint .* three finite numbers"):
        trace.validate(nodes=2, bounds=(100.0, 100.0))


def test_position_interpolates_and_clamps():
    points = [(10.0, 0.0, 0.0), (20.0, 100.0, 50.0)]
    assert position_at(points, 0.0) == (0.0, 0.0)       # before the trace
    assert position_at(points, 99.0) == (100.0, 50.0)   # after it
    assert position_at(points, 12.5) == (25.0, 12.5)
    trace = MobilityTrace({0: points})
    for time in (0.0, 10.0, 12.5, 15.0, 20.0, 99.0):
        assert trace.position(0, time) == position_at(points, time)


def test_position_at_matches_a_linear_scan_including_exact_waypoint_times():
    trace = generate_random_waypoint((400.0, 300.0), 3, 60.0, URBAN_SPEED_RANGE, seed=5)
    for node, points in trace.waypoints.items():
        times = [t for t, _, _ in points]
        probes = times + [(a + b) / 2.0 for a, b in zip(times, times[1:])]
        for time in probes:
            # the last waypoint at or before ``time`` starts the segment
            k = max(j for j, t in enumerate(times) if t <= time)
            if k == len(points) - 1:
                want = points[k][1:]
            else:
                (t0, x0, y0), (t1, x1, y1) = points[k], points[k + 1]
                frac = (time - t0) / (t1 - t0)
                want = (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))
            assert position_at(points, time) == want
            assert trace.position(node, time) == want
        for t, x, y in points:
            assert position_at(points, t) == (x, y)
            assert trace.position(node, t) == (x, y)
        # clamped before the first waypoint and after the last
        for time in (times[0] - 1.0, times[-1] + 1.0):
            assert trace.position(node, time) == position_at(points, time)



def _bits(point):
    return tuple(value.hex() for value in point)


@pytest.mark.parametrize("seed", range(4))
def test_position_equals_the_oracle_bit_for_bit_in_any_query_order(seed):
    # the trace answers a time inside a node's last leg from that leg; the
    # answers must not depend on which leg an earlier query left behind
    rng = random.Random(seed)
    duration = 60.0
    trace = generate_random_waypoint((400.0, 300.0), 4, duration, URBAN_SPEED_RANGE, seed=seed)
    trace.waypoints[4] = [(0.0, 10.0, 20.0)]                     # parked
    trace.waypoints[5] = [(5.0, 0.0, 0.0), (9.0, 40.0, 30.0)]    # one leg inside the run
    bursts = []
    for node, points in trace.waypoints.items():
        for t, _, _ in points:
            # exact waypoint times and their float neighbours
            bursts += [[(node, t)], [(node, math.nextafter(t, -math.inf))],
                       [(node, math.nextafter(t, math.inf))]]
        # single queries anywhere, before and after the trace included
        bursts += [[(node, rng.uniform(-10.0, duration + 10.0))] for _ in range(60)]
        # runs of rising times, as a simulation asks, mostly inside one leg
        for _ in range(10):
            start, step = rng.uniform(-1.0, duration + 1.0), rng.uniform(1e-4, 0.5)
            bursts.append([(node, start + k * step) for k in range(20)])
    rng.shuffle(bursts)
    queries = [query for burst in bursts for query in burst]
    assert len(queries) > 1500
    for node, time in queries:
        want = position_at(trace.waypoints[node], time)
        assert _bits(trace.position(node, time)) == _bits(want), (node, time)

@st.composite
def node_waypoints(draw):
    """A parked node or a walk at up to 100 m/s, first waypoint at t >= 0.

    Each leg runs at the node's top speed, so the node moves as far
    within a slot as the candidate radius allows for.
    """
    t = draw(st.floats(0.0, 20.0))
    x, y = draw(st.floats(0.0, 2000.0)), draw(st.floats(0.0, 2000.0))
    speed = draw(st.floats(0.0, 100.0))
    points = [(t, x, y)]
    for _ in range(draw(st.integers(0, 6))):
        dt = draw(st.floats(0.01, 15.0))
        heading = draw(st.floats(0.0, 2.0 * math.pi))
        t += dt
        x += speed * dt * math.cos(heading)
        y += speed * dt * math.sin(heading)
        points.append((t, x, y))
    return points


@settings(max_examples=300, deadline=None)
@given(paths=st.lists(node_waypoints(), min_size=2, max_size=8),
       tx_range=st.one_of(st.floats(1.0, 600.0), st.none()), data=st.data())
def test_receiver_candidates_contain_every_node_in_range(paths, tx_range, data):
    trace = MobilityTrace(dict(enumerate(paths)))
    nodes = st.integers(0, len(paths) - 1)
    waypoint_times = sorted({t for points in paths for t, _, _ in points})
    end = waypoint_times[-1]
    # anywhere up to well past the trace end, or close to a waypoint,
    # where the fastest legs begin and end
    times = st.one_of(st.floats(0.0, end + 20.0),
                      st.builds(lambda t, dt: max(0.0, t + dt),
                                st.sampled_from(waypoint_times), st.floats(-2.0, 2.0)))
    queries = data.draw(st.lists(st.tuples(nodes, times), min_size=1, max_size=10))

    def where(node, time):
        return position_at(trace.waypoints[node], time)

    if tx_range is None:
        # put one pair exactly at the range
        node, time = queries[0]
        tx_range = math.dist(where(node, time), where((node + 1) % len(paths), time))
        assume(tx_range > 0.0)
    candidates = trace.receiver_candidates(tx_range)
    for node, time in queries:
        ids, _, _ = candidates(node, time)
        assert list(ids) == sorted(ids) and node not in ids
        for other in trace.waypoints:
            assert trace.position(other, time) == where(other, time)
            if other != node and math.dist(where(node, time), where(other, time)) <= tx_range:
                assert other in ids, (node, other, time)


@given(paths=st.lists(node_waypoints(), min_size=2, max_size=8),
       tx_range=st.one_of(st.floats(1.0, 600.0), st.none()), data=st.data())
def test_receiver_candidate_masks_hold_for_any_two_times_in_a_slot(paths, tx_range, data):
    # a collision is judged from the receiver's position when the frame
    # began and the rival's position when the rival began: two times in one
    # slot.  A sure pair must be in range and a pair outside near out of
    # range for every such pair of times, the last slot's included, which
    # runs on past the trace end
    trace = MobilityTrace(dict(enumerate(paths)))
    end = max(points[-1][0] for points in paths)
    last = int(end / CANDIDATE_SLOT)
    slot = data.draw(st.one_of(st.just(last), st.integers(0, last)))
    start = slot * CANDIDATE_SLOT
    if slot < last:
        times = st.floats(start, start + CANDIDATE_SLOT, exclude_max=True)
    else:
        times = st.floats(start, end + 20.0)
    pairs = data.draw(st.lists(st.tuples(times, times), min_size=1, max_size=5))

    def where(node, time):
        return position_at(trace.waypoints[node], time)

    if tx_range is None:
        # put one pair exactly at the range
        t1, t2 = pairs[0]
        tx_range = math.dist(where(0, t1), where(1, t2))
        assume(tx_range > 0.0)
    candidates = trace.receiver_candidates(tx_range)
    for t1, t2 in pairs:
        for node in trace.waypoints:
            entry = candidates(node, t1)
            assert candidates(node, t2) is entry
            ids, near, sure = entry
            assert list(ids) == sorted(ids) and node not in ids
            assert near == sum(1 << other for other in ids)
            assert sure & ~near == 0
            for other in trace.waypoints:
                if other == node:
                    continue
                distance = math.dist(where(node, t1), where(other, t2))
                if sure >> other & 1:
                    assert distance <= tx_range, (node, other, t1, t2)
                if not near >> other & 1:
                    assert distance > tx_range, (node, other, t1, t2)


# ---------------------------------------------------------------------------
# random waypoint mobility
# ---------------------------------------------------------------------------

def test_random_waypoint_is_deterministic_per_seed():
    a = generate_random_waypoint((400.0, 300.0), 5, 60.0, URBAN_SPEED_RANGE, seed=7)
    b = generate_random_waypoint((400.0, 300.0), 5, 60.0, URBAN_SPEED_RANGE, seed=7)
    c = generate_random_waypoint((400.0, 300.0), 5, 60.0, URBAN_SPEED_RANGE, seed=8)
    assert a.waypoints == b.waypoints
    assert a.waypoints != c.waypoints


def test_random_waypoint_speeds_stay_in_envelope():
    lo, hi = URBAN_SPEED_RANGE
    trace = generate_random_waypoint((400.0, 300.0), 6, 60.0, (lo, hi), seed=11)
    assert sorted(trace.waypoints) == list(range(6))
    for points in trace.waypoints.values():
        assert points[0][0] == 0.0
        assert points[-1][0] == pytest.approx(60.0)
        for (t0, x0, y0), (t1, x1, y1) in zip(points, points[1:]):
            assert t1 > t0
            speed = math.dist((x0, y0), (x1, y1)) / (t1 - t0)
            assert lo - 1e-9 <= speed <= hi + 1e-9
            for x, y in ((x0, y0), (x1, y1)):
                assert 0.0 <= x <= 400.0 and 0.0 <= y <= 300.0


def test_random_waypoint_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_random_waypoint((0.0, 100.0), 2, 10.0, (1.0, 2.0), seed=1)
    with pytest.raises(ValueError):
        generate_random_waypoint((100.0, 100.0), 2, 10.0, (0.0, 2.0), seed=1)
    with pytest.raises(ValueError):
        generate_random_waypoint((100.0, 100.0), 2, 10.0, (5.0, 2.0), seed=1)


# ---------------------------------------------------------------------------
# traffic sessions
# ---------------------------------------------------------------------------

def test_cbr_send_times_grid():
    session = CbrSession(0, 1, 30.0, 25.0, packet_rate=4.0)
    times = [session.send_time(k) for k in range(100)]
    assert session.send_time(100) is None
    assert times[0] == 30.0
    assert times[-1] == 54.75
    assert all(b - a == pytest.approx(0.25) for a, b in zip(times, times[1:]))


def test_cbr_single_packet_window():
    session = CbrSession(0, 1, 35.0, 0.25)
    assert session.send_time(0) == 35.0
    assert session.send_time(1) is None


def test_radio_mac_validation():
    RadioMacParams().validate()
    with pytest.raises(ValueError):
        RadioMacParams(tx_range=0.0).validate()
    with pytest.raises(ValueError):
        RadioMacParams(max_retransmissions=-1).validate()
    with pytest.raises(ValueError):
        RadioMacParams(processing_delay=-0.1).validate()


# non-finite, fractional or boolean values: each would pass a plain sign
# test, and some make a simulation never end, so none may be simulated
@pytest.mark.parametrize("field,value", [
    ("tx_range", math.nan),
    ("tx_range", math.inf),
    ("bandwidth", math.inf),
    ("processing_delay", math.inf),
    ("processing_delay", math.nan),
    ("slot_time", math.inf),
    ("max_retransmissions", 1.5),
    ("max_retransmissions", True),
    ("backoff_slots", True),
    ("backoff_slots", 32.0),
])
def test_radio_mac_rejects_non_finite_fractional_and_boolean_values(field, value):
    with pytest.raises(ValueError, match=field):
        RadioMacParams(**{field: value}).validate()


def build_spec(**overrides):
    base = dict(
        name="tiny",
        area=(100.0, 100.0),
        duration=50.0,
        nodes=2,
        trace=MobilityTrace({0: [(0.0, 10.0, 10.0)], 1: [(0.0, 90.0, 90.0)]}),
        sessions=[CbrSession(0, 1, 30.0, 10.0)],
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@pytest.mark.parametrize("overrides,message", [
    (dict(sessions=[CbrSession(0, 0, 30.0, 10.0)]), "source == dest"),
    (dict(sessions=[CbrSession(0, 9, 30.0, 10.0)]), "unknown node"),
    (dict(sessions=[CbrSession(0, 1, 45.0, 10.0)]), "outside"),
    (dict(sessions=[CbrSession(0, 1, 30.0, 10.0, packet_rate=0.0)]), "positive"),
    (dict(duration=0.0), "duration"),
    (dict(duration=math.inf), "duration"),
    (dict(duration=math.nan), "duration"),
    (dict(nodes=True), "nodes"),
    (dict(sessions=[CbrSession(0, 1, 30.0, 10.0, packet_rate=math.inf)]), "packet_rate"),
    (dict(sessions=[CbrSession(0, 1, 30.0, 10.0, packet_rate=math.nan)]), "packet_rate"),
    (dict(sessions=[CbrSession(0, 1, 30.0, 10.0, packet_size=math.inf)]), "packet_size"),
    (dict(sessions=[CbrSession(0, 1, math.nan, 10.0)]), "start=nan"),
    (dict(sessions=[CbrSession(0, 1, 30.0, math.nan)]), "session 0: duration=nan"),
    (dict(radio_mac=RadioMacParams(slot_time=math.inf)), "slot_time"),
    (dict(area=("100", "100")), "area"),
    (dict(area=(100.0, math.inf)), "area"),
    (dict(area=(100.0, 0.0)), "area"),
    (dict(area=(100.0,)), "area"),
])
def test_scenario_validation_errors(overrides, message):
    with pytest.raises(ValueError, match=message):
        build_spec(**overrides).validate()


def test_scenario_json_round_trip(tmp_path):
    spec = ScenarioSpec(
        name="rt",
        area=(400.0, 300.0),
        duration=40.0,
        nodes=4,
        trace=generate_random_waypoint((400.0, 300.0), 4, 40.0, (2.0, 10.0), seed=3),
        sessions=[CbrSession(0, 2, 30.0, 5.0), CbrSession(3, 1, 30.137, 5.0)],
        radio_mac=RadioMacParams(tx_range=180.0),
    )
    path = tmp_path / "rt.json"
    save_scenario(spec, path)
    loaded = load_scenario(path)
    assert loaded == spec


def test_load_rejects_a_non_finite_duration(tmp_path):
    path = tmp_path / "inf.json"
    save_scenario(build_spec(), path)
    text = path.read_text()
    assert '"duration": 50.0' in text
    # JSON has no infinity, but Python's json module reads and writes one
    path.write_text(text.replace('"duration": 50.0', '"duration": Infinity'))
    with pytest.raises(ValueError, match="duration=inf"):
        load_scenario(path)


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError, match="format"):
        load_scenario(path)


# ---------------------------------------------------------------------------
# bundled catalog
# ---------------------------------------------------------------------------

def test_catalog_names_and_sizes():
    specs = catalog()
    assert set(specs) == {
        "static-mesh-smoke", "congested-small", "base-malaga-like",
        "u1-low", "u1-med", "u1-high",
        "u2-low", "u2-med", "u2-high",
        "u3-low", "u3-med", "u3-high",
    }
    base = specs["base-malaga-like"]
    assert (base.nodes, base.area, base.duration) == (30, (1200.0, 1200.0), 180.0)
    assert len(base.sessions) == 10

    # areas scale in 120k m2 blocks, ten vehicles per block per density tier
    expected_nodes = {"u1": 1, "u2": 2, "u3": 3}
    for uname, blocks in expected_nodes.items():
        for dname, per_block in (("low", 10), ("med", 20), ("high", 30)):
            spec = specs[f"{uname}-{dname}"]
            assert spec.area[0] * spec.area[1] == blocks * 120_000.0
            assert spec.nodes == per_block * blocks
            assert len(spec.sessions) == spec.nodes // 2
            assert spec.duration == 180.0


def test_catalog_specs_validate_and_rebuild_identically():
    first, second = catalog(), catalog()
    for name, spec in first.items():
        spec.validate()
        assert spec == second[name], name


def test_catalog_sessions_are_phase_staggered():
    # simultaneous constant-rate sources on a shared channel lock into
    # repeated collisions; the bundled scenarios offset each flow's start
    for name, spec in catalog().items():
        starts = [s.start for s in spec.sessions]
        assert len(set(starts)) == len(starts), name
        assert all(s.start >= 30.0 for s in spec.sessions), name
        if len(starts) > 1:
            gaps = {round(b - a, 9) for a, b in zip(sorted(starts), sorted(starts)[1:])}
            assert gaps == {round(SESSION_PHASE, 9)}, name
