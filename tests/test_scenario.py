"""Scenario layer: traces, mobility generation, traffic, bundled catalog."""

import math
import random

import pytest

from olsrlab.scenario import (
    SESSION_PHASE,
    URBAN_SPEED_RANGE,
    CbrSession,
    MobilityTrace,
    RadioMacParams,
    ScenarioSpec,
    catalog,
    generate_random_waypoint,
    load_scenario,
    position_at,
    save_scenario,
)


# ---------------------------------------------------------------------------
# trace validation and interpolation
# ---------------------------------------------------------------------------

def test_trace_validate_enforces_node_set_bounds_and_time_order():
    trace = MobilityTrace({0: [(0.0, 10.0, 10.0)], 1: [(0.0, 20.0, 20.0), (5.0, 30.0, 30.0)]})
    assert trace.validate(nodes=2, bounds=(50.0, 50.0)) is trace
    with pytest.raises(ValueError, match="expected 0..2"):
        trace.validate(nodes=3)
    with pytest.raises(ValueError, match="outside"):
        MobilityTrace({0: [(0.0, 500.0, 10.0)]}).validate(bounds=(400.0, 300.0))
    with pytest.raises(ValueError, match="outside"):
        MobilityTrace({0: [(0.0, -4.0, 20.0)]}).validate(bounds=(400.0, 300.0))
    with pytest.raises(ValueError, match="not increasing"):
        MobilityTrace({0: [(5.0, 1.0, 1.0), (5.0, 2.0, 2.0)]}).validate()
    with pytest.raises(ValueError, match="no waypoints"):
        MobilityTrace({0: [(0.0, 1.0, 1.0)], 1: []}).validate()


def test_position_interpolates_and_clamps():
    points = [(10.0, 0.0, 0.0), (20.0, 100.0, 50.0)]
    assert position_at(points, 0.0) == (0.0, 0.0)       # before the trace
    assert position_at(points, 99.0) == (100.0, 50.0)   # after it
    assert position_at(points, 12.5) == (25.0, 12.5)


def test_position_at_matches_a_linear_scan_including_exact_waypoint_times():
    trace = generate_random_waypoint((400.0, 300.0), 3, 60.0, URBAN_SPEED_RANGE, seed=5)
    for points in trace.waypoints.values():
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
        for t, x, y in points:
            assert position_at(points, t) == (x, y)


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
    times = CbrSession(0, 1, 30.0, 25.0, packet_rate=4.0).send_times()
    assert len(times) == 100
    assert times[0] == 30.0
    assert times[-1] == 54.75
    assert all(b - a == pytest.approx(0.25) for a, b in zip(times, times[1:]))


def test_cbr_single_packet_window():
    assert CbrSession(0, 1, 35.0, 0.25).send_times() == [35.0]


def test_radio_mac_validation():
    RadioMacParams().validate()
    with pytest.raises(ValueError):
        RadioMacParams(tx_range=0.0).validate()
    with pytest.raises(ValueError):
        RadioMacParams(max_retransmissions=-1).validate()
    with pytest.raises(ValueError):
        RadioMacParams(processing_delay=-0.1).validate()


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
