"""Event-driven network simulator: delivery, losses, metrics, determinism."""

import bisect
import collections
import hashlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from olsrlab.netsim import (
    DATA_TTL_HOPS,
    FRAME_TXEND,
    Counters,
    DataPacket,
    QosMetrics,
    Simulator,
    collect_metrics,
    run_simulation,
)
from olsrlab.configs import named_configs
from olsrlab.olsr import NodeState, OlsrConfig
from olsrlab.params import LOWER, UPPER, decode_params
from olsrlab.scenario import (
    CANDIDATE_SLOT,
    CbrSession,
    MobilityTrace,
    RadioMacParams,
    ScenarioSpec,
    catalog,
    generate_random_waypoint,
)

from oracles import position_at


def pair_scenario(distance, **radio):
    """Two stationary nodes `distance` meters apart, one 20 s flow."""
    return ScenarioSpec(
        name=f"pair-{distance:g}",
        area=(700.0, 100.0),
        duration=60.0,
        nodes=2,
        trace=MobilityTrace({
            0: [(0.0, 50.0, 50.0)],
            1: [(0.0, 50.0 + distance, 50.0)],
        }),
        sessions=[CbrSession(0, 1, 30.0, 20.0)],
        radio_mac=RadioMacParams(**radio),
    ).validate()


# ---------------------------------------------------------------------------
# metric arithmetic
# ---------------------------------------------------------------------------

def test_collect_metrics_arithmetic():
    counters = Counters(data_sent=10, data_delivered=6, dropped_no_route=1,
                        dropped_ttl=1, dropped_mac=1, routing_tx=30,
                        e2ed_total=0.6, rpl_total=12)
    m = collect_metrics(counters, duration=60.0)
    assert m.pdr == 0.6
    assert m.nrl == 5.0
    assert m.e2ed == pytest.approx(0.1)
    assert m.rpl == 2.0
    assert m.data_in_flight == 1


def test_collect_metrics_penalizes_total_loss():
    m = collect_metrics(Counters(data_sent=4, routing_tx=7), duration=45.0)
    assert (m.pdr, m.e2ed, m.rpl) == (0.0, 45.0, 0.0)
    assert m.nrl == 7.0  # overhead divided by max(1, delivered)
    assert m.data_in_flight == 4


def test_collect_metrics_requires_traffic():
    with pytest.raises(ValueError, match="zero data packets"):
        collect_metrics(Counters(), duration=10.0)


# ---------------------------------------------------------------------------
# end-to-end behaviour on handcrafted topologies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_adjacent_pair_delivers_everything(seed):
    m = run_simulation(pair_scenario(100.0), OlsrConfig(), seed)
    assert m.data_sent == 80
    assert m.pdr == 1.0
    assert m.rpl == 1.0          # single hop
    assert m.data_in_flight == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_partitioned_pair_delivers_nothing(seed):
    m = run_simulation(pair_scenario(600.0), OlsrConfig(), seed)
    assert m.data_sent == 80
    assert m.pdr == 0.0
    assert m.e2ed == 60.0        # pinned to scenario duration
    assert m.rpl == 0.0
    assert m.data_dropped == 80  # every packet lacks a route
    assert m.nrl == float(m.routing_tx)


def test_partitioned_pair_overhead_is_hello_only():
    # no symmetric link ever forms, so no MPR selectors and no TC traffic;
    # the count below is two nodes' jittered HELLO streams over 60 s
    m = run_simulation(pair_scenario(600.0), OlsrConfig(), 1)
    assert m.routing_tx == 68


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_single_packet_latency_is_the_airtime(seed):
    spec = ScenarioSpec(
        name="one-packet",
        area=(700.0, 100.0),
        duration=40.0,
        nodes=2,
        trace=MobilityTrace({0: [(0.0, 50.0, 50.0)], 1: [(0.0, 150.0, 50.0)]}),
        sessions=[CbrSession(0, 1, 35.0, 0.25)],
        radio_mac=RadioMacParams(backoff_slots=0),
    ).validate()
    m = run_simulation(spec, OlsrConfig(), seed)
    assert m.data_delivered == 1
    assert abs(m.e2ed - 512 * 8 / 5.5e6) < 1e-12


@pytest.mark.parametrize("seed", [1, 2])
def test_hidden_terminals_collide_until_the_retry_budget_dies(seed):
    # 0 and 1 cannot hear each other but both reach 2: carrier sense never
    # helps, every data frame overlaps at the receiver, retries run out
    spec = ScenarioSpec(
        name="hidden",
        area=(500.0, 100.0),
        duration=40.0,
        nodes=3,
        trace=MobilityTrace({
            0: [(0.0, 0.0, 50.0)],
            1: [(0.0, 400.0, 50.0)],
            2: [(0.0, 200.0, 50.0)],
        }),
        sessions=[CbrSession(0, 2, 30.0, 5.0), CbrSession(1, 2, 30.0, 5.0)],
        radio_mac=RadioMacParams(backoff_slots=0),
    ).validate()
    sim = Simulator(spec, OlsrConfig(), seed)
    m = sim.run()
    assert m.data_sent == 40
    assert m.data_delivered == 0
    assert sim.counters.dropped_mac == 40


def _heard_overlap(overlapping, receiver, receiver_pos, tx_range):
    """Whether one of the overlapping transmissions is audible at the
    receiver: the receiver sends it, or is in its range."""
    return any(other.transmitter == receiver
               or math.dist(receiver_pos, other.pos) <= tx_range
               for other in overlapping)


class _TxendAudit(Simulator):
    """Keeps every transmission ever made, and hands the receivers of each
    frame-txend's reception set (none when no receiver got the frame) to
    ``judge``, after the handler returns.

    The expected outcome is computed from that history and the test
    oracle's positions alone, never from the simulator's live transmission
    list, which the handler prunes before it returns.  The history is the
    transmissions still to end plus the ended ones in the order they ended,
    which is the order of their end times, so the ones ending after a
    given time are found by bisection.
    """

    def __init__(self, *args, **kwargs):
        self.pending = {}  # id -> transmission scheduled to end, not yet ended
        self.ended = []    # ended transmissions, by end time
        self.ends = []     # their end times
        self.arrivals = None
        super().__init__(*args, **kwargs)

    def _schedule(self, time, kind, subject, payload=None):
        if kind == FRAME_TXEND:
            self.pending[id(payload)] = payload
        super()._schedule(time, kind, subject, payload)

    def _schedule_arrivals(self, time, receivers, payload):
        assert self.arrivals == [], "one reception set per frame-txend"
        self.arrivals.extend(receivers)
        super()._schedule_arrivals(time, receivers, payload)

    def _on_frame_txend(self, node_id, tx):
        del self.pending[id(tx)]
        assert not self.ends or self.ends[-1] <= tx.end
        self.ended.append(tx)
        self.ends.append(tx.end)
        self.arrivals = []
        super()._on_frame_txend(node_id, tx)
        got, self.arrivals = self.arrivals, None
        self.judge(node_id, tx, got)

    def overlapping(self, tx):
        """Every other transmission ever made that overlaps ``tx`` in time;
        one made later starts at or after now, when ``tx`` ends."""
        later = self.ended[bisect.bisect_right(self.ends, tx.start):]
        return [other for other in [*later, *self.pending.values()]
                if other is not tx and other.start < tx.end and tx.start < other.end]

    def judge(self, node_id, tx, got):
        raise NotImplementedError


class _CollisionAudit(_TxendAudit):
    """Checks every reception decision against the full transmission history:
    each receiver in range of a frame, whether or not the simulator had to
    scan for collisions to decide it."""

    def __init__(self, *args, **kwargs):
        self.verdicts = []
        super().__init__(*args, **kwargs)

    def judge(self, node_id, tx, got):
        waypoints = self.scenario.trace.waypoints
        tx_range = self.scenario.radio_mac.tx_range
        receivers = ([tx.frame.dest] if tx.frame.dest is not None
                     else [n for n in sorted(waypoints) if n != node_id])
        overlapping = self.overlapping(tx)
        for receiver in receivers:
            rpos = position_at(waypoints[receiver], tx.start)
            if math.dist(rpos, tx.pos) > tx_range:
                continue
            corrupted = receiver not in got
            want = _heard_overlap(overlapping, receiver, rpos, tx_range)
            self.verdicts.append((corrupted, want))


def test_collision_test_remembers_frames_longer_than_a_short_window():
    # at 20 kbps a 512-byte data frame is on the air for 0.2 s, so a frame
    # that overlapped it may have ended well before it does; the verdict
    # must still count that overlap
    base = catalog()["congested-small"]
    spec = replace(base, radio_mac=replace(base.radio_mac, bandwidth=20e3)).validate()
    sim = _CollisionAudit(spec, OlsrConfig(), 3)
    sim.run()
    assert any(want for _, want in sim.verdicts)
    missed = sum(want and not got for got, want in sim.verdicts)
    assert missed == 0
    assert all(got == want for got, want in sim.verdicts)


class _ReceiverAudit(_TxendAudit):
    """Checks every broadcast's receivers against a scan over all nodes."""

    def __init__(self, *args, **kwargs):
        self.broadcasts = 0
        self.moved_into_range = 0
        super().__init__(*args, **kwargs)

    def judge(self, node_id, tx, got):
        if tx.frame.dest is not None:
            return
        waypoints = self.scenario.trace.waypoints
        tx_range = self.scenario.radio_mac.tx_range
        assert tx.pos == position_at(waypoints[node_id], tx.start)
        slot_start = math.floor(tx.start / CANDIDATE_SLOT) * CANDIDATE_SLOT
        overlapping = self.overlapping(tx)
        want = []
        for other in sorted(waypoints):
            rpos = position_at(waypoints[other], tx.start)
            if (other != node_id and math.dist(rpos, tx.pos) <= tx_range
                    and not _heard_overlap(overlapping, other, rpos, tx_range)):
                want.append(other)
                if math.dist(position_at(waypoints[other], slot_start),
                             position_at(waypoints[node_id], slot_start)) > tx_range:
                    self.moved_into_range += 1
        assert got == want, (tx.start, node_id)
        self.broadcasts += 1


def fast_scenario():
    """Twenty vehicles at 40-100 m/s on 1500x1500 m, five flows."""
    area = (1500.0, 1500.0)
    return ScenarioSpec(
        name="fast",
        area=area,
        duration=40.0,
        nodes=20,
        trace=generate_random_waypoint(area, 20, 40.0, (40.0, 100.0), seed=3),
        sessions=[CbrSession(i, 19 - i, 10.0 + 0.137 * i, 25.0) for i in range(5)],
    ).validate()


@pytest.mark.parametrize("name", ["fast", "base-malaga-like"])
def test_broadcast_receivers_match_a_scan_of_every_node(name):
    spec = fast_scenario() if name == "fast" else catalog()[name]
    sim = _ReceiverAudit(spec, OlsrConfig(), 1)
    sim.run()
    assert sim.broadcasts > 500
    # receivers out of range at the start of their slot: the candidate
    # radius must count how far both ends move within a slot
    assert sim.moved_into_range > 0


class _VerdictBranches:
    """Tallies the branches by which the simulator settles each broadcast
    receiver's verdicts, recomputed from its candidate table and the
    audit's transmission history: a sure or a ring receiver, and, per
    receiver and rival, a rival from the same slot whose masks settle the
    collision, one from the same slot that leaves it to the exact test, or
    one from another slot."""

    def __init__(self, *args, **kwargs):
        self.branches = collections.Counter()
        super().__init__(*args, **kwargs)

    def judge(self, node_id, tx, got):
        super().judge(node_id, tx, got)
        if tx.frame.dest is not None:
            return
        ids, _, sure = self._candidates(node_id, tx.start)
        slot = int(tx.start / CANDIDATE_SLOT)
        rivals = self.overlapping(tx)
        for other in ids:
            self.branches["sure receiver" if sure >> other & 1 else "ring receiver"] += 1
            for rival in rivals:
                if int(rival.start / CANDIDATE_SLOT) != slot:
                    self.branches["cross-slot rival"] += 1
                    continue
                _, near, settled = self._candidates(rival.transmitter, rival.start)
                if rival.transmitter == other or (settled | ~near) >> other & 1:
                    self.branches["same-slot rival mask"] += 1
                else:
                    self.branches["same-slot rival ring"] += 1


@pytest.mark.parametrize("audit", [_ReceiverAudit, _CollisionAudit])
def test_masked_verdicts_match_a_full_scan_on_every_branch(audit):
    # at 20 kbps a HELLO is on the air for tens of milliseconds, so many
    # broadcasts have rivals, and some rivals began in the slot before
    base = catalog()["u1-med"]
    spec = replace(base, radio_mac=replace(base.radio_mac, bandwidth=20e3)).validate()
    sim = type(audit.__name__, (_VerdictBranches, audit), {})(spec, OlsrConfig(), 1)
    sim.run()
    assert set(sim.branches) == {"sure receiver", "ring receiver", "same-slot rival mask",
                                 "same-slot rival ring", "cross-slot rival"}, sim.branches
    if audit is _CollisionAudit:
        assert any(want for _, want in sim.verdicts)
        assert all(got == want for got, want in sim.verdicts)


# ---------------------------------------------------------------------------
# one heap entry per reception set, each handled whole in heap-key order
# ---------------------------------------------------------------------------

class _ArrivalOrderAudit(Simulator):
    """Records every reception set under its heap key, (time, lowest
    receiver, first insertion index), and every arrival where it is
    handled, as (set key, receiver).

    The set handler purges each receiver's state first, and handling an
    arrival purges no other node, so a purge made while a set is being
    handled marks the point where that receiver's arrival is handled."""

    def __init__(self, *args, **kwargs):
        self.sets = {}      # id(payload) -> (key, receivers, payload)
        self.handled = []
        self.handling = None  # the key of the set being handled
        super().__init__(*args, **kwargs)
        for node_id, node in self.nodes.items():
            node.state.purge_expired = self._watch(node_id, node.state.purge_expired)

    def _watch(self, node_id, purge_expired):
        def watched(now):
            if self.handling is not None:
                self.handled.append((self.handling, node_id))
            return purge_expired(now)
        return watched

    def _schedule_arrivals(self, time, receivers, payload):
        # the payload is kept, so that its id names this set alone
        self.sets[id(payload)] = ((time, receivers[0], self._insertions), receivers, payload)
        super()._schedule_arrivals(time, receivers, payload)

    def _on_frame_arrival(self, receivers, payload):
        self.handling = self.sets[id(payload)][0]
        super()._on_frame_arrival(receivers, payload)
        self.handling = None


def tie_scenario():
    """Two relays 400 m apart, hidden from each other, both 200 m from node
    0, each with two leaves of its own: 1 serves 2 and 4, 6 serves 3 and 5.
    With no backoff both relays forward a TC of node 0 the moment it
    arrives, so their copies end together and, after the processing delay,
    arrive at {2, 4} and {3, 5} at one time."""
    spots = {0: (500.0, 300.0), 1: (300.0, 300.0), 6: (700.0, 300.0),
             2: (100.0, 250.0), 4: (100.0, 350.0), 3: (900.0, 250.0), 5: (900.0, 350.0)}
    return ScenarioSpec(
        name="tied-reception-sets",
        area=(1000.0, 600.0),
        duration=30.0,
        nodes=7,
        trace=MobilityTrace({n: [(0.0, x, y)] for n, (x, y) in spots.items()}),
        sessions=[CbrSession(2, 3, 10.0, 10.0)],
        radio_mac=RadioMacParams(processing_delay=1e-3, backoff_slots=0),
    ).validate()


def test_tied_reception_sets_are_each_handled_whole_in_key_order():
    sim = _ArrivalOrderAudit(tie_scenario(), OlsrConfig(), 1)
    metrics = sim.run()
    assert metrics.data_delivered == metrics.data_sent == 40
    by_time = {}
    for (time, _, _), receivers, _ in sim.sets.values():
        by_time.setdefault(time, []).append(receivers)
    interleaved = [time for time, sets in by_time.items()
                   if len(sets) > 1 and sorted(sum(sets, [])) != sum(sorted(sets), [])]
    assert len(interleaved) >= 3
    # with a processing delay no arrival is scheduled at the time being
    # handled, so every set is handled once, whole and in ascending
    # receiver order, and the sets in ascending key order: 2, 4, 3, 5 at
    # a tie of {2, 4} and {3, 5}
    expected = [(key, receiver) for key, receivers, _ in sorted(sim.sets.values(),
                                                                 key=lambda s: s[0])
                for receiver in receivers]
    assert sim.handled == expected


def test_tied_reception_sets_are_handled_whole_by_lowest_receiver():
    handled = []

    class Recorder(Simulator):
        def _on_frame_arrival(self, receivers, payload):
            if isinstance(payload[0], str):
                handled.extend((self.now, receiver, payload[0]) for receiver in receivers)
            else:
                super()._on_frame_arrival(receivers, payload)

    sim = Recorder(tie_scenario(), OlsrConfig(), 1)
    for receivers, tag in (([1, 3], "a"), ([0, 2, 5], "b"), ([2, 4], "c")):
        sim._schedule_arrivals(0.5, receivers, (tag, 6))
    sim._schedule_arrivals(0.25, [4], ("d", 6))
    assert sim._insertions == 8
    sim.run()
    assert handled == [(0.25, 4, "d"), (0.5, 0, "b"), (0.5, 2, "b"), (0.5, 5, "b"),
                       (0.5, 1, "a"), (0.5, 3, "a"), (0.5, 2, "c"), (0.5, 4, "c")]


@pytest.mark.parametrize("seed,events,expected", [
    (1, 1408, "QosMetrics(pdr=1.0, nrl=4.15, e2ed=0.006978909090909724, rpl=4.0, "
              "data_sent=40, data_delivered=40, data_dropped=0, data_in_flight=0, "
              "routing_tx=166)"),
    (7, 1410, "QosMetrics(pdr=1.0, nrl=4.15, e2ed=0.006978909090909724, rpl=4.0, "
              "data_sent=40, data_delivered=40, data_dropped=0, data_in_flight=0, "
              "routing_tx=166)"),
])
def test_tie_scenario_reproduces_its_pinned_metrics(seed, events, expected):
    # tied reception sets occur in this scenario, yet the metrics and event
    # counts equal those of handling tied sets interleaved by receiver id
    sim = Simulator(tie_scenario(), OlsrConfig(), seed)
    assert repr(sim.run()) == expected
    assert sim._insertions == events


def test_hop_budget_drop():
    sim = Simulator(catalog()["static-mesh-smoke"], OlsrConfig(), 1)
    stale = DataPacket((0, 0), 4, 0.0, 512, hop_count=DATA_TTL_HOPS)
    sim.route_data_packet(stale, 2, 0.0)
    assert sim.counters.dropped_ttl == 1
    assert sim.counters.data_delivered == 0


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_static_mesh_smoke_is_lossless(seed):
    m = run_simulation(catalog()["static-mesh-smoke"], OlsrConfig(), seed)
    assert m.pdr == 1.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_packet_conservation(seed):
    sim = Simulator(catalog()["congested-small"], OlsrConfig(), seed)
    m = sim.run()
    c = sim.counters
    assert m.data_dropped == c.dropped_no_route + c.dropped_ttl + c.dropped_mac
    assert m.data_sent == m.data_delivered + m.data_dropped + m.data_in_flight
    assert m.data_in_flight >= 0
    assert 0.0 <= m.pdr <= 1.0


def test_doubling_the_control_rate_does_not_shed_overhead():
    spec = catalog()["congested-small"]
    standard = run_simulation(spec, OlsrConfig(), 1)
    eager = run_simulation(
        spec, OlsrConfig(hello_interval=1.0, refresh_interval=1.0, tc_interval=2.5), 1)
    assert eager.routing_tx >= standard.routing_tx


@pytest.mark.parametrize("refresh,mid_hold", [(1.0, 3.0), (30.0, 100.0)])
def test_mid_timing_has_no_effect_on_single_interface_nodes(refresh, mid_hold):
    # deliberate deviation: every simulated node has one interface, so no
    # MID is ever sent (RFC 3626 section 5) and these two tuned dimensions
    # are inert at both ends of their ranges
    spec = catalog()["congested-small"]
    inert = OlsrConfig(refresh_interval=refresh, mid_hold_time=mid_hold)
    assert run_simulation(spec, inert, 1) == run_simulation(spec, OlsrConfig(), 1)


@pytest.mark.parametrize("label", sorted(named_configs()))
def test_every_bundled_config_simulates_the_smoke_scenario(label):
    # a bundled config is validated only when a simulation runs it
    m = run_simulation(catalog()["static-mesh-smoke"], named_configs()[label], 1)
    assert m.data_sent == m.data_delivered + m.data_dropped + m.data_in_flight
    assert m.pdr == 1.0 and m.routing_tx > 0


@pytest.mark.parametrize("name,expected", [
    ("static-mesh-smoke", QosMetrics(
        pdr=1.0, nrl=0.5958333333333333, e2ed=0.001071453259661448, rpl=1.0,
        data_sent=480, data_delivered=480, data_dropped=0, data_in_flight=0,
        routing_tx=286)),
    ("congested-small", QosMetrics(
        pdr=0.875, nrl=1.1542857142857144, e2ed=0.0012924634074108962,
        rpl=1.2057142857142857, data_sent=400, data_delivered=350, data_dropped=50,
        data_in_flight=0, routing_tx=404)),
    ("u1-low", QosMetrics(
        pdr=1.0, nrl=1.885, e2ed=0.0010936904194248183, rpl=1.0, data_sent=600,
        data_delivered=600, data_dropped=0, data_in_flight=0, routing_tx=1131)),
    # the scenarios of the dense-urban and sparse-wide benchmark workloads
    ("u1-high", QosMetrics(
        pdr=0.98, nrl=1.8231292517006803, e2ed=0.0011224963645959016,
        rpl=1.0419501133786848, data_sent=1800, data_delivered=1764, data_dropped=36,
        data_in_flight=0, routing_tx=3216)),
    ("base-malaga-like", QosMetrics(
        pdr=0.5382142857142858, nrl=4.527869940278699, e2ed=0.002563659069824535,
        rpl=2.369940278699403, data_sent=5600, data_delivered=3014, data_dropped=2586,
        data_in_flight=0, routing_tx=13647)),
])
def test_bundled_scenarios_reproduce_their_pinned_metrics(name, expected):
    # exact values: any change to the protocol core or the channel that is
    # meant to be behaviour-preserving must leave every field bit for bit
    assert run_simulation(catalog()[name], OlsrConfig(), 1) == expected


@pytest.mark.parametrize("name,seed,expected", [
    ("base-malaga-like", 7, QosMetrics(
        pdr=0.5339285714285714, nrl=4.560535117056856, e2ed=0.0025751142109492913,
        rpl=2.3698996655518396, data_sent=5600, data_delivered=2990, data_dropped=2610,
        data_in_flight=0, routing_tx=13636)),
    ("u2-low", 1, QosMetrics(
        pdr=0.8241666666666667, nrl=3.0859453993933266, e2ed=0.0012132298139964654,
        rpl=1.1304347826086956, data_sent=1200, data_delivered=989, data_dropped=211,
        data_in_flight=0, routing_tx=3052)),
])
def test_held_out_runs_reproduce_their_pinned_metrics(name, seed, expected):
    # a seed and a scenario the channel's receiver filter was not written
    # against; the values predate the filter
    assert run_simulation(catalog()[name], OlsrConfig(), seed) == expected


@pytest.mark.parametrize("name,willingness,expected", [
    ("congested-small", 0, QosMetrics(
        pdr=0.7, nrl=1.2214285714285715, e2ed=0.0010745295860432286, rpl=1.0,
        data_sent=400, data_delivered=280, data_dropped=120, data_in_flight=0,
        routing_tx=342)),
    ("congested-small", 7, QosMetrics(
        pdr=0.8825, nrl=4.509915014164306, e2ed=0.0012779263792178815,
        rpl=1.2124645892351276, data_sent=400, data_delivered=353, data_dropped=47,
        data_in_flight=0, routing_tx=1592)),
    ("u1-high", 0, QosMetrics(
        pdr=0.94, nrl=1.8126477541371158, e2ed=0.001076209503425223, rpl=1.0,
        data_sent=1800, data_delivered=1692, data_dropped=108, data_in_flight=0,
        routing_tx=3067)),
])
def test_willingness_extremes_reproduce_their_pinned_metrics(name, willingness, expected):
    # every node of a run shares one willingness, so only 0 (no relays,
    # no strict two-hop target covered) and 7 (every neighbor a
    # relay) change the selection; the pins above all run willingness 3
    config = OlsrConfig(willingness=willingness)
    assert run_simulation(catalog()[name], config, 1) == expected


# congested-small at seed 1 over the tuning box: the shortest intervals
# (1 s), both willingness extremes and both ends of the hold times.  Long
# hold times keep routes over links that are gone, so a packet is tried
# seven times before the MAC drops it; these runs spend most of their
# events on those retries.  Columns: hello, refresh, tc, willingness,
# neighb_hold, top_hold, mid_hold, dup_hold; MAC drops; events scheduled.
@pytest.mark.parametrize("fields,mac_drops,events,expected", [
    ((1.0, 1.0, 1.0, 3, 3.0, 3.0, 3.0, 3.0), 20, 12527, QosMetrics(
        pdr=0.93, nrl=2.532258064516129, e2ed=0.0013450277034359073,
        rpl=1.2473118279569892, data_sent=400, data_delivered=372,
        data_dropped=28, data_in_flight=0, routing_tx=942)),
    ((30.0, 30.0, 30.0, 7, 100.0, 100.0, 100.0, 100.0), 117, 2930, QosMetrics(
        pdr=0.3, nrl=0.6, e2ed=0.0010507875884156507,
        rpl=1.0, data_sent=400, data_delivered=120,
        data_dropped=280, data_in_flight=0, routing_tx=72)),
    ((1.0, 2.0, 1.0, 7, 100.0, 100.0, 15.0, 100.0), 117, 33623, QosMetrics(
        pdr=0.7075, nrl=24.862190812720847, e2ed=0.001089000654959238,
        rpl=1.0, data_sent=400, data_delivered=283,
        data_dropped=117, data_in_flight=0, routing_tx=7036)),
    ((1.0, 2.0, 30.0, 0, 3.0, 3.0, 15.0, 3.0), 21, 8943, QosMetrics(
        pdr=0.7, nrl=2.442857142857143, e2ed=0.001062585468403121,
        rpl=1.0, data_sent=400, data_delivered=280,
        data_dropped=120, data_in_flight=0, routing_tx=684)),
    ((30.0, 2.0, 1.0, 0, 100.0, 100.0, 15.0, 30.0), 117, 3271, QosMetrics(
        pdr=0.265, nrl=0.18867924528301888, e2ed=0.0011062656079012423,
        rpl=1.0, data_sent=400, data_delivered=106,
        data_dropped=294, data_in_flight=0, routing_tx=20)),
    ((1.0, 2.0, 5.0, 7, 3.0, 100.0, 15.0, 3.0), 24, 14546, QosMetrics(
        pdr=0.94, nrl=5.252659574468085, e2ed=0.0013464512975479358,
        rpl=1.2632978723404256, data_sent=400, data_delivered=376,
        data_dropped=24, data_in_flight=0, routing_tx=1975)),
    ((2.0, 2.0, 1.0, 3, 100.0, 3.0, 15.0, 100.0), 117, 26361, QosMetrics(
        pdr=0.7075, nrl=9.060070671378092, e2ed=0.0010800871348590466,
        rpl=1.0, data_sent=400, data_delivered=283,
        data_dropped=117, data_in_flight=0, routing_tx=2564)),
    ((1.0, 1.0, 1.0, 0, 3.0, 3.0, 3.0, 3.0), 23, 9581, QosMetrics(
        pdr=0.6975, nrl=2.4336917562724016, e2ed=0.001053005471744119,
        rpl=1.0, data_sent=400, data_delivered=279,
        data_dropped=121, data_in_flight=0, routing_tx=679)),
    ((10.0, 2.0, 10.0, 5, 30.0, 30.0, 15.0, 30.0), 117, 4064, QosMetrics(
        pdr=0.7075, nrl=0.37809187279151946, e2ed=0.001054629140960252,
        rpl=1.0, data_sent=400, data_delivered=283,
        data_dropped=117, data_in_flight=0, routing_tx=107)),
    ((1.0, 2.0, 2.5, 1, 6.0, 15.0, 15.0, 30.0), 44, 11345, QosMetrics(
        pdr=0.88, nrl=2.403409090909091, e2ed=0.0012739132983564459,
        rpl=1.2045454545454546, data_sent=400, data_delivered=352,
        data_dropped=48, data_in_flight=0, routing_tx=846)),
    ((30.0, 30.0, 30.0, 3, 3.0, 3.0, 3.0, 3.0), 0, 690, QosMetrics(
        pdr=0.03, nrl=1.6666666666666667, e2ed=0.0010799637018479302,
        rpl=1.0, data_sent=400, data_delivered=12,
        data_dropped=388, data_in_flight=0, routing_tx=20)),
    ((3.7, 8.1, 12.2, 4, 11.1, 47.5, 60.0, 8.8), 83, 4930, QosMetrics(
        pdr=0.775, nrl=0.6645161290322581, e2ed=0.0012403904095253343,
        rpl=1.1483870967741936, data_sent=400, data_delivered=310,
        data_dropped=90, data_in_flight=0, routing_tx=206)),
])
def test_tuning_box_configs_reproduce_their_pinned_metrics(fields, mac_drops, events, expected):
    sim = Simulator(catalog()["congested-small"], OlsrConfig(*fields), 1)
    assert sim.run() == expected
    assert sim.counters.dropped_mac == mac_drops
    assert sim._insertions == events


# congested-small at seed 1 under the first five configs a campaign would
# draw from the box, np.random.default_rng(0).uniform(LOWER, UPPER): long
# and short hold times mixed, expired links and MAC drops, not the grid
# corners above.  Columns: draw index; MAC drops; events scheduled.
@pytest.mark.parametrize("index,mac_drops,events,expected", [
    (0, 117, 3371, QosMetrics(
        pdr=0.5675, nrl=0.13215859030837004, e2ed=0.0010764299468776829,
        rpl=1.0, data_sent=400, data_delivered=227,
        data_dropped=173, data_in_flight=0, routing_tx=30)),
    (1, 117, 3343, QosMetrics(
        pdr=0.7025, nrl=0.1387900355871886, e2ed=0.001061103959448655,
        rpl=1.0, data_sent=400, data_delivered=281,
        data_dropped=119, data_in_flight=0, routing_tx=39)),
    (2, 20, 1057, QosMetrics(
        pdr=0.065, nrl=0.7692307692307693, e2ed=0.001060959180478267,
        rpl=1.0, data_sent=400, data_delivered=26,
        data_dropped=374, data_in_flight=0, routing_tx=20)),
    (3, 117, 3494, QosMetrics(
        pdr=0.58, nrl=0.5474137931034483, e2ed=0.0010644005103809826,
        rpl=1.0, data_sent=400, data_delivered=232,
        data_dropped=168, data_in_flight=0, routing_tx=127)),
    (4, 117, 4792, QosMetrics(
        pdr=0.7075, nrl=0.6183745583038869, e2ed=0.001080839599866664,
        rpl=1.0, data_sent=400, data_delivered=283,
        data_dropped=117, data_in_flight=0, routing_tx=175)),
])
def test_sampled_tuning_box_configs_reproduce_their_pinned_metrics(index, mac_drops, events,
                                                                   expected):
    rng = np.random.default_rng(0)
    draws = [rng.uniform(LOWER, UPPER) for _ in range(5)]
    sim = Simulator(catalog()["congested-small"], decode_params(draws[index]), 1)
    assert sim.run() == expected
    assert sim.counters.dropped_mac == mac_drops
    assert sim._insertions == events


# u2-med at seed 0 under draws 3-5 of the same box stream: 40 nodes, so
# routes of several hops and two-hop neighborhoods that relay selection
# and the expiry sweep both work on.  Draw 3 has willingness 7, draws 4
# and 5 willingness 2.  Columns as above.
@pytest.mark.parametrize("index,mac_drops,events,expected", [
    (3, 485, 45682, QosMetrics(
        pdr=0.7008333333333333, nrl=3.7550535077288942, e2ed=0.0011506421570856241,
        rpl=1.004756242568371, data_sent=2400, data_delivered=1682,
        data_dropped=718, data_in_flight=0, routing_tx=6316)),
    (4, 485, 77949, QosMetrics(
        pdr=0.7979166666666667, nrl=1.2046997389033942, e2ed=0.0011930220465808739,
        rpl=1.052219321148825, data_sent=2400, data_delivered=1915,
        data_dropped=485, data_in_flight=0, routing_tx=2307)),
    (5, 485, 45268, QosMetrics(
        pdr=0.74375, nrl=0.592156862745098, e2ed=0.0012234932298479915,
        rpl=1.0795518207282913, data_sent=2400, data_delivered=1785,
        data_dropped=615, data_in_flight=0, routing_tx=1057)),
])
def test_multi_hop_box_samples_reproduce_their_pinned_metrics(index, mac_drops, events,
                                                             expected):
    rng = np.random.default_rng(0)
    draws = [rng.uniform(LOWER, UPPER) for _ in range(6)]
    sim = Simulator(catalog()["u2-med"], decode_params(draws[index]), 0)
    assert sim.run() == expected
    assert sim.counters.dropped_mac == mac_drops
    assert sim._insertions == events


# ---------------------------------------------------------------------------
# protocol state is purged where it is read
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["congested-small", "base-malaga-like"])
def test_every_read_of_node_state_follows_a_purge_at_the_same_time(name, monkeypatch):
    """No timer sweeps expired tuples, so each handler must purge a node's
    state before it reads it: applying a message, emitting, and choosing
    the next hop of a data packet the node does not consume."""
    last_purge = {}
    checks = dict.fromkeys(("process_message", "emit_periodic", "route_data_packet"), 0)
    violations = []

    def check(kind, state, now):
        checks[kind] += 1
        if last_purge.get(state) != now:
            violations.append((kind, state.self_id, now, last_purge.get(state)))

    purge_expired = NodeState.purge_expired
    process_message = NodeState.process_message
    emit_periodic = NodeState.emit_periodic
    route_data_packet = Simulator.route_data_packet

    def purge_wrapper(state, now):
        last_purge[state] = now
        return purge_expired(state, now)

    def process_wrapper(state, msg, sender, now):
        check("process_message", state, now)
        return process_message(state, msg, sender, now)

    def emit_wrapper(state, now, rng=None):
        check("emit_periodic", state, now)
        return emit_periodic(state, now, rng)

    def route_wrapper(sim, packet, at, now):
        if at != packet.dest:
            check("route_data_packet", sim.nodes[at].state, now)
        return route_data_packet(sim, packet, at, now)

    monkeypatch.setattr(NodeState, "purge_expired", purge_wrapper)
    monkeypatch.setattr(NodeState, "process_message", process_wrapper)
    monkeypatch.setattr(NodeState, "emit_periodic", emit_wrapper)
    monkeypatch.setattr(Simulator, "route_data_packet", route_wrapper)
    run_simulation(catalog()[name], OlsrConfig(), 1)
    assert all(checks.values()), checks
    assert not violations, f"{len(violations)} reads without a purge, first {violations[:5]}"


# ---------------------------------------------------------------------------
# determinism and input validation
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_metrics_and_event_log():
    spec = catalog()["congested-small"]
    log_a, log_b = io.StringIO(), io.StringIO()
    a = run_simulation(spec, OlsrConfig(), 7, event_log=log_a)
    b = run_simulation(spec, OlsrConfig(), 7, event_log=log_b)
    assert a == b
    assert log_a.getvalue() == log_b.getvalue()
    assert run_simulation(spec, OlsrConfig(), 8) != a


def test_congested_small_event_log_is_pinned():
    # the whole log of one run, pinned when every arrival was its own heap
    # event: batching a frame's arrivals must not move one line
    log = io.StringIO()
    run_simulation(catalog()["congested-small"], OlsrConfig(), 1, event_log=log)
    text = log.getvalue()
    assert text.count("\n") == 4708
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "480e3380b434827a8f84e84f6110fb4f999f04f42a47389500b59650fe7e5bd4")


@pytest.mark.parametrize("second_start,expected", [
    # packets of one source due at one time are sent in the order they
    # were scheduled.  Both sessions start together: their first packets
    # were scheduled before the run in session order, so session 0 leads
    # at every shared time
    (30.0, ["30.000000 0:0", "30.000000 1:0", "30.250000 0:1", "30.250000 1:1",
            "30.500000 0:2", "30.500000 1:2", "30.750000 0:3", "30.750000 1:3"]),
    # session 1 starts one period later: its first packet was scheduled
    # before the run, before session 0's second, so session 1 leads at
    # every shared time from 30.25 s on
    (30.25, ["30.000000 0:0", "30.250000 1:0", "30.250000 0:1", "30.500000 1:1",
             "30.500000 0:2", "30.750000 1:2", "30.750000 0:3", "31.000000 1:3"]),
])
def test_cbr_packets_of_one_source_go_in_scheduling_order(second_start, expected):
    spec = ScenarioSpec(
        name="shared-source",
        area=(300.0, 100.0),
        duration=40.0,
        nodes=3,
        trace=MobilityTrace({0: [(0.0, 50.0, 50.0)], 1: [(0.0, 150.0, 50.0)],
                             2: [(0.0, 250.0, 50.0)]}),
        sessions=[CbrSession(0, 2, 30.0, 1.0), CbrSession(0, 1, second_start, 1.0)],
    ).validate()
    log = io.StringIO()
    metrics = run_simulation(spec, OlsrConfig(), 1, event_log=log)
    sends = [f"{fields[0]} {fields[3].removeprefix('uid=')}"
             for fields in map(str.split, log.getvalue().splitlines())
             if fields[2] == "cbr-send"]
    assert sends == expected
    assert metrics.data_delivered == 8


def test_event_log_lines_are_well_formed():
    log = io.StringIO()
    run_simulation(pair_scenario(100.0), OlsrConfig(), 1, event_log=log)
    lines = log.getvalue().splitlines()
    assert lines, "log should not be empty"
    times = []
    for line in lines:
        stamp, subject, kind, *_ = line.split(" ")
        times.append(float(stamp))
        int(subject)
        assert kind
    assert times == sorted(times)
    assert lines[-1].startswith(f"{60.0:.6f} -1 sim-end")


def test_scenario_without_traffic_is_rejected():
    idle = ScenarioSpec(
        name="idle",
        area=(100.0, 100.0),
        duration=10.0,
        nodes=2,
        trace=MobilityTrace({0: [(0.0, 10.0, 10.0)], 1: [(0.0, 90.0, 90.0)]}),
        sessions=[],
    )
    with pytest.raises(ValueError, match="no CBR sessions"):
        run_simulation(idle, OlsrConfig(), 1)


def test_config_outside_the_tuning_box_runs_and_an_unrunnable_one_is_refused():
    """No waiver exists: a config outside the tuning box runs as it is, and
    only a config no simulation can run is refused."""
    spec = pair_scenario(100.0)
    subsecond = OlsrConfig(hello_interval=0.5, refresh_interval=0.5,
                           neighb_hold_time=1.5)
    assert run_simulation(spec, subsecond, 1).pdr == 1.0
    # a zero interval would never let simulated time advance: refuse it
    # at construction, before any event runs
    with pytest.raises(ValueError, match="hello_interval"):
        Simulator(spec, OlsrConfig(hello_interval=0.0), 1)
