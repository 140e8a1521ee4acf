"""Discrete-event simulator for the routing protocol over a vehicular field.

The model is deliberately small but honest about the effects that matter
for protocol tuning:

* disk radio: a frame reaches every node within ``tx_range`` of the
  transmitter, positions sampled at transmission start.  A broadcast's
  verdicts read the transmitter's entry in the receiver-candidate table for that
  time (:meth:`MobilityTrace.receiver_candidates`): a node in its ``sure``
  mask is in range, with no position lookup; a node in the ring
  (``near & ~sure``) gets the exact distance test; a node outside
  ``near`` is out of range.  Both masks hold for the positions of a pair
  at any two times in one candidate slot, so every verdict equals the
  exact test of every node;
* carrier sense with random backoff: a sender checks the channel, defers
  while an in-range node is transmitting, then starts after a uniform
  backoff without re-checking, which leaves the usual vulnerability
  window in which two senders (in range or hidden) can overlap;
* overlapping transmissions corrupt frames at common receivers; unicast
  frames are retried up to ``max_retransmissions``, broadcasts never.  A
  broadcast's collision with a rival that began in the same candidate
  slot is settled from the rival transmitter's entry (``sure``: corrupted,
  outside ``near``: clear), since the receiver's position at the frame's
  start and the rival's at its own are two times in that slot; a ring
  receiver, or a rival from another slot, gets the exact test.  Unicast
  verdicts and carrier sense always use the exact test;
* airtime is ``bytes * 8 / bandwidth``; one FIFO transmit queue per node.

Every event is one heap entry, handled in ascending order of its key
(time, kind precedence, subject id, insertion index), so a run is a pure
function of (scenario, config, seed).  The key is unique, and nothing
else breaks a tie.  ``Simulator._insertions`` counts the events
scheduled.  CBR packets are scheduled one at a time per session: sending
one schedules the session's next, so the event heap never holds more
than one future packet per session.

A frame's arrivals are one entry per ended transmission: its reception
set, the receivers that got it in ascending id order (one for a unicast
frame), sharing one ``(payload, sender)``.  Its subject is its lowest
receiver, and it takes one insertion index per receiver, so
``_insertions`` counts each receiver.  The run loop hands the set to
``Simulator._on_frame_arrival(receivers, payload)``, which tests the
payload's type once, then, for each receiver in ascending order, purges
the receiver's state and applies the control message (forwarding a copy
when the protocol says so) or routes the data packet.  Sets due at one
time are each handled whole, in the order of their keys.

A node's protocol state is purged of expired tuples at the start of every
handler that reads it (periodic emission, CBR send, frame arrival), and
nothing else reads it, so no separate expiry timer is scheduled.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from random import Random

from .olsr import ControlMessage, NodeState, OlsrConfig
from .scenario import CANDIDATE_SLOT, ScenarioSpec

DATA_TTL_HOPS = 64   # hop budget for data packets

# event kinds, each its own tie-break precedence
FRAME_ARRIVAL, FRAME_SEND, FRAME_TXEND, PERIODIC_EMIT, CBR_SEND, SIM_END = range(6)


@dataclass(frozen=True)
class QosMetrics:
    """Aggregated quality-of-service results of one simulation run.

    pdr is delivered/sent; nrl counts every control-frame transmission
    (each hop separately) per delivered data packet; e2ed and rpl are
    means over delivered packets, in seconds and hops.  When nothing is
    delivered, e2ed is pinned to the scenario duration and rpl to zero.
    """

    pdr: float
    nrl: float
    e2ed: float
    rpl: float
    data_sent: int
    data_delivered: int
    data_dropped: int
    data_in_flight: int
    routing_tx: int


@dataclass
class Counters:
    data_sent: int = 0
    data_delivered: int = 0
    dropped_no_route: int = 0
    dropped_ttl: int = 0
    dropped_mac: int = 0
    routing_tx: int = 0
    e2ed_total: float = 0.0
    rpl_total: int = 0

    @property
    def data_dropped(self) -> int:
        return self.dropped_no_route + self.dropped_ttl + self.dropped_mac


def collect_metrics(counters: Counters, duration: float) -> QosMetrics:
    if counters.data_sent == 0:
        raise ValueError("zero data packets sent; metrics are undefined")
    delivered = counters.data_delivered
    in_flight = counters.data_sent - delivered - counters.data_dropped
    return QosMetrics(
        pdr=delivered / counters.data_sent,
        nrl=counters.routing_tx / max(1, delivered),
        e2ed=(counters.e2ed_total / delivered) if delivered else duration,
        rpl=(counters.rpl_total / delivered) if delivered else 0.0,
        data_sent=counters.data_sent,
        data_delivered=delivered,
        data_dropped=counters.data_dropped,
        data_in_flight=in_flight,
        routing_tx=counters.routing_tx,
    )


@dataclass(slots=True)
class DataPacket:
    uid: tuple[int, int]      # (session index, packet index)
    dest: int
    origin_time: float
    size_bytes: int
    hop_count: int = 0


class Frame:
    __slots__ = ("payload", "dest", "size_bytes", "attempts")

    def __init__(self, payload, dest: int | None, size_bytes: int):
        self.payload = payload            # ControlMessage or DataPacket
        self.dest = dest                  # None = broadcast, a control frame
        self.size_bytes = size_bytes
        self.attempts = 0


class _Transmission:
    __slots__ = ("transmitter", "start", "end", "frame", "pos")

    def __init__(self, transmitter: int, start: float, end: float, frame: Frame,
                 pos: tuple[float, float]):
        self.transmitter = transmitter
        self.start = start
        self.end = end
        self.frame = frame
        self.pos = pos  # transmitter position at start


class _SimNode:
    __slots__ = ("node_id", "state", "queue", "current")

    def __init__(self, node_id: int, state: NodeState):
        self.node_id = node_id
        self.state = state
        self.queue: list[Frame] = []
        self.current: Frame | None = None


class Simulator:
    """One deterministic run of a scenario under a protocol configuration."""

    def __init__(self, scenario: ScenarioSpec, config: OlsrConfig, seed: int, *,
                 event_log=None):
        scenario.validate()
        if not scenario.sessions:
            raise ValueError("scenario has no CBR sessions; nothing to measure")
        config.validate()
        self.scenario = scenario
        self.rng = Random(seed)
        self.counters = Counters()
        self.now = 0.0
        self._event_log = event_log
        self._heap: list = []
        self._insertions = 0
        self._transmissions: list[_Transmission] = []
        mac = scenario.radio_mac
        self._tx_range = mac.tx_range
        self._bandwidth = mac.bandwidth
        self._backoff_window = mac.backoff_slots * mac.slot_time
        self._processing_delay = mac.processing_delay
        self._max_retransmissions = mac.max_retransmissions
        self._candidates = None  # built on the first run, cached on the trace
        self.nodes: dict[int, _SimNode] = {}
        for node_id in self.scenario.trace.nodes:
            state = NodeState(node_id, config, rng=self.rng)
            self.nodes[node_id] = _SimNode(node_id, state)

    # -- event plumbing -------------------------------------------------

    def _schedule(self, time: float, kind: int, subject: int, payload=None) -> None:
        # (time, kind, subject, insertion index) is unique, so the payload
        # is never compared
        heapq.heappush(self._heap, (time, kind, subject, self._insertions, payload))
        self._insertions += 1

    def _schedule_arrivals(self, time: float, receivers: list[int] | tuple[int, ...],
                           payload) -> None:
        """Schedule one frame's arrivals at ``receivers`` (ascending, not
        empty) as one reception set, taking one insertion index each."""
        first = self._insertions
        heapq.heappush(self._heap, (time, FRAME_ARRIVAL, receivers[0], first,
                                    (receivers, payload)))
        self._insertions = first + len(receivers)

    def _log(self, subject: int, kind: str, detail: str) -> None:
        # hot call sites test ``_event_log`` themselves, so that a run
        # without a log formats no detail string
        if self._event_log is not None:
            self._event_log.write(f"{self.now:.6f} {subject} {kind} {detail}\n")

    def _schedule_cbr(self, si: int, k: int, session) -> None:
        """Schedule packet ``k`` of session ``si``, if its window has it."""
        t = session.send_time(k)
        if t is not None:
            self._schedule(t, CBR_SEND, session.source, (si, k, session))

    # -- run loop ---------------------------------------------------------

    def run(self) -> QosMetrics:
        duration = self.scenario.duration
        self._candidates = self.scenario.trace.receiver_candidates(self._tx_range)
        for node in self.nodes.values():
            self._schedule(node.state.next_emission(), PERIODIC_EMIT, node.node_id)
        for si, session in enumerate(self.scenario.sessions):
            self._schedule_cbr(si, 0, session)
        self._schedule(duration, SIM_END, -1)

        # one handler per kind, in kind order; the loop calls the arrival
        # handler and deliver_frame itself, and SIM_END ends it
        handlers = (None, None, self._on_frame_txend, self._on_periodic_emit,
                    self._on_cbr_send)
        arrival, deliver, nodes = self._on_frame_arrival, self.deliver_frame, self.nodes
        heap, pop = self._heap, heapq.heappop
        while heap:
            time, kind, subject, _, payload = pop(heap)
            self.now = time
            if kind == FRAME_ARRIVAL:
                arrival(*payload)
            elif kind == FRAME_SEND:
                deliver(nodes[subject], time)
            elif kind == SIM_END:
                self._log(subject, "sim-end", "")
                break
            else:
                handlers[kind](subject, payload)
        return collect_metrics(self.counters, duration)

    # -- handlers ---------------------------------------------------------

    def _on_periodic_emit(self, node_id: int, _payload) -> None:
        node = self.nodes[node_id]
        node.state.purge_expired(self.now)
        messages = node.state.emit_periodic(self.now, self.rng)
        for msg in messages:
            self._enqueue(node, Frame(msg, None, msg.size_bytes))
            if self._event_log is not None:
                self._log(node_id, "periodic-emit", f"{msg.kind} seq={msg.seq}")
        self._schedule(node.state.next_emission(), PERIODIC_EMIT, node_id)

    def _on_cbr_send(self, source: int, payload) -> None:
        si, k, session = payload
        node = self.nodes[source]
        node.state.purge_expired(self.now)
        self._schedule_cbr(si, k + 1, session)
        packet = DataPacket((si, k), session.dest, self.now, session.packet_size)
        self.counters.data_sent += 1
        if self._event_log is not None:
            self._log(source, "cbr-send", f"uid={si}:{k} dest={session.dest}")
        self.route_data_packet(packet, source, self.now)

    def deliver_frame(self, node: _SimNode, now: float) -> None:
        """Carrier-sense attempt for the node's current frame.

        If an in-range transmission is already on the air the attempt is
        deferred to its end plus a fresh backoff.  Otherwise the frame is
        committed to start after one backoff, leaving the window in which
        other stations may still see an idle channel.
        """
        frame = node.current
        node_id = node.node_id
        trace = self.scenario.trace
        tx_range = self._tx_range
        pos = None  # looked up only when another node is on the air
        busy_until = 0.0
        for tx in self._transmissions:
            if not tx.start <= now < tx.end:
                continue
            if tx.transmitter != node_id:
                if pos is None:
                    pos = trace.position(node_id, now)
                if math.dist(pos, tx.pos) > tx_range:
                    continue
            if tx.end > busy_until:
                busy_until = tx.end
        # w * random() is rng.uniform(0.0, w) bit for bit: uniform returns
        # 0.0 + (w - 0.0) * r, which equals w * r for finite w >= 0
        if busy_until > 0.0:
            self._schedule(busy_until + self._backoff_window * self.rng.random(),
                           FRAME_SEND, node_id)
            return
        start = now + self._backoff_window * self.rng.random()
        end = start + frame.size_bytes * 8.0 / self._bandwidth
        frame.attempts += 1
        if frame.dest is None:
            self.counters.routing_tx += 1
        tx = _Transmission(node_id, start, end, frame, trace.position(node_id, start))
        self._transmissions.append(tx)
        self._schedule(end, FRAME_TXEND, node_id, tx)

    def _on_frame_txend(self, node_id: int, tx: _Transmission) -> None:
        frame = tx.frame
        now = self.now
        transmissions = self._transmissions
        alone = len(transmissions) == 1  # this one is always listed until judged
        # only a listed transmission that overlaps this one can corrupt it;
        # with none, every receiver in range gets the frame
        rivals = None if alone else [
            other for other in transmissions
            if other.start < tx.end and tx.start < other.end and other is not tx]
        trace = self.scenario.trace
        tx_range = self._tx_range
        if frame.dest is None:
            start, position = tx.start, trace.position
            ids, near, sure = self._candidates(node_id, start)
            if not rivals:
                receivers = ids if near == sure else [
                    other for other in ids if sure >> other & 1 or
                    math.dist(position(other, start), tx.pos) <= tx_range]
            else:
                corrupt, exact = self._settled_collisions(rivals, start)
                receivers = []
                for other in ids:
                    if corrupt >> other & 1:
                        continue
                    if sure >> other & 1:
                        if exact >> other & 1 and self._corrupted(
                                rivals, other, position(other, start)):
                            continue
                    else:
                        rpos = position(other, start)
                        if math.dist(rpos, tx.pos) > tx_range or (
                                exact >> other & 1 and self._corrupted(rivals, other, rpos)):
                            continue
                    receivers.append(other)
            if receivers:
                self._schedule_arrivals(now + self._processing_delay, receivers,
                                        (frame.payload, node_id))
            self._finish_frame(self.nodes[node_id])
        else:
            dest = frame.dest
            rpos = trace.position(dest, tx.start)
            if math.dist(rpos, tx.pos) <= tx_range and not (
                    rivals and self._corrupted(rivals, dest, rpos)):
                self._schedule_arrivals(now + self._processing_delay, [dest],
                                        (frame.payload, node_id))
                self._finish_frame(self.nodes[node_id])
            elif frame.attempts <= self._max_retransmissions:
                self._schedule(now, FRAME_SEND, node_id)
            else:
                # a unicast frame carries data
                self.counters.dropped_mac += 1
                self._log(node_id, "frame-txend",
                          f"drop-mac uid={frame.payload.uid[0]}:{frame.payload.uid[1]}")
                self._finish_frame(self.nodes[node_id])
        # prune after the verdicts: a transmission that ended before every
        # other one still on the air began (and before now, the earliest
        # start of any later one) overlaps none of them, so it can never
        # corrupt a frame or busy the channel again.  This one has been
        # judged, so it does not hold the horizon back.
        if alone:
            transmissions.clear()
            return
        horizon = now
        for other in transmissions:
            if other.end >= now and other.start < horizon and other is not tx:
                horizon = other.start
        self._transmissions = [other for other in transmissions if other.end > horizon]

    def _settled_collisions(self, rivals: list[_Transmission],
                            start: float) -> tuple[int, int]:
        """Bit masks of the receivers of a frame that began at ``start``
        whose collision verdict is settled as corrupted, and of those left
        to the exact test of :meth:`_corrupted`; every other receiver is
        clear.

        A rival's transmitter cannot receive.  A rival that began in the
        candidate slot of ``start`` is settled from its transmitter's entry,
        which holds for a receiver's position at ``start`` and the rival's at
        its own start: a sure receiver hears it and one outside ``near``
        does not, so only its ring needs the exact test.  A rival from
        another slot leaves every receiver to the exact test.
        """
        # starts with one slot index read one slot of the table, since it
        # clamps only indices past its last slot onto that slot
        slot = int(start / CANDIDATE_SLOT)
        corrupt = exact = 0
        for other in rivals:
            corrupt |= 1 << other.transmitter
            if int(other.start / CANDIDATE_SLOT) == slot:
                _, near, sure = self._candidates(other.transmitter, other.start)
                corrupt |= sure
                exact |= near & ~sure
            else:
                exact = -1
        return corrupt, exact

    def _corrupted(self, rivals: list[_Transmission], receiver: int,
                   receiver_pos: tuple[float, float]) -> bool:
        """True when one of the overlapping transmissions is audible at the receiver."""
        tx_range = self._tx_range
        for other in rivals:
            if other.transmitter == receiver or math.dist(receiver_pos, other.pos) <= tx_range:
                return True
        return False

    def _finish_frame(self, node: _SimNode) -> None:
        node.current = node.queue.pop(0) if node.queue else None
        if node.current is not None:
            self._schedule(self.now, FRAME_SEND, node.node_id)

    def _on_frame_arrival(self, receivers, payload) -> None:
        """Hand one frame to each of ``receivers`` in order: purge the
        receiver's state, then apply a control message or route a data
        packet.  A data frame is unicast, so its set has one receiver."""
        message, sender = payload
        now = self.now
        nodes = self.nodes
        log = self._event_log
        if isinstance(message, ControlMessage):
            for receiver in receivers:
                node = nodes[receiver]
                state = node.state
                state.purge_expired(now)
                forward = state.process_message(message, sender, now)
                if log is not None:
                    self._log(receiver, "frame-arrival",
                              f"{message.kind} from={sender} origin={message.originator}")
                if forward:
                    copy = message.forwarded_copy()
                    self._enqueue(node, Frame(copy, None, copy.size_bytes))
        else:
            (receiver,) = receivers
            nodes[receiver].state.purge_expired(now)
            message.hop_count += 1
            if log is not None:
                self._log(receiver, "frame-arrival",
                          f"DATA uid={message.uid[0]}:{message.uid[1]} from={sender}")
            self.route_data_packet(message, receiver, now)

    # -- data plane -------------------------------------------------------

    def route_data_packet(self, packet: DataPacket, at: int, now: float) -> None:
        """Deliver, forward, or drop a data packet held by node ``at``."""
        if at == packet.dest:
            self.counters.data_delivered += 1
            self.counters.e2ed_total += now - packet.origin_time
            self.counters.rpl_total += packet.hop_count
            if self._event_log is not None:
                self._log(at, "frame-arrival", f"delivered uid={packet.uid[0]}:"
                          f"{packet.uid[1]} hops={packet.hop_count}")
            return
        if packet.hop_count >= DATA_TTL_HOPS:
            self.counters.dropped_ttl += 1
            if self._event_log is not None:
                self._log(at, "frame-arrival",
                          f"drop-ttl uid={packet.uid[0]}:{packet.uid[1]}")
            return
        node = self.nodes[at]
        route = node.state.routing.get(packet.dest)
        if route is None:
            self.counters.dropped_no_route += 1
            if self._event_log is not None:
                self._log(at, "frame-arrival",
                          f"drop-no-route uid={packet.uid[0]}:{packet.uid[1]}")
            return
        next_hop = route[0]
        self._enqueue(node, Frame(packet, next_hop, packet.size_bytes))

    def _enqueue(self, node: _SimNode, frame: Frame) -> None:
        if node.current is None:
            node.current = frame
            self._schedule(self.now, FRAME_SEND, node.node_id)
        else:
            node.queue.append(frame)


def run_simulation(scenario: ScenarioSpec, config: OlsrConfig, seed: int, *,
                   event_log=None) -> QosMetrics:
    """Simulate the scenario once and return its QoS metrics."""
    return Simulator(scenario, config, seed, event_log=event_log).run()
