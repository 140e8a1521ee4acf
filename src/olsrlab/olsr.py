"""Proactive link-state routing core for mobile ad hoc nodes.

Implements the table-driven protocol machinery each node runs: neighbor
sensing from HELLO messages, multipoint relay (MPR) selection over the
two-hop neighborhood, topology dissemination through TC floods, and
shortest-path (hop count) route computation.  Every state transition is
a deterministic function of (state, message, time), so a simulation can
be replayed bit for bit.

Timing knobs live in :class:`OlsrConfig`.  Validity times ride inside
messages: a receiver honors the sender's hold time for TC content
but applies its *own* neighbor hold time to link sensing, which keeps
mixed-configuration experiments well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

HELLO = "HELLO"
TC = "TC"
MESSAGE_KINDS = (HELLO, TC)

# Link codes carried in HELLO payload entries.
LINK_ASYM = "asym"
LINK_SYM = "sym"
LINK_MPR = "mpr"  # symmetric link whose endpoint was chosen as MPR

WILL_NEVER = 0
WILL_DEFAULT = 3
WILL_ALWAYS = 7

CONTROL_TTL = 255  # hop budget for flooded TC messages
MSG_HEADER_BYTES = 16
MSG_ENTRY_BYTES = 8


@dataclass(frozen=True)
class OlsrConfig:
    """The eight tunable protocol timing parameters.

    Defaults are the standard values: 2 s HELLO, 5 s TC, hold times of
    three message periods, and 30 s duplicate memory.

    ``refresh_interval`` and ``mid_hold_time`` time multiple interface
    declarations, which RFC 3626 section 5 sends only from nodes with more
    than one interface.  Every simulated node has one, so these two of the
    eight tuned dimensions have no effect on a simulation; they stay in the
    encoding so that the tuning box matches the paper's.
    """

    hello_interval: float = 2.0
    refresh_interval: float = 2.0
    tc_interval: float = 5.0
    willingness: int = WILL_DEFAULT
    neighb_hold_time: float = 6.0
    top_hold_time: float = 15.0
    mid_hold_time: float = 15.0
    dup_hold_time: float = 30.0

    def validate(self) -> "OlsrConfig":
        """Raise ValueError listing every field a simulation cannot run with.

        Every time must be finite and positive, and willingness an integer
        in [WILL_NEVER, WILL_ALWAYS].  The tuning box the optimizers search
        is narrower; it lives in :func:`olsrlab.params.default_param_space`.

        No lower bound is set on a time, so a tiny interval validates but
        is costly: simulation cost grows as 1/interval.  At seed 1,
        static-mesh-smoke takes 25-32 s at ``hello_interval`` 0.001 against
        0.03 s at the standard 2 s (Python 3.11, 2-CPU host).
        """
        problems = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "willingness" and not (
                    isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                problems.append(f"{f.name}={value!r} is not a finite positive time")
        if not isinstance(self.willingness, int) or isinstance(self.willingness, bool):
            problems.append(f"willingness={self.willingness!r} is not an integer")
        elif not (WILL_NEVER <= self.willingness <= WILL_ALWAYS):
            problems.append(f"willingness={self.willingness!r} outside "
                            f"[{WILL_NEVER}, {WILL_ALWAYS}]")
        if problems:
            raise ValueError("invalid OlsrConfig: " + "; ".join(problems))
        return self

    def as_vector(self) -> tuple[float, ...]:
        return (
            self.hello_interval,
            self.refresh_interval,
            self.tc_interval,
            float(self.willingness),
            self.neighb_hold_time,
            self.top_hold_time,
            self.mid_hold_time,
            self.dup_hold_time,
        )


@dataclass(frozen=True)
class ControlMessage:
    """One routing control message.

    payload layout by kind:
      HELLO -- tuple of (neighbor id, link code) pairs, plus ``willingness``
      TC    -- tuple of MPR-selector node ids
    """

    kind: str
    originator: int
    seq: int
    payload: tuple
    validity_time: float
    ttl: int
    hop_count: int = 0
    willingness: int | None = None

    @property
    def size_bytes(self) -> int:
        # fixed header plus one address-sized entry per payload element
        return MSG_HEADER_BYTES + MSG_ENTRY_BYTES * len(self.payload)

    def forwarded_copy(self) -> "ControlMessage":
        return replace(self, ttl=self.ttl - 1, hop_count=self.hop_count + 1)


class MprSelection(NamedTuple):
    mprs: frozenset
    uncoverable: frozenset


def select_mprs(symmetric_neighbors, two_hop) -> MprSelection:
    """Pick a relay set covering every strict two-hop neighbor.

    symmetric_neighbors: iterable of (node id, willingness) pairs.
    two_hop: iterable of (via neighbor, target) pairs; every via must be a
    symmetric neighbor.

    Neighbors with willingness 7 are always relays; willingness 0 is never
    selected.  Targets that only willingness-0 neighbors reach come back in
    ``uncoverable`` instead of being dropped silently.  The heuristic first
    takes sole covers, then repeatedly the neighbor covering the most still
    uncovered targets, ties broken by higher willingness then lower id.
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
    uncoverable = frozenset(t for t, vias in cover.items() if not vias)

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
    return MprSelection(frozenset(mprs), uncoverable)


class _Link(NamedTuple):
    status: str  # LINK_ASYM or LINK_SYM
    expiry: float
    willingness: int


class NodeState:
    """Per-node protocol state plus the transition rules that mutate it.

    Each event costs work in proportion to what it changed:

    * ``_next_expiry`` is a lower bound on every stored expiry; every write
      of an expiry lowers it.  :meth:`purge_expired` returns at once while
      ``now`` has not passed it, and after a sweep sets it to the earliest
      expiry left.
    * ``two_hop`` is bucketed by the neighbor that advertised it, so a
      HELLO replaces one bucket and a lost link drops one.
    * The MPR set is a pure function of the symmetric links and the
      two-hop set.  A change to either marks it stale, and it is selected
      again when next read (``mprs``, ``uncoverable``).
    * The routing table depends on the links and the topology only.  It
      stays eager, because the simulator reads ``routing`` directly, and
      is recomputed when a link appears, disappears or changes status or
      willingness, or a topology tuple appears or disappears; an expiry
      refresh or a change to the two-hop set, the MPR selectors or the
      duplicate set leaves it alone.
    """

    def __init__(self, self_id: int, config: OlsrConfig, *, now: float = 0.0, rng=None):
        self.self_id = self_id
        self.config = config
        # neighbor id -> _Link
        self.links: dict[int, _Link] = {}
        # advertising neighbor -> {target: expiry}; no bucket is empty
        self.two_hop: dict[int, dict[int, float]] = {}
        # the MPR selection; None until made, and again once links or
        # two-hop entries change
        self._selection: MprSelection | None = None
        # neighbor id -> expiry
        self.mpr_selectors: dict[int, float] = {}
        # (destination, last hop) -> (seq, expiry)
        self.topology: dict[tuple[int, int], tuple[int, float]] = {}
        # highest sequence number seen per TC originator
        self._topo_seq: dict[int, int] = {}
        # (originator, kind, seq) -> expiry
        self.duplicates: dict[tuple[int, str, int], float] = {}
        # no stored tuple expires before this time
        self._next_expiry = math.inf
        # destination -> (next hop, hop count)
        self.routing: dict[int, tuple[int, int]] = {}
        self._seq = {HELLO: 0, TC: 0}
        self._next_emit = {
            HELLO: now + config.hello_interval - _jitter(rng, config.hello_interval),
            TC: now + config.tc_interval - _jitter(rng, config.tc_interval),
        }

    # -- views ---------------------------------------------------------

    def symmetric_neighbors(self) -> dict[int, int]:
        """Symmetric neighbor id -> advertised willingness."""
        return {n: l.willingness for n, l in self.links.items() if l.status == LINK_SYM}

    def strict_two_hop(self) -> set[tuple[int, int]]:
        sym = self.symmetric_neighbors()
        return {
            (via, target)
            for via in sym
            for target in self.two_hop.get(via, ())
            if target not in sym and target != self.self_id
        }

    @property
    def mprs(self) -> frozenset:
        return self._mpr_selection().mprs

    @property
    def uncoverable(self) -> frozenset:
        return self._mpr_selection().uncoverable

    # -- message processing --------------------------------------------

    def process_message(self, msg: ControlMessage, sender: int, now: float) -> bool:
        """Apply one received message; return whether to forward it.

        Only TC floods: the decision is True iff the message is not a
        duplicate, has hop budget left, and arrived from a neighbor that
        selected us as MPR.  HELLO messages never travel more than one hop.
        """
        if msg.kind not in MESSAGE_KINDS:
            raise ValueError(f"unknown message kind {msg.kind!r}")
        if msg.originator == self.self_id:
            return False

        if msg.kind == HELLO:
            links_changed, two_hop_changed = self._apply_hello(msg, sender, now)
            if links_changed or two_hop_changed:
                self._selection = None
            if links_changed:
                self.compute_routing_table()
            return False

        if self._apply_tc(msg, now):
            self.compute_routing_table()
        key = (msg.originator, msg.kind, msg.seq)
        if key in self.duplicates or msg.ttl <= 1 or sender not in self.mpr_selectors:
            return False
        expiry = now + self.config.dup_hold_time
        self.duplicates[key] = expiry
        self._next_expiry = min(self._next_expiry, expiry)
        return True

    def _apply_hello(self, msg: ControlMessage, sender: int, now: float) -> tuple[bool, bool]:
        """Return whether the links and whether the two-hop set changed membership."""
        heard_us = selected_us = False
        expiry = now + msg.validity_time
        # two-hop entries come from the sender's symmetric links only
        bucket = {}
        for nbr, code in msg.payload:
            if nbr == self.self_id:
                heard_us = True
                selected_us = selected_us or code == LINK_MPR
            elif code in (LINK_SYM, LINK_MPR):
                bucket[nbr] = expiry

        # the sender is symmetric while it hears us, one-way otherwise
        status = LINK_SYM if heard_us else LINK_ASYM
        will = msg.willingness if msg.willingness is not None else WILL_DEFAULT
        old = self.links.get(sender)
        links_changed = old is None or old.status != status or old.willingness != will
        link_expiry = now + self.config.neighb_hold_time
        self.links[sender] = _Link(status, link_expiry, will)

        old_bucket = self.two_hop.pop(sender, {})
        if bucket:
            self.two_hop[sender] = bucket
        two_hop_changed = bucket.keys() != old_bucket.keys()

        if selected_us:
            self.mpr_selectors[sender] = expiry
        self._next_expiry = min(self._next_expiry, link_expiry, expiry)
        return links_changed, two_hop_changed

    def _apply_tc(self, msg: ControlMessage, now: float) -> bool:
        origin = msg.originator
        last = self._topo_seq.get(origin)
        if last is not None and msg.seq <= last:
            return False  # stale or replayed advertisement
        self._topo_seq[origin] = msg.seq
        before = {key for key in self.topology if key[1] == origin}
        for key in before:
            del self.topology[key]
        expiry = now + msg.validity_time
        after = set()
        for dest in msg.payload:
            if dest == self.self_id:
                continue
            key = (dest, origin)
            self.topology[key] = (msg.seq, expiry)
            after.add(key)
        self._next_expiry = min(self._next_expiry, expiry)
        return before != after

    # -- periodic emission ----------------------------------------------

    def emit_periodic(self, now: float, rng=None):
        """Build every message due at ``now`` and advance its schedule.

        Returns (messages, next emission times by kind).  Emission times
        step by the configured interval minus a uniform jitter in
        [0, interval/4) when an rng is supplied.  A TC is withheld while
        nobody selects us as relay, but the schedule keeps ticking.
        """
        messages = []
        cfg = self.config
        if self._due(HELLO, now):
            self._next_emit[HELLO] = now + cfg.hello_interval - _jitter(rng, cfg.hello_interval)
            messages.append(self._make_hello())
        if self._due(TC, now):
            self._next_emit[TC] = now + cfg.tc_interval - _jitter(rng, cfg.tc_interval)
            if self.mpr_selectors:
                messages.append(self._make_tc())
        return messages, dict(self._next_emit)

    def next_emission(self) -> float:
        return min(self._next_emit.values())

    def _due(self, kind: str, now: float) -> bool:
        return self._next_emit[kind] <= now + 1e-12

    def _bump_seq(self, kind: str) -> int:
        self._seq[kind] += 1
        return self._seq[kind]

    def _make_hello(self) -> ControlMessage:
        mprs = self.mprs
        entries = [(nbr, LINK_MPR if nbr in mprs else self.links[nbr].status)
                   for nbr in sorted(self.links)]
        return ControlMessage(
            kind=HELLO,
            originator=self.self_id,
            seq=self._bump_seq(HELLO),
            payload=tuple(entries),
            validity_time=self.config.neighb_hold_time,
            ttl=1,
            willingness=self.config.willingness,
        )

    def _make_tc(self) -> ControlMessage:
        return ControlMessage(
            kind=TC,
            originator=self.self_id,
            seq=self._bump_seq(TC),
            payload=tuple(sorted(self.mpr_selectors)),
            validity_time=self.config.top_hold_time,
            ttl=CONTROL_TTL,
        )

    # -- expiry ----------------------------------------------------------

    def purge_expired(self, now: float) -> bool:
        """Drop every tuple whose expiry lies strictly in the past.

        Losing a link cascades: the two-hop bucket advertised by that
        neighbor and its MPR-selector registration go with it.  Returns
        True when anything was removed.  Costs O(1) while ``now`` has not
        passed the earliest-expiry watermark.
        """
        if now <= self._next_expiry:
            return False
        dead_links = [n for n, l in self.links.items() if l.expiry < now]
        for nbr in dead_links:
            del self.links[nbr]
            self.two_hop.pop(nbr, None)
            self.mpr_selectors.pop(nbr, None)
        two_hop_removed = False
        for via, bucket in list(self.two_hop.items()):
            two_hop_removed |= _drop_expired(bucket, now)
            if not bucket:
                del self.two_hop[via]
        dead_topology = [k for k, (_, exp) in self.topology.items() if exp < now]
        for key in dead_topology:
            del self.topology[key]
        other_removed = _drop_expired(self.mpr_selectors, now)
        other_removed |= _drop_expired(self.duplicates, now)

        self._next_expiry = min(
            [l.expiry for l in self.links.values()]
            + [exp for bucket in self.two_hop.values() for exp in bucket.values()]
            + [exp for _, exp in self.topology.values()]
            + list(self.mpr_selectors.values())
            + list(self.duplicates.values()),
            default=math.inf,
        )
        if dead_links or two_hop_removed:
            self._selection = None
        if dead_links or dead_topology:
            self.compute_routing_table()
        return bool(dead_links or two_hop_removed or dead_topology or other_removed)

    # -- derived tables ---------------------------------------------------

    def _mpr_selection(self) -> MprSelection:
        if self._selection is None:
            self._selection = select_mprs(self.symmetric_neighbors().items(),
                                          self.strict_two_hop())
        return self._selection

    def compute_routing_table(self) -> dict[int, tuple[int, int]]:
        self.routing = compute_routing_table(self)
        return self.routing


def compute_routing_table(state: NodeState) -> dict[int, tuple[int, int]]:
    """Hop-count shortest paths over symmetric links plus advertised topology.

    Returns destination -> (next hop, hop count).  Every next hop is a
    symmetric one-hop neighbor.  Among equal-length paths the lowest
    next-hop id wins; table iteration order is by destination id.
    """
    sym = sorted(state.symmetric_neighbors())
    adj: dict[int, set[int]] = {}
    for (dest, last), _ in state.topology.items():
        adj.setdefault(last, set()).add(dest)

    dist = {state.self_id: 0}
    via: dict[int, int] = {}
    for n in sym:
        dist[n] = 1
        via[n] = n
    frontier = list(sym)
    hops = 1
    while frontier:
        layer: dict[int, int] = {}
        for u in frontier:
            for v in adj.get(u, ()):
                if v in dist:
                    continue
                cand = via[u]
                if v not in layer or cand < layer[v]:
                    layer[v] = cand
        hops += 1
        for v, nh in layer.items():
            dist[v] = hops
            via[v] = nh
        frontier = list(layer)
    return {d: (via[d], dist[d]) for d in sorted(dist) if d != state.self_id}


def _drop_expired(table: dict, now: float) -> bool:
    """Delete every entry of a key -> expiry table that lies strictly in the past."""
    dead = [key for key, expiry in table.items() if expiry < now]
    for key in dead:
        del table[key]
    return bool(dead)


def _jitter(rng, interval: float) -> float:
    if rng is None:
        return 0.0
    return rng.uniform(0.0, interval / 4.0)
