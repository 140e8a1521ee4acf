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
from dataclasses import dataclass, replace
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

INTERVAL_RANGE = (1.0, 30.0)
HOLD_RANGE = (3.0, 100.0)


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
        """Raise ValueError listing every field outside its tuning range."""
        problems = []
        for name in ("hello_interval", "refresh_interval", "tc_interval"):
            value = getattr(self, name)
            if not (INTERVAL_RANGE[0] <= value <= INTERVAL_RANGE[1]):
                problems.append(
                    f"{name}={value!r} outside [{INTERVAL_RANGE[0]}, {INTERVAL_RANGE[1]}]"
                )
        if not isinstance(self.willingness, int) or isinstance(self.willingness, bool):
            problems.append(f"willingness={self.willingness!r} is not an integer")
        elif not (WILL_NEVER <= self.willingness <= WILL_ALWAYS):
            problems.append(f"willingness={self.willingness!r} outside [0, 7]")
        for name in ("neighb_hold_time", "top_hold_time", "mid_hold_time", "dup_hold_time"):
            value = getattr(self, name)
            if not (HOLD_RANGE[0] <= value <= HOLD_RANGE[1]):
                problems.append(
                    f"{name}={value!r} outside [{HOLD_RANGE[0]}, {HOLD_RANGE[1]}]"
                )
        for name in ("hello_interval", "refresh_interval", "tc_interval",
                     "neighb_hold_time", "top_hold_time", "mid_hold_time",
                     "dup_hold_time"):
            if not math.isfinite(getattr(self, name)):
                problems.append(f"{name} is not finite")
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

    The repositories this feeds (routing table, MPR set) are recomputed
    eagerly whenever the underlying sets change membership, never on a
    plain expiry refresh, so steady-state traffic is cheap.
    """

    def __init__(self, self_id: int, config: OlsrConfig, *, now: float = 0.0, rng=None):
        self.self_id = self_id
        self.config = config
        # neighbor id -> _Link
        self.links: dict[int, _Link] = {}
        # (via neighbor, target) -> expiry
        self.two_hop: dict[tuple[int, int], float] = {}
        self.mprs: set[int] = set()
        self.uncoverable: frozenset = frozenset()
        # neighbor id -> expiry
        self.mpr_selectors: dict[int, float] = {}
        # (destination, last hop) -> (seq, expiry)
        self.topology: dict[tuple[int, int], tuple[int, float]] = {}
        # highest sequence number seen per TC originator
        self._topo_seq: dict[int, int] = {}
        # (originator, kind, seq) -> expiry
        self.duplicates: dict[tuple[int, str, int], float] = {}
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
            for (via, target) in self.two_hop
            if via in sym and target not in sym and target != self.self_id
        }

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

        neigh_changed = False
        topo_changed = False
        forward = False
        if msg.kind == HELLO:
            neigh_changed = self._apply_hello(msg, sender, now)
        else:
            topo_changed = self._apply_tc(msg, now)
            key = (msg.originator, msg.kind, msg.seq)
            if key not in self.duplicates and msg.ttl > 1 and sender in self.mpr_selectors:
                forward = True
                self.duplicates[key] = now + self.config.dup_hold_time

        if neigh_changed:
            self._reselect_mprs()
        if neigh_changed or topo_changed:
            self.compute_routing_table()
        return forward

    def _apply_hello(self, msg: ControlMessage, sender: int, now: float) -> bool:
        changed = False
        heard_us = any(nbr == self.self_id for nbr, _ in msg.payload)
        old = self.links.get(sender)
        status = LINK_SYM if heard_us else (old.status if old else LINK_ASYM)
        if old is not None and old.status == LINK_SYM and not heard_us:
            # the sender no longer hears us: drop back to one-way
            status = LINK_ASYM
        will = msg.willingness if msg.willingness is not None else WILL_DEFAULT
        if old is None or old.status != status or old.willingness != will:
            changed = True
        self.links[sender] = _Link(status, now + self.config.neighb_hold_time, will)

        # two-hop entries come from the sender's symmetric links only
        listed_sym = set()
        for nbr, code in msg.payload:
            if code in (LINK_SYM, LINK_MPR) and nbr != self.self_id:
                listed_sym.add(nbr)
                key = (sender, nbr)
                if key not in self.two_hop:
                    changed = True
                self.two_hop[key] = now + msg.validity_time
        for key in [k for k in self.two_hop if k[0] == sender and k[1] not in listed_sym]:
            del self.two_hop[key]
            changed = True

        if any(nbr == self.self_id and code == LINK_MPR for nbr, code in msg.payload):
            self.mpr_selectors[sender] = now + msg.validity_time
        return changed

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
        entries = []
        for nbr in sorted(self.links):
            link = self.links[nbr]
            if nbr in self.mprs:
                code = LINK_MPR
            else:
                code = link.status
            entries.append((nbr, code))
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

        Losing a link cascades: two-hop entries reached through that
        neighbor and its MPR-selector registration go with it.  Returns
        True when anything was removed, in which case the MPR set and
        routing table have been recomputed.
        """
        removed = False
        for nbr in [n for n, l in self.links.items() if l.expiry < now]:
            del self.links[nbr]
            removed = True
        for key in [k for k, exp in self.two_hop.items() if exp < now or k[0] not in self.links]:
            del self.two_hop[key]
            removed = True
        for nbr in [n for n, exp in self.mpr_selectors.items()
                    if exp < now or n not in self.links]:
            del self.mpr_selectors[nbr]
            removed = True
        for key in [k for k, (_, exp) in self.topology.items() if exp < now]:
            del self.topology[key]
            removed = True
        for key in [k for k, exp in self.duplicates.items() if exp < now]:
            del self.duplicates[key]
            removed = True
        if removed:
            self._reselect_mprs()
            self.compute_routing_table()
        return removed

    # -- derived tables ---------------------------------------------------

    def _reselect_mprs(self) -> None:
        selection = select_mprs(self.symmetric_neighbors().items(), self.strict_two_hop())
        self.mprs = set(selection.mprs)
        self.uncoverable = selection.uncoverable

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


def _jitter(rng, interval: float) -> float:
    if rng is None:
        return 0.0
    return rng.uniform(0.0, interval / 4.0)
