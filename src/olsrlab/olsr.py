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
from dataclasses import dataclass, fields

HELLO = "HELLO"
TC = "TC"
MESSAGE_KINDS = (HELLO, TC)

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

        Every time must be a finite positive int or float (a bool is
        neither), and willingness an integer in [WILL_NEVER, WILL_ALWAYS].  The tuning box the optimizers search
        is narrower; it lives in :data:`olsrlab.params.LOWER` and ``UPPER``.

        No lower bound is set on a time, so a tiny interval validates but
        is costly: simulation cost grows as 1/interval.  At seed 1,
        static-mesh-smoke takes 25-32 s at ``hello_interval`` 0.001 against
        0.03 s at the standard 2 s (Python 3.11, 2-CPU host).
        """
        problems = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "willingness" and not (
                    isinstance(value, (int, float)) and not isinstance(value, bool)
                    and math.isfinite(value) and value > 0):
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
        return tuple(float(getattr(self, f.name)) for f in fields(self))


@dataclass(frozen=True)
class ControlMessage:
    """One routing control message.

    Its lists are bit masks, bit n for node n, like every neighbor set in
    this module, and the sender builds them once for every receiver:
      HELLO -- ``listed``: every link, whatever its state;
               ``symmetric_listed``: the symmetric links, relays included;
               ``mpr_listed``: the chosen relays; plus ``willingness``.
               So ``mpr_listed`` lies within ``symmetric_listed``, which
               lies within ``listed``, and a node is listed at most once.
      TC    -- ``listed``: the MPR selectors; the other two masks are 0.

    The header's hop count is not modelled: nothing reads it, so a
    forwarded copy only spends TTL.  Its bytes stay in ``MSG_HEADER_BYTES``.
    """

    kind: str
    originator: int
    seq: int
    validity_time: float
    ttl: int
    listed: int
    symmetric_listed: int = 0
    mpr_listed: int = 0
    willingness: int = WILL_DEFAULT

    @property
    def size_bytes(self) -> int:
        # fixed header plus one address-sized entry per listed node
        return MSG_HEADER_BYTES + MSG_ENTRY_BYTES * self.listed.bit_count()

    def forwarded_copy(self) -> "ControlMessage":
        return ControlMessage(self.kind, self.originator, self.seq, self.validity_time,
                              self.ttl - 1, self.listed, self.symmetric_listed,
                              self.mpr_listed, self.willingness)


def select_mprs(will: dict, cover) -> int:
    """Pick a relay set covering every strict two-hop neighbor; return its mask.

    will: symmetric neighbor id -> willingness.
    cover: mapping of two-hop target -> bit mask of the neighbors that reach
    it (bit n for node n, as :meth:`NodeState.strict_two_hop` returns); every
    such neighbor must be symmetric.  Targets that are themselves symmetric
    neighbors need no relay and are skipped.

    Neighbors with willingness 7 are always relays; willingness 0 is never
    selected, so a target that only willingness-0 neighbors reach stays
    uncovered.  The heuristic first takes sole covers, then repeatedly the
    neighbor covering the most still uncovered targets, ties broken by
    higher willingness then lower id.  Only neighbors that cover an
    uncovered target are scored, since the winner always covers at least
    one.
    """
    symmetric = willing = always = 0
    for n, w in will.items():
        bit = 1 << n
        symmetric |= bit
        if w > WILL_NEVER:
            willing |= bit
            if w == WILL_ALWAYS:
                always |= bit

    usable: dict = {}  # strict target -> willing vias
    for target, vias in cover.items():
        if vias & ~symmetric:
            stray = next(_ids(vias & ~symmetric))
            raise ValueError(f"two-hop via {stray!r} is not a symmetric neighbor")
        if target not in will and vias & willing:
            usable[target] = vias & willing

    mprs = always
    uncovered = [t for t, vias in usable.items() if not vias & mprs]
    # sole covers are forced picks
    for target in uncovered:
        vias = usable[target]
        if not vias & (vias - 1):
            mprs |= vias
    uncovered = [t for t in uncovered if not usable[t] & mprs]
    while uncovered:
        # counts[k]: the neighbors covering more than k uncovered targets,
        # so the last entry holds those covering the most
        counts = [0]
        for target in uncovered:
            vias = usable[target]
            if counts[-1] & vias:
                counts.append(0)
            for k in range(len(counts) - 1, 0, -1):
                counts[k] |= counts[k - 1] & vias
            counts[0] |= vias
        # ascending ids, so max keeps the lowest id among the most willing
        best = max(_ids(counts[-1]), key=will.__getitem__)
        mprs |= 1 << best
        uncovered = [t for t in uncovered if not usable[t] >> best & 1]
    return mprs


def _ids(mask: int):
    """Yield the node ids whose bits are set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(ids) -> int:
    """The bit mask with bit n set for each node id n in ``ids``."""
    mask = 0
    for n in ids:
        mask |= 1 << n
    return mask


class NodeState:
    """Per-node protocol state plus the transition rules that mutate it.

    Every neighbor set is a bit mask, bit n for node n, so node ids are
    non-negative, as a scenario's 0..n-1 are.  ``links`` maps each
    neighbor heard to its link's expiry, and ``neighbor_willingness`` the
    same keys to the willingness of the neighbor's latest HELLO; a HELLO
    that refreshes a link rewrites one float and writes the willingness
    only when it changed.  ``symmetric`` is the mask of the links whose
    sender's latest HELLO listed us; it lies within the keys of ``links``,
    and only the two writers of ``links`` (:meth:`process_message` and
    :meth:`purge_expired`) change it.  Each event costs work in proportion
    to what it changed:

    * Two watermarks guard the expiry sweep, each for its own tables.
      ``_table_expiry`` is a lower bound on every expiry in ``links``,
      ``two_hop``, ``topology`` and ``mpr_selectors``; every write of one
      of those expiries lowers it, and a sweep of those tables sets it to
      the earliest expiry left, in the same pass that finds the dead
      entries.  ``_duplicate_front`` is the expiry of the first entry of
      ``duplicates`` (inf while there is none).  :meth:`purge_expired`
      returns at once while ``now`` has passed neither, sweeps the tables
      only once ``now`` passes ``_table_expiry``, and drops duplicates from
      the front only once ``now`` passes ``_duplicate_front``.
    * ``two_hop`` and ``topology`` hold one bucket per advertising node:
      the mask of the nodes it advertises, with one expiry for the whole
      bucket, because one message writes every entry of it with the same
      validity.  A HELLO or a fresh TC replaces one bucket, and the sweep
      visits buckets, not entries.  A HELLO carries its lists as masks
      (``ControlMessage.symmetric_listed``), so a HELLO whose sender's
      bucket is unchanged costs one integer comparison.
    * ``duplicates`` maps the (originator, seq) of every TC we forwarded to
      its expiry.  Every entry is inserted ``dup_hold_time`` after a
      nondecreasing ``now``, so the dict is in expiry order and its front
      is its earliest expiry.
    * The MPR selection reads exactly the ``symmetric`` mask, each
      symmetric neighbor's willingness and the strict two-hop set: the
      targets outside ``symmetric`` that a symmetric neighbor's bucket
      lists.  A HELLO drops it only when it changes ``symmetric``, changes
      a symmetric sender's willingness, or adds or removes a target
      outside ``symmetric`` in a symmetric sender's bucket, as RFC 3626
      section 8.3.1 asks.  A refresh, a one-way link or a bucket change
      of a target that is itself a symmetric neighbor keeps it.  Once
      dropped it is selected again when ``mprs`` is next read.
    * The routing table reads exactly the ``symmetric`` mask and the
      topology buckets.  A change to ``symmetric`` marks it stale, and so
      does a TC whose new bucket can change the table (the rule is in
      :meth:`_apply_tc`); reading ``routing`` recomputes it.  Routes to
      two-hop neighbors (RFC 3626 section 10, step 3; ROADMAP item 3)
      will read the two-hop buckets too, and a bucket change must then
      mark the routes stale as well.
    * The expiry sweep keeps a coarser rule for the selection: a dead
      symmetric link or any dead two-hop bucket drops it.  A dead
      symmetric link marks the routes stale, and so does a dead topology
      bucket whose loss can change the table, by :meth:`_apply_tc`'s rule.
      A dead one-way link drops neither: the selection and the routes
      never read it or its bucket.

    Every call passes a time ``now`` that never decreases from one call to
    the next; the front drop of ``duplicates`` relies on it.  Expired
    tuples stay stored until :meth:`purge_expired` runs, so a caller
    purges at ``now`` before it reads the state; the simulator does so at
    the start of every handler that reads it, and nothing else reads it.
    """

    def __init__(self, self_id: int, config: OlsrConfig, *, rng=None):
        self.self_id = self_id
        self.config = config
        # neighbor id -> link expiry
        self.links: dict[int, float] = {}
        # neighbor id -> advertised willingness; the same keys as links
        self.neighbor_willingness: dict[int, int] = {}
        # the links whose sender lists us; within the keys of links
        self.symmetric = 0
        # advertising neighbor -> (targets mask, expiry); no mask is zero
        self.two_hop: dict[int, tuple[int, float]] = {}
        # the mask of the selected relays; None until made, and again once
        # one of its inputs changes (see the class docstring)
        self._selection: int | None = None
        # neighbor id -> expiry
        self.mpr_selectors: dict[int, float] = {}
        # last hop (TC originator) -> (destinations mask, expiry); no mask
        # is zero
        self.topology: dict[int, tuple[int, float]] = {}
        # highest sequence number seen per TC originator
        self._topo_seq: dict[int, int] = {}
        # (originator, seq) of a forwarded TC -> expiry, nondecreasing in
        # insertion order
        self.duplicates: dict[tuple[int, int], float] = {}
        # no link, bucket or selector expires before this time
        self._table_expiry = math.inf
        # the expiry of the first duplicate, inf while there is none
        self._duplicate_front = math.inf
        # destination -> (next hop, hop count), valid unless _routing_stale
        self._routing: dict[int, tuple[int, int]] = {}
        self._routing_stale = False
        # the last sequence number sent, and the next emission time, per kind
        self._hello_seq = self._tc_seq = 0
        self._next_hello = config.hello_interval - _jitter(rng, config.hello_interval)
        self._next_tc = config.tc_interval - _jitter(rng, config.tc_interval)

    # -- views ---------------------------------------------------------

    def symmetric_neighbors(self) -> dict[int, int]:
        """Symmetric neighbor id -> advertised willingness, by ascending id."""
        will = self.neighbor_willingness
        neighbors = {}
        mask = self.symmetric
        while mask:  # a bit loop, not _ids: this runs for every relay selection
            low = mask & -mask
            n = low.bit_length() - 1
            neighbors[n] = will[n]
            mask ^= low
        return neighbors

    def strict_two_hop(self) -> dict[int, int]:
        """Strict two-hop target -> bit mask of the symmetric neighbors that reach it.

        A strict target is no symmetric neighbor and not ourselves (no
        bucket lists us).  Walks the buckets of the symmetric neighbors, so
        it costs O(two-hop buckets + strict entries in the symmetric
        neighbors' buckets).  The map is built in via order, not target
        order; :func:`select_mprs` reads it in any order.
        """
        symmetric = self.symmetric
        cover: dict[int, int] = {}
        for via, (mask, _) in self.two_hop.items():
            if not symmetric >> via & 1:
                continue
            bit = 1 << via
            targets = mask & ~symmetric
            while targets:  # a bit loop, not _ids: this runs per selection
                low = targets & -targets
                target = low.bit_length() - 1
                cover[target] = cover.get(target, 0) | bit
                targets ^= low
        return cover

    @property
    def mprs(self) -> int:
        """The mask of the selected relays, selected again when stale."""
        if self._selection is None:
            self._selection = select_mprs(self.symmetric_neighbors(), self.strict_two_hop())
        return self._selection

    @property
    def routing(self) -> dict[int, tuple[int, int]]:
        """Destination -> (next hop, hop count), recomputed when stale."""
        if self._routing_stale:
            # cleared first, so a wrapper of compute_routing_table that
            # reads ``routing`` sees the previous table
            self._routing_stale = False
            self._routing = compute_routing_table(self)
        return self._routing

    # -- message processing --------------------------------------------

    def process_message(self, msg: ControlMessage, sender: int, now: float) -> bool:
        """Apply one received message; return whether to forward it.

        Only TC floods: the decision is True iff the message is not a
        duplicate, has hop budget left, and arrived from a neighbor that
        selected us as MPR.  HELLO messages never travel more than one hop.
        """
        kind = msg.kind
        if kind not in MESSAGE_KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        self_id = self.self_id
        if msg.originator == self_id:
            return False

        if kind == HELLO:
            # the sender is symmetric while it lists us, one-way otherwise;
            # link sensing uses our own hold time, two-hop entries and the
            # selector registration the sender's validity
            bit = 1 << sender
            old_symmetric = self.symmetric
            if msg.listed >> self_id & 1:
                symmetric = old_symmetric | bit
            else:
                symmetric = old_symmetric & ~bit
            will = msg.willingness
            will_changed = self.neighbor_willingness.get(sender) != will
            if will_changed:
                self.neighbor_willingness[sender] = will
            link_expiry = now + self.config.neighb_hold_time
            self.links[sender] = link_expiry
            expiry = now + msg.validity_time

            # two-hop entries come from the sender's symmetric links only:
            # the bucket is the listed mask less us
            mask = msg.symmetric_listed & ~(1 << self_id)
            bucket = self.two_hop.get(sender)
            flipped = mask ^ bucket[0] if bucket is not None else mask
            if mask:
                self.two_hop[sender] = (mask, expiry)
            elif bucket is not None:
                del self.two_hop[sender]

            if msg.mpr_listed >> self_id & 1:
                self.mpr_selectors[sender] = expiry
            earliest = link_expiry if link_expiry < expiry else expiry
            if earliest < self._table_expiry:
                self._table_expiry = earliest

            if symmetric != old_symmetric:
                self.symmetric = symmetric
                self._selection = None
                self._routing_stale = True
            elif symmetric & bit and (will_changed or flipped & ~symmetric):
                self._selection = None
            return False

        if self._apply_tc(msg, now):
            self._routing_stale = True
        key = (msg.originator, msg.seq)
        duplicates = self.duplicates
        if key in duplicates or msg.ttl <= 1 or sender not in self.mpr_selectors:
            return False
        expiry = now + self.config.dup_hold_time
        if not duplicates:
            # later entries expire no earlier, so only the first sets the front
            self._duplicate_front = expiry
        duplicates[key] = expiry
        return True

    def _apply_tc(self, msg: ControlMessage, now: float) -> bool:
        """Apply a TC's advertisement; return whether the new bucket can
        change the routing table.

        A TC whose seq is above every seq seen from its originator replaces
        the originator's bucket, and any other TC is ignored.  The seq
        stands in for RFC 3626's ANSN, and two rules deviate from its
        section 9.5:

        * the highest seq per originator (``_topo_seq``) is never purged,
          so a TC with an older seq is still refused after the bucket has
          expired, where the RFC accepts it because no tuple remains;
        * a TC with an equal seq does not refresh the bucket's expiry,
          where the RFC refreshes every tuple it lists.  A node bumps the
          seq for every TC it sends, so an equal seq is a copy of a TC
          already applied.

        A bucket whose destinations are unchanged cannot change the table.
        Nor can a changed one while the routes are current and either

        * the originator ``o`` has no route, since the search reads only
          the buckets of the nodes it reaches; or
        * with ``(nh, h)`` the route to ``o``, every added destination
          already has a route of fewer than ``h + 1`` hops, or of ``h + 1``
          hops through a next hop ``<= nh``, and no removed destination
          has the route ``(nh, h + 1)``.

        The argument for the second case: :func:`compute_routing_table`
        gives each destination its breadth-first distance ``d`` and the
        least next hop among its predecessors at distance ``d - 1``, where
        ``o`` offers ``nh`` at ``h`` to the destinations it lists.  An added
        edge from ``o`` to a node at ``h + 1`` hops or fewer shortens no
        path, and at ``h + 1`` it offers ``nh``, which the node's own next
        hop already does not exceed.  A removed destination at fewer than
        ``h + 1`` hops lost an edge no shortest path uses; one at ``h + 1``
        with a next hop other than ``nh`` has a lower one, so another
        predecessor at ``h`` hops offers it and keeps both its distance
        and its next hop.  So every distance and next hop stays, and the
        table is the one stored.
        """
        origin = msg.originator
        last = self._topo_seq.get(origin)
        if last is not None and msg.seq <= last:
            return False  # stale or replayed advertisement
        self._topo_seq[origin] = msg.seq
        old_dests = self.topology.pop(origin, (0, None))[0]
        dests = msg.listed & ~(1 << self.self_id)
        if dests:
            expiry = now + msg.validity_time
            self.topology[origin] = (dests, expiry)
            if expiry < self._table_expiry:
                self._table_expiry = expiry
        changed = dests ^ old_dests
        if not changed:
            return False
        return self._routing_stale or self._moves_routes(origin, changed & dests,
                                                         changed & old_dests)

    def _moves_routes(self, origin: int, added: int, removed: int) -> bool:
        """Whether adding the ``added`` and removing the ``removed``
        destinations of ``origin``'s topology bucket can change the current
        routing table, by the rule that :meth:`_apply_tc` states."""
        routing = self._routing
        route = routing.get(origin)
        if route is None:
            return False
        next_hop, hops = route
        hops += 1
        # bit loops, not _ids: most TCs that change a bucket come here
        while added:
            low = added & -added
            old = routing.get(low.bit_length() - 1)
            if old is None or old[1] > hops or old[1] == hops and old[0] > next_hop:
                return True
            added ^= low
        through = (next_hop, hops)
        while removed:
            low = removed & -removed
            if routing.get(low.bit_length() - 1) == through:
                return True
            removed ^= low
        return False

    # -- periodic emission ----------------------------------------------

    def emit_periodic(self, now: float, rng=None):
        """Build every message due at ``now`` and advance its schedule.

        Returns the messages; :meth:`next_emission` gives the next time.
        Emission times step by the configured interval minus a uniform
        jitter in [0, interval/4) when an rng is supplied.  A TC is withheld while
        nobody selects us as relay, but the schedule keeps ticking.
        """
        messages = []
        cfg = self.config
        if self._next_hello <= now + 1e-12:
            self._next_hello = now + cfg.hello_interval - _jitter(rng, cfg.hello_interval)
            messages.append(self._make_hello())
        if self._next_tc <= now + 1e-12:
            self._next_tc = now + cfg.tc_interval - _jitter(rng, cfg.tc_interval)
            if self.mpr_selectors:
                messages.append(self._make_tc())
        return messages

    def next_emission(self) -> float:
        return min(self._next_hello, self._next_tc)

    def _make_hello(self) -> ControlMessage:
        self._hello_seq += 1
        return ControlMessage(
            kind=HELLO,
            originator=self.self_id,
            seq=self._hello_seq,
            validity_time=self.config.neighb_hold_time,
            ttl=1,
            listed=_mask(self.links),
            symmetric_listed=self.symmetric,
            mpr_listed=self.mprs,
            willingness=self.config.willingness,
        )

    def _make_tc(self) -> ControlMessage:
        self._tc_seq += 1
        return ControlMessage(
            kind=TC,
            originator=self.self_id,
            seq=self._tc_seq,
            validity_time=self.config.top_hold_time,
            ttl=CONTROL_TTL,
            listed=_mask(self.mpr_selectors),
        )

    # -- expiry ----------------------------------------------------------

    def purge_expired(self, now: float) -> bool:
        """Drop every tuple whose expiry lies strictly in the past.

        Losing a link cascades: the two-hop bucket advertised by that
        neighbor and its MPR-selector registration go with it.  Returns
        True when anything was removed.  Returns after two comparisons
        while ``now`` has passed neither the table watermark nor the
        duplicate front (see the class docstring).  Costs O(duplicates
        removed) once it passes only the duplicate front, and one pass over
        links, buckets and selectors once it passes the table watermark.
        ``now`` must not decrease between calls.
        """
        if now <= self._table_expiry and now <= self._duplicate_front:
            return False
        removed = False
        if now > self._duplicate_front:
            removed = True  # the first duplicate at least
            duplicates = self.duplicates
            dead = []
            front = math.inf
            for key, expiry in duplicates.items():
                if expiry >= now:
                    front = expiry
                    break
                dead.append(key)
            for key in dead:
                del duplicates[key]
            self._duplicate_front = front
        if now > self._table_expiry and self._sweep_tables(now):
            removed = True
        return removed

    def _sweep_tables(self, now: float) -> bool:
        """Drop the expired links, buckets and selectors, set the table
        watermark to the earliest expiry left, and return whether anything
        was removed."""
        links = self.links
        dead_links, earliest = _expired(links, now)
        lost = 0  # the symmetric links among the dead
        for nbr in dead_links:
            del links[nbr]
            del self.neighbor_willingness[nbr]
            lost |= self.symmetric & 1 << nbr
            self.two_hop.pop(nbr, None)
            self.mpr_selectors.pop(nbr, None)
        if lost:
            self.symmetric ^= lost
            self._selection = None
            self._routing_stale = True
        # the dead links' buckets and selectors are gone, so the passes
        # below see only what survives the cascade
        dead_two_hop, two_hop_earliest = _expired_buckets(self.two_hop, now)
        for via in dead_two_hop:
            del self.two_hop[via]
            self._selection = None
        dead_topology, topology_earliest = _expired_buckets(self.topology, now)
        for last in dead_topology:
            # a loss that moves no route leaves the stored table current
            # for the next one
            lost_dests = self.topology.pop(last)[0]
            if not self._routing_stale and self._moves_routes(last, 0, lost_dests):
                self._routing_stale = True
        dead_selectors, selectors_earliest = _expired(self.mpr_selectors, now)
        for nbr in dead_selectors:
            del self.mpr_selectors[nbr]
        self._table_expiry = min(earliest, two_hop_earliest, topology_earliest,
                                 selectors_earliest)
        return bool(dead_links or dead_two_hop or dead_topology or dead_selectors)


def compute_routing_table(state: NodeState) -> dict[int, tuple[int, int]]:
    """Hop-count shortest paths over symmetric links plus advertised topology.

    Returns destination -> (next hop, hop count).  Every next hop is a
    symmetric one-hop neighbor.  Among equal-length paths the lowest
    next-hop id wins.

    The search keeps each frontier in nondecreasing next-hop order, so the
    first frontier node to reach a destination offers the lowest next hop.
    """
    sym = list(_ids(state.symmetric))
    topology = state.topology
    reached = state.symmetric | 1 << state.self_id
    table = {n: (n, 1) for n in sym}
    frontier = sym
    hops = 1
    while frontier:
        hops += 1
        layer = []
        for u in frontier:
            bucket = topology.get(u)
            if bucket is None:
                continue
            fresh = bucket[0] & ~reached
            if fresh:
                reached |= fresh
                entry = (table[u][0], hops)
                for v in _ids(fresh):
                    table[v] = entry
                    layer.append(v)
        frontier = layer
    return table


def _expired(table: dict, now: float) -> tuple[list, float]:
    """The keys of a key -> expiry table that lie strictly in the past, and
    the earliest expiry of the others (inf if none), in one pass."""
    dead = []
    earliest = math.inf
    for key, expiry in table.items():
        if expiry < now:
            dead.append(key)
        elif expiry < earliest:
            earliest = expiry
    return dead, earliest


def _expired_buckets(table: dict, now: float) -> tuple[list, float]:
    """:func:`_expired` for a key -> (mask, expiry) bucket table."""
    dead = []
    earliest = math.inf
    for key, (_, expiry) in table.items():
        if expiry < now:
            dead.append(key)
        elif expiry < earliest:
            earliest = expiry
    return dead, earliest


def _jitter(rng, interval: float) -> float:
    if rng is None:
        return 0.0
    # rng.uniform(0.0, w) bit for bit, which returns 0.0 + (w - 0.0) * r
    return interval / 4.0 * rng.random()
