"""Protocol core: link sensing, relay selection, topology, routing, expiry.

Relay selection is checked against a brute-force minimum set cover and the
routing table against plain breadth-first search, both from oracles.py.
"""

import random

import pytest

from olsrlab.olsr import (
    CONTROL_TTL,
    HELLO,
    TC,
    WILL_ALWAYS,
    WILL_DEFAULT,
    WILL_NEVER,
    ControlMessage,
    NodeState,
    OlsrConfig,
    compute_routing_table,
    select_mprs,
)

from oracles import (
    INF,
    bfs_hops,
    bits,
    brute_minimum_cover,
    cover_map,
    coverage_sets,
    random_neighborhood,
    random_snapshot,
    reference_next_hops,
    reference_select_mprs,
)


def mask(ids):
    return sum(1 << n for n in set(ids))


def hello(origin, asym=(), sym=(), mpr=(), *, seq=1, validity=6.0,
          willingness=WILL_DEFAULT):
    """A HELLO listing one-way links ``asym``, symmetric links ``sym`` and
    relays ``mpr``, its masks unioned as a sender's: mpr within symmetric
    within listed."""
    mpr_listed = mask(mpr)
    symmetric_listed = mask(sym) | mpr_listed
    return ControlMessage(HELLO, origin, seq, validity, 1, mask(asym) | symmetric_listed,
                          symmetric_listed, mpr_listed, willingness=willingness)


def tc(origin, selectors, *, seq=1, validity=15.0, ttl=CONTROL_TTL):
    return ControlMessage(TC, origin, seq, validity, ttl, mask(selectors))


def link(state, n, *, symmetric=True):
    """Store a never-expiring link to ``n``, as a HELLO from it would."""
    state.links[n] = INF
    state.neighbor_willingness[n] = WILL_DEFAULT
    if symmetric:
        state.symmetric |= 1 << n


def is_symmetric(state, n):
    return bool(state.symmetric >> n & 1)


def two_hop_pairs(state):
    """The two-hop set as (via neighbor, target) pairs."""
    return {(via, target) for via, (targets, _) in state.two_hop.items()
            for target in bits(targets)}


def topology_pairs(state):
    """The topology set as (destination, last hop) pairs."""
    return {(dest, last) for last, (dests, _) in state.topology.items()
            for dest in bits(dests)}


def test_select_mprs_worked_example():
    # 5 reachable only via 2, 6 only via 3; 4 then already covered by 2
    will = {1: 3, 2: 3, 3: 3}
    cover = cover_map({(1, 4), (2, 4), (2, 5), (3, 6)})
    mprs = select_mprs(will, cover)
    assert bits(mprs) == [2, 3]
    assert all(vias & mprs for vias in cover.values())


def test_select_mprs_tie_breaks_on_willingness_then_id():
    # both candidates cover both targets; 2 advertises higher willingness
    mprs = select_mprs({1: 3, 2: 5}, cover_map({(1, 10), (2, 10), (1, 11), (2, 11)}))
    assert bits(mprs) == [2]
    # equal willingness: lower id wins
    mprs = select_mprs({1: 3, 2: 3}, cover_map({(1, 10), (2, 10)}))
    assert bits(mprs) == [1]


def test_select_mprs_willingness_extremes():
    will = {1: WILL_NEVER, 2: WILL_DEFAULT, 3: WILL_ALWAYS}
    cover = cover_map({(1, 10), (2, 11)})
    mprs = select_mprs(will, cover)
    assert 3 in bits(mprs)        # always-willing is in even covering nothing
    assert 1 not in bits(mprs)    # never-willing is never picked
    assert not cover[10] & mprs   # so no relay covers 10
    assert 2 in bits(mprs)


def test_select_mprs_skips_targets_already_one_hop():
    # 2 is itself a symmetric neighbor, so (1, 2) needs no relay
    assert select_mprs({1: 3, 2: 3}, cover_map({(1, 2)})) == 0


def test_select_mprs_rejects_unknown_via():
    with pytest.raises(ValueError):
        select_mprs({1: 3}, cover_map({(9, 4)}))


def test_select_mprs_covers_random_neighborhoods():
    rng = random.Random(404)
    within = 0
    for _ in range(120):
        will, two_hop = random_neighborhood(rng)
        cover = cover_map(two_hop)
        mprs = select_mprs(will, cover)
        relays = set(bits(mprs))
        for target, vias in coverage_sets(will, two_hop).items():
            if vias:
                assert vias & relays, (will, two_hop, relays)
            else:
                assert not cover[target] & mprs, (will, two_hop, relays)
        assert all(will[m] > WILL_NEVER for m in relays)
        if len(relays) <= brute_minimum_cover(will, two_hop) + 2:
            within += 1
    assert within >= 0.95 * 120


def test_select_mprs_equals_the_reference_greedy():
    # the cover-map selection must pick exactly what the pair-based greedy
    # picked: many targets with shared vias make multi-step greedy runs and
    # score ties, a few willingness values make willingness ties, 0 and 7
    # occur often, targets may be one-hop neighbors, and some vias are not
    # symmetric neighbors at all
    rng = random.Random(1313)
    rejected = multi_step = 0
    for _ in range(3000):
        nodes = list(range(rng.randint(2, 16)))
        neighbors = rng.sample(nodes, rng.randint(1, len(nodes)))
        levels = [WILL_NEVER, WILL_DEFAULT, WILL_ALWAYS, rng.randint(1, 6)]
        will = {n: rng.choice(levels) for n in neighbors}
        density = rng.random()
        pairs = {(via, target) for via in neighbors for target in nodes
                 if target != via and rng.random() < density}
        if rng.random() < 0.1:
            pairs.add((rng.choice([n for n in nodes if n not in will] or [99]),
                       rng.choice(nodes)))
        try:
            expected = reference_select_mprs(will.items(), pairs)
        except ValueError:
            rejected += 1
            with pytest.raises(ValueError):
                select_mprs(will, cover_map(pairs))
            continue
        cover = cover_map(pairs)
        mprs = select_mprs(will, cover)
        assert set(bits(mprs)) == expected, (will, pairs)
        # NodeState.strict_two_hop builds its map in via order, so the
        # selection must not depend on the order of the targets
        assert select_mprs(will, dict(reversed(cover.items()))) == mprs, (will, pairs)
        optional = {n for n, w in will.items() if WILL_NEVER < w < WILL_ALWAYS}
        multi_step += len(expected & optional) > 1
    assert rejected > 200 and multi_step > 150


# ---------------------------------------------------------------------------
# HELLO handling
# ---------------------------------------------------------------------------

def test_hello_link_lifecycle_asym_sym_downgrade():
    state = NodeState(1, OlsrConfig())
    # neighbor 2 does not hear us yet
    state.process_message(hello(2), 2, 10.0)
    assert 2 in state.links and not is_symmetric(state, 2)
    # now it lists us: both directions verified
    state.process_message(hello(2, asym=[1], seq=2), 2, 12.0)
    assert is_symmetric(state, 2)
    # it stops listing us: back to one-way
    state.process_message(hello(2, seq=3), 2, 14.0)
    assert 2 in state.links and not is_symmetric(state, 2)


def test_hello_link_expiry_uses_receiver_hold_time():
    # the message advertises a 99 s validity but link sensing uses our own
    # neighb_hold_time; two-hop entries use the sender's advertised validity
    state = NodeState(1, OlsrConfig(neighb_hold_time=6.0))
    state.process_message(hello(2, sym=[1, 7], validity=99.0), 2, 10.0)
    assert state.links[2] == 16.0
    assert state.two_hop[2] == (1 << 7, 109.0)


def test_hello_two_hop_set_tracks_senders_symmetric_links():
    state = NodeState(1, OlsrConfig())
    msg = hello(2, asym=[7], sym=[1, 5], mpr=[6])
    state.process_message(msg, 2, 0.0)
    # asym entries and ourselves never enter the two-hop set
    assert two_hop_pairs(state) == {(2, 5), (2, 6)}
    # 5 no longer listed: pruned
    state.process_message(hello(2, sym=[1, 6], seq=2), 2, 2.0)
    assert two_hop_pairs(state) == {(2, 6)}
    # as many entries as before, but another one: replaced, not refreshed
    state.process_message(hello(2, sym=[1], mpr=[7], seq=3), 2, 4.0)
    assert two_hop_pairs(state) == {(2, 7)}
    assert state.strict_two_hop() == {7: 1 << 2}


def test_hello_registers_mpr_selector():
    state = NodeState(1, OlsrConfig())
    state.process_message(hello(2, sym=[1]), 2, 0.0)
    assert 2 not in state.mpr_selectors
    state.process_message(hello(2, mpr=[1], seq=2, validity=6.0), 2, 4.0)
    assert state.mpr_selectors[2] == 10.0


def test_hello_reselects_mprs_on_membership_change():
    state = NodeState(1, OlsrConfig())
    state.process_message(hello(2, sym=[1, 5]), 2, 0.0)
    assert bits(state.mprs) == [2]
    # routes come from symmetric links plus advertised topology; the
    # two-hop set only drives relay selection
    assert state.routing == {2: (2, 1)}


def primed_selection():
    """A node 1 with symmetric neighbor 2, which reaches strict target 5,
    and its relay selection and routes already made."""
    state = NodeState(1, OlsrConfig())
    state.process_message(hello(2, sym=[1, 5]), 2, 0.0)
    assert bits(state.mprs) == [2] and state.routing == {2: (2, 1)}
    return state, state._selection


def test_hello_that_only_refreshes_keeps_the_selection_and_routes():
    state, selection = primed_selection()
    state.process_message(hello(2, sym=[1, 5], seq=2), 2, 1.0)
    assert state._selection == selection
    assert state._routing_stale is False


def test_hello_of_a_new_one_way_link_keeps_the_selection_and_routes():
    state, selection = primed_selection()
    state.process_message(hello(3, sym=[5], willingness=WILL_ALWAYS), 3, 1.0)
    assert 3 in state.links and not is_symmetric(state, 3)
    assert state._selection == selection
    assert state._routing_stale is False
    # a one-way neighbor's willingness is not read either
    state.process_message(hello(3, sym=[5], seq=2, willingness=WILL_NEVER), 3, 2.0)
    assert state._selection == selection
    assert state._routing_stale is False


def test_hello_that_flips_a_strict_target_drops_the_selection():
    state, _ = primed_selection()
    state.process_message(hello(2, sym=[1, 5, 6], seq=2), 2, 1.0)
    assert state._selection is None
    assert state._routing_stale is False
    assert state.strict_two_hop() == {5: 1 << 2, 6: 1 << 2}
    assert all(vias & state.mprs for vias in state.strict_two_hop().values())


def test_willingness_change_of_a_symmetric_neighbor_drops_the_selection():
    state, _ = primed_selection()
    state.process_message(hello(2, sym=[1, 5], seq=2, willingness=WILL_NEVER), 2, 1.0)
    assert state._selection is None
    assert state._routing_stale is False
    # 5 is still a strict target, and no relay covers it
    assert state.strict_two_hop() == {5: 1 << 2} and state.mprs == 0


def test_hello_that_flips_a_symmetric_neighbor_target_keeps_the_selection():
    state, _ = primed_selection()
    # 3 turns symmetric: the symmetric mask changes, so both go stale
    state.process_message(hello(3, sym=[1]), 3, 1.0)
    assert state._selection is None and state._routing_stale is True
    assert bits(state.mprs) == [2] and state.routing == {2: (2, 1), 3: (3, 1)}
    selection = state._selection
    # 2 now lists 3, which needs no relay: the strict two-hop set is unchanged
    state.process_message(hello(2, sym=[1, 3, 5], seq=2), 2, 2.0)
    assert two_hop_pairs(state) == {(2, 3), (2, 5)}
    assert state._selection == selection
    assert state._routing_stale is False
    assert state.strict_two_hop() == {5: 1 << 2}


def test_hello_shared_by_receivers_acts_like_a_fresh_message_for_each():
    def tables(state):
        return (state.links, state.two_hop, state.mpr_selectors, state.mprs, state.routing)

    def primed(node):
        state = NodeState(node, OlsrConfig())
        state.process_message(hello(7, sym=[node, 8]), 7, 0.0)
        return state

    lists = dict(asym=[6], sym=[3, 5], mpr=[1])
    shared = hello(2, **lists)
    for node in (1, 3, 4, 5, 6):
        state, twin = primed(node), primed(node)
        state.process_message(shared, 2, 1.0)
        twin.process_message(hello(2, **lists), 2, 1.0)
        assert tables(state) == tables(twin), node


def test_own_messages_are_ignored():
    state = NodeState(1, OlsrConfig())
    assert state.process_message(hello(1, sym=[2]), 2, 0.0) is False
    assert not state.links


@pytest.mark.parametrize("kind", ["PING", "MID"])
def test_unknown_message_kind_rejected(kind):
    state = NodeState(1, OlsrConfig())
    bogus = ControlMessage(kind, 2, 1, 6.0, 1, 0)
    with pytest.raises(ValueError):
        state.process_message(bogus, 2, 0.0)


# ---------------------------------------------------------------------------
# TC handling and forwarding
# ---------------------------------------------------------------------------

def test_tc_topology_replacement_and_stale_rejection():
    state = NodeState(1, OlsrConfig())
    state.process_message(tc(9, (4, 5), seq=5), 2, 0.0)
    assert topology_pairs(state) == {(4, 9), (5, 9)}
    # replay with equal seq changes nothing, even with different selectors
    state.process_message(tc(9, (6,), seq=5), 2, 1.0)
    assert topology_pairs(state) == {(4, 9), (5, 9)}
    # lower seq is stale
    state.process_message(tc(9, (6,), seq=4), 2, 2.0)
    assert topology_pairs(state) == {(4, 9), (5, 9)}
    # higher seq replaces the originator's advertisement wholesale
    state.process_message(tc(9, (6,), seq=6), 2, 3.0)
    assert topology_pairs(state) == {(6, 9)}
    assert state.topology[9] == (1 << 6, 3.0 + 15.0)


def test_tc_older_than_an_expired_bucket_is_still_refused():
    # a deviation from RFC 3626 section 9.5, which accepts it because no
    # tuple of 9 remains: the highest seq seen outlives the bucket
    state = NodeState(1, OlsrConfig())
    state.process_message(tc(9, (4, 5), seq=5, validity=15.0), 2, 0.0)
    assert state.purge_expired(16.0) is True
    assert not state.topology
    state.process_message(tc(9, (6,), seq=4), 2, 16.0)
    assert not state.topology
    # a higher seq is accepted
    state.process_message(tc(9, (6,), seq=6), 2, 17.0)
    assert topology_pairs(state) == {(6, 9)}


def routed(*neighbors, tcs=()):
    """A node 1 with the given symmetric neighbors and TCs applied, and its
    routes read, so they are current."""
    state = NodeState(1, OlsrConfig())
    for n in neighbors:
        state.process_message(hello(n, sym=[1]), n, 0.0)
    for msg in tcs:
        state.process_message(msg, msg.originator, 0.0)
    state.routing
    return state


def test_tc_that_cannot_move_a_route_keeps_the_routes_current():
    state = routed(2, 3, tcs=[tc(2, (5,)), tc(3, (6,))])
    table = state.routing
    assert table == {2: (2, 1), 3: (3, 1), 5: (2, 2), 6: (3, 2)}
    # 3 adds 5, which already has 2 hops through the lower next hop 2
    state.process_message(tc(3, (5, 6), seq=2), 3, 1.0)
    # 5 (at 2 hops through 2) adds 6, already reached in 2 hops
    state.process_message(tc(5, (6,)), 2, 1.0)
    # 7 has no route, so its bucket is never read
    state.process_message(tc(7, (8,)), 2, 1.0)
    assert state._routing_stale is False
    assert state.routing == compute_routing_table(state) == table


def test_tc_that_offers_a_lower_next_hop_at_equal_hops_marks_the_routes_stale():
    state = routed(2, 3, tcs=[tc(2, (5,)), tc(3, (6,)), tc(6, (7,))])
    assert state.routing == {2: (2, 1), 3: (3, 1), 5: (2, 2), 6: (3, 2), 7: (3, 3)}
    # 5, at 2 hops through 2, adds 7, at 3 hops through 3
    state.process_message(tc(5, (7,)), 2, 1.0)
    assert state._routing_stale is True
    assert state.routing == {2: (2, 1), 3: (3, 1), 5: (2, 2), 6: (3, 2), 7: (2, 3)}
    # 2 adds 6, at 2 hops through 3
    state.process_message(tc(2, (5, 6), seq=2), 2, 2.0)
    assert state._routing_stale is True
    assert state.routing == {2: (2, 1), 3: (3, 1), 5: (2, 2), 6: (2, 2), 7: (2, 3)}


def test_tc_that_removes_a_route_through_its_originator_marks_the_routes_stale():
    state = routed(2, 3, tcs=[tc(2, (5, 6)), tc(3, (5,))])
    assert state.routing == {2: (2, 1), 3: (3, 1), 5: (2, 2), 6: (2, 2)}
    # 5 keeps its route through 2 when 3 drops it
    state.process_message(tc(3, (), seq=2), 3, 1.0)
    assert state._routing_stale is False
    assert state.routing == compute_routing_table(state)
    # 6 is routed (2, 2) through 2, which now drops it
    state.process_message(tc(2, (5,), seq=2), 2, 1.0)
    assert state._routing_stale is True
    assert state.routing == {2: (2, 1), 3: (3, 1), 5: (2, 2)}


def test_tc_skips_self_as_destination():
    state = NodeState(1, OlsrConfig())
    state.process_message(tc(9, (1, 4)), 2, 0.0)
    assert topology_pairs(state) == {(4, 9)}


def test_tc_forwarded_only_once_and_only_for_selectors():
    state = NodeState(1, OlsrConfig())
    state.process_message(hello(2, mpr=[1]), 2, 0.0)
    state.process_message(hello(3, sym=[1]), 3, 0.0)

    msg = tc(9, (4,), seq=7)
    assert state.process_message(msg, 2, 1.0) is True     # 2 selected us
    assert state.process_message(msg, 2, 1.5) is False    # duplicate
    assert (9, 7) in state.duplicates

    fresh = tc(9, (4,), seq=8)
    assert state.process_message(fresh, 3, 2.0) is False  # 3 did not select us
    # not recorded as duplicate, so a later copy via a selector still relays
    assert (9, 8) not in state.duplicates
    assert state.process_message(fresh, 2, 2.5) is True


def test_tc_with_exhausted_ttl_is_consumed_not_forwarded():
    state = NodeState(1, OlsrConfig())
    state.process_message(hello(2, mpr=[1]), 2, 0.0)
    assert state.process_message(tc(9, (4,), ttl=1), 2, 1.0) is False
    assert not state.duplicates
    assert (4, 9) in topology_pairs(state)


def test_forwarded_copy_spends_ttl_and_carries_every_mask():
    for msg in (tc(9, (4, 6), ttl=255),
                hello(9, asym=[3], sym=[4], mpr=[6], validity=7.0, willingness=WILL_ALWAYS)):
        copy = msg.forwarded_copy()
        assert copy.ttl == msg.ttl - 1
        assert copy == ControlMessage(msg.kind, 9, msg.seq, msg.validity_time, msg.ttl - 1,
                                      msg.listed, msg.symmetric_listed, msg.mpr_listed,
                                      msg.willingness)


def test_message_size_is_header_plus_entries():
    assert hello(2).size_bytes == 16
    assert hello(2, sym=[1, 5], mpr=[6]).size_bytes == 40
    assert tc(9, range(10)).size_bytes == 96


# ---------------------------------------------------------------------------
# periodic emission
# ---------------------------------------------------------------------------

def test_emission_schedule_without_jitter():
    state = NodeState(1, OlsrConfig(hello_interval=2.0, tc_interval=5.0))
    assert state.next_emission() == 2.0
    out = []
    for t in (2.0, 4.0, 6.0):
        messages = state.emit_periodic(t)
        out.append((t, [m.kind for m in messages], state._next_hello))
    assert out == [(2.0, [HELLO], 4.0), (4.0, [HELLO], 6.0), (6.0, [HELLO], 8.0)]


def test_hello_sequence_numbers_increase():
    state = NodeState(1, OlsrConfig())
    seqs = [state.emit_periodic(t)[0].seq for t in (2.0, 4.0, 6.0)]
    assert seqs == [1, 2, 3]


def test_tc_withheld_until_someone_selects_us():
    state = NodeState(1, OlsrConfig())
    messages = state.emit_periodic(5.0)
    assert [m.kind for m in messages] == [HELLO]   # TC due but suppressed
    assert state._next_tc == 10.0                  # schedule ticks anyway
    state.process_message(hello(2, mpr=[1]), 2, 6.0)
    messages = state.emit_periodic(10.0)
    kinds = {m.kind for m in messages}
    assert TC in kinds
    tc_msg = next(m for m in messages if m.kind == TC)
    assert tc_msg.listed == 1 << 2
    assert tc_msg.symmetric_listed == tc_msg.mpr_listed == 0
    assert tc_msg.ttl == CONTROL_TTL
    assert tc_msg.validity_time == state.config.top_hold_time


def test_hello_lists_links_symmetric_neighbors_and_relays():
    state = NodeState(1, OlsrConfig())
    state.process_message(hello(3, sym=[1, 9]), 3, 0.0)
    state.process_message(hello(2, sym=[1]), 2, 0.0)
    state.process_message(hello(4, sym=[8]), 4, 0.0)   # one-way: 4 does not list us
    msg = state.emit_periodic(2.0)[0]
    assert msg.kind == HELLO
    assert msg.listed == mask(state.links) == mask([2, 3, 4])
    assert msg.symmetric_listed == state.symmetric == mask([2, 3])
    assert msg.mpr_listed == state.mprs == mask([3])
    assert msg.mpr_listed & ~msg.symmetric_listed == 0
    assert msg.ttl == 1
    assert msg.willingness == state.config.willingness


def test_emission_jitter_stays_within_quarter_interval():
    rng = random.Random(7)
    cfg = OlsrConfig(hello_interval=8.0)
    for _ in range(200):
        state = NodeState(1, cfg, rng=rng)
        first = state._next_hello
        assert 6.0 <= first <= 8.0


# ---------------------------------------------------------------------------
# expiry
# ---------------------------------------------------------------------------

def test_purge_boundary_is_strictly_in_the_past():
    def fresh():
        state = NodeState(1, OlsrConfig(neighb_hold_time=6.0))
        state.process_message(hello(2, sym=[1]), 2, 0.0)  # expiry 6.0
        return state

    keep = fresh()
    assert keep.purge_expired(5.999) is False
    assert 2 in keep.links
    exact = fresh()
    assert exact.purge_expired(6.0) is False
    assert 2 in exact.links
    gone = fresh()
    assert gone.purge_expired(6.001) is True
    assert 2 not in gone.links


def test_purge_cascades_through_a_dead_link():
    state = NodeState(1, OlsrConfig(neighb_hold_time=6.0))
    state.process_message(hello(2, sym=[5], mpr=[1], validity=50.0), 2, 0.0)
    assert (2, 5) in two_hop_pairs(state) and 2 in state.mpr_selectors
    assert state.routing == {2: (2, 1)}
    assert state.purge_expired(7.0) is True
    assert not state.links and not state.two_hop and not state.mpr_selectors
    assert state.symmetric == 0
    assert state.routing == {}


def test_purge_past_only_a_duplicate_drops_it_and_touches_no_table():
    state = NodeState(1, OlsrConfig(neighb_hold_time=6.0, dup_hold_time=3.0))
    state.process_message(hello(2, sym=[5], mpr=[1], validity=100.0), 2, 0.0)
    state.process_message(tc(9, (4,), validity=50.0), 2, 0.0)   # dup expiry 3
    selection, table = state.mprs, state.routing
    tables = (dict(state.links), dict(state.two_hop), dict(state.topology),
              dict(state.mpr_selectors))
    assert state.purge_expired(4.0) is True
    assert not state.duplicates
    assert (state.links, state.two_hop, state.topology, state.mpr_selectors) == tables
    assert state._selection == selection and state._routing_stale is False
    assert state.routing == table
    # the next purge waits for the link's expiry
    assert state._table_expiry == 6.0
    assert state.purge_expired(6.0) is False


def test_purge_of_a_one_way_link_keeps_the_selection_and_routes():
    state = NodeState(1, OlsrConfig(neighb_hold_time=6.0))
    state.process_message(hello(3, sym=[5]), 3, 0.0)        # one-way, expiry 6
    state.process_message(hello(2, sym=[1, 5]), 2, 4.0)     # symmetric, expiry 10
    selection, table = state.mprs, state.routing
    assert bits(selection) == [2] and table == {2: (2, 1)}
    assert state.purge_expired(7.0) is True
    assert 3 not in state.links and 3 not in state.two_hop
    assert state._selection == selection and state._routing_stale is False
    assert state.routing == table


def test_purge_of_a_topology_bucket_no_route_uses_keeps_the_routes():
    # the links live until 6, 2's bucket until 4 and 3's until 2
    state = routed(2, 3, tcs=[tc(2, (5,), validity=4.0), tc(3, (5,), validity=2.0)])
    table = state.routing
    assert table == {2: (2, 1), 3: (3, 1), 5: (2, 2)}
    # 3's bucket expires, but 5 is routed through 2
    assert state.purge_expired(3.0) is True
    assert 3 not in state.topology
    assert state._routing_stale is False and state.routing == table
    # 2's bucket expires, and with it the route to 5
    assert state.purge_expired(5.0) is True
    assert state._routing_stale is True
    assert state.routing == {2: (2, 1), 3: (3, 1)}


def test_purge_drops_expired_topology_and_duplicates():
    state = NodeState(1, OlsrConfig())
    state.process_message(hello(2, mpr=[1], validity=100.0), 2, 0.0)
    state.process_message(tc(9, (4,), validity=15.0), 2, 1.0)   # topo expiry 16
    assert (9, 1) in state.duplicates                        # dup expiry 31
    assert state.purge_expired(20.0) is True
    assert not state.topology
    assert (9, 1) in state.duplicates
    assert state.purge_expired(40.0) is True
    assert not state.duplicates


# ---------------------------------------------------------------------------
# routing table vs breadth-first search
# ---------------------------------------------------------------------------

def test_routing_matches_bfs_on_random_snapshots():
    rng = random.Random(31337)
    for _ in range(60):
        state = random_snapshot(rng)
        table = compute_routing_table(state)
        expected, sym = bfs_hops(state)
        assert {d: h for d, (_, h) in table.items()} == expected
        for dest, (next_hop, hops) in table.items():
            assert next_hop in sym
            if hops == 1:
                assert next_hop == dest


def test_routing_next_hops_match_the_oracle_on_random_snapshots():
    # with several equal-length paths the lowest next hop wins, whatever
    # order the search visits the last hops in
    rng = random.Random(2718)
    far = 0
    for _ in range(300):
        state = random_snapshot(rng)
        table = compute_routing_table(state)
        expected = reference_next_hops(state)
        assert {d: table[d][0] for d in expected} == expected
        far += len(expected)
    assert far > 1000


def test_routing_prefers_lowest_next_hop_on_ties():
    state = NodeState(0, OlsrConfig())
    link(state, 1)
    link(state, 2)
    state.topology[1] = (1 << 5, INF)
    state.topology[2] = (1 << 5, INF)
    assert compute_routing_table(state)[5] == (1, 2)


def test_routing_ignores_asymmetric_links():
    state = NodeState(0, OlsrConfig())
    link(state, 1, symmetric=False)
    state.topology[1] = (1 << 5, INF)
    assert compute_routing_table(state) == {}


def test_routing_table_routes_each_symmetric_neighbor_in_one_hop():
    state = NodeState(0, OlsrConfig())
    for n in (9, 3, 7):
        link(state, n)
    assert compute_routing_table(state) == {3: (3, 1), 7: (7, 1), 9: (9, 1)}


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_defaults_are_valid():
    cfg = OlsrConfig()
    assert cfg.validate() is cfg
    assert cfg.as_vector() == (2.0, 2.0, 5.0, 3.0, 6.0, 15.0, 15.0, 30.0)


@pytest.mark.parametrize("field,value", [
    # outside the tuning box but runnable: validation accepts them
    ("hello_interval", 0.5),
    ("tc_interval", 31.0),
    ("neighb_hold_time", 2.9),
    ("dup_hold_time", 101.0),
])
def test_config_accepts_runnable_values_outside_the_tuning_box(field, value):
    cfg = OlsrConfig(**{field: value})
    assert cfg.validate() is cfg


@pytest.mark.parametrize("field,value", [
    ("hello_interval", 0.0),
    ("tc_interval", -1.0),
    ("willingness", 8),
    ("willingness", 2.0),      # must be an int, not a float
    ("neighb_hold_time", float("inf")),
    ("hello_interval", float("nan")),
])
def test_config_rejects_out_of_range_fields(field, value):
    cfg = OlsrConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        cfg.validate()


@pytest.mark.parametrize("field", ["hello_interval", "refresh_interval", "tc_interval",
                                   "neighb_hold_time", "top_hold_time", "mid_hold_time",
                                   "dup_hold_time"])
def test_config_rejects_a_boolean_time(field):
    # a bool is an int, and True would read as a 1 s time
    with pytest.raises(ValueError, match=field):
        OlsrConfig(**{field: True}).validate()


def test_config_rejects_a_non_numeric_time():
    with pytest.raises(ValueError, match="dup_hold_time"):
        OlsrConfig(dup_hold_time="30").validate()


def test_config_error_lists_every_problem():
    with pytest.raises(ValueError) as err:
        OlsrConfig(hello_interval=0.0, willingness=9, top_hold_time=float("inf")).validate()
    text = str(err.value)
    assert "hello_interval" in text and "willingness" in text and "top_hold_time" in text
