"""Property test: the incremental protocol core equals recomputation from scratch.

A node state is driven through random sequences of HELLO and TC messages
and expiry sweeps at nondecreasing times.  After every step the symmetric
mask must equal the test's own model of it, the expiry watermarks must
bound what the tables hold, the stored MPR set must equal a fresh
selection, and every sweep must leave nothing expired behind.  Whenever
the routes are read they must equal a fresh computation over the current
state, with hop counts and next hops as the oracles give them.  One
variant reads them after every step, the other only every few steps, as
a simulation does.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from olsrlab.olsr import (
    CONTROL_TTL,
    HELLO,
    TC,
    ControlMessage,
    NodeState,
    OlsrConfig,
    compute_routing_table,
    select_mprs,
)

from oracles import (
    bfs_hops,
    bits,
    cover_map,
    coverage_sets,
    reference_next_hops,
    reference_select_mprs,
)

SELF = 0
CODES = st.sampled_from(["asym", "sym", "mpr"])


def hello_masks(entries):
    """(listed, symmetric_listed, mpr_listed) of a HELLO that lists every
    (node, code) entry, unioned as a sender's: mpr within symmetric within
    listed.  A node drawn under two codes is listed under both."""
    listed = symmetric = mpr = 0
    for node, code in entries:
        bit = 1 << node
        listed |= bit
        if code != "asym":
            symmetric |= bit
        if code == "mpr":
            mpr |= bit
    return listed, symmetric, mpr


def plans(neighbors, nodes, *, max_size):
    """Steps at nondecreasing times over nodes 0..``nodes``, of which
    1..``neighbors`` may send us a HELLO."""
    neighbor = st.integers(min_value=1, max_value=neighbors)
    node = st.integers(min_value=1, max_value=nodes)
    # a HELLO usually lists us, so links turn symmetric and two-hop sets
    # matter; it usually carries its sender's willingness, but now and then
    # another one (None stands for the sender's own)
    hellos = st.tuples(
        st.just("hello"),
        neighbor,
        st.builds(lambda us, entries: hello_masks(us + entries),
                  st.sampled_from([[], [(SELF, "asym")], [(SELF, "sym")], [(SELF, "mpr")],
                                   [(SELF, "mpr")]]),
                  st.lists(st.tuples(node, CODES), max_size=4)),
        st.sampled_from([None, None, None, 0, 3, 7]),
    )
    # a TC comes from the drawn node or, as a flooded TC mostly does, from
    # a node the routes reach (True maps the drawn node onto those); its
    # seq is one past its originator's last, or repeats or undercuts it;
    # and it lists a fresh set of selectors or, as most TCs in a simulation
    # do, the originator's last set with one node added or dropped (a
    # single node id)
    tcs = st.tuples(
        st.just("tc"),
        neighbor,
        node,
        st.sampled_from([True, True, False]),
        st.one_of(st.lists(st.integers(min_value=0, max_value=nodes), max_size=4),
                  st.integers(min_value=0, max_value=nodes)),
        st.sampled_from([1, 1, 1, 0, -1]),
        st.sampled_from([1, CONTROL_TTL, CONTROL_TTL]),
    )
    purges = st.just(("purge",))
    # HELLOs come twice as often as TCs or purges, as in a simulation
    return st.lists(
        st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]),
                  st.one_of(hellos, hellos, tcs, purges)),
        min_size=8, max_size=max_size,
    )


configs = st.builds(
    lambda neighb, dup: OlsrConfig(neighb_hold_time=neighb, dup_hold_time=dup),
    st.sampled_from([3.0, 6.0, 20.0]),
    st.sampled_from([3.0, 30.0]),
)
# each node advertises one validity per message kind, as in a simulation,
# and a willingness its HELLOs usually carry: (willingness, HELLO validity,
# TC validity)
profiles = st.fixed_dictionaries({
    n: st.tuples(st.sampled_from([0, 3, 3, 7]), st.sampled_from([2.0, 6.0, 15.0]),
                 st.sampled_from([3.0, 15.0]))
    for n in range(1, 8)
})


def table_expiries(state):
    """Every stored (table, key, expiry) but the duplicates', read straight
    from the tables."""
    out = [("links", n, exp) for n, exp in state.links.items()]
    out += [("two_hop", (via, target), exp)
            for via, (targets, exp) in state.two_hop.items() for target in bits(targets)]
    out += [("mpr_selectors", n, exp) for n, exp in state.mpr_selectors.items()]
    out += [("topology", (dest, last), exp)
            for last, (dests, exp) in state.topology.items() for dest in bits(dests)]
    return out


def expiries(state):
    """Every stored (table, key, expiry)."""
    return table_expiries(state) + [("duplicates", key, exp)
                                    for key, exp in state.duplicates.items()]


def check_watermarks(state):
    """The expiry sweep's watermarks: the table watermark is a lower bound
    on every table expiry, and the duplicate front is the first duplicate's
    expiry."""
    assert all(state._table_expiry <= exp for _, _, exp in table_expiries(state))
    assert state._duplicate_front == next(iter(state.duplicates.values()), math.inf)


def check_derived_tables(state, symmetric, *, routes=True):
    """Check every derived table; ``symmetric`` is the test's own model of
    the symmetric neighbors.  ``routes`` False leaves ``routing`` unread,
    so it is not recomputed."""
    assert state.symmetric == sum(1 << n for n in symmetric)
    assert state.neighbor_willingness.keys() == state.links.keys()
    # buckets are never empty, never list us, and a topology bucket's
    # originator has a latest sequence number
    for targets, _ in state.two_hop.values():
        assert targets and SELF not in bits(targets)
    for last, (dests, _) in state.topology.items():
        assert dests and SELF not in bits(dests)
        assert last in state._topo_seq
    # the expiry sweep drops duplicates from the front
    dup_expiries = list(state.duplicates.values())
    assert dup_expiries == sorted(dup_expiries)

    pairs = {(via, target) for via, (targets, _) in state.two_hop.items()
             for target in bits(targets)}

    will = state.symmetric_neighbors()
    strict = {(via, target) for via, target in pairs
              if via in will and target not in will and target != SELF}
    cover = cover_map(strict)
    assert state.strict_two_hop() == cover

    fresh = select_mprs(will, cover)
    assert state.mprs == fresh
    relays = set(bits(fresh))
    assert relays == reference_select_mprs(will.items(), strict)
    for target, vias in coverage_sets(will, strict).items():
        if vias:
            assert vias & relays, (target, vias, relays)
        else:
            assert not cover[target] & fresh, (target, relays)

    if routes:
        assert state.routing == compute_routing_table(state)
        hops, _ = bfs_hops(state)
        assert {dest: h for dest, (_, h) in state.routing.items()} == hops
        assert {d: nh for d, (nh, h) in state.routing.items() if h >= 2} == \
            reference_next_hops(state)


def drive(config, profile, plan, read_every):
    """Apply ``plan`` to a fresh node state and check it after every step,
    reading ``routing`` after every ``read_every``-th step and the last."""
    state = NodeState(SELF, config)
    # the model of the symmetric mask: each live link's sender -> (whether
    # its latest HELLO listed us, the link's expiry)
    heard = {}
    # originator -> (the highest seq it sent, the selectors its last TC listed)
    sent = {}
    now = 0.0
    for i, (dt, (kind, *step)) in enumerate(plan, 1):
        now += dt
        if kind == "purge":
            before = expiries(state)
            removed = state.purge_expired(now)
            heard = {n: link for n, link in heard.items() if link[1] >= now}
            after = expiries(state)
            assert all(exp >= now for _, _, exp in after)
            assert removed == (after != before)
            assert state.purge_expired(now) is False
        elif kind == "hello":
            sender, (listed, symmetric, mpr), will = step
            usual, validity, _ = profile[sender]
            will = usual if will is None else will
            msg = ControlMessage(HELLO, sender, 1, validity, 1, listed, symmetric, mpr,
                                 willingness=will)
            state.process_message(msg, sender, now)
            heard[sender] = (bool(listed >> SELF & 1), now + config.neighb_hold_time)
            # the sender's bucket now holds exactly its symmetric links but us
            assert set(bits(state.two_hop.get(sender, (0, None))[0])) == \
                set(bits(symmetric)) - {SELF}
            assert state.links[sender] == now + config.neighb_hold_time
            assert state.neighbor_willingness[sender] == will
        else:
            sender, origin, reached, selectors, step_seq, ttl = step
            dests = list(compute_routing_table(state))
            if reached and dests:
                origin = dests[origin % len(dests)]
            last_seq, last_listed = sent.get(origin, (0, 0))
            if isinstance(selectors, int):
                listed = last_listed ^ 1 << selectors
            else:
                listed = sum(1 << n for n in set(selectors))
            sent[origin] = (max(last_seq, last_seq + step_seq), listed)
            msg = ControlMessage(TC, origin, last_seq + step_seq, profile[origin][2], ttl,
                                 listed)
            state.process_message(msg, sender, now)
        check_watermarks(state)
        check_derived_tables(state, [n for n, (us, _) in heard.items() if us],
                             routes=i % read_every == 0 or i == len(plan))


@given(configs, profiles, plans(3, 5, max_size=60))
def test_incremental_core_matches_recomputation(config, profile, plan):
    drive(config, profile, plan, read_every=1)


@given(configs, profiles, plans(4, 7, max_size=80), st.integers(min_value=2, max_value=6))
def test_routes_read_now_and_then_match_recomputation(config, profile, plan, read_every):
    # a simulation reads a node's routes only when it routes a packet, so
    # several TCs the routes were kept current through can pass between
    # two reads, and on up to 8 nodes routes tie at 3 hops or more
    drive(config, profile, plan, read_every)
