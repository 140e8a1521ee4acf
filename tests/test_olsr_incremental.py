"""Property test: the incremental protocol core equals recomputation from scratch.

A node state is driven through random sequences of HELLO and TC messages
and expiry sweeps at nondecreasing times.  After every step the symmetric
mask must equal the test's own model of it, the stored MPR set and
routing table must equal what a fresh computation over the current state
gives, routing hop counts must match the oracle's breadth-first search,
and every sweep must leave nothing expired behind.
"""

from hypothesis import given, settings
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

from oracles import bfs_hops, bits, cover_map, coverage_sets, reference_select_mprs

SELF = 0
NEIGHBORS = st.integers(min_value=1, max_value=3)  # may send us a HELLO
NODES = st.integers(min_value=1, max_value=5)
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


# a HELLO usually lists us, so links turn symmetric and two-hop sets matter;
# it usually carries its sender's willingness, but now and then another
# one (None stands for the sender's own)
hellos = st.tuples(
    st.just("hello"),
    NEIGHBORS,
    st.builds(lambda us, entries: hello_masks(us + entries),
              st.sampled_from([[], [(SELF, "asym")], [(SELF, "sym")], [(SELF, "mpr")],
                               [(SELF, "mpr")]]),
              st.lists(st.tuples(NODES, CODES), max_size=4)),
    st.sampled_from([None, None, None, 0, 3, 7]),
)
tcs = st.tuples(
    st.just("tc"),
    NEIGHBORS,
    NODES,
    st.lists(st.integers(min_value=0, max_value=5), max_size=4),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([1, CONTROL_TTL, CONTROL_TTL]),
)
purges = st.just(("purge",))
# HELLOs come twice as often as TCs or purges, as in a simulation
steps = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]),
              st.one_of(hellos, hellos, tcs, purges)),
    min_size=8, max_size=60,
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
    for n in range(1, 6)
})


def expiries(state):
    """Every stored (table, key, expiry), read straight from the tables."""
    out = [("links", n, link.expiry) for n, link in state.links.items()]
    out += [("two_hop", (via, target), exp)
            for via, (targets, exp) in state.two_hop.items() for target in bits(targets)]
    out += [("mpr_selectors", n, exp) for n, exp in state.mpr_selectors.items()]
    out += [("topology", (dest, last), exp)
            for last, (dests, exp) in state.topology.items() for dest in bits(dests)]
    out += [("duplicates", key, exp) for key, exp in state.duplicates.items()]
    return out


def check_derived_tables(state, symmetric):
    """Check every derived table; ``symmetric`` is the test's own model of
    the symmetric neighbors."""
    assert state.symmetric == sum(1 << n for n in symmetric)
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

    # the two-hop index is the transpose of the buckets
    pairs = {(via, target) for via, (targets, _) in state.two_hop.items()
             for target in bits(targets)}
    assert state._two_hop_vias == cover_map(pairs)

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

    assert state.routing == compute_routing_table(state)
    hops, _ = bfs_hops(state)
    assert {dest: h for dest, (_, h) in state.routing.items()} == hops


@settings(max_examples=400, deadline=None)
@given(configs, profiles, steps)
def test_incremental_core_matches_recomputation(config, profile, plan):
    state = NodeState(SELF, config)
    # the model of the symmetric mask: each live link's sender -> (whether
    # its latest HELLO listed us, the link's expiry)
    heard = {}
    now = 0.0
    for dt, (kind, *step) in plan:
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
        else:
            sender, origin, selectors, seq, ttl = step
            validity = profile[origin][2]
            msg = ControlMessage(TC, origin, seq, validity, ttl,
                                 sum(1 << n for n in set(selectors)))
            state.process_message(msg, sender, now)
        # the watermark the expiry sweep skips on is a lower bound
        assert all(state._next_expiry <= exp for _, _, exp in expiries(state))
        check_derived_tables(state, [n for n, (us, _) in heard.items() if us])
