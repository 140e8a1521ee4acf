"""Span tracer that times olsrlab's layers from outside the package.

Nothing in ``olsrlab`` knows about it.  :func:`instrument` swaps the public
callables for timing wrappers at the places where the package looks them
up (module globals for free functions, class attributes for methods) and
returns a function that puts the originals back.

Spans are kept in memory, aggregated per ``(parent span, span)`` edge so
that a campaign with millions of calls stays small.  Each wrapper keeps a
frame on a stack; when it ends, its duration is added to its parent
frame's child time, so a span's self time is its duration minus the
durations of the spans it directly caused.  The bookkeeping of a child
wrapper is counted in its parent's self time, which is part of the
tracing overhead the benchmark reports.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Callable

ROOT = ""


class Tracer:
    def __init__(self):
        # each frame is [span name, seconds spent in child spans]
        self.stack: list[list] = [[ROOT, 0.0]]
        # (parent name, name) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, post=None, pre=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``pre(args)`` runs before the call and its value is handed to
        ``post(args, result, before)``, which runs after the span closes;
        both are for counting and stay outside the span's own time.
        """
        stack = self.stack
        edges = self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            before = pre(args) if pre is not None else None
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[1] += duration
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[1]
            if post is not None:
                post(args, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, name: str, seconds: float) -> None:
        """Record a span timed by the caller, with no parent."""
        edge = self.edges.setdefault((ROOT, name), [0, 0.0, 0.0])
        edge[0] += 1
        edge[1] += seconds
        edge[2] += seconds

    # -- totals by span name ---------------------------------------------

    def calls(self, name: str) -> int:
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def total(self, name: str) -> float:
        return sum(e[1] for (_, n), e in self.edges.items() if n == name)

    def self_time(self, name: str) -> float:
        return sum(e[2] for (_, n), e in self.edges.items() if n == name)

    def total_under(self, parent: str, name: str) -> float:
        edge = self.edges.get((parent, name))
        return edge[1] if edge else 0.0

    def table(self) -> list[str]:
        """One line per edge, widest first, for the run's text output."""
        rows = sorted(self.edges.items(), key=lambda item: -item[1][1])
        return [f"span {parent or '-'} > {name}: calls={calls} total_s={total:.6f} "
                f"self_s={own:.6f}"
                for (parent, name), (calls, total, own) in rows]


def instrument(tracer: Tracer, olsrlab_modules: dict) -> Callable[[], None]:
    """Wrap the public callables of every layer; return the undo function."""
    m = olsrlab_modules
    olsr, netsim, scenario = m["olsr"], m["netsim"], m["scenario"]
    fitness, optimizers, cli = m["fitness"], m["optimizers"], m["cli"]
    counts = tracer.counts
    patched = []

    def patch(owner, attr, name, post=None, pre=None):
        original = owner.__dict__[attr]
        patched.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, post=post, pre=pre))

    def after_purge(args, removed, _):
        state = args[0]
        counts["olsr.purge_expired.useful"] += bool(removed)
        counts["olsr.two_hop.entries"] += len(state.two_hop)
        counts["olsr.topology.entries"] += len(state.topology)

    def after_message(args, forward, _):
        counts[f"olsr.process_message.{args[1].kind.lower()}.calls"] += 1
        counts["olsr.process_message.forwarded"] += bool(forward)

    def after_routing(args, table, _):
        # NodeState.compute_routing_table stores the result only after
        # this returns, so state.routing still holds the previous table
        counts["olsr.compute_routing_table.changed"] += table != args[0].routing

    def attempts_before(args):
        frame = args[1].current
        return frame, frame.attempts

    def after_deliver(_args, _result, before):
        frame, attempts = before
        counts["netsim.deliver_frame.deferred"] += frame.attempts == attempts

    def after_run(args, _metrics, _):
        sim = args[0]
        c = sim.counters
        counts["netsim.events"] += sim._insertions
        counts["netsim.control_tx"] += c.routing_tx
        counts["netsim.drops.no_route"] += c.dropped_no_route
        counts["netsim.drops.ttl"] += c.dropped_ttl
        counts["netsim.drops.mac"] += c.dropped_mac

    node = olsr.NodeState
    patch(node, "purge_expired", "olsr.purge_expired", post=after_purge)
    patch(node, "process_message", "olsr.process_message", post=after_message)
    patch(node, "emit_periodic", "olsr.emit_periodic")
    patch(node, "strict_two_hop", "olsr.strict_two_hop")
    patch(olsr, "select_mprs", "olsr.select_mprs")
    patch(olsr, "compute_routing_table", "olsr.compute_routing_table", post=after_routing)

    sim = netsim.Simulator
    patch(sim, "run", "netsim.run", post=after_run)
    patch(sim, "deliver_frame", "netsim.deliver_frame", post=after_deliver,
          pre=attempts_before)
    patch(sim, "route_data_packet", "netsim.route_data_packet")
    patch(netsim, "run_simulation", "netsim.run_simulation")
    patch(fitness, "run_simulation", "netsim.run_simulation")

    patch(scenario.MobilityTrace, "position", "scenario.position")
    patch(scenario, "catalog", "scenario.catalog")

    patch(fitness.OlsrObjective, "evaluate", "fitness.evaluate")
    patch(fitness, "decode_params", "params.decode_params")
    patch(optimizers, "decode_params", "params.decode_params")
    patch(cli, "search", "optimizers.search")
    patch(cli, "friedman_mean_ranks", "stats.friedman_mean_ranks")
    patch(cli, "kruskal_wallis", "stats.kruskal_wallis")
    patch(cli, "main", "cli.optimize")

    def undo():
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return undo


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


NETSIM_SPANS = ("netsim.run", "netsim.deliver_frame", "netsim.route_data_packet")
OLSR_TOP_SPANS = ("olsr.purge_expired", "olsr.process_message", "olsr.emit_periodic")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics of ``ops`` traced operations, as per-operation
    means; ratios are taken over the totals."""
    t, c = tracer, tracer.counts

    def per_op(value):
        return value / ops

    out: dict[str, float] = {}

    purges = t.calls("olsr.purge_expired")
    out["olsr.purge_expired.calls"] = per_op(purges)
    out["olsr.purge_expired.s"] = per_op(t.total("olsr.purge_expired"))
    out["olsr.purge_expired.self_s"] = per_op(t.self_time("olsr.purge_expired"))
    out["olsr.purge_expired.useful_ratio"] = _ratio(c["olsr.purge_expired.useful"], purges)
    messages = t.calls("olsr.process_message")
    out["olsr.process_message.calls"] = per_op(messages)
    out["olsr.process_message.s"] = per_op(t.total("olsr.process_message"))
    out["olsr.process_message.self_s"] = per_op(t.self_time("olsr.process_message"))
    out["olsr.process_message.forward_ratio"] = _ratio(
        c["olsr.process_message.forwarded"], messages)
    out["olsr.process_message.hello.calls"] = per_op(c["olsr.process_message.hello.calls"])
    out["olsr.process_message.tc.calls"] = per_op(c["olsr.process_message.tc.calls"])
    for name in ("olsr.emit_periodic", "olsr.strict_two_hop", "olsr.select_mprs"):
        out[f"{name}.calls"] = per_op(t.calls(name))
        out[f"{name}.s"] = per_op(t.total(name))
    routes = t.calls("olsr.compute_routing_table")
    out["olsr.compute_routing_table.calls"] = per_op(routes)
    out["olsr.compute_routing_table.s"] = per_op(t.total("olsr.compute_routing_table"))
    out["olsr.compute_routing_table.changed_ratio"] = _ratio(
        c["olsr.compute_routing_table.changed"], routes)
    out["olsr.two_hop.mean_entries"] = _ratio(c["olsr.two_hop.entries"], purges)
    out["olsr.topology.mean_entries"] = _ratio(c["olsr.topology.entries"], purges)

    run_s = t.total("netsim.run")
    out["netsim.events"] = per_op(c["netsim.events"])
    out["netsim.run.s"] = per_op(run_s)
    out["netsim.self_s"] = per_op(sum(t.self_time(n) for n in NETSIM_SPANS))
    delivers = t.calls("netsim.deliver_frame")
    out["netsim.deliver_frame.calls"] = per_op(delivers)
    out["netsim.deliver_frame.s"] = per_op(t.total("netsim.deliver_frame"))
    out["netsim.deliver_frame.defer_ratio"] = _ratio(
        c["netsim.deliver_frame.deferred"], delivers)
    out["netsim.route_data_packet.calls"] = per_op(t.calls("netsim.route_data_packet"))
    out["netsim.route_data_packet.s"] = per_op(t.total("netsim.route_data_packet"))
    out["netsim.control_tx"] = per_op(c["netsim.control_tx"])
    for kind in ("no_route", "ttl", "mac"):
        out[f"netsim.drops.{kind}"] = per_op(c[f"netsim.drops.{kind}"])
    # shares that say which layer a workload stresses
    out["olsr.run_share"] = _ratio(sum(t.total(n) for n in OLSR_TOP_SPANS), run_s)
    out["netsim.channel_mobility_share"] = _ratio(
        sum(t.self_time(n) for n in NETSIM_SPANS) + t.total("scenario.position"), run_s)

    out["scenario.position.calls"] = per_op(t.calls("scenario.position"))
    out["scenario.position.s"] = per_op(t.total("scenario.position"))
    out["scenario.catalog.s"] = _ratio(t.total("scenario.catalog"), t.calls("scenario.catalog"))

    evaluate_s = t.total("fitness.evaluate")
    evaluations = t.calls("fitness.evaluate")
    out["fitness.evaluate.calls"] = per_op(evaluations)
    out["fitness.evaluate.s"] = per_op(evaluate_s)
    out["fitness.evaluate.sim_share"] = _ratio(
        t.total_under("fitness.evaluate", "netsim.run_simulation"), evaluate_s)
    out["params.decode_params.calls"] = per_op(t.calls("params.decode_params"))
    out["params.decode_params.s"] = per_op(t.total("params.decode_params"))
    out["optimizers.search.calls"] = per_op(t.calls("optimizers.search"))
    out["optimizers.search.s"] = per_op(t.total("optimizers.search"))
    out["optimizers.overhead_s_per_eval"] = _ratio(t.self_time("optimizers.search"),
                                                   evaluations)
    out["stats.friedman_mean_ranks.s"] = per_op(t.total("stats.friedman_mean_ranks"))
    out["stats.kruskal_wallis.s"] = per_op(t.total("stats.kruskal_wallis"))
    out["cli.optimize.s"] = per_op(t.total("cli.optimize"))
    out["cli.self_s"] = per_op(t.self_time("cli.optimize"))
    return out
