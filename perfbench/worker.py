"""One fresh process of the benchmark: set up a workload, then run it.

``run.py`` starts this file as a child so that set-up time and peak
memory are those of a new interpreter.  It prints human-readable lines,
then one JSON line with the raw measurements as its last line.

Usage (normally only through run.py)::

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T --parent PID
        [--setup-only] [--seconds S] [--trace 0|1]

``--spawned-at`` is the parent's CLOCK_MONOTONIC reading just before it
started this process; set-up time runs from there until the first event
of the workload could be scheduled.  ``--parent`` is the pid of
``run.py``; the kernel kills this process when that one ends.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import monotonic

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"

SIM_SCENARIOS = {"dense-urban": "u1-high", "sparse-wide": "base-malaga-like"}
CAMPAIGN_SCENARIO = "congested-small"
CAMPAIGN_ALGORITHMS = "PSO,DE,GA,SA,RAND"
CAMPAIGN_RUNS = 2
CAMPAIGN_BUDGET = 20
# The seed picks the simulation seed of every evaluation; the optimizer
# seeds stay at the CLI default.  RAND, SA (whose 20 evaluations are all
# calibration probes) and the first generation of PSO, DE and GA then
# visit the same configurations for every seed.  With the optimizers
# seeded too, one campaign took from 8.3 s to 13.4 s over ten seeds while
# its events per second moved far less: the configurations visited, not
# olsrlab's speed, set its wall time.
WORKLOADS = (*SIM_SCENARIOS, "tuning-campaign")

# hard stop for the measured loop, well inside the 180 s a run may take
LOOP_LIMIT_S = 100.0
PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def die_with_parent(parent: int) -> None:
    """Have the kernel kill this process when ``parent`` ends, even by SIGKILL."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent ended before the request took hold
        raise SystemExit(f"parent process {parent} is gone")


def import_olsrlab() -> dict:
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "olsrlab" / "__init__.py").is_file():
        raise SystemExit(f"olsrlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import olsrlab
    from olsrlab import cli, fitness, netsim, olsr, optimizers, scenario

    if Path(olsrlab.__file__).resolve().parent != SRC / "olsrlab":
        raise SystemExit(f"imported olsrlab from {olsrlab.__file__}, not {SRC}")
    return {"cli": cli, "fitness": fitness, "netsim": netsim, "olsr": olsr,
            "optimizers": optimizers, "scenario": scenario}


class SimTally:
    """Counts every simulation an operation runs and checks its metrics.

    Installed on ``Simulator.run`` for the whole process; it costs one
    extra call per simulation, not per event.
    """

    def __init__(self, modules: dict):
        self.events = 0
        self.sims = 0
        self.bad: list[str] = []
        sim_cls = modules["netsim"].Simulator
        original = sim_cls.run
        tally = self

        def run(sim):
            metrics = original(sim)
            tally.events += sim._insertions
            tally.sims += 1
            tally.bad.extend(qos_problems(metrics))
            return metrics

        sim_cls.run = run

    def take(self) -> tuple[int, int, list[str]]:
        out = (self.events, self.sims, self.bad)
        self.events, self.sims, self.bad = 0, 0, []
        return out


def qos_problems(m) -> list[str]:
    problems = []
    if m.data_sent != m.data_delivered + m.data_dropped + m.data_in_flight:
        problems.append(f"sent {m.data_sent} != delivered {m.data_delivered} + dropped "
                        f"{m.data_dropped} + in flight {m.data_in_flight}")
    if m.data_in_flight < 0:
        problems.append(f"negative in-flight count {m.data_in_flight}")
    if not 0.0 <= m.pdr <= 1.0:
        problems.append(f"pdr {m.pdr!r} outside [0, 1]")
    return problems


# -- workloads -------------------------------------------------------------

def setup(workload: str, seed: int, modules: dict, tracer=None) -> dict:
    """Resolve the scenario and build what the first event needs."""
    scenario, netsim, fitness = modules["scenario"], modules["netsim"], modules["fitness"]
    started = time.perf_counter()
    catalog = scenario.catalog()
    if tracer is not None:
        tracer.add("scenario.catalog", time.perf_counter() - started)
    config = modules["olsr"].OlsrConfig()
    if workload in SIM_SCENARIOS:
        spec = catalog[SIM_SCENARIOS[workload]]
        netsim.Simulator(spec, config, seed)
    else:
        spec = catalog[CAMPAIGN_SCENARIO]
        fitness.OlsrObjective(spec, seeds=(seed,))
    return {"spec": spec, "config": config}


def timed(call):
    """Return (call(), its start on the machine-wide monotonic clock, host seconds)."""
    started = monotonic()
    value = call()
    return value, started, monotonic() - started


def run_simulation_op(ctx: dict, seed: int, modules: dict) -> dict:
    netsim, fitness = modules["netsim"], modules["fitness"]
    metrics, start, wall = timed(
        lambda: netsim.run_simulation(ctx["spec"], ctx["config"], seed))
    problems = []  # SimTally has checked the metrics themselves
    try:
        cost = fitness.comm_cost(metrics)
    except ValueError as exc:
        problems.append(f"comm_cost: {exc}")
        cost = float("nan")
    return {
        "start": start, "wall_s": wall, "evals": 1, "problems": problems,
        "digest": hashlib.sha256(repr(metrics).encode()).hexdigest(),
        "qos": {"pdr": metrics.pdr, "nrl": metrics.nrl, "e2ed": metrics.e2ed, "cost": cost},
    }


def run_campaign_op(seed: int, modules: dict, outdir: Path) -> dict:
    cli, optimizers = modules["cli"], modules["optimizers"]
    argv = ["optimize", "--scenario", CAMPAIGN_SCENARIO,
            "--algorithms", CAMPAIGN_ALGORITHMS, "--runs", str(CAMPAIGN_RUNS),
            "--budget", str(CAMPAIGN_BUDGET), "--eval-seed", str(seed),
            "--outdir", str(outdir)]
    with contextlib.redirect_stdout(io.StringIO()):
        code, start, wall = timed(lambda: cli.main(argv))

    problems = [] if code == 0 else [f"olsrlab optimize exited with {code}"]
    records_dir = outdir / "records"
    names = sorted(p.name for p in records_dir.glob("*.run"))
    expected = len(CAMPAIGN_ALGORITHMS.split(",")) * CAMPAIGN_RUNS
    if len(names) != expected:
        problems.append(f"{len(names)} records, expected {expected}")
    digest = hashlib.sha256()
    evals = 0
    best = None
    for name in names:
        text = (records_dir / name).read_text()
        record = optimizers.RunRecord.from_text(text)
        if record.to_text() != text:
            problems.append(f"{name}: RunRecord text does not round-trip")
        if len(record.trajectory) != CAMPAIGN_BUDGET:
            problems.append(f"{name}: {len(record.trajectory)} evaluations, "
                            f"expected {CAMPAIGN_BUDGET}")
        if record.best.metrics is None:
            problems.append(f"{name}: best evaluation has no metrics")
        evals += len(record.trajectory)
        digest.update(record.to_text(include_timing=False).encode())
        if best is None or record.best_cost < best.best_cost:
            best = record
    summary = json.loads((outdir / "summary.json").read_text())
    if summary["friedman"] is None or summary["kruskal_wallis"] is None:
        problems.append("summary lacks the Friedman or Kruskal-Wallis result")
    shutil.rmtree(outdir)
    qos = {}
    if best is not None and best.best.metrics is not None:
        m = best.best.metrics
        qos = {"pdr": m.pdr, "nrl": m.nrl, "e2ed": m.e2ed, "cost": best.best_cost}
    return {"start": start, "wall_s": wall, "evals": evals, "problems": problems,
            "digest": digest.hexdigest(), "qos": qos}


def run_op(workload: str, ctx: dict, seed: int, modules: dict, tally: SimTally,
           index: int) -> dict:
    try:
        if workload in SIM_SCENARIOS:
            result = run_simulation_op(ctx, seed, modules)
        else:
            result = run_campaign_op(seed, modules, WORK_DIR / str(os.getpid()) / f"op{index}")
    except Exception as exc:  # an operation that raises counts as failed
        traceback.print_exc(file=sys.stdout)
        tally.take()
        return {"start": None, "wall_s": None, "evals": 0, "events": 0, "digest": None,
                "qos": {}, "problems": [f"{type(exc).__name__}: {exc}"]}
    events, sims, bad = tally.take()
    result["events"] = events
    result["problems"].extend(bad)
    if sims != result["evals"]:
        result["problems"].append(f"{sims} simulations for {result['evals']} evaluations")
    return result


def describe(index: int, traced: bool, result: dict) -> str:
    qos = " ".join(f"{k}={v:.6g}" for k, v in result["qos"].items())
    wall = f"{result['wall_s']:.4f}" if result["wall_s"] is not None else "-"
    line = (f"op {index} {'traced' if traced else 'untraced'} wall_s={wall} "
            f"events={result['events']} evals={result['evals']} {qos} "
            f"digest={result['digest']}")
    for problem in result["problems"]:
        line += f"\n  FAILED: {problem}"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--parent", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    die_with_parent(args.parent)

    modules = import_olsrlab()
    tracer = None
    if args.trace:
        from spans import Tracer, instrument, layer_metrics
        tracer = Tracer()
    ctx = setup(args.workload, args.seed, modules, tracer)
    setup_s = monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = SimTally(modules)
    ops = []
    traced_walls = []
    untraced_walls = []
    reference = None
    try:
        started = time.perf_counter()
        while True:
            round_started = time.perf_counter()
            for traced in ((False, True) if args.trace else (False,)):
                undo = instrument(tracer, modules) if traced else None
                try:
                    result = run_op(args.workload, ctx, args.seed, modules, tally, len(ops))
                finally:
                    if undo is not None:
                        undo()
                if reference is None:
                    reference = result["digest"]
                elif result["digest"] != reference:
                    result["problems"].append(
                        f"digest {result['digest']} differs from the first "
                        f"operation's {reference}")
                (traced_walls if traced else untraced_walls).append(result["wall_s"])
                print(describe(len(ops), traced, result), flush=True)
                ops.append(result)
            # stop once less than half a round of the budget is left, so
            # a run measures about --seconds
            now = time.perf_counter()
            elapsed = now - started
            if (elapsed + (now - round_started) / 2 >= args.seconds
                    or elapsed >= LOOP_LIMIT_S):
                break
    finally:
        shutil.rmtree(WORK_DIR / str(os.getpid()), ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    report = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [{k: r[k] for k in ("start", "wall_s", "events", "evals", "digest")}
                | {"failed": bool(r["problems"])} for r in ops],
    }
    if tracer is not None:
        for line in tracer.table():
            print(line)
        layers = layer_metrics(tracer, len(traced_walls))
        traced_walls = [w for w in traced_walls if w is not None]
        untraced_walls = [w for w in untraced_walls if w is not None]
        if traced_walls and untraced_walls:
            layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                          - statistics.median(untraced_walls))
        report["per_layer"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
