"""olsrlab benchmark: one workload, one seed, every metric with its unit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dense-urban --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it runs the workload traced and untraced and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it describe each operation, the trace and the machine.

Every measurement happens in a fresh child process (``worker.py``), so
set-up time and peak memory are those of a new interpreter.  Only one
child runs at a time, each is waited for, and each is killed by the
kernel if this process dies first.  The exit code is nonzero, and no
result is printed, when the olsrlab sources are missing or a child
process fails.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no bytecode cache in the checkout
from reference import ReferenceClock, monotonic  # noqa: E402
from worker import ROOT, SRC, WORK_DIR, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
# default seed of every workload, and the held-out seed kept for
# confirming a claimed gain on inputs it was not tuned on
SEEDS = {"dense-urban": (1, 7), "sparse-wide": (1, 7), "tuning-campaign": (1, 7)}
SETUP_PROBES = 3      # timed set-up-only children per untraced run, besides the worker
RUN_LIMIT_S = 170.0   # a run must end within 180 s


class BenchError(Exception):
    pass


def child(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run worker.py with ``args``; return when it was spawned, on the
    monotonic clock, and its stdout lines.

    ``subprocess.run`` kills and reaps the child if it outlives the
    deadline or this process is interrupted, and the child has the kernel
    kill it if this process dies, so no process is left behind.
    """
    spawned_at = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-B", str(HERE / "worker.py"), *args,
             "--spawned-at", repr(spawned_at), "--parent", str(os.getpid())],
            cwd=ROOT, capture_output=True, text=True, stdin=subprocess.DEVNULL,
            timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing")
    return spawned_at, lines


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def measure(workload: str, seed: int, seconds: int, trace: int, deadline: float):
    """Return (metrics, attempted, failed) for one run of the workload."""
    run_args = ["--workload", workload, "--seed", str(seed)]
    if trace:
        _, lines = child([*run_args, "--seconds", str(seconds), "--trace", "1"], deadline)
        report, _, attempted, failed = parse_ops(lines)
        return report["per_layer"], attempted, failed
    with ReferenceClock() as clock:
        # the first probe is a warm-up that fills the page cache
        setup = []
        for probe in range(1 + SETUP_PROBES):
            spawned_at, lines = child([*run_args, "--setup-only"], deadline)
            if probe:
                setup.append((spawned_at, json.loads(lines[-1])["setup_s"]))
        spawned_at, lines = child([*run_args, "--seconds", str(seconds), "--trace", "0"],
                                  deadline)
    report, timed, attempted, failed = parse_ops(lines)
    setup.append((spawned_at, report["setup_s"]))
    print(f"setup_s host-clock samples: {' '.join(f'{s:.4f}' for _, s in setup)}")
    host_s = [op["wall_s"] for op in timed]
    ref_s = [clock.seconds(op["start"], op["start"] + op["wall_s"]) for op in timed]

    def rate(key: str, seconds: list[float]) -> float:
        return statistics.median(op[key] / t for op, t in zip(timed, seconds))

    print(f"host-clock medians: wall_s={statistics.median(host_s):.6g} "
          f"events_per_s={rate('events', host_s):.6g} evals_per_s={rate('evals', host_s):.6g}")
    metrics = {
        "wall_ref_s": statistics.median(ref_s),
        "events_per_ref_s": rate("events", ref_s),
        "evals_per_ref_s": rate("evals", ref_s),
        "setup_s": statistics.median(clock.seconds(t, t + s) for t, s in setup),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return metrics, attempted, failed


def parse_ops(lines: list[str]):
    """Print the worker's lines; return its report, the operations that
    completed, and how many were attempted and failed."""
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])
    ops = report["ops"]
    timed = [op for op in ops if op["wall_s"] is not None]
    if not timed:
        raise BenchError("no operation completed, so nothing was measured")
    return report, timed, len(ops), sum(op["failed"] for op in ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, help="default: the workload's default seed")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so its child process is stopped and reaped
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, lambda signum, _frame: sys.exit(128 + signum))
    seed = SEEDS[args.workload][0] if args.seed is None else args.seed
    deadline = monotonic() + RUN_LIMIT_S

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "olsrlab").is_dir():
            raise BenchError(f"olsrlab sources not found under {SRC}")
        info = provenance()
        metrics, attempted, failed = measure(args.workload, seed, args.seconds,
                                             args.trace, deadline)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if set(metrics) != set(units):
            raise BenchError(f"measured metrics {sorted(metrics)} differ from the "
                             f"declared ones {sorted(units)}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    info["loadavg_end"] = os.getloadavg()
    info.update(workload=args.workload, seed=seed, held_out_seed=SEEDS[args.workload][1],
                seconds=args.seconds, trace=args.trace)
    print("provenance " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
