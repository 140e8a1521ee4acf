"""Command line interface: simulate, optimize, compare, report.

Every command is deterministic given its flags and seeds (wall-clock
timing fields aside), writes each output once, as JSON, next to a short
stdout summary, and exits 0 on success or nonzero after printing a
diagnostic to stderr.  ``optimize`` writes ``campaign.json``, a
``records/`` directory of ``.run`` records and ``summary.json``;
``report`` writes ``summary.json`` and ``trajectories.json``; ``compare``
writes ``compare.json``; ``simulate --output`` writes one report.  The
wall-clock fields are the records' timing fields and ``summary.json``'s
``time_to_best`` and ``total_time``.

Campaigns persist one record file per (algorithm, seed) and resume by
skipping records that already exist, so an interrupted run can simply be
restarted with the same flags.  ``campaign.json`` holds only the settings
every record shares and is written once, before the first run of a new
outdir, and never rewritten; a restart that adds algorithms or runs is
accepted, but one whose scenario, budget, population, base seed or eval
seed differ from it is refused before any record is written.

Each input has one form.  A scenario is a bundled name or a
:func:`~olsrlab.scenario.save_scenario` file; a config is a bundled label
or a campaign's ``.run`` record, whose best config it names by the
record's path as given.  Output goes to ``--outdir``, ``olsrlab-out``
unless given; no environment variable is read.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from dataclasses import asdict

from . import configs as configs_mod
from . import scenario as scenario_mod
from .fitness import COST_WEIGHTS, OlsrObjective, comm_cost
from .netsim import QosMetrics, run_simulation
from .olsr import OlsrConfig
from .optimizers import ALGORITHMS, OptimizerConfig, RunRecord, search
from .stats import friedman_mean_ranks, kruskal_wallis, kruskal_wallis_vs_rest, summary_table

SIM_REPORT_FORMAT = "olsrlab-sim-report-v1"
METRIC_FIELDS = ("pdr", "nrl", "e2ed", "rpl")


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _resolve_scenario(name: str) -> scenario_mod.ScenarioSpec:
    cat = scenario_mod.catalog()
    if name in cat:
        return cat[name]
    if os.path.exists(name):
        return scenario_mod.load_scenario(name)
    raise ValueError(f"unknown scenario {name!r}; bundled: {', '.join(sorted(cat))}")


def _read_record(path: str) -> RunRecord:
    """A ``.run`` record; a malformed one, or one whose best config cannot
    run, raises ValueError naming ``path``."""
    try:
        with open(path) as fh:
            record = RunRecord.from_text(fh.read())
        record.best.config.validate()
        return record
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _resolve_config(name: str) -> tuple[str, OlsrConfig]:
    """A bundled config by its name, or a ``.run`` record's best config
    labelled by its path as given."""
    named = configs_mod.named_configs()
    if name in named:
        return name, named[name]
    if os.path.exists(name):
        return name, _read_record(name).best.config
    raise ValueError(f"unknown config {name!r}; bundled: {', '.join(sorted(named))}")


# -- simulate ----------------------------------------------------------------

def cmd_simulate(args) -> int:
    spec = _resolve_scenario(args.scenario)
    label, config = _resolve_config(args.config)
    if args.event_log:
        # written aside and moved into place only after a run that succeeds,
        # so a refused or failed run leaves no log behind
        tmp = args.event_log + ".tmp"
        try:
            with open(tmp, "w") as log_fh:
                metrics = run_simulation(spec, config, args.seed, event_log=log_fh)
            os.replace(tmp, args.event_log)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    else:
        metrics = run_simulation(spec, config, args.seed)
    cost = comm_cost(metrics)
    report = {
        "format": SIM_REPORT_FORMAT,
        "scenario": spec.name,
        "config": label,
        "seed": args.seed,
        "weights": dict(COST_WEIGHTS),
        "metrics": asdict(metrics),
        "cost": cost,
    }
    print(f"{spec.name} config={label} seed={args.seed}: "
          f"pdr={metrics.pdr:.4f} nrl={metrics.nrl:.4f} "
          f"e2ed={metrics.e2ed * 1e3:.3f}ms rpl={metrics.rpl:.3f} cost={cost:.5f}")
    if args.output:
        _atomic_write(args.output, json.dumps(report, sort_keys=True, indent=1) + "\n")
    return 0


# -- optimize ----------------------------------------------------------------

def _record_path(records_dir: str, algorithm: str, seed: int) -> str:
    return os.path.join(records_dir, f"{algorithm}-seed{seed:06d}.run")


def _campaign_records(records_dir: str) -> dict[str, list[RunRecord]]:
    by_alg: dict[str, list[RunRecord]] = {}
    for name in sorted(os.listdir(records_dir)):
        if not name.endswith(".run"):
            continue
        record = _read_record(os.path.join(records_dir, name))
        by_alg.setdefault(record.algorithm, []).append(record)
    for records in by_alg.values():
        records.sort(key=lambda r: r.seed)
    return by_alg


def _write_summary(outdir: str, by_alg: dict[str, list[RunRecord]]) -> dict:
    rows = summary_table(by_alg)
    algorithms = [r.algorithm for r in rows]
    costs = {r.algorithm: [rec.best_cost for rec in by_alg[r.algorithm]] for r in rows}

    friedman = None
    omnibus = None
    vs_rest = {}
    blocks = []
    if len(algorithms) >= 2:
        # Friedman ranks the algorithms within each block, a seed every
        # algorithm ran; Kruskal-Wallis takes every run, in groups of any size
        blocks = sorted(set.intersection(*({rec.seed for rec in by_alg[a]}
                                           for a in algorithms)))
        if len(blocks) >= 2:
            cost_at = {a: {rec.seed: rec.best_cost for rec in by_alg[a]} for a in algorithms}
            friedman = friedman_mean_ranks([[cost_at[a][seed] for a in algorithms]
                                            for seed in blocks])
        if any(len(c) > 1 for c in costs.values()):
            omnibus = kruskal_wallis([costs[a] for a in algorithms])
            vs_rest = kruskal_wallis_vs_rest(costs)

    algorithm_entries = {}
    for i, row in enumerate(rows):
        entry = asdict(row)
        del entry["algorithm"]
        entry["friedman_rank"] = friedman.mean_ranks[i] if friedman else None
        entry["kw_p_vs_rest"] = vs_rest[row.algorithm].p_value if vs_rest else None
        algorithm_entries[row.algorithm] = entry
    friedman_entry = None
    if friedman:
        friedman_entry = {"statistic": friedman.statistic, "p_value": friedman.p_value}
        if any(row.runs > len(blocks) for row in rows):
            # some runs have a seed another algorithm lacks and were left out
            friedman_entry["blocks"] = len(blocks)
    doc = {
        "algorithms": algorithm_entries,
        "friedman": friedman_entry,
        "kruskal_wallis": {"statistic": omnibus.statistic, "p_value": omnibus.p_value}
        if omnibus else None,
    }
    _atomic_write(os.path.join(outdir, "summary.json"),
                  json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return doc


# the settings every record of one campaign shares
CAMPAIGN_KEYS = ("scenario", "budget", "population", "base_seed", "eval_seed")


def _check_same_campaign(path: str, manifest: dict) -> bool:
    """Refuse to resume a campaign whose shared settings differ, or whose
    manifest is malformed; return whether there is one to resume.  Other
    keys, such as the ``algorithms`` and ``runs`` that older manifests
    list, are not read."""
    if not os.path.exists(path):
        return False
    with open(path) as fh:
        try:
            existing = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(existing, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(existing).__name__}")
    differing = [f"{key} {existing.get(key)!r} != {manifest[key]!r}"
                 for key in CAMPAIGN_KEYS if existing.get(key) != manifest[key]]
    if differing:
        raise ValueError(f"{path} belongs to another campaign ({'; '.join(differing)}); "
                         "use another --outdir")
    return True


def cmd_optimize(args) -> int:
    # a repeated name runs once, in first-named order
    algorithms = list(dict.fromkeys(a.strip().upper() for a in args.algorithms.split(",")))
    for a in algorithms:
        if a not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}; pick from {', '.join(ALGORITHMS)}")
        # before campaign.json fixes the settings, so a retry may correct them
        OptimizerConfig(a, budget=args.budget, population=args.population).validate()
    outdir = args.outdir
    records_dir = os.path.join(outdir, "records")
    manifest_path = os.path.join(outdir, "campaign.json")

    spec = _resolve_scenario(args.scenario)
    objective = OlsrObjective(spec, seeds=(args.eval_seed,))

    manifest = {
        "format": "olsrlab-campaign-v1",
        "scenario": spec.name,
        "budget": args.budget,
        "population": args.population,
        "base_seed": args.base_seed,
        "eval_seed": args.eval_seed,
        "weights": dict(COST_WEIGHTS),
    }
    resuming = _check_same_campaign(manifest_path, manifest)
    os.makedirs(records_dir, exist_ok=True)
    if not resuming:
        _atomic_write(manifest_path, json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    executed = 0
    for algorithm in algorithms:
        for i in range(args.runs):
            seed = args.base_seed + i
            path = _record_path(records_dir, algorithm, seed)
            if os.path.exists(path):
                continue
            cfg = OptimizerConfig(algorithm, budget=args.budget,
                                  population=args.population, seed=seed)
            record = search(cfg, objective)
            _atomic_write(path, record.to_text())
            executed += 1

    by_alg = _campaign_records(records_dir)
    doc = _write_summary(outdir, by_alg)
    print(f"campaign: {executed} new runs, {sum(len(v) for v in by_alg.values())} total "
          f"-> {outdir}")
    for algorithm, entry in doc["algorithms"].items():
        rank = entry["friedman_rank"]
        print(f"  {algorithm:>4}: mean={entry['mean']:.5f} +- {entry['std']:.5f} "
              f"best={entry['best']:.5f} median={entry['median']:.5f}"
              + (f" rank={rank:.2f}" if rank is not None else ""))
    return 0


# -- compare -----------------------------------------------------------------

def _best_configs_from_records(runs_dir: str) -> list[tuple[str, OlsrConfig]]:
    by_alg = _campaign_records(runs_dir)
    out = []
    for algorithm, records in sorted(by_alg.items()):
        best = min(records, key=lambda r: r.best_cost)
        out.append((f"best-{algorithm.lower()}", best.best.config))
    return out


def cmd_compare(args) -> int:
    entries: list[tuple[str, OlsrConfig]] = []
    if args.configs:
        for name in args.configs.split(","):
            entries.append(_resolve_config(name.strip()))
    if args.runs_dir:
        entries.extend(_best_configs_from_records(args.runs_dir))
    if not entries:
        raise ValueError("nothing to compare: pass --configs and/or --runs-dir")
    labels = [label for label, _ in entries]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"config label named more than once: {', '.join(repeated)}")
    scenarios = [_resolve_scenario(n.strip()) for n in args.scenarios.split(",")]
    names = [spec.name for spec in scenarios]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"scenario named more than once: {', '.join(repeated)}")
    seeds = [args.base_seed + i for i in range(args.seeds)]

    cells = []
    per_config_all: dict[str, list[QosMetrics]] = {}
    for label, config in entries:
        for spec in scenarios:
            runs = [run_simulation(spec, config, s) for s in seeds]
            med = {f: statistics.median(getattr(m, f) for m in runs)
                   for f in METRIC_FIELDS}
            cells.append({"config": label, "scenario": spec.name, **med})
            per_config_all.setdefault(label, []).extend(runs)
    for label, runs in per_config_all.items():
        med = {f: statistics.median(getattr(m, f) for m in runs) for f in METRIC_FIELDS}
        cells.append({"config": label, "scenario": "ALL", **med})

    # flag the winner of every metric within each scenario group
    better = {"pdr": max, "nrl": min, "e2ed": min, "rpl": min}
    for scenario_name in {c["scenario"] for c in cells}:
        group = [c for c in cells if c["scenario"] == scenario_name]
        for metric, pick in better.items():
            target = pick(c[metric] for c in group)
            for c in group:
                c[f"{metric}_best"] = c[metric] == target

    out_json = os.path.join(args.outdir, "compare.json")
    os.makedirs(args.outdir, exist_ok=True)
    _atomic_write(out_json,
                  json.dumps({"seeds": seeds,
                              "cells": sorted(cells, key=lambda c: (c["scenario"], c["config"]))},
                             sort_keys=True, indent=1) + "\n")
    print(f"compare: {len(entries)} configs x {len(scenarios)} scenarios "
          f"x {len(seeds)} seeds -> {out_json}")
    return 0


# -- report ------------------------------------------------------------------

def cmd_report(args) -> int:
    records_dir = args.records
    if not os.path.isdir(records_dir):
        raise ValueError(f"no such records directory: {records_dir}")
    by_alg = _campaign_records(records_dir)
    if not by_alg:
        raise ValueError(f"no .run records under {records_dir}")
    os.makedirs(args.outdir, exist_ok=True)

    doc = _write_summary(args.outdir, by_alg)
    traj = {
        algorithm: {
            str(record.seed): record.best_so_far() for record in records
        }
        for algorithm, records in sorted(by_alg.items())
    }
    _atomic_write(os.path.join(args.outdir, "trajectories.json"),
                  json.dumps(traj, sort_keys=True) + "\n")
    total = sum(len(v) for v in by_alg.values())
    print(f"report: {total} runs, algorithms: {', '.join(sorted(by_alg))} -> {args.outdir}")
    for algorithm, entry in doc["algorithms"].items():
        print(f"  {algorithm:>4}: median={entry['median']:.5f} best={entry['best']:.5f}")
    return 0


# -- entry point ---------------------------------------------------------------

def _int_at_least(text: str, lowest: int) -> int:
    value = int(text)
    if value < lowest:
        raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
    return value


def positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olsrlab",
        description="Simulate and tune a proactive MANET routing protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one simulation and print its metrics")
    p.add_argument("--scenario", required=True, help="bundled name or scenario JSON path")
    p.add_argument("--config", default="rfc3626",
                   help="bundled label or .run record path (its best config)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--output", help="write a JSON report here")
    p.add_argument("--event-log", help="write the per-event trace here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="run an optimization campaign with resume")
    p.add_argument("--scenario", required=True,
                   help="bundled name or scenario JSON path; every evaluation simulates it")
    p.add_argument("--algorithms", default=",".join(ALGORITHMS))
    p.add_argument("--runs", type=positive_int, default=30)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--population", type=positive_int, default=10)
    # the optimizers seed numpy, which refuses a negative seed
    p.add_argument("--base-seed", type=non_negative_int, default=1)
    p.add_argument("--eval-seed", type=int, default=0,
                   help="simulation seed shared by every evaluation")
    p.add_argument("--outdir", default="olsrlab-out")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("compare", help="simulate configurations across scenarios")
    p.add_argument("--configs", help="comma-separated labels or .run record paths")
    p.add_argument("--runs-dir", help="records directory; adds each algorithm's best config")
    p.add_argument("--scenarios", required=True, help="comma-separated names or paths")
    p.add_argument("--seeds", type=positive_int, default=5, help="simulation seeds per cell")
    p.add_argument("--base-seed", type=int, default=1)
    p.add_argument("--outdir", default="olsrlab-out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="regenerate summaries from persisted records")
    p.add_argument("--records", required=True, help="directory of .run files")
    p.add_argument("--outdir", default="olsrlab-out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
