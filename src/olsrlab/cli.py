"""Command line interface: simulate, optimize, compare, report.

Every command is deterministic given its flags and seeds (wall-clock
timing columns aside), writes machine-readable CSV/JSON next to a short
stdout summary, and exits 0 on success or nonzero after printing a
diagnostic to stderr.

Campaigns persist one record file per (algorithm, seed) and resume by
skipping records that already exist, so an interrupted run can simply be
restarted with the same flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from dataclasses import asdict

from . import configs as configs_mod
from . import scenario as scenario_mod
from .fitness import DEFAULT_WEIGHTS, FitnessWeights, OlsrObjective, comm_cost
from .netsim import QosMetrics, run_simulation
from .olsr import OlsrConfig
from .optimizers import ALGORITHMS, BENCHMARKS, OptimizerConfig, RunRecord, search
from .stats import friedman_mean_ranks, kruskal_wallis, kruskal_wallis_vs_rest, summary_table

CONFIG_FORMAT = "olsrlab-config-v1"
SIM_REPORT_FORMAT = "olsrlab-sim-report-v1"
METRIC_FIELDS = ("pdr", "nrl", "e2ed", "rpl")


def _default_outdir() -> str:
    return os.environ.get("OLSRLAB_OUTDIR", "olsrlab-out")


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


def _resolve_config(name: str) -> tuple[str, OlsrConfig]:
    named = configs_mod.named_configs()
    if name in named:
        entry = named[name]
        return entry.label, entry.config
    if os.path.exists(name):
        with open(name) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{name}: expected a JSON object, got {type(doc).__name__}")
        if doc.get("format") != CONFIG_FORMAT:
            raise ValueError(f"{name}: unsupported config format {doc.get('format')!r}")
        fields = {k: v for k, v in doc.items() if k != "format"}
        try:
            config = OlsrConfig(**fields)
        except TypeError as exc:  # a key OlsrConfig does not have
            raise ValueError(f"{name}: {exc}") from None
        return os.path.basename(name), config
    raise ValueError(f"unknown config {name!r}; bundled: {', '.join(sorted(named))}")


def _parse_weights(text: str | None) -> FitnessWeights:
    if not text:
        return DEFAULT_WEIGHTS
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("weights must be three comma-separated numbers: pdr,nrl,e2ed")
    return FitnessWeights(pdr=parts[0], nrl=parts[1], e2ed=parts[2])


# -- simulate ----------------------------------------------------------------

def cmd_simulate(args) -> int:
    spec = _resolve_scenario(args.scenario)
    label, config = _resolve_config(args.config)
    weights = _parse_weights(args.weights)
    log_fh = open(args.event_log, "w") if args.event_log else None
    try:
        metrics = run_simulation(spec, config, args.seed, event_log=log_fh)
    finally:
        if log_fh:
            log_fh.close()
    cost = comm_cost(metrics, weights)
    report = {
        "format": SIM_REPORT_FORMAT,
        "scenario": spec.name,
        "config": label,
        "seed": args.seed,
        "weights": asdict(weights),
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
        with open(os.path.join(records_dir, name)) as fh:
            record = RunRecord.from_text(fh.read())
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
    runs = {len(c) for c in costs.values()}
    if len(algorithms) >= 2 and len(runs) == 1 and runs != {1}:
        matrix = [[costs[a][i] for a in algorithms] for i in range(runs.pop())]
        friedman = friedman_mean_ranks(matrix)
        omnibus = kruskal_wallis([costs[a] for a in algorithms])
        vs_rest = kruskal_wallis_vs_rest(costs)

    with open(os.path.join(outdir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "runs", "mean", "std", "best", "median",
                         "worst", "friedman_rank", "kw_p_vs_rest"])
        for i, row in enumerate(rows):
            writer.writerow([
                row.algorithm, row.runs, repr(row.mean), repr(row.std),
                repr(row.best), repr(row.median), repr(row.worst),
                repr(friedman.mean_ranks[i]) if friedman else "",
                repr(vs_rest[row.algorithm].p_value) if vs_rest else "",
            ])
    with open(os.path.join(outdir, "timing.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "time_to_best_s", "total_time_s"])
        for row in rows:
            writer.writerow([row.algorithm, repr(row.time_to_best), repr(row.total_time)])

    doc = {
        "algorithms": {
            row.algorithm: {
                "runs": row.runs, "mean": row.mean, "std": row.std,
                "best": row.best, "median": row.median, "worst": row.worst,
                "time_to_best": row.time_to_best, "total_time": row.total_time,
                "friedman_rank": friedman.mean_ranks[i] if friedman else None,
                "kw_p_vs_rest": vs_rest[row.algorithm].p_value if vs_rest else None,
            }
            for i, row in enumerate(rows)
        },
        "friedman": {"statistic": friedman.statistic, "p_value": friedman.p_value}
        if friedman else None,
        "kruskal_wallis": {"statistic": omnibus.statistic, "p_value": omnibus.p_value}
        if omnibus else None,
    }
    _atomic_write(os.path.join(outdir, "summary.json"),
                  json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return doc


def cmd_optimize(args) -> int:
    algorithms = [a.strip().upper() for a in args.algorithms.split(",")]
    for a in algorithms:
        if a not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}; pick from {', '.join(ALGORITHMS)}")
    weights = _parse_weights(args.weights)
    outdir = args.outdir
    records_dir = os.path.join(outdir, "records")
    os.makedirs(records_dir, exist_ok=True)

    spec = None
    if args.objective == "sim":
        spec = _resolve_scenario(args.scenario)
        objective = OlsrObjective(spec, weights, seeds=(args.eval_seed,))
    else:
        objective = BENCHMARKS[args.objective]

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

    manifest = {
        "format": "olsrlab-campaign-v1",
        "objective": args.objective,
        "scenario": spec.name if spec else None,
        "algorithms": algorithms,
        "runs": args.runs,
        "budget": args.budget,
        "population": args.population,
        "base_seed": args.base_seed,
        "eval_seed": args.eval_seed,
        "weights": asdict(weights),
        "records": sorted(n for n in os.listdir(records_dir) if n.endswith(".run")),
    }
    _atomic_write(os.path.join(outdir, "campaign.json"),
                  json.dumps(manifest, sort_keys=True, indent=1) + "\n")

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
    scenarios = [_resolve_scenario(n.strip()) for n in args.scenarios.split(",")]
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

    out_csv = os.path.join(args.outdir, "compare.csv")
    os.makedirs(args.outdir, exist_ok=True)
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "scenario"] + [f for f in METRIC_FIELDS]
                        + [f"{f}_best" for f in METRIC_FIELDS])
        for c in sorted(cells, key=lambda c: (c["scenario"], c["config"])):
            writer.writerow([c["config"], c["scenario"]]
                            + [repr(c[f]) for f in METRIC_FIELDS]
                            + [int(c[f"{f}_best"]) for f in METRIC_FIELDS])
    _atomic_write(os.path.join(args.outdir, "compare.json"),
                  json.dumps({"seeds": seeds,
                              "cells": sorted(cells, key=lambda c: (c["scenario"], c["config"]))},
                             sort_keys=True, indent=1) + "\n")
    print(f"compare: {len(entries)} configs x {len(scenarios)} scenarios "
          f"x {len(seeds)} seeds -> {out_csv}")
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
    formats = {f.strip() for f in args.format.split(",")}

    doc = _write_summary(args.outdir, by_alg)
    if "csv" in formats:
        with open(os.path.join(args.outdir, "trajectories.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm", "seed", "eval_index", "cost", "best_so_far"])
            for algorithm, records in sorted(by_alg.items()):
                for record in records:
                    series = record.best_so_far()
                    for (index, cost, _), best in zip(record.trajectory, series):
                        writer.writerow([algorithm, record.seed, index,
                                         repr(cost), repr(best)])
    if "json" in formats:
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olsrlab",
        description="Simulate and tune a proactive MANET routing protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one simulation and print its metrics")
    p.add_argument("--scenario", required=True, help="bundled name or scenario JSON path")
    p.add_argument("--config", default="rfc3626", help="bundled label or config JSON path")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--weights", help="cost weights as pdr,nrl,e2ed")
    p.add_argument("--output", help="write a JSON report here")
    p.add_argument("--event-log", help="write the per-event trace here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="run an optimization campaign with resume")
    p.add_argument("--scenario", help="required for the sim objective")
    p.add_argument("--objective", default="sim", choices=["sim", "sphere", "rastrigin"])
    p.add_argument("--algorithms", default=",".join(ALGORITHMS))
    p.add_argument("--runs", type=int, default=30)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--population", type=int, default=10)
    p.add_argument("--base-seed", type=int, default=1)
    p.add_argument("--eval-seed", type=int, default=0,
                   help="simulation seed shared by every evaluation")
    p.add_argument("--weights", help="cost weights as pdr,nrl,e2ed")
    p.add_argument("--outdir", default=_default_outdir())
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("compare", help="simulate configurations across scenarios")
    p.add_argument("--configs", help="comma-separated labels or config JSON paths")
    p.add_argument("--runs-dir", help="records directory; adds each algorithm's best config")
    p.add_argument("--scenarios", required=True, help="comma-separated names or paths")
    p.add_argument("--seeds", type=int, default=5, help="simulation seeds per cell")
    p.add_argument("--base-seed", type=int, default=1)
    p.add_argument("--outdir", default=_default_outdir())
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="regenerate summaries from persisted records")
    p.add_argument("--records", required=True, help="directory of .run files")
    p.add_argument("--format", default="csv,json")
    p.add_argument("--outdir", default=_default_outdir())
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "optimize" and args.objective == "sim" \
            and not args.scenario:
        parser.error("--scenario is required with the sim objective")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
