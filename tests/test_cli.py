"""Command line interface, exercised in process through main(argv)."""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace

import pytest

import olsrlab
from olsrlab import cli
from olsrlab.cli import main
from olsrlab.fitness import COST_WEIGHTS, Evaluation
from olsrlab.netsim import run_simulation
from olsrlab.olsr import OlsrConfig
from olsrlab.optimizers import RunRecord
from olsrlab.scenario import catalog, save_scenario
from olsrlab.stats import friedman_mean_ranks, kruskal_wallis, kruskal_wallis_vs_rest


def read(path):
    with open(path) as fh:
        return fh.read()


def write_record(path, config):
    """A one-evaluation ``.run`` record whose best config is ``config``."""
    record = RunRecord(algorithm="PSO", seed=1, trajectory=[(0, -0.5, (0.0,))],
                       best=Evaluation(config, None, -0.5), best_index=0,
                       time_to_best=0.0, total_time=0.0)
    path.write_text(record.to_text())
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_prints_metrics_and_writes_a_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["simulate", "--scenario", "static-mesh-smoke", "--seed", "1",
               "--output", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "static-mesh-smoke" in stdout
    assert "pdr=1.0000" in stdout

    doc = json.loads(read(out))
    assert doc["format"] == "olsrlab-sim-report-v1"
    assert doc["scenario"] == "static-mesh-smoke"
    assert doc["metrics"]["pdr"] == 1.0
    assert doc["weights"] == {"e2ed": 0.3, "nrl": 0.2, "pdr": 0.5}
    assert doc["cost"] == pytest.approx(
        0.2 * doc["metrics"]["nrl"] + 0.3 * doc["metrics"]["e2ed"] - 0.5)


def test_simulate_is_reproducible_byte_for_byte(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["simulate", "--scenario", "congested-small", "--seed", "9",
          "--output", str(a)])
    main(["simulate", "--scenario", "congested-small", "--seed", "9",
          "--output", str(b)])
    assert read(a) == read(b)


def test_simulate_writes_an_event_log(tmp_path):
    log = tmp_path / "events.log"
    rc = main(["simulate", "--scenario", "static-mesh-smoke", "--event-log", str(log)])
    assert rc == 0
    lines = read(log).splitlines()
    assert lines and lines[-1].endswith("sim-end ")
    assert not os.path.exists(str(log) + ".tmp")


def test_simulate_that_fails_leaves_no_event_log(tmp_path, capsys):
    path = tmp_path / "silent.json"
    save_scenario(replace(catalog()["static-mesh-smoke"], sessions=[]), path)
    log, out = tmp_path / "events.log", tmp_path / "report.json"
    rc = main(["simulate", "--scenario", str(path), "--event-log", str(log),
               "--output", str(out)])
    assert rc == 2
    assert "no CBR sessions" in capsys.readouterr().err
    assert not log.exists() and not os.path.exists(str(log) + ".tmp")
    assert not out.exists()


def test_simulate_unknown_scenario_lists_the_bundled_names(capsys):
    rc = main(["simulate", "--scenario", "no-such-place"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "congested-small" in err


def test_simulate_accepts_a_config_file(tmp_path, capsys):
    """A ``.run`` record's best config replays; its path as given is its label."""
    config = OlsrConfig(hello_interval=3.0, tc_interval=6.0)
    path = write_record(tmp_path / "tuned.run", config)
    rc = main(["simulate", "--scenario", "congested-small", "--config", str(path),
               "--seed", "3", "--output", str(tmp_path / "report.json")])
    assert rc == 0
    expected = run_simulation(catalog()["congested-small"], config, 3)
    assert expected != run_simulation(catalog()["congested-small"], OlsrConfig(), 3)
    stdout = capsys.readouterr().out
    assert f"config={path} seed=3" in stdout
    assert f"pdr={expected.pdr:.4f} nrl={expected.nrl:.4f}" in stdout
    report = json.loads(read(tmp_path / "report.json"))
    assert report["config"] == str(path)
    assert report["metrics"] == asdict(expected)


def test_simulate_rejects_a_mislabeled_config_file(tmp_path, capsys):
    # the config format of earlier versions is not a run record
    cfg = tmp_path / "odd.json"
    cfg.write_text(json.dumps({"format": "olsrlab-config-v1", "hello_interval": 3.0}))
    assert main(["simulate", "--scenario", "static-mesh-smoke",
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ")
    assert "format" in err


@pytest.mark.parametrize("doc,named", [
    ({"hello_intervl": 3.0}, "hello_intervl"),
    ([3.0], "list"),
    (None, "best_config"),  # the key removed
])
def test_simulate_rejects_a_malformed_config_file(tmp_path, capsys, doc, named):
    path = write_record(tmp_path / "bad.run", OlsrConfig())
    if doc is None:
        path.write_text(_without_best_config(read(path)))
    else:
        lines = read(path).splitlines()
        summary = json.loads(lines[-1])
        summary["best_config"] = doc
        path.write_text("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")
    assert main(["simulate", "--scenario", "static-mesh-smoke",
                 "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert named in err


def misspell_a_session_key(doc):
    doc["sessions"][0]["sourc"] = doc["sessions"][0].pop("source")
    return doc


def node_1_moves_to(waypoint):
    def edit(doc):
        doc["trace"]["1"] = [[0.0, 90.0, 20.0], waypoint]
        return doc
    return edit


def set_key(key, value):
    def edit(doc):
        doc[key] = value
        return doc
    return edit


def rename_node_1(doc):
    doc["trace"]["x"] = doc["trace"].pop("1")
    return doc


@pytest.mark.parametrize("edit,named", [
    (misspell_a_session_key, "sourc"),
    (lambda doc: {k: v for k, v in doc.items() if k != "trace"}, "trace"),
    (lambda doc: [doc], "list"),
    pytest.param(node_1_moves_to([math.nan, 20, 20]), "node 1", id="nan-waypoint"),
    pytest.param(node_1_moves_to([math.inf, 20, 20]), "node 1", id="infinite-waypoint"),
    pytest.param(node_1_moves_to("abc"), "node 1", id="string-waypoint"),
    pytest.param(node_1_moves_to([5.0, 20]), "node 1", id="two-element-waypoint"),
    pytest.param(set_key("area", ["wide", "deep"]), "area", id="string-area"),
    pytest.param(rename_node_1, "'x'", id="trace-key-x"),
])
def test_simulate_rejects_a_malformed_scenario_file(tmp_path, capsys, edit, named):
    path = tmp_path / "mesh.json"
    save_scenario(catalog()["static-mesh-smoke"], path)
    path.write_text(json.dumps(edit(json.loads(read(path)))))
    assert main(["simulate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert named in err


def test_simulate_runs_any_runnable_config_and_has_no_waiver_flag(tmp_path, capsys):
    """No waiver flag: configs outside the tuning box run, unrunnable ones fail."""
    cfg = write_record(tmp_path / "subsecond.run",
                       OlsrConfig(hello_interval=0.5, refresh_interval=0.5,
                                  neighb_hold_time=1.5))
    assert main(["simulate", "--scenario", "static-mesh-smoke",
                 "--config", str(cfg)]) == 0
    zero = write_record(tmp_path / "zero.run", OlsrConfig(hello_interval=0))
    assert main(["simulate", "--scenario", "static-mesh-smoke",
                 "--config", str(zero)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {zero}: ") and "hello_interval" in err
    assert main(["compare", "--configs", str(cfg), "--scenarios", "static-mesh-smoke",
                 "--seeds", "1", "--outdir", str(tmp_path / "cmp")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--scenario", "static-mesh-smoke",
              "--config", str(cfg), "--allow-invalid-config"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --allow-invalid-config" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["simulate", "--scenario", "static-mesh-smoke", "--weights", "1,0,0"], "--weights"),
    (["optimize", "--scenario", "static-mesh-smoke", "--weights", "1,0,0"], "--weights"),
    (["report", "--records", "records", "--format", "json"], "--format"),
    # every campaign simulates a scenario; no benchmark function stands in
    (["optimize", "--scenario", "static-mesh-smoke", "--objective", "sphere"],
     "--objective"),
], ids=["simulate", "optimize", "report", "objective"])
def test_the_cost_weights_and_report_formats_are_not_options(capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def run_tiny_campaign(outdir, runs=2):
    return main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND,SA",
                 "--runs", str(runs), "--budget", "4", "--outdir", str(outdir)])


def test_optimize_campaign_layout(tmp_path, capsys):
    outdir = tmp_path / "camp"
    assert run_tiny_campaign(outdir) == 0
    assert "campaign: 4 new runs, 4 total" in capsys.readouterr().out

    # each output once, as JSON
    assert sorted(os.listdir(outdir)) == ["campaign.json", "records", "summary.json"]
    records = sorted(os.listdir(outdir / "records"))
    assert records == ["RAND-seed000001.run", "RAND-seed000002.run",
                       "SA-seed000001.run", "SA-seed000002.run"]

    # only the settings every record shares: records/ lists the algorithms
    # and runs, and itself
    manifest = json.loads(read(outdir / "campaign.json"))
    assert sorted(manifest) == ["base_seed", "budget", "eval_seed", "format", "population",
                                "scenario", "weights"]
    assert manifest["format"] == "olsrlab-campaign-v1"
    assert manifest["scenario"] == "static-mesh-smoke"
    assert manifest["weights"] == dict(COST_WEIGHTS)

    summary = json.loads(read(outdir / "summary.json"))
    assert set(summary["algorithms"]) == {"RAND", "SA"}
    # two algorithms with two runs each: the rank tests are defined
    assert summary["friedman"] is not None
    assert summary["kruskal_wallis"] is not None


def test_optimize_writes_its_manifest_once_before_the_first_record(tmp_path, monkeypatch):
    written = []
    atomic_write = cli._atomic_write

    def spy(path, text):
        written.append(os.path.basename(path))
        atomic_write(path, text)

    monkeypatch.setattr(cli, "_atomic_write", spy)
    assert run_tiny_campaign(tmp_path / "camp") == 0
    assert written == ["campaign.json", "RAND-seed000001.run", "RAND-seed000002.run",
                       "SA-seed000001.run", "SA-seed000002.run", "summary.json"]

    # a resume that adds a run writes only what is new
    written.clear()
    assert run_tiny_campaign(tmp_path / "camp", runs=3) == 0
    assert written == ["RAND-seed000003.run", "SA-seed000003.run", "summary.json"]


def test_optimize_rerun_is_idempotent(tmp_path, capsys):
    outdir = tmp_path / "camp"
    run_tiny_campaign(outdir)
    before = {p: read(outdir / p) for p in ("campaign.json", "summary.json")}
    before_records = {n: read(outdir / "records" / n)
                      for n in os.listdir(outdir / "records")}

    assert run_tiny_campaign(outdir) == 0
    assert "campaign: 0 new runs, 4 total" in capsys.readouterr().out
    assert sorted(os.listdir(outdir)) == ["campaign.json", "records", "summary.json"]
    for path, text in before.items():
        assert read(outdir / path) == text, path
    for name, text in before_records.items():
        assert read(outdir / "records" / name) == text, name


def test_optimize_resumes_only_the_missing_run(tmp_path, capsys):
    outdir = tmp_path / "camp"
    run_tiny_campaign(outdir)
    victim = outdir / "records" / "RAND-seed000002.run"
    original = RunRecord.from_text(read(victim))
    victim.unlink()

    assert run_tiny_campaign(outdir) == 0
    assert "campaign: 1 new runs, 4 total" in capsys.readouterr().out
    redone = RunRecord.from_text(read(victim))
    # wall clocks differ between executions; the search itself must not
    assert redone.to_text(include_timing=False) == original.to_text(include_timing=False)


def _without_best_config(text):
    lines = text.splitlines()
    summary = json.loads(lines[-1])
    del summary["best_config"]
    return "\n".join(lines[:-1] + [json.dumps(summary)]) + "\n"


def _with_nan_cost(text):
    # a NaN would make report's stdev raise and compare's min pick any winner
    lines = text.splitlines()
    index, _, *candidate = lines[2].split()
    summary = json.loads(lines[-1])
    summary["best_cost"] = math.nan
    return "\n".join(lines[:2] + [" ".join([index, "nan", *candidate])] + lines[3:-1]
                     + [json.dumps(summary)]) + "\n"


def _with_header(**fields):
    def corrupt(text):
        lines = text.splitlines()
        header = {**json.loads(lines[1]), **fields}
        return "\n".join([lines[0], json.dumps(header)] + lines[2:]) + "\n"
    return corrupt


@pytest.mark.parametrize("corrupt", [
    lambda text: text.splitlines()[0] + "\n",
    _without_best_config,
    lambda text: "\n".join(text.splitlines()[:-1] + ["[]"]) + "\n",
    _with_nan_cost,
    # the campaign sorts records by seed, and summarises them by algorithm
    _with_header(seed="2"),
    _with_header(algorithm="FOO"),
], ids=["header-only", "no-best-config", "summary-not-an-object", "nan-cost",
        "seed-a-string", "algorithm-unknown"])
@pytest.mark.parametrize("command", ["report", "optimize", "compare"])
def test_a_malformed_record_is_an_error_naming_its_file(tmp_path, capsys, corrupt, command):
    outdir = tmp_path / "camp"
    run_tiny_campaign(outdir)
    victim = outdir / "records" / "SA-seed000001.run"
    victim.write_text(corrupt(read(victim)))
    capsys.readouterr()
    if command == "report":
        rc = main(["report", "--records", str(outdir / "records"),
                   "--outdir", str(tmp_path / "rep")])
    elif command == "compare":
        rc = main(["compare", "--runs-dir", str(outdir / "records"),
                   "--scenarios", "static-mesh-smoke", "--seeds", "1",
                   "--outdir", str(tmp_path / "cmp")])
    else:
        rc = run_tiny_campaign(outdir)  # resume: every record exists
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(victim) in err


@pytest.mark.parametrize("flags,keys", [
    (["--scenario", "congested-small", "--budget", "50"], ["scenario", "budget"]),
    (["--scenario", "static-mesh-smoke", "--budget", "5", "--population", "4"],
     ["population"]),
    (["--scenario", "static-mesh-smoke", "--budget", "5", "--eval-seed", "3"],
     ["eval_seed"]),
    (["--scenario", "static-mesh-smoke", "--budget", "5", "--base-seed", "5"],
     ["base_seed"]),
])
def test_optimize_refuses_to_resume_a_campaign_with_other_settings(tmp_path, capsys,
                                                                   flags, keys):
    outdir = tmp_path / "camp"
    assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND",
                 "--runs", "2", "--budget", "5", "--outdir", str(outdir)]) == 0
    manifest = read(outdir / "campaign.json")
    capsys.readouterr()

    rc = main(["optimize", "--algorithms", "RAND", "--runs", "3", *flags,
               "--outdir", str(outdir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    for key in keys:
        assert key in err
    assert sorted(os.listdir(outdir / "records")) == ["RAND-seed000001.run",
                                                      "RAND-seed000002.run"]
    assert read(outdir / "campaign.json") == manifest


def test_optimize_settings_a_search_rejects_leave_no_campaign_behind(tmp_path, capsys):
    outdir = tmp_path / "camp"
    assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND,GA",
                 "--runs", "1", "--budget", "5", "--outdir", str(outdir)]) == 2
    assert "full generation" in capsys.readouterr().err
    assert not outdir.exists()
    assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND,GA",
                 "--runs", "1", "--budget", "10", "--outdir", str(outdir)]) == 0


def test_optimize_resume_may_add_algorithms_and_runs(tmp_path, capsys):
    outdir = tmp_path / "camp"
    assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND",
                 "--runs", "1", "--budget", "4", "--outdir", str(outdir)]) == 0
    manifest = read(outdir / "campaign.json")
    assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND,SA",
                 "--runs", "2", "--budget", "4", "--outdir", str(outdir)]) == 0
    assert "campaign: 3 new runs, 4 total" in capsys.readouterr().out
    assert sorted(os.listdir(outdir / "records")) == [
        "RAND-seed000001.run", "RAND-seed000002.run", "SA-seed000001.run", "SA-seed000002.run"]
    summary = json.loads(read(outdir / "summary.json"))
    assert {a: e["runs"] for a, e in summary["algorithms"].items()} == {"RAND": 2, "SA": 2}
    assert read(outdir / "campaign.json") == manifest


def test_optimize_manifest_describes_the_whole_campaign_on_resume(tmp_path, capsys):
    # campaign.json holds the settings every record shares, so a resume
    # naming fewer algorithms or runs leaves it as it is and summary.json
    # still covers every record; one with another base seed would mix seed
    # ranges, so it is refused and names the key
    outdir = tmp_path / "camp"
    assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND,SA",
                 "--runs", "3", "--budget", "4", "--outdir", str(outdir)]) == 0
    manifest = read(outdir / "campaign.json")
    assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND",
                 "--runs", "2", "--budget", "4", "--outdir", str(outdir)]) == 0
    assert read(outdir / "campaign.json") == manifest
    assert json.loads(manifest)["base_seed"] == 1
    assert len(os.listdir(outdir / "records")) == 6
    summary = json.loads(read(outdir / "summary.json"))
    assert {a: e["runs"] for a, e in summary["algorithms"].items()} == {"RAND": 3, "SA": 3}
    capsys.readouterr()

    assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND",
                 "--runs", "2", "--budget", "4", "--base-seed", "5",
                 "--outdir", str(outdir)]) == 2
    assert "base_seed 1 != 5" in capsys.readouterr().err
    assert read(outdir / "campaign.json") == manifest
    assert len(os.listdir(outdir / "records")) == 6
    assert json.loads(read(outdir / "summary.json")) == summary
    assert summary["friedman"] is not None and summary["kruskal_wallis"] is not None


def test_optimize_single_run_skips_the_rank_tests(tmp_path):
    outdir = tmp_path / "solo"
    assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND",
                 "--runs", "1", "--budget", "3", "--outdir", str(outdir)]) == 0
    summary = json.loads(read(outdir / "summary.json"))
    assert summary["friedman"] is None
    assert summary["kruskal_wallis"] is None


def test_optimize_ranks_algorithms_with_unequal_run_counts(tmp_path):
    # RAND ends with 5 runs and SA with 3: Kruskal-Wallis takes every run,
    # and Friedman the 3 seeds both ran, which summary.json counts
    outdir = tmp_path / "camp"
    assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND,SA",
                 "--runs", "3", "--budget", "4", "--outdir", str(outdir)]) == 0
    assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND",
                 "--runs", "5", "--budget", "4", "--outdir", str(outdir)]) == 0
    records = {}
    for name in sorted(os.listdir(outdir / "records")):
        record = RunRecord.from_text(read(outdir / "records" / name))
        records.setdefault(record.algorithm, {})[record.seed] = record.best_cost
    assert sorted(records["RAND"]) == [1, 2, 3, 4, 5] and sorted(records["SA"]) == [1, 2, 3]
    rand, sa = list(records["RAND"].values()), list(records["SA"].values())

    summary = json.loads(read(outdir / "summary.json"))
    omnibus = kruskal_wallis([rand, sa])
    assert summary["kruskal_wallis"] == {"statistic": omnibus.statistic,
                                         "p_value": omnibus.p_value}
    vs_rest = kruskal_wallis_vs_rest({"RAND": rand, "SA": sa})
    friedman = friedman_mean_ranks([[records["RAND"][seed], records["SA"][seed]]
                                    for seed in (1, 2, 3)])
    assert summary["friedman"] == {"statistic": friedman.statistic,
                                   "p_value": friedman.p_value, "blocks": 3}
    for i, algorithm in enumerate(["RAND", "SA"]):
        entry = summary["algorithms"][algorithm]
        assert entry["runs"] == len(records[algorithm])
        assert entry["kw_p_vs_rest"] == vs_rest[algorithm].p_value
        assert entry["friedman_rank"] == friedman.mean_ranks[i]


def test_optimize_with_the_simulation_objective_stores_metrics(tmp_path):
    outdir = tmp_path / "sim"
    rc = main(["optimize", "--scenario", "static-mesh-smoke",
               "--algorithms", "RAND", "--runs", "1", "--budget", "3",
               "--eval-seed", "1", "--outdir", str(outdir)])
    assert rc == 0
    record = RunRecord.from_text(read(outdir / "records" / "RAND-seed000001.run"))
    assert record.best.metrics is not None
    assert record.best.metrics.pdr == 1.0
    manifest = json.loads(read(outdir / "campaign.json"))
    assert manifest["weights"] == {"e2ed": 0.3, "nrl": 0.2, "pdr": 0.5}


def test_optimize_sim_objective_requires_a_scenario(tmp_path, capsys):
    outdir = tmp_path / "camp"
    with pytest.raises(SystemExit) as exit_info:
        main(["optimize", "--runs", "1", "--budget", "3", "--outdir", str(outdir)])
    assert exit_info.value.code == 2
    assert "the following arguments are required: --scenario" in capsys.readouterr().err
    assert not outdir.exists()


def pre_change_manifest(**settings):
    """campaign.json as earlier versions wrote it, listing its algorithms,
    runs and records."""
    return {"format": "olsrlab-campaign-v1", "algorithms": ["RAND"], "runs": 1,
            "budget": 4, "population": 10, "base_seed": 1, "eval_seed": 0,
            "records": [], **settings}


def test_optimize_refuses_to_resume_a_benchmark_campaign(tmp_path, capsys):
    # a sphere campaign of earlier versions has no scenario; its records
    # must not be mixed with simulated ones
    outdir = tmp_path / "camp"
    (outdir / "records").mkdir(parents=True)
    manifest = json.dumps(pre_change_manifest(objective="sphere", scenario=None,
                                              weights=None))
    (outdir / "campaign.json").write_text(manifest)
    assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND",
                 "--runs", "1", "--budget", "4", "--outdir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "scenario None != 'static-mesh-smoke'" in err
    assert os.listdir(outdir / "records") == []
    assert read(outdir / "campaign.json") == manifest


def test_optimize_refuses_a_corrupt_manifest_naming_its_file(tmp_path, capsys):
    outdir = tmp_path / "camp"
    (outdir / "records").mkdir(parents=True)
    manifest = json.dumps(pre_change_manifest(scenario="static-mesh-smoke"))
    manifest = manifest[:len(manifest) // 2]  # cut off mid-write
    (outdir / "campaign.json").write_text(manifest)
    assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND",
                 "--runs", "1", "--budget", "4", "--outdir", str(outdir)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {outdir / 'campaign.json'}: ")
    assert os.listdir(outdir / "records") == []
    assert read(outdir / "campaign.json") == manifest


def test_optimize_resumes_a_simulation_campaign_that_names_its_objective(tmp_path, capsys):
    outdir = tmp_path / "camp"
    argv = ["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND",
            "--runs", "1", "--budget", "4", "--outdir", str(outdir)]
    assert main(argv) == 0
    manifest = json.dumps(pre_change_manifest(
        objective="sim", scenario="static-mesh-smoke", weights=dict(COST_WEIGHTS),
        records=["RAND-seed000001.run"]))
    (outdir / "campaign.json").write_text(manifest)
    capsys.readouterr()
    assert main(argv) == 0
    assert "campaign: 0 new runs, 1 total" in capsys.readouterr().out
    assert os.listdir(outdir / "records") == ["RAND-seed000001.run"]
    # the older manifest's algorithms and runs are not read: the flags
    # choose the runs, and the manifest is left as it was
    assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND,SA",
                 "--runs", "2", "--budget", "4", "--outdir", str(outdir)]) == 0
    assert "campaign: 3 new runs, 4 total" in capsys.readouterr().out
    assert read(outdir / "campaign.json") == manifest


@pytest.mark.parametrize("argv,flag", [
    (["optimize", "--scenario", "static-mesh-smoke", "--runs", "0"], "--runs"),
    (["optimize", "--scenario", "static-mesh-smoke", "--runs", "-2"], "--runs"),
    (["compare", "--configs", "rfc3626", "--scenarios", "static-mesh-smoke",
      "--seeds", "0"], "--seeds"),
    # RAND and SA read no population, so only the parser can refuse it
    # before campaign.json fixes it
    (["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND",
      "--runs", "1", "--budget", "2", "--population", "0"], "--population"),
    (["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND",
      "--runs", "1", "--budget", "2", "--population", "-3"], "--population"),
], ids=["runs-0", "runs-negative", "seeds-0", "population-0", "population-negative"])
def test_a_count_below_one_is_refused_before_anything_is_written(tmp_path, capsys,
                                                                  argv, flag):
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--outdir", str(outdir)])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be at least 1" in capsys.readouterr().err
    assert not outdir.exists()


def test_optimize_refuses_a_negative_base_seed_and_keeps_the_outdir_usable(tmp_path,
                                                                           capsys):
    # numpy refuses a negative seed; the flag is refused before campaign.json
    # would fix it, so the same --outdir still takes a valid campaign
    outdir = tmp_path / "camp"
    argv = ["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND",
            "--runs", "1", "--budget", "2", "--outdir", str(outdir)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--base-seed", "-3"])
    assert exit_info.value.code == 2
    assert "argument --base-seed: must be at least 0, got -3" in capsys.readouterr().err
    assert not outdir.exists()
    assert main(argv + ["--base-seed", "0"]) == 0
    assert json.loads(read(outdir / "campaign.json"))["base_seed"] == 0


def test_optimize_drops_a_repeated_algorithm(tmp_path, capsys):
    outdir = tmp_path / "camp"
    assert main(["optimize", "--scenario", "static-mesh-smoke",
                 "--algorithms", "RAND,SA,rand", "--runs", "1", "--budget", "4",
                 "--outdir", str(outdir)]) == 0
    assert "campaign: 2 new runs, 2 total" in capsys.readouterr().out
    assert sorted(os.listdir(outdir / "records")) == ["RAND-seed000001.run",
                                                      "SA-seed000001.run"]
    assert list(json.loads(read(outdir / "summary.json"))["algorithms"]) == ["RAND", "SA"]


def test_optimize_rejects_unknown_algorithms(tmp_path, capsys):
    rc = main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "CMAES",
               "--runs", "1", "--budget", "3", "--outdir", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown algorithm" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_builds_a_metric_grid(tmp_path):
    outdir = tmp_path / "cmp"
    rc = main(["compare", "--configs", "rfc3626,gomez-1,gomez-3",
               "--scenarios", "static-mesh-smoke", "--seeds", "2",
               "--outdir", str(outdir)])
    assert rc == 0

    assert os.listdir(outdir) == ["compare.json"]
    doc = json.loads(read(outdir / "compare.json"))
    assert doc["seeds"] == [1, 2]
    cells = doc["cells"]
    assert len(cells) == 6  # 3 configs x (1 scenario + ALL)
    assert {(c["config"], c["scenario"]) for c in cells} == {
        ("rfc3626", "static-mesh-smoke"), ("gomez-1", "static-mesh-smoke"),
        ("gomez-3", "static-mesh-smoke"),
        ("rfc3626", "ALL"), ("gomez-1", "ALL"), ("gomez-3", "ALL"),
    }
    for scenario in ("static-mesh-smoke", "ALL"):
        group = [c for c in cells if c["scenario"] == scenario]
        assert any(c["pdr_best"] for c in group)
        assert any(c["nrl_best"] for c in group)


def test_compare_output_keeps_its_bytes(tmp_path):
    # compare.json's bytes move only on purpose
    outdir = tmp_path / "cmp"
    assert main(["compare", "--configs", "rfc3626,gomez-3",
                 "--scenarios", "static-mesh-smoke", "--seeds", "2",
                 "--outdir", str(outdir)]) == 0
    digest = hashlib.sha256((outdir / "compare.json").read_bytes()).hexdigest()
    assert digest == "4cf9f11aaa75c634a6c242db2a8244599d031ebe42b0f6530b45d31a1c4605cd"


def test_compare_can_pull_best_configs_from_a_campaign(tmp_path):
    campaign = tmp_path / "camp"
    run_tiny_campaign(campaign)
    outdir = tmp_path / "cmp"
    rc = main(["compare", "--runs-dir", str(campaign / "records"),
               "--scenarios", "static-mesh-smoke", "--seeds", "1",
               "--outdir", str(outdir)])
    assert rc == 0
    labels = {c["config"] for c in json.loads(read(outdir / "compare.json"))["cells"]}
    assert labels == {"best-rand", "best-sa"}


def test_compare_refuses_a_repeated_config_label(tmp_path, capsys):
    # a second copy would add an identical row and count twice in ALL
    outdir = tmp_path / "cmp"
    assert main(["compare", "--configs", "rfc3626,gomez-1,rfc3626",
                 "--scenarios", "static-mesh-smoke", "--seeds", "1",
                 "--outdir", str(outdir)]) == 2
    assert "named more than once: rfc3626" in capsys.readouterr().err
    assert not outdir.exists()


def test_compare_labels_records_by_path_so_two_campaigns_winners_compare(tmp_path,
                                                                          capsys):
    # two campaigns name their records alike; only one path named twice is refused
    paths = []
    for campaign, hello in (("a", 3.0), ("b", 4.0)):
        (tmp_path / campaign / "records").mkdir(parents=True)
        paths.append(str(write_record(tmp_path / campaign / "records" / "PSO-seed000001.run",
                                      OlsrConfig(hello_interval=hello))))
    outdir = tmp_path / "cmp"
    argv = ["compare", "--scenarios", "static-mesh-smoke", "--seeds", "1",
            "--outdir", str(outdir)]
    assert main(argv + ["--configs", ",".join(paths)]) == 0
    labels = {c["config"] for c in json.loads(read(outdir / "compare.json"))["cells"]}
    assert labels == set(paths)
    capsys.readouterr()
    assert main(argv + ["--configs", f"{paths[0]},{paths[0]}"]) == 2
    assert f"named more than once: {paths[0]}" in capsys.readouterr().err


def test_compare_refuses_a_repeated_scenario(tmp_path, capsys):
    # a second copy would add identical rows and count twice in ALL
    outdir = tmp_path / "cmp"
    assert main(["compare", "--configs", "rfc3626",
                 "--scenarios", "static-mesh-smoke,congested-small,static-mesh-smoke",
                 "--seeds", "1", "--outdir", str(outdir)]) == 2
    assert "scenario named more than once: static-mesh-smoke" in capsys.readouterr().err
    assert not outdir.exists()


def test_compare_with_no_inputs_fails(tmp_path, capsys):
    rc = main(["compare", "--scenarios", "static-mesh-smoke",
               "--outdir", str(tmp_path / "cmp")])
    assert rc == 2
    assert "nothing to compare" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_regenerates_summaries_and_trajectories(tmp_path):
    campaign = tmp_path / "camp"
    run_tiny_campaign(campaign)
    outdir = tmp_path / "rep"
    rc = main(["report", "--records", str(campaign / "records"),
               "--outdir", str(outdir)])
    assert rc == 0
    assert sorted(os.listdir(outdir)) == ["summary.json", "trajectories.json"]

    traj = json.loads(read(outdir / "trajectories.json"))
    assert set(traj) == {"RAND", "SA"}
    for series_by_seed in traj.values():
        assert set(series_by_seed) == {"1", "2"}
        for series in series_by_seed.values():
            assert len(series) == 4
            assert series == sorted(series, reverse=True)
    # the summary a report rebuilds is the one the campaign wrote
    assert read(outdir / "summary.json") == read(campaign / "summary.json")


def test_report_missing_directory(tmp_path, capsys):
    rc = main(["report", "--records", str(tmp_path / "nowhere"),
               "--outdir", str(tmp_path / "rep")])
    assert rc == 2
    assert "records directory" in capsys.readouterr().err


def test_report_empty_directory(tmp_path, capsys):
    empty = tmp_path / "records"
    empty.mkdir()
    rc = main(["report", "--records", str(empty), "--outdir", str(tmp_path / "rep")])
    assert rc == 2
    assert "no .run records" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# import path
# ---------------------------------------------------------------------------

RUN_WITHOUT_SCIPY = """
import sys
from olsrlab.cli import main
out = sys.argv[1]
assert main(["simulate", "--scenario", "static-mesh-smoke", "--seed", "1"]) == 0
assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "RAND,SA",
             "--runs", "2", "--budget", "4", "--outdir", out + "/camp"]) == 0
assert main(["report", "--records", out + "/camp/records", "--outdir", out + "/rep"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_simulate_optimize_and_report_never_import_scipy(tmp_path):
    # numpy is the only run-time dependency; scipy serves the tests alone
    src = os.path.dirname(os.path.dirname(olsrlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(read(tmp_path / "camp" / "summary.json"))
    assert summary["friedman"] is not None
    assert summary["kruskal_wallis"] is not None
    assert proc.stdout.splitlines()[-1] == "[]"


SIMULATE_WITHOUT_NUMPY = """
import sys
import olsrlab
from olsrlab import cli, fitness, netsim, olsr, optimizers, scenario
from olsrlab.cli import main
out = sys.argv[1]
records = out + "/camp/records"
assert main(["simulate", "--scenario", "static-mesh-smoke",
             "--config", records + "/SA-seed000001.run"]) == 0
assert main(["compare", "--runs-dir", records, "--scenarios", "static-mesh-smoke",
             "--seeds", "1", "--outdir", out + "/cmp"]) == 0
assert main(["report", "--records", records, "--outdir", out + "/rep"]) == 0
objective = fitness.OlsrObjective(scenario.catalog()["static-mesh-smoke"], seeds=(1,))
objective([2.0, 2.0, 5.0, 3.0, 6.0, 15.0, 15.0, 30.0])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert "numpy" not in sys.modules, loaded
assert main(["optimize", "--scenario", "static-mesh-smoke", "--algorithms", "PSO",
             "--runs", "1", "--budget", "4", "--population", "2",
             "--outdir", out + "/camp2"]) == 0
assert "numpy" in sys.modules
"""


def test_simulate_compare_report_and_evaluate_never_import_numpy(tmp_path):
    # numpy serves the search alone: a campaign's records are replayed,
    # compared and reported, and a candidate scored, without loading it
    src = os.path.dirname(os.path.dirname(olsrlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    optimize = ("from olsrlab.cli import main; import sys; sys.exit(main(["
                "'optimize', '--scenario', 'static-mesh-smoke', '--algorithms', 'SA,RAND',"
                f"'--runs', '1', '--budget', '4', '--outdir', {str(tmp_path / 'camp')!r}]))")
    proc = subprocess.run([sys.executable, "-c", optimize], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run([sys.executable, "-c", SIMULATE_WITHOUT_NUMPY, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    cells = json.loads(read(tmp_path / "cmp" / "compare.json"))["cells"]
    assert {c["config"] for c in cells} == {"best-sa", "best-rand"}
    assert (tmp_path / "camp2" / "records" / "PSO-seed000001.run").is_file()
