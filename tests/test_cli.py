"""Command line interface, exercised in process through main(argv)."""

import json
import os

import pytest

from olsrlab.cli import main
from olsrlab.optimizers import RunRecord
from olsrlab.scenario import catalog, save_scenario


def read(path):
    with open(path) as fh:
        return fh.read()


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


def test_simulate_unknown_scenario_lists_the_bundled_names(capsys):
    rc = main(["simulate", "--scenario", "no-such-place"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "congested-small" in err


def test_simulate_accepts_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "tuned.json"
    cfg.write_text(json.dumps({"format": "olsrlab-config-v1",
                               "hello_interval": 3.0, "tc_interval": 6.0}))
    rc = main(["simulate", "--scenario", "static-mesh-smoke", "--config", str(cfg)])
    assert rc == 0
    assert "config=tuned.json" in capsys.readouterr().out


def test_simulate_rejects_a_mislabeled_config_file(tmp_path, capsys):
    cfg = tmp_path / "odd.json"
    cfg.write_text(json.dumps({"format": "other-v2", "hello_interval": 3.0}))
    assert main(["simulate", "--scenario", "static-mesh-smoke",
                 "--config", str(cfg)]) == 2
    assert "format" in capsys.readouterr().err


@pytest.mark.parametrize("doc,named", [
    ({"format": "olsrlab-config-v1", "hello_intervl": 3.0}, "hello_intervl"),
    (["olsrlab-config-v1", 3.0], "list"),
])
def test_simulate_rejects_a_malformed_config_file(tmp_path, capsys, doc, named):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", "static-mesh-smoke",
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named in err


def misspell_a_session_key(doc):
    doc["sessions"][0]["sourc"] = doc["sessions"][0].pop("source")
    return doc


@pytest.mark.parametrize("edit,named", [
    (misspell_a_session_key, "sourc"),
    (lambda doc: {k: v for k, v in doc.items() if k != "trace"}, "trace"),
    (lambda doc: [doc], "list"),
])
def test_simulate_rejects_a_malformed_scenario_file(tmp_path, capsys, edit, named):
    path = tmp_path / "mesh.json"
    save_scenario(catalog()["static-mesh-smoke"], path)
    path.write_text(json.dumps(edit(json.loads(read(path)))))
    assert main(["simulate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named in err


def test_simulate_config_waiver_flag(tmp_path, capsys):
    """No waiver flag: configs outside the tuning box run, unrunnable ones fail."""
    cfg = tmp_path / "subsecond.json"
    cfg.write_text(json.dumps({"format": "olsrlab-config-v1",
                               "hello_interval": 0.5, "refresh_interval": 0.5,
                               "neighb_hold_time": 1.5}))
    assert main(["simulate", "--scenario", "static-mesh-smoke",
                 "--config", str(cfg)]) == 0
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"format": "olsrlab-config-v1", "hello_interval": 0}))
    assert main(["simulate", "--scenario", "static-mesh-smoke",
                 "--config", str(zero)]) == 2
    assert "hello_interval" in capsys.readouterr().err
    assert main(["compare", "--configs", str(cfg), "--scenarios", "static-mesh-smoke",
                 "--seeds", "1", "--outdir", str(tmp_path / "cmp")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--scenario", "static-mesh-smoke",
              "--config", str(cfg), "--allow-invalid-config"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --allow-invalid-config" in capsys.readouterr().err


def test_simulate_rejects_malformed_weights(capsys):
    rc = main(["simulate", "--scenario", "static-mesh-smoke",
               "--weights", "0.5,0.2"])
    assert rc == 2
    assert "three comma-separated" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def run_tiny_campaign(outdir):
    return main(["optimize", "--objective", "sphere", "--algorithms", "RAND,SA",
                 "--runs", "2", "--budget", "4", "--outdir", str(outdir)])


def test_optimize_campaign_layout(tmp_path, capsys):
    outdir = tmp_path / "camp"
    assert run_tiny_campaign(outdir) == 0
    assert "campaign: 4 new runs, 4 total" in capsys.readouterr().out

    records = sorted(os.listdir(outdir / "records"))
    assert records == ["RAND-seed000001.run", "RAND-seed000002.run",
                       "SA-seed000001.run", "SA-seed000002.run"]
    for name in ("campaign.json", "summary.csv", "summary.json", "timing.csv"):
        assert (outdir / name).exists()

    manifest = json.loads(read(outdir / "campaign.json"))
    assert manifest["format"] == "olsrlab-campaign-v1"
    assert manifest["algorithms"] == ["RAND", "SA"]
    assert manifest["records"] == records

    summary = json.loads(read(outdir / "summary.json"))
    assert set(summary["algorithms"]) == {"RAND", "SA"}
    # two algorithms with two runs each: the rank tests are defined
    assert summary["friedman"] is not None
    assert summary["kruskal_wallis"] is not None


def test_optimize_rerun_is_idempotent(tmp_path, capsys):
    outdir = tmp_path / "camp"
    run_tiny_campaign(outdir)
    before = {p: read(outdir / p) for p in
              ("campaign.json", "summary.csv", "summary.json", "timing.csv")}
    before_records = {n: read(outdir / "records" / n)
                      for n in os.listdir(outdir / "records")}

    assert run_tiny_campaign(outdir) == 0
    assert "campaign: 0 new runs, 4 total" in capsys.readouterr().out
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


def test_optimize_single_run_skips_the_rank_tests(tmp_path):
    outdir = tmp_path / "solo"
    assert main(["optimize", "--objective", "rastrigin", "--algorithms", "RAND",
                 "--runs", "1", "--budget", "3", "--outdir", str(outdir)]) == 0
    summary = json.loads(read(outdir / "summary.json"))
    assert summary["friedman"] is None
    assert summary["kruskal_wallis"] is None


def test_optimize_with_the_simulation_objective_stores_metrics(tmp_path):
    outdir = tmp_path / "sim"
    rc = main(["optimize", "--objective", "sim", "--scenario", "static-mesh-smoke",
               "--algorithms", "RAND", "--runs", "1", "--budget", "3",
               "--eval-seed", "1", "--outdir", str(outdir)])
    assert rc == 0
    record = RunRecord.from_text(read(outdir / "records" / "RAND-seed000001.run"))
    assert record.best.metrics is not None
    assert record.best.metrics.pdr == 1.0


def test_optimize_sim_objective_requires_a_scenario():
    with pytest.raises(SystemExit):
        main(["optimize", "--objective", "sim", "--runs", "1", "--budget", "3"])


def test_optimize_rejects_unknown_algorithms(tmp_path, capsys):
    rc = main(["optimize", "--objective", "sphere", "--algorithms", "CMAES",
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

    rows = read(outdir / "compare.csv").splitlines()
    assert rows[0].split(",")[:6] == ["config", "scenario", "pdr", "nrl", "e2ed", "rpl"]
    assert len(rows) == 1 + 6  # 3 configs x (1 scenario + ALL)

    doc = json.loads(read(outdir / "compare.json"))
    assert doc["seeds"] == [1, 2]
    cells = doc["cells"]
    assert {(c["config"], c["scenario"]) for c in cells} == {
        ("rfc3626", "static-mesh-smoke"), ("gomez-1", "static-mesh-smoke"),
        ("gomez-3", "static-mesh-smoke"),
        ("rfc3626", "ALL"), ("gomez-1", "ALL"), ("gomez-3", "ALL"),
    }
    for scenario in ("static-mesh-smoke", "ALL"):
        group = [c for c in cells if c["scenario"] == scenario]
        assert any(c["pdr_best"] for c in group)
        assert any(c["nrl_best"] for c in group)


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

    rows = read(outdir / "trajectories.csv").splitlines()
    assert rows[0] == "algorithm,seed,eval_index,cost,best_so_far"
    assert len(rows) == 1 + 4 * 4  # four records, four evaluations each

    traj = json.loads(read(outdir / "trajectories.json"))
    assert set(traj) == {"RAND", "SA"}
    for series_by_seed in traj.values():
        assert set(series_by_seed) == {"1", "2"}
        for series in series_by_seed.values():
            assert len(series) == 4
            assert series == sorted(series, reverse=True)

    assert (outdir / "summary.csv").exists()
    assert (outdir / "timing.csv").exists()


def test_report_format_filter(tmp_path):
    campaign = tmp_path / "camp"
    run_tiny_campaign(campaign)
    outdir = tmp_path / "rep"
    main(["report", "--records", str(campaign / "records"), "--format", "json",
          "--outdir", str(outdir)])
    assert (outdir / "trajectories.json").exists()
    assert not (outdir / "trajectories.csv").exists()


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
