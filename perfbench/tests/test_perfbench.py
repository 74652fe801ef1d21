"""Tests of the benchmark itself, at a tiny size.

Run from the checkout root:  python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from workloads import TINY

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _restore_env(monkeypatch):
    # run.main pins these; monkeypatch puts the caller's values back
    monkeypatch.delenv("BILLIARDS_THREADS", raising=False)
    for var in run.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")


def _main(capsys, workload, seed, trace):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)], sizes=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    return json.loads(lines[-1])


def _measure(workload, seed, sizes=TINY):
    return run.measure(workload, seed, 0.0, False, sizes, import_s=run.import_package())


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_at_tiny_size(capsys, workload, trace):
    result = _main(capsys, workload, seed=5, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    for name, unit in run.END_TO_END if not trace else []:
        assert result["metrics"][name]["value"] > 0.0
    if workload != "replay":
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_same_counts_and_figures(workload):
    first, second = _measure(workload, 7), _measure(workload, 7)
    for key in ("attempted", "failed", "rounds", "untimed_figures"):
        assert first[key] == second[key]
    timing = {"wall_s", "cpu_s", "setup_s", "peak_rss_mb", "refl_per_s", "traj_per_s"}
    figures = {k: v for k, v in first["report"].items() if k not in timing}
    assert figures == {k: v for k, v in second["report"].items() if k not in timing}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_counts_do_not_depend_on_rounds(workload):
    few = _measure(workload, 7)
    many = _measure(workload, 7, dataclasses.replace(TINY, min_rounds=2 * TINY.ensemble_inputs + 1))
    assert many["rounds"] > few["rounds"]
    assert (few["attempted"], few["failed"]) == (many["attempted"], many["failed"])
    assert many["correct"] is True


def test_seed_moves_probe_starts_and_windows(tmp_path):
    replay = [workloads.Replay(seed, TINY, tmp_path) for seed in (1, 2)]
    verify = [workloads.Verify(seed, TINY, tmp_path) for seed in (1, 2)]
    for wl in replay + verify:
        wl.setup(first=False)
    assert replay[0].probe_starts() != replay[1].probe_starts()
    assert list(verify[0].kappa_windows) != list(verify[1].kappa_windows)
    assert verify[0].census_starts != verify[1].census_starts
    # the amount of work does not depend on the seed
    assert len(verify[0].kappa_windows) == len(verify[1].kappa_windows) == TINY.kappa_windows


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
