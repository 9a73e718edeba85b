"""Tests of the benchmark itself, on toy-size inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from crossalign import evaluation, synthdata  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
ALWAYS_ZERO_ALLOWED = {"tensor.upcast_outputs"}  # 0 whenever outputs keep the run's dtype


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    """Every workload through the benchmark command, untraced and traced."""
    out = tmp_path_factory.mktemp("perfbench")
    runs = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", "3", "--seconds", "0", "--trace", str(trace),
                   "--toy", "--out", str(out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(out / f"{name}-seed3-trace{trace}.summary.json") as fh:
                runs[name, trace] = (result, json.load(fh), proc.stdout)
    return runs


@pytest.mark.parametrize("name", WORKLOADS)
def test_toy_run_prints_every_metric(toy_runs, name):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, _, stdout = toy_runs[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert set(result["metrics"]) == set(expected)
        for metric, unit in expected.items():
            entry = result["metrics"][metric]
            assert entry["unit"] == unit
            assert np.isfinite(entry["value"])
            if metric in ALWAYS_ZERO_ALLOWED:
                assert entry["value"] >= 0
            else:
                assert entry["value"] > 0, metric
            assert f"  {metric} = " in stdout


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_computes_the_same_outputs(toy_runs, name):
    _, plain, _ = toy_runs[name, 0]
    _, traced, _ = toy_runs[name, 1]
    assert traced["aucs"] == plain["aucs"]
    assert traced["checkpoint_sha256"] == plain["checkpoint_sha256"]
    assert set(plain["checkpoint_sha256"]) == {"vna", "direct-encode", "direct-decode"}


def test_only_the_float32_dtype_checks_fail(toy_runs):
    for name in WORKLOADS:
        result, summary, _ = toy_runs[name, 0]
        expected = 3 if name == "compare-noisy-f32" else 0
        assert result["failed"] == expected, summary["failures"]
        assert all(f.startswith("known fault: ") for f in summary["failures"])


def _oracle_report():
    spec = synthdata.SyntheticDatasetSpec(stimuli=20, channels=1, neurons=8, trials=2,
                                          noise=0.5, seed=1)
    dataset, model = synthdata.generate_dataset(spec, test_fraction=0.5)
    tasks = (evaluation.build_tasks(dataset, "encoding", 5, 0)
             + evaluation.build_tasks(dataset, "decoding", 5, 0))
    report = evaluation.evaluate(evaluation.make_oracle_scorer(model, dataset), tasks, dataset,
                                 method="oracle", k_requested=5, seed=0)
    return report, tasks, checks.score_table("oracle", None, dataset, model)


def test_auc_check_accepts_the_report_and_rejects_a_perturbed_score():
    report, tasks, table = _oracle_report()
    assert checks.check_report_aucs(report, tasks, table, 1e-9)[0]
    entry = report.per_instance["decoding"][3]
    entry["auc"] = entry["auc"] - 0.25 if entry["auc"] >= 0.25 else entry["auc"] + 0.25
    ok, detail = checks.check_report_aucs(report, tasks, table, 1e-9)
    assert not ok
    assert "decoding" in detail


def test_auc_check_rejects_a_perturbed_mean():
    report, tasks, table = _oracle_report()
    report.encoding_auc = float(np.nextafter(report.encoding_auc, 2.0))
    assert not checks.check_report_aucs(report, tasks, table, 1e-9)[0]


def test_near_ties_widen_the_recount_only_within_tolerance():
    assert checks.pairwise_auc(1.0, np.array([0.0, 2.0, 1.0]), 0.0) == (1 / 3, 2 / 3)
    assert checks.pairwise_auc(1.0, np.array([0.0, 2.0, 1.0 + 1e-12]), 1e-9) == (1 / 3, 2 / 3)
    assert checks.pairwise_auc(1.0, np.array([0.0, 2.0, 0.5]), 1e-9) == (2 / 3, 2 / 3)


def test_contrastive_floor_matches_its_closed_form():
    assert checks.contrastive_floor(1) == 0.0
    assert checks.contrastive_floor(64) == pytest.approx(np.log1p(63 * np.exp(-2.0)), rel=1e-15)
    ok, _ = checks.check_losses("vna", [checks.contrastive_floor(64) - 1e-9], 64)
    assert not ok
    assert not checks.check_losses("direct-encode", [float("nan")], 64)[0]
