"""Tests of the benchmark itself: toy runs emit every metric, checks catch
corrupted reports.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from workloads import WORKLOADS, planted_a, random_b

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_lists_match_the_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    # one-b-batch runs on request but is not among the gated workloads
    assert [w["name"] for w in SPEC["workloads"]] == [w for w in WORKLOADS if w != "one-b-batch"]


@pytest.fixture(scope="module")
def toy_results():
    return {name: run.run_workload(name, seed=3, seconds=0.01, trace=True, toy=True)
            for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_toy_run_emits_every_metric(toy_results, name):
    result = toy_results[name]
    for mode in (False, True):
        line = run.summary({**result, "trace": int(mode)})
        names = [m["name"] for m in SPEC["per_layer" if mode else "end_to_end"]]
        assert list(line["metrics"]) == names
        for metric in line["metrics"].values():
            assert isinstance(metric["value"], float) and np.isfinite(metric["value"])
    assert result["attempted"] >= 1
    assert result["environment"]["nproc"] >= 1
    assert result["absent"] == []


def test_toy_cluster_workloads_pass_their_checks(toy_results):
    for name in ("noise-n", "wide-k", "one-b-batch"):
        result = toy_results[name]
        assert result["correct"] and result["failed"] == 0, result["operations"]
    layers = toy_results["one-b-batch"]["per_layer"]
    assert layers["conic.search_cb.hit_share"] == 1.0
    assert layers["matrixcore.validate_psd.calls"] == 7
    assert toy_results["wide-k"]["per_layer"]["oracle.states_per_s"] > 0


def test_b_geometry_counts_the_rank_above_10_failures(toy_results):
    result = toy_results["b-geometry"]
    assert result["correct"]
    failed = [op for op in result["operations"] if not op["ok"]]
    assert failed and all("Infeasible" in op["errors"][0] for op in failed)
    assert result["end_to_end"]["ok_share"] == pytest.approx(1.0 - result["fail_share"])


@pytest.fixture(scope="module")
def cluster_case(tmp_path_factory):
    """A real report for a small instance, from the CLI."""
    rng = np.random.default_rng(0)
    a, b = planted_a(12, rng), random_b(3, rng)
    tmp = tmp_path_factory.mktemp("case")
    (tmp / "in.json").write_text(json.dumps({"A": a.tolist(), "B": b.tolist()}))
    env = {**os.environ, "PYTHONPATH": str(run.SRC)}
    done = subprocess.run([sys.executable, "-m", "gramclust.cli", "cluster", str(tmp / "in.json"),
                           "--out", str(tmp / "out.json")], env=env)
    assert done.returncode == 0
    return json.loads((tmp / "out.json").read_text()), a, b


def test_cluster_checks_pass_on_a_real_report(cluster_case):
    report, a, b = cluster_case
    assert checks.check_cluster_report(report, a, b) == []


def _set(report, path, value):
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("corrupt", [
    lambda r: r.pop("sdp"),
    lambda r: _set(r, ["rounding", "sigma"], r["rounding"]["sigma"][:-1]),
    lambda r: _set(r, ["rounding", "sigma"], [3] + r["rounding"]["sigma"][1:]),
    lambda r: _set(r, ["rounding", "best_value"], r["rounding"]["best_value"] * (1 + 1e-6)),
    lambda r: _set(r, ["sdp", "dual_upper"], r["rounding"]["best_value"] / r["ball"]["r2"] * 0.5),
    lambda r: _set(r, ["certified_interval"], [r["certified_interval"][0],
                                               r["certified_interval"][1] * 0.99]),
    lambda r: _set(r, ["cb", "c_estimate"], r["ball"]["r2"] * 1.01),
], ids=["missing-field", "sigma-length", "label-range", "best-value", "above-upper",
        "interval-top", "c-above-r2"])
def test_each_cluster_check_fails_on_a_corrupted_report(cluster_case, corrupt):
    report, a, b = cluster_case
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert checks.check_cluster_report(bad, a, b)


def test_oracle_check(cluster_case):
    report = cluster_case[0]
    best = report["rounding"]["best_value"]
    upper = report["ball"]["r2"] * report["sdp"]["dual_upper"]
    assert checks.check_oracle(report, best) == []
    assert checks.check_oracle(report, best * 0.9)  # rounding beat the optimum
    assert checks.check_oracle(report, upper * 1.1)  # optimum above the bound


def test_geometry_checks():
    v = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5]])
    b = v @ v.T
    center, r2 = np.zeros(2), 1.0
    assert checks.check_geometry(b, v, center, r2, 1.0, 1e-4) == []
    assert checks.check_geometry(b, v, center + 0.1, r2, 1.0, 1e-4)  # a vector outside
    assert checks.check_geometry(b, v * 0.5, center, 0.5, 0.5, 1e-4)  # below diameter bound
    assert checks.check_geometry(b, v, center, r2, 1.0 - 2e-4, 1e-4)  # gadget too low


def test_determinism_comparison_ignores_only_the_timestamp(cluster_case):
    report = cluster_case[0]
    later = {**copy.deepcopy(report), "timestamp": "2000-01-01T00:00:00Z"}
    assert checks.canonical(later) == checks.canonical(report)
    later["rounding"]["trial_index"] += 1
    assert checks.canonical(later) != checks.canonical(report)


def test_tail_percentile():
    assert run.tail([float(i) for i in range(20)]) == (100.0, 19.0)
    percentile, value = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits nonzero, silently."""
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "b-geometry",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
