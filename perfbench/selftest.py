"""Tests of the benchmark itself, at ``smoke`` size.

Run with ``python3 -m pytest perfbench/selftest.py -q`` from the repository
root (the file name keeps it out of the repository's default test run).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gates  # noqa: E402
from perfbench.tracing import Patcher  # noqa: E402

WORKLOADS = ("fig3-linkpred", "fig4-cluster-pool", "skipgram-large")
#: The end-to-end metrics every run prints in its summary line.
SUMMARY_METRICS = {
    "cells_per_s", "cell_s_p50", "cell_s_tail", "setup_s", "peak_rss_mb",
    "failed_frac", "auc_advsgm", "mi_advsgm",
}
ENV_KEYS = {
    "cpu_count", "python", "numpy", "scipy", "blas",
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "git_sha",
}


def bench(*args: str, cwd: Path = ROOT, timeout: float = 300):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--preset", "smoke", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def result(done):
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    assert lines[-2].startswith("perfbench ")
    return json.loads(lines[-2][len("perfbench "):]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    return spec


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(declared, workload, trace):
    summary, out = result(
        bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    )
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    group = declared["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in group]
    for metric in group:
        reported = out["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
    assert set(summary["metrics"]) == SUMMARY_METRICS
    assert all(m["unit"] for m in summary["metrics"].values())
    assert summary["cell_samples"] == len(summary["cell_s"]) >= 1
    assert 0 < summary["tail_percentile"] <= 100
    assert ENV_KEYS <= set(summary["environment"])
    if trace:
        assert "trace.overhead_frac" in out["metrics"]
        assert (ROOT / summary["trace_file"]).is_file()
    else:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in group)


def test_digest_gate_passes_recorded_rows_and_fails_a_wrong_digest(tmp_path):
    digests = tmp_path / "digests.json"
    done = bench("--record-digests", "--seed", "5", "--digests", str(digests), timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]
    recorded = json.loads(digests.read_text())
    assert recorded["preset"] == "smoke" and recorded["seed"] == 5
    assert set(recorded["workloads"]) == set(WORKLOADS)

    args = ("--workload", "fig3-linkpred", "--seed", "5", "--seconds", "1", "--digests", str(digests))
    summary, out = result(bench(*args))
    assert summary["digest_gate"] is True and out["correct"] is True

    cells = recorded["workloads"]["fig3-linkpred"]
    for key in cells:
        cells[key] = "0" * 64
    digests.write_text(json.dumps(recorded))
    summary, out = result(bench(*args))
    assert out["correct"] is False
    assert out["failed"] == out["attempted"]
    assert any("digest" in r for reasons in summary["problems"].values() for r in reasons)


@pytest.fixture()
def gated():
    from repro import load_dataset
    from repro.api import registry

    gate = gates.Gate()
    patcher = Patcher()
    gates.install(gate, patcher)
    try:
        graph = load_dataset("ppi", scale=0.15, seed=3)
        yield gate, lambda name, **kw: registry.make_model(name, graph=graph, rng=3, **kw).fit()
    finally:
        patcher.restore()


def test_privacy_gate_accepts_the_stop_rule_and_fails_over_budget(gated):
    gate, fit = gated
    # A binding budget: AdvSGM stops at the step that crosses epsilon=0.5.
    model = fit("advsgm", epsilon=0.5, embedding_dim=8, num_epochs=50, batch_size=8)
    spent = model.privacy_spent().epsilon
    assert spent > 0.5  # the crossing step was charged ...
    assert gate.privacy_problem(model, 0.5) is None  # ... and is allowed
    assert gate.drain() == []
    # Judged against a budget it had spent before its last step (each step
    # costs ~0.2 here), the same fit trained too long.
    problem = gate.privacy_problem(model, 0.1)
    assert problem is not None and "past the budget" in problem


def test_privacy_gate_fails_a_pool_cell_over_budget(gated):
    gate, fit = gated
    gate.defer = False
    model = fit("gap", epsilon=1.0, embedding_dim=8, num_epochs=2)
    assert gate.privacy_problem(model, 1.0) is None
    with pytest.raises(gates.PrivacyGateError):
        model.config.epsilon = 0.1  # as if the budget were 0.1
        gate.fitted(model)


def test_utility_gate():
    assert gates.utility_problem({"auc": 0.7, "mi": 1.4, "nmi": 0.3}) is None
    assert gates.utility_problem({"auc": 1.2}) is not None
    assert gates.utility_problem({"mi": float("nan")}) is not None
    assert gates.utility_problem({"nmi": -0.1}) is not None


def test_fails_without_the_program(tmp_path, declared):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "fig3-linkpred", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
