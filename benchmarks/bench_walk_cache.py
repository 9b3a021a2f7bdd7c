"""Benchmark the derived-artifact walk-corpus cache on a shared-graph sweep.

Runs a fig3-shaped sweep — one dataset, one node2vec walk configuration,
many cells that differ only in a *non-walk* hyperparameter (learning rate) —
three times over:

* **cold**: walk cache disabled; every cell walks the corpus from scratch.
* **prime**: an empty artifact directory; the first cell walks and persists
  each pass, the remaining cells replay them (their corpus keys are
  identical: same graph fingerprint, same walk params, same derived seed).
* **warm**: the primed directory; *no* cell walks anything.

Walk time is measured by wrapping ``WalkEngine.node2vec_walks`` — the single
entry point every serial corpus pass goes through (uniform walks dispatch
inside it) — so ``walk_seconds`` counts exactly the work the cache is meant
to eliminate, and ``walk_passes`` counts how many passes were actually
computed rather than replayed.  Rows are compared across the three runs:
replay is bit-identical, so they must agree exactly.

The headline numbers: ``walk_time_eliminated_vs_cold`` for the warm run
(the acceptance floor is 0.90 on an 8-cell sweep) and the end-to-end
``speedup_vs_cold``.

Usage::

    PYTHONPATH=src python benchmarks/bench_walk_cache.py            # full
    PYTHONPATH=src python benchmarks/bench_walk_cache.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path

from repro.api import ExperimentSpec, ModelSpec, Placement
from repro.cache import WalkCorpusStore
from repro.cache.artifacts import WALK_CACHE_ENV
from repro.experiments.runners import run_spec
from repro.graph import walk_engine

#: Mutable counters filled by the instrumented ``node2vec_walks``.
WALK = {"seconds": 0.0, "passes": 0}


def instrument_walks() -> None:
    original = walk_engine.WalkEngine.node2vec_walks

    def timed(self, *args, **kwargs):
        start = time.perf_counter()
        out = original(self, *args, **kwargs)
        WALK["seconds"] += time.perf_counter() - start
        WALK["passes"] += 1
        return out

    walk_engine.WalkEngine.node2vec_walks = timed


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    # Biased (p/q) walks with a deliberately cheap SGD configuration (narrow
    # window, one negative, large batches), so the corpus cost the cache
    # removes is a visible fraction of each cell, not noise under training.
    walk_overrides = dict(
        num_walks=args.num_walks,
        walk_length=args.walk_length,
        p=0.25,
        q=4.0,
        window_size=2,
        num_negatives=1,
        embedding_dim=8,
        num_epochs=1,
        batch_size=16384,
    )
    models = tuple(
        ModelSpec("node2vec", overrides=dict(walk_overrides, learning_rate=lr))
        for lr in (0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04)[: args.cells]
    )
    return ExperimentSpec(
        task="link_prediction",
        datasets=("ppi",),
        models=models,
        epsilons=(None,),
        repeats=1,
        base_seed=2025,
        dataset_scale=args.scale,
    )


def run_mode(args: argparse.Namespace, walk_cache) -> tuple:
    WALK["seconds"] = 0.0
    WALK["passes"] = 0
    start = time.perf_counter()
    rows = run_spec(build_spec(args), placement=Placement(walk_cache=walk_cache))
    total = time.perf_counter() - start
    return rows, {
        "total_seconds": round(total, 4),
        "walk_seconds": round(WALK["seconds"], 4),
        "walk_passes": WALK["passes"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", type=int, default=8,
                        help="sweep width (cells sharing one walk corpus)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale multiplier")
    parser.add_argument("--num-walks", type=int, default=10)
    parser.add_argument("--walk-length", type=int, default=80)
    parser.add_argument("--artifact-dir", type=Path, default=None,
                        help="artifact directory (default: a fresh temp dir)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: small graph, short walks")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_walk_cache.json")
    args = parser.parse_args()
    if args.quick:
        args.scale = min(args.scale, 0.3)
        args.num_walks = min(args.num_walks, 3)
        args.walk_length = min(args.walk_length, 20)

    # The cold run must really be cold: neither the ambient environment nor
    # a previous invocation's artifacts may leak in.
    os.environ.pop(WALK_CACHE_ENV, None)
    cleanup = args.artifact_dir is None
    artifact_dir = args.artifact_dir or Path(tempfile.mkdtemp(prefix="bench_walk_cache_"))
    instrument_walks()

    cold_rows, cold = run_mode(args, walk_cache=False)
    prime_rows, prime = run_mode(args, walk_cache=str(artifact_dir))
    warm_rows, warm = run_mode(args, walk_cache=str(artifact_dir))
    assert prime_rows == cold_rows, "primed replay diverged from cold rows"
    assert warm_rows == cold_rows, "warm replay diverged from cold rows"
    assert warm["walk_passes"] == 0, "warm run computed walk passes"

    artifacts = WalkCorpusStore(artifact_dir).report()
    artifacts.pop("stats", None)  # per-store counters; cells used own handles
    if cleanup:
        shutil.rmtree(artifact_dir, ignore_errors=True)
        artifacts["root"] = None  # temp dir, gone

    def eliminated(run):
        if cold["walk_seconds"] <= 0:
            return None
        return round(1.0 - run["walk_seconds"] / cold["walk_seconds"], 4)

    payload = {
        "benchmark": "walk_cache",
        "config": {
            "cells": args.cells,
            "scale": args.scale,
            "num_walks": args.num_walks,
            "walk_length": args.walk_length,
            "p": 0.25,
            "q": 4.0,
            "quick": args.quick,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "results": {"cold": cold, "prime": prime, "warm": warm},
        "artifacts": artifacts,
        "comparison": {
            "rows_bit_identical": True,
            "prime_walk_time_eliminated_vs_cold": eliminated(prime),
            "warm_walk_time_eliminated_vs_cold": eliminated(warm),
            "warm_speedup_vs_cold": round(
                cold["total_seconds"] / warm["total_seconds"], 3
            )
            if warm["total_seconds"] > 0
            else None,
        },
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload["comparison"], indent=2))
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
