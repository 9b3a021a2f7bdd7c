"""Benchmark the compute backends: numpy vs torch fit throughput, per precision.

Trains the LINE-style skip-gram (``sgm``) on the 50k-node benchmark graph
once per available (backend, precision) combination — ``exact`` float64
everywhere, plus the ``fast`` float32 device-resident path on accelerator
backends — and records graph-build and fit wall-clock plus the pair-update
throughput.  All runs share one seed so the exact rows execute the identical
sampling schedule.  The torch rows are skipped — and recorded as
unavailable — when torch is not installed, which keeps the benchmark itself
torch-free on the default CI job.

``pair_updates`` is derived from the sampler's *actual* per-batch take
(:attr:`~repro.graph.sampling.EdgeSampler.positive_batch_size`, which clamps
the configured batch size to ``|E|``), not from the requested batch size, so
the throughput number never overstates the work done on small graphs.

Each row records a sha256 of the released embedding bytes, so two rows that
ran the same exact schedule can be checked for bit-identity.  With
``--baseline-src`` the numpy row is also fitted from another checkout's
``src/`` (say, the parent commit's) in a subprocess, and the file holds the
before and after rows side by side.  The output records the CPU count, the
NumPy version and the git commit of each tree.

Usage::

    PYTHONPATH=src python benchmarks/bench_backend.py            # full (50k nodes)
    PYTHONPATH=src python benchmarks/bench_backend.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_backend.py --baseline-src ../parent/src
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api.registry import make_model
from repro.backend import backend_unavailable_reason, canonical_backend_spec
from repro.graph.graph import Graph


def build_graph(num_nodes: int, num_edges: int) -> Graph:
    """The same synthetic benchmark graph for every backend (seeded)."""
    rng = np.random.default_rng(0)
    edges = rng.integers(0, num_nodes, size=(num_edges, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return Graph(num_nodes, edges, name="bench-backend")


def max_rss_mb() -> float:
    """Process-lifetime peak RSS in MiB (a high-water mark, never decreasing)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha(path: Path) -> str | None:
    """``git describe --dirty`` of the checkout holding ``path``, or ``None``."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, cwd=path, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def bench_baseline(src: Path, args: argparse.Namespace) -> dict:
    """The numpy row of this benchmark fitted from another tree's ``src/``."""
    with tempfile.TemporaryDirectory() as tmp:
        output = Path(tmp) / "baseline.json"
        subprocess.run(
            [sys.executable, __file__, "--backends", "numpy", "--precisions", "exact",
             "--nodes", str(args.nodes), "--edges", str(args.edges),
             "--dim", str(args.dim), "--epochs", str(args.epochs),
             "--batches-per-epoch", str(args.batches_per_epoch),
             "--batch-size", str(args.batch_size), "--negatives", str(args.negatives),
             "--output", str(output)],
            env={**os.environ, "PYTHONPATH": str(src)}, check=True,
        )
        row = json.loads(output.read_text())["results"]["numpy"]
    return {**row, "backend": "numpy (baseline)", "git_sha": _git_sha(src)}


def bench_one(
    backend: str, precision: str, graph: Graph, args: argparse.Namespace
) -> dict:
    """Fit sgm on ``graph`` under ``backend``/``precision``; the timing row."""
    spec = f"{backend}:{precision}"
    fit_start = time.perf_counter()
    model = make_model(
        "sgm",
        graph=graph,
        rng=2025,
        backend=spec,
        embedding_dim=args.dim,
        num_epochs=args.epochs,
        batches_per_epoch=args.batches_per_epoch,
        batch_size=args.batch_size,
        num_negatives=args.negatives,
    ).fit()
    fit_seconds = time.perf_counter() - fit_start
    # The sampler clamps each batch's positive take to |E|; charge the
    # throughput with the pairs actually processed, not the request.
    pair_updates = (
        args.epochs
        * args.batches_per_epoch
        * model.sampler.positive_batch_size
        * (1 + args.negatives)
    )
    emb = model.embeddings_
    return {
        "backend": canonical_backend_spec(spec),
        "precision": precision,
        "fit_seconds": fit_seconds,
        "pair_updates": pair_updates,
        "pair_updates_per_second": pair_updates / max(1e-9, fit_seconds),
        "max_rss_mb": max_rss_mb(),
        "embedding_sha256": hashlib.sha256(np.ascontiguousarray(emb).tobytes()).hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=50_000)
    parser.add_argument("--edges", type=int, default=250_000)
    parser.add_argument("--dim", type=int, default=128)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--batches-per-epoch", type=int, default=50)
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--negatives", type=int, default=5)
    parser.add_argument("--backends", nargs="+", default=["numpy", "torch"],
                        help="backend specs to benchmark (unavailable ones "
                             "are recorded and skipped)")
    parser.add_argument("--precisions", nargs="+", default=["exact", "fast"],
                        help="precision modes to benchmark per backend "
                             "(numpy only supports exact; fast rows on it "
                             "are skipped)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload for CI smoke runs")
    parser.add_argument("--baseline-src", type=Path, default=None,
                        help="another checkout's src/ directory whose numpy "
                             "fit is recorded beside this tree's")
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_backend.json",
    )
    args = parser.parse_args()
    if args.quick:
        args.nodes, args.edges = 5_000, 20_000
        args.dim, args.epochs, args.batches_per_epoch = 32, 2, 10
        args.batch_size = 256

    build_start = time.perf_counter()
    graph = build_graph(args.nodes, args.edges)
    build_seconds = time.perf_counter() - build_start
    print(f"benchmarking backends on {graph.num_nodes} nodes / "
          f"{graph.num_edges} edges (built in {build_seconds:.2f}s)")

    results, skipped = {}, {}
    for backend in args.backends:
        family = backend.split(":")[0]
        reason = backend_unavailable_reason(family)
        if reason is not None:
            skipped[backend] = reason
            print(f"  {backend:<16} skipped ({reason})")
            continue
        for precision in args.precisions:
            if family == "numpy" and precision != "exact":
                skipped[f"{backend}:{precision}"] = (
                    "numpy is the exact reference; it has no fast path"
                )
                continue
            row = bench_one(backend, precision, graph, args)
            results[row["backend"]] = row
            print(f"  {row['backend']:<16} fit {row['fit_seconds']:7.2f}s  "
                  f"{row['pair_updates_per_second']:>12,.0f} pair updates/s  "
                  f"(peak rss {row['max_rss_mb']:,.0f} MiB)")

    if args.baseline_src is not None and "numpy" in results:
        row = bench_baseline(args.baseline_src.resolve(), args)
        results[row["backend"]] = row
        print(f"  {row['backend']:<16} fit {row['fit_seconds']:7.2f}s  "
              f"{row['pair_updates_per_second']:>12,.0f} pair updates/s")

    comparison = {}
    if "numpy (baseline)" in results:
        before, after = results["numpy (baseline)"], results["numpy"]
        comparison["numpy_vs_baseline_fit_speedup"] = (
            before["fit_seconds"] / max(1e-9, after["fit_seconds"])
        )
        comparison["numpy_matches_baseline_sha256"] = (
            before["embedding_sha256"] == after["embedding_sha256"]
        )
        print(f"  numpy speedup over baseline: "
              f"{comparison['numpy_vs_baseline_fit_speedup']:.2f}x "
              f"(embeddings identical: {comparison['numpy_matches_baseline_sha256']})")
    exact_torch = next(
        (k for k, r in results.items()
         if k.startswith("torch") and r["precision"] == "exact"),
        None,
    )
    fast_torch = next(
        (k for k, r in results.items()
         if k.startswith("torch") and r["precision"] == "fast"),
        None,
    )
    if "numpy" in results and exact_torch is not None:
        comparison["torch_vs_numpy_fit_ratio"] = (
            results[exact_torch]["fit_seconds"]
            / max(1e-9, results["numpy"]["fit_seconds"])
        )
        print(f"  torch/numpy fit-time ratio: "
              f"{comparison['torch_vs_numpy_fit_ratio']:.2f}x")
    if exact_torch is not None and fast_torch is not None:
        comparison["fast_vs_exact_speedup"] = (
            results[exact_torch]["fit_seconds"]
            / max(1e-9, results[fast_torch]["fit_seconds"])
        )
        print(f"  fast-vs-exact speedup (torch): "
              f"{comparison['fast_vs_exact_speedup']:.2f}x")

    payload = {
        "benchmark": "backend",
        "config": {
            "num_nodes": args.nodes,
            "requested_edges": args.edges,
            "embedding_dim": args.dim,
            "num_epochs": args.epochs,
            "batches_per_epoch": args.batches_per_epoch,
            "batch_size": args.batch_size,
            "num_negatives": args.negatives,
            "quick": args.quick,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "git_sha": _git_sha(Path(__file__).resolve().parent),
        },
        "graph_build_seconds": build_seconds,
        "results": results,
        "skipped": skipped,
        "comparison": comparison,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
