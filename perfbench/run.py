"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the repository root.

``--trace 0`` measures the workload with nothing wrapped and prints the
end-to-end metrics; ``--trace 1`` measures it the same way, then replays the
same cells serially with every layer call timed and prints the per-layer
metrics.  The last line of standard output is the JSON result; the line
before it (``perfbench {...}``) is a readable summary with the environment.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
#: Fresh-interpreter set-ups per run besides the run's own; set-up_s is the
#: median of the three (a probe of ``skipgram-large`` regenerates its graph).
SETUP_PROBES = 2
#: ``perfbench.workloads.WORKLOADS`` keys (that module needs ``repro``).
WORKLOAD_NAMES = ("fig3-linkpred", "fig4-cluster-pool", "skipgram-large")
#: Workloads that run in one process and get one BLAS thread (see pin_blas).
SERIAL_WORKLOADS = ("fig3-linkpred", "skipgram-large")
#: BLAS/OpenMP thread-count variables, and their values as the run found them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FOUND_THREADS = {name: os.environ.get(name) for name in THREAD_VARS}


def process_age() -> float:
    """Seconds since this process started (its interpreter start)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def pin_blas(workload: str) -> None:
    """Give a serial workload one BLAS thread, unless the caller chose.

    With OpenBLAS's default of one thread per CPU, a serial run's threads
    spin on each other, and one busy process elsewhere on a 2-vCPU host cut
    ``fig3-linkpred``'s cells_per_s by 36% and ``skipgram-large``'s by 27%;
    with one thread, by 0%.  The pool workload keeps the defaults, so its
    BLAS-thread oversubscription stays visible.  Must run before numpy loads.
    """
    if workload in SERIAL_WORKLOADS and not any(FOUND_THREADS.values()):
        for name in THREAD_VARS:
            os.environ[name] = "1"


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {SRC}; run from a full checkout")
    sys.path[:0] = [str(ROOT), str(SRC)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    sha = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **FOUND_THREADS,
        "OPENBLAS_NUM_THREADS_as_run": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": sha,
    }


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p``-th percentile (``p=100``: max).

    A beta-weighted average of all order statistics: per-cell times cluster
    by model, and a single order statistic jumps between clusters from run
    to run where this estimate moves smoothly.
    """
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    if p >= 100 or n == 1:
        return ordered[-1]
    a, b = p / 100.0 * (n + 1), (1 - p / 100.0) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return float(sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(ordered)))


def load_digests(path: Path, workload: str, preset: str, seed: int):
    """The workload's recorded digests when ``preset``/``seed`` match."""
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("preset") != preset or data.get("seed") != seed:
        return None
    return data["workloads"].get(workload, {})


def setup_probe(args) -> float:
    """Run the workload's set-up in a fresh interpreter; its process age."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--preset", args.preset,
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def compare_rows(reference, other, label: str, problems: dict) -> None:
    from perfbench.gates import row_bytes

    for key, row in reference.items():
        if row is None:
            continue
        again = other.get(key)
        if again is None or row_bytes(again) != row_bytes(row):
            problems.setdefault(key.split("#")[0], []).append(f"{label} row differs")


def traced_replay(workload, measured, gate, problems: dict):
    """Replay ``measured`` serially, traced; returns the per-layer metrics."""
    from perfbench.tracing import Tracer, instrument, layer_metrics
    from perfbench.workloads import Fig4ClusterPool

    if isinstance(workload, Fig4ClusterPool):
        # The pool's wall time is no baseline for a serial replay: replay
        # untraced first (which also checks pool rows == serial rows).
        base = workload.replay(measured.cells, gate)
        compare_rows(measured.rows, base.rows, "serial replay", problems)
        merge(problems, base.problems)
        base_s = base.busy_s
    else:
        base_s = measured.busy_s
    tracer = Tracer()
    fits, overshoots = gate.dp_fits, gate.overshoot_fits
    gate.tracer = tracer
    try:
        with instrument(tracer):
            traced = workload.replay(measured.cells, gate, tracer=tracer)
    finally:
        gate.tracer = None
    compare_rows(measured.rows, traced.rows, "traced replay", problems)
    merge(problems, traced.problems)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (traced.busy_s - base_s) / base_s
    metrics["privacy.dp_fits"] = float(gate.dp_fits - fits)
    metrics["privacy.overshoot_fits"] = float(gate.overshoot_fits - overshoots)
    return tracer, metrics


def merge(problems: dict, more: dict) -> None:
    for key, reasons in more.items():
        problems.setdefault(key, []).extend(reasons)


def run(args) -> int:
    from perfbench import gates
    from perfbench.tracing import Patcher, Tracer, instrument
    from perfbench.workloads import SCRATCH, WORKLOADS, Fig4ClusterPool

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    gate = gates.Gate(load_digests(Path(args.digests), args.workload, args.preset, args.seed))
    patcher = Patcher()
    gates.install(gate, patcher)
    workload = WORKLOADS[args.workload](args.preset, args.seed)
    tracer = None
    try:
        workload.setup()
        setups = [process_age()]
        if args.trace and isinstance(workload, Fig4ClusterPool):
            # Pool and store metrics are the parent process's view.
            store_tracer = Tracer()
            with instrument(store_tracer, store_only=True):
                measured = workload.measure(args.seconds, gate)
        else:
            measured = workload.measure(args.seconds, gate)
        problems = dict(measured.problems)
        layers = {}
        if args.trace:
            tracer, layers = traced_replay(workload, measured, gate, problems)
            workers = getattr(workload, "workers", 1)
            layers["runners.pool_busy_share"] = sum(measured.cell_s) / (workers * measured.busy_s)
            if isinstance(workload, Fig4ClusterPool):
                layers["cache.puts"] = store_tracer.counters["cache.put_calls"]
                layers["cache.put_s"] = store_tracer.counters["cache.put_s"]
            else:
                layers["cache.puts"] = layers["cache.put_s"] = 0.0
    finally:
        workload.close()
        patcher.restore()
    setups += [setup_probe(args) for _ in range(SETUP_PROBES)]
    env = environment()

    attempted = len(measured.cells)
    failed = min(attempted, len(problems))
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Every end-to-end metric the run measures; BENCHMARK.json bounds the
    # steady ones and lists the rest (and the per-layer ones) in per_layer.
    measured_metrics = {
        "cells_per_s": statistics.median(measured.unit_rates),
        "cell_s_p50": quantile(measured.cell_s, 50),
        "cell_s_tail": quantile(measured.cell_s, workload.tail_percentile),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": (usage + children) / 1024.0,
        "failed_frac": failed / attempted,
        "auc_advsgm": 0.0,
        "mi_advsgm": 0.0,
    }
    measured_metrics.update(workload.utility(measured.rows))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "preset": args.preset,
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in measured_metrics.items()},
        "tail_percentile": workload.tail_percentile,
        "cell_samples": len(measured.cell_s),
        "cell_s": measured.cell_s,
        "setup_samples": setups,
        "digest_gate": gate.digests is not None,
        "problems": {k: v for k, v in list(problems.items())[:5]},
        "environment": env,
    }
    values = measured_metrics
    if args.trace:
        values = {**measured_metrics, **layers}
        summary["layers"] = layers
        SCRATCH.mkdir(exist_ok=True)
        trace_path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"summary": summary})
        summary["trace_file"] = str(trace_path.relative_to(ROOT))
    group = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in group}
    print("perfbench " + json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def record_digests(args) -> int:
    """Run every cell of every workload once and write their digests."""
    from perfbench import gates
    from perfbench.tracing import Patcher
    from perfbench.workloads import WORKLOADS

    recorded = {}
    for name in WORKLOADS:
        gate = gates.Gate()
        patcher = Patcher()
        gates.install(gate, patcher)
        workload = WORKLOADS[name](args.preset, args.seed)
        try:
            workload.setup()
            out = workload.replay(workload.all_cells(), gate)
        finally:
            workload.close()
            patcher.restore()
        if out.problems:
            sys.exit(f"perfbench: {name} failed while recording: {out.problems}")
        recorded[name] = {key.split("#")[0]: gates.row_digest(row) for key, row in out.rows.items()}
        print(f"{name}: {len(recorded[name])} cells", file=sys.stderr)
    with open(args.digests, "w", encoding="utf-8") as handle:
        json.dump({"preset": args.preset, "seed": args.seed, "workloads": recorded}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", choices=("quick", "smoke"), default="quick",
                        help="workload size; digests and figures are for 'quick'")
    parser.add_argument("--digests", default=str(DIGESTS),
                        help="digest file the default-seed gate reads (or --record-digests writes)")
    parser.add_argument("--record-digests", action="store_true",
                        help="run every cell of every workload at --seed and write --digests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is not None:
        pin_blas(args.workload)
    bootstrap()
    if args.record_digests:
        return record_digests(args)
    if args.setup_probe:
        from perfbench.workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.preset, args.seed)
        workload.setup()
        age = process_age()
        workload.close()
        print(json.dumps({"setup_s": age}))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
