"""The benchmark's workloads, built only from ``repro``'s public functions.

Every workload runs *units* (one cell, one round of pooled chunks, or one
pair of fits) until its measured time reaches the run length, and can replay
exactly the cells it ran, serially, for the traced run.  All inputs derive
from the workload seed: it is ``ExperimentSettings.seed`` for the sweeps and
the dataset and model seed on ``skipgram-large``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.gates import Gate

#: Scratch space of the run (pool result stores, trace dumps); git-ignored.
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench"


@dataclass
class Measured:
    """What one phase of a workload ran and how long each cell took."""

    cells: List[Any] = field(default_factory=list)  # replayable descriptors
    rows: Dict[str, Optional[Dict[str, Any]]] = field(default_factory=dict)
    cell_s: List[float] = field(default_factory=list)
    busy_s: float = 0.0  # time inside the timed calls
    unit_rates: List[float] = field(default_factory=list)  # cells/s of each unit
    problems: Dict[str, List[str]] = field(default_factory=dict)

    def fail(self, cell_id: str, reason: str) -> None:
        self.problems.setdefault(cell_id, []).append(reason)


def keep_going(busy_s: float, last_unit_s: float, seconds: float) -> bool:
    """Start another unit when that ends the run nearer to ``seconds``."""
    return busy_s + last_unit_s / 2.0 <= seconds


def _settings(preset: str, seed: int):
    from repro.experiments.config import ExperimentSettings

    return dataclasses.replace(ExperimentSettings.preset(preset), seed=seed)


def _cell_id(dataset: str, model: str, epsilon: float) -> str:
    return f"{dataset}/{model}/{float(epsilon)!r}"


class _Sweep:
    """A paper figure's grid, run one single-cell ``run_spec`` at a time."""

    #: ``repro.experiments`` module whose ``spec()`` builds the grid.
    figure = ""
    #: Tail percentile of per-cell latency (see README.md).
    tail_percentile = 0
    #: Cells per unit: a timed run stops only after a whole unit.
    unit = 1

    def __init__(self, preset: str, seed: int) -> None:
        self.preset = preset
        self.seed = seed
        self.settings = None
        self.module = None

    def setup(self) -> None:
        import importlib

        self.module = importlib.import_module(f"repro.experiments.{self.figure}")
        self.settings = _settings(self.preset, self.seed)
        self.grid = self.module.spec(self.settings)

    def close(self) -> None:
        pass

    def run_cell(self, cell: Tuple[str, str, float]) -> Dict[str, Any]:
        from repro import run_spec

        dataset, model, epsilon = cell
        spec = self.module.spec(
            self.settings, datasets=(dataset,), models=(model,), epsilons=(epsilon,)
        )
        (row,) = run_spec(spec)
        return row

    def serial(self, cells, gate: Gate, seconds: Optional[float] = None, tracer=None) -> Measured:
        """Run ``cells`` in order, each through its own ``run_spec`` call.

        With ``seconds`` the list is cycled until the measured time reaches
        it; otherwise each cell runs once (a replay).
        """
        out = Measured()
        k = 0
        unit_s = 0.0
        while True:
            cell = cells[k % len(cells)]
            cell_id = _cell_id(*cell)
            row = None
            start = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("cell"):
                        row = self.run_cell(cell)
                else:
                    row = self.run_cell(cell)
            except Exception as exc:  # a failed cell is counted, not fatal
                out.fail(cell_id, f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            out.cells.append(cell)
            out.cell_s.append(elapsed)
            out.busy_s += elapsed
            unit_s += elapsed
            out.rows[cell_id] = row
            for problem in gate.drain():
                out.fail(cell_id, problem)
            if row is not None:
                problem = gate.row_problem(cell_id, row)
                if problem is not None:
                    out.fail(cell_id, problem)
            k += 1
            if k % self.unit == 0:
                out.unit_rates.append(self.unit / unit_s)
                if seconds is not None and not keep_going(out.busy_s, unit_s, seconds):
                    return out
                unit_s = 0.0
            if seconds is None and k == len(cells):
                return out

    def replay(self, cells, gate: Gate, tracer=None) -> Measured:
        return self.serial(cells, gate, tracer=tracer)

    def all_cells(self) -> List[Tuple[str, str, float]]:
        """Every cell of the grid (recording digests)."""
        return [(c.dataset, c.model.display, c.epsilon) for c in self.grid.cells()]

    def utility(self, rows: Dict[str, Optional[Dict[str, Any]]]) -> Dict[str, float]:
        values = [
            row[self.value_key]
            for row in rows.values()
            if row is not None and row["model"] == "AdvSGM"
        ]
        mean = sum(values) / len(values) if values else 0.0
        return {self.utility_metric: mean}


class Fig3LinkPrediction(_Sweep):
    """Fig. 3 cells in an order where every prefix mixes models and graphs.

    Cell ``k`` of block ``b = k // 30`` takes dataset ``k % 6`` and model
    ``k % 5`` (each block covers all 30 pairs once) and the epsilon
    ``(b + dataset + model) % 6``, so six blocks are the whole grid.  A unit
    is five consecutive cells, one of each model: a run ends on a whole
    unit, so its model mix (the main cost factor) never depends on how far
    it got.
    """

    name = "fig3-linkpred"
    figure = "fig3_link_prediction"
    value_key = "auc"
    utility_metric = "auc_advsgm"
    tail_percentile = 80
    unit = 5

    def order(self) -> List[Tuple[str, str, float]]:
        datasets = self.grid.datasets
        models = [m.display for m in self.grid.models]
        epsilons = self.grid.epsilons
        pairs = len(datasets) * len(models)
        cells = []
        for k in range(pairs * len(epsilons)):
            block, j = divmod(k, pairs)
            d, m = j % len(datasets), j % len(models)
            e = (block + d + m) % len(epsilons)
            cells.append((datasets[d], models[m], epsilons[e]))
        return cells

    def measure(self, seconds: float, gate: Gate) -> Measured:
        return self.serial(self.order(), gate, seconds=seconds)


class Fig4ClusterPool(_Sweep):
    """Fig. 4 grid in rounds of pooled chunks, each chunk one epsilon
    (3 datasets x 5 models) through one ``run_spec(workers=nproc)`` call
    into a fresh ``ResultStore``.

    The two rounds take alternate budgets -- (1, 3, 5) and (2, 4, 6) -- so
    every round has the same dataset/model mix and spans the budget range,
    and two rounds are the whole grid.  A round is three chunks because
    which cells collide with the other worker's BLAS threads varies from
    chunk to chunk; fewer chunks left the run-to-run spread near the bound.
    """

    name = "fig4-cluster-pool"
    figure = "fig4_node_clustering"
    value_key = "mi"
    utility_metric = "mi_advsgm"
    tail_percentile = 75

    def __init__(self, preset: str, seed: int) -> None:
        super().__init__(preset, seed)
        self.workers = len(os.sched_getaffinity(0))
        self.root: Optional[str] = None

    def setup(self) -> None:
        super().setup()
        SCRATCH.mkdir(exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="fig4-store-", dir=SCRATCH)

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    def rounds(self):
        eps = self.grid.epsilons
        for budgets in (eps[0::2], eps[1::2]):
            if budgets:
                yield [self.module.spec(self.settings, epsilons=(e,)) for e in budgets]

    def measure(self, seconds: float, gate: Gate) -> Measured:
        """Pooled rounds; per-cell seconds are the workers' own timings,
        read back from the store's manifests."""
        out = Measured()
        rounds = list(self.rounds())
        k = 0
        gate.defer = False  # workers raise on a fit over budget
        try:
            while True:
                chunks = rounds[k % len(rounds)]
                round_s = sum(self._chunk(spec, out, gate) for spec in chunks)
                out.unit_rates.append(sum(len(spec.cells()) for spec in chunks) / round_s)
                k += 1
                if not keep_going(out.busy_s, round_s, seconds):
                    return out
        finally:
            gate.defer = True

    def _chunk(self, spec, out: Measured, gate: Gate) -> float:
        from repro import ResultStore, run_spec

        store = ResultStore(tempfile.mkdtemp(prefix="chunk-", dir=self.root))
        error = None
        start = time.perf_counter()
        try:
            run_spec(spec, workers=self.workers, cache=store)
        except Exception as exc:  # cells that failed are absent from the store
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        out.busy_s += elapsed
        for cell in spec.cells():
            cell_id = _cell_id(cell.dataset, cell.model.display, cell.epsilon)
            out.cells.append((cell.dataset, cell.model.display, cell.epsilon))
            row = store.get(cell)
            out.rows[cell_id] = row
            if row is None:
                out.fail(cell_id, error or "cell missing from the store")
                continue
            out.cell_s.append(store.manifest(cell).wall_time_s)
            problem = gate.row_problem(cell_id, row)
            if problem is not None:
                out.fail(cell_id, problem)
        return elapsed


class SkipgramLarge:
    """One ~48k-node ``blog`` analogue (loaded in set-up), then pairs of
    ``sgm`` and ``advsgm`` fits on it until the run length is reached."""

    name = "skipgram-large"
    tail_percentile = 100
    #: preset -> (dataset scale, sgm overrides, advsgm overrides)
    SIZES = {
        "quick": (
            40.0,
            dict(embedding_dim=128, batch_size=1024, num_epochs=2, batches_per_epoch=25, num_negatives=5),
            dict(epsilon=6.0, embedding_dim=128, batch_size=128, num_epochs=20),
        ),
        "smoke": (
            0.5,
            dict(embedding_dim=16, batch_size=64, num_epochs=1, batches_per_epoch=3, num_negatives=2),
            dict(epsilon=6.0, embedding_dim=16, batch_size=16, num_epochs=2),
        ),
    }

    def __init__(self, preset: str, seed: int) -> None:
        self.preset = preset
        self.seed = seed
        self.scale, sgm, advsgm = self.SIZES[preset]
        self.fits = (("sgm", sgm), ("advsgm", advsgm))
        self.graph = None

    def setup(self) -> None:
        from repro import load_dataset

        self.graph = load_dataset("blog", scale=self.scale, seed=self.seed)

    def close(self) -> None:
        self.graph = None

    def run_fit(self, name: str, overrides: Dict[str, Any]):
        from repro.api import registry

        model = registry.make_model(name, graph=self.graph, rng=self.seed, **overrides)
        model.fit()
        return model

    def serial(self, pairs: Optional[int], gate: Gate, seconds: Optional[float] = None, tracer=None) -> Measured:
        out = Measured()
        done = 0
        while True:
            pair_s = 0.0
            for name, overrides in self.fits:
                model = None
                start = time.perf_counter()
                try:
                    if tracer is not None:
                        with tracer.span("cell"):
                            model = self.run_fit(name, overrides)
                    else:
                        model = self.run_fit(name, overrides)
                    error = None
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                pair_s += elapsed
                cell_id = f"blog@{self.scale!r}/{name}"
                out.cells.append(name)
                out.cell_s.append(elapsed)
                out.busy_s += elapsed
                row = None
                if model is not None:
                    with tracer.paused() if tracer is not None else nullcontext():
                        row = self.fit_row(name, model)
                    problem = gate.row_problem(cell_id, row)
                    if problem is not None:
                        out.fail(cell_id, problem)
                else:
                    out.fail(cell_id, error)
                # Cells repeat in a run: key each occurrence apart.
                out.rows[f"{cell_id}#{done}"] = row
                for problem in gate.drain():
                    out.fail(cell_id, problem)
                del model
                gc.collect()
            out.unit_rates.append(len(self.fits) / pair_s)
            done += 1
            if seconds is None:
                if done == pairs:
                    return out
            elif not keep_going(out.busy_s, pair_s, seconds):
                return out

    def fit_row(self, name: str, model) -> Dict[str, Any]:
        spent = model.privacy_spent() if hasattr(model, "privacy_spent") else None
        embeddings = model.embeddings_
        return {
            "model": name,
            "embedding_sha256": hashlib.sha256(embeddings.tobytes()).hexdigest(),
            "shape": list(embeddings.shape),
            "epsilon_spent": None if spent is None else spent.epsilon,
        }

    def measure(self, seconds: float, gate: Gate) -> Measured:
        return self.serial(None, gate, seconds=seconds)

    def replay(self, cells, gate: Gate, tracer=None) -> Measured:
        return self.serial(len(cells) // len(self.fits), gate, tracer=tracer)

    def all_cells(self):
        return [name for name, _ in self.fits]

    def utility(self, rows) -> Dict[str, float]:
        return {}


WORKLOADS = {
    Fig3LinkPrediction.name: Fig3LinkPrediction,
    Fig4ClusterPool.name: Fig4ClusterPool,
    SkipgramLarge.name: SkipgramLarge,
}

