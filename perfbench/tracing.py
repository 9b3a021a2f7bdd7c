"""In-memory span tracer and the wrappers that time calls into ``repro``.

Nothing here edits ``repro``: :func:`instrument` swaps public module and
class attributes for timing wrappers and puts the originals back on exit.

* Layer calls (dataset load, split, model construction, fit, evaluation,
  cache put) become spans ``(name, start, end, parent)`` kept in memory and
  written out by :meth:`Tracer.dump` when the run ends.
* Calls too frequent for a span each (accountant polls and steps, backend
  row kernels, training-loop runs) only add to counters and summed seconds.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

#: Models whose fit time and steps are reported (``fit_s.<name>``).
FIT_MODELS = ("advsgm", "dpggan", "dpgvae", "gap", "dpar", "sgm")


class Patcher:
    """Replaces attributes and restores every original on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def wrap(self, owner: Any, name: str, make_wrapper: Callable) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Tracer:
    """Spans and counters of one traced replay."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.counters: Dict[str, float] = defaultdict(float)
        self.graphs: Set[tuple] = set()
        self.active = True
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Stop counting while the benchmark itself calls into ``repro``."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def add(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def seconds(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def attributed_frac(self, cell_span: str = "cell") -> float:
        """Share of cell time covered by the cells' direct child spans."""
        cells = {i for i, s in enumerate(self.spans) if s[0] == cell_span}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in cells)
        covered = sum(end - start for _, start, end, parent in self.spans if parent in cells)
        return covered / total if total > 0 else 0.0

    def dump(self, path, extra: Optional[Dict[str, Any]] = None) -> None:
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counters": dict(self.counters),
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _spanned(tracer: Tracer, name: str):
    def make(fn):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return make


def _counted(tracer: Tracer, prefix: str, nbytes: Optional[Callable] = None):
    """Add calls and seconds under ``prefix`` (and bytes, when given)."""

    def make(fn):
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.counters[prefix + "_s"] += time.perf_counter() - start
                tracer.counters[prefix + "_calls"] += 1
                if nbytes is not None:
                    tracer.counters[prefix + "_bytes"] += nbytes(*args)

        return wrapper

    return make


@contextmanager
def instrument(tracer: Tracer, store_only: bool = False) -> Iterator[Tracer]:
    """Time the calls into each layer of ``repro`` while the block runs.

    ``store_only`` wraps just ``ResultStore.put``: the parent-process view
    of a pooled sweep, whose cells run in workers the tracer cannot see.
    """
    from repro.cache.store import ResultStore

    patcher = Patcher()
    try:
        patcher.wrap(ResultStore, "put", _counted(tracer, "cache.put"))
        if not store_only:
            _instrument_layers(tracer, patcher)
        yield tracer
    finally:
        patcher.restore()


def _instrument_layers(tracer: Tracer, patcher: Patcher) -> None:
    from repro.api import get_entry, registry
    from repro.backend.numpy_backend import NumpyBackend
    from repro.evals import link_prediction
    from repro.evals.clustering import NodeClusteringTask
    from repro.experiments import runners
    from repro.privacy.accountant import RdpAccountant
    from repro.train.loop import TrainingLoop

    def wrap_load(load):
        def traced_load(*args, **kwargs):
            tracer.graphs.add((args, tuple(sorted(kwargs.items()))))
            with tracer.span("datasets.load"):
                return load(*args, **kwargs)

        return traced_load

    def wrap_make_model(make_model):
        def traced_make_model(name, *args, **kwargs):
            with tracer.span("registry.make_model"):
                model = make_model(name, *args, **kwargs)
            model_name = get_entry(name).name
            fit = model.fit

            def traced_fit(*fit_args, **fit_kwargs):
                loops = tracer.counters["loop.steps"]
                charged = tracer.counters["accountant.steps"]
                with tracer.span("fit." + model_name):
                    out = fit(*fit_args, **fit_kwargs)
                # Trainers without a TrainingLoop (GAP, DPAR) count the
                # mechanism invocations they charged instead.
                steps = tracer.counters["loop.steps"] - loops
                if not steps:
                    steps = tracer.counters["accountant.steps"] - charged
                tracer.add("fit_steps." + model_name, steps)
                return out

            model.fit = traced_fit
            return model

        return traced_make_model

    def wrap_loop_run(run):
        def traced_run(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            tracer.add("loop.steps", result.steps_completed)
            return result

        return traced_run

    def wrap_step(step):
        def traced_step(self, sampling_rate, num_steps=1):
            step(self, sampling_rate, num_steps)
            if tracer.active and num_steps and sampling_rate:
                tracer.counters["accountant.steps"] += num_steps

        return traced_step

    patcher.wrap(runners, "load_dataset", wrap_load)
    patcher.wrap(link_prediction, "train_test_split_edges", _spanned(tracer, "splits.split"))
    patcher.wrap(registry, "make_model", wrap_make_model)
    patcher.wrap(runners, "make_model", wrap_make_model)
    patcher.wrap(TrainingLoop, "run", wrap_loop_run)
    patcher.wrap(link_prediction.LinkPredictionTask, "evaluate", _spanned(tracer, "evals.auc"))
    patcher.wrap(NodeClusteringTask, "evaluate", _spanned(tracer, "evals.cluster"))
    patcher.wrap(RdpAccountant, "get_delta_spent", _counted(tracer, "accountant.poll"))
    patcher.wrap(RdpAccountant, "get_privacy_spent", _counted(tracer, "accountant.poll"))
    patcher.wrap(RdpAccountant, "step", wrap_step)
    # Computed bytes: the norm pass reads x, the in-place divide reads and
    # writes it again.
    patcher.wrap(
        NumpyBackend,
        "normalize_rows_",
        _counted(tracer, "backend.normalize_rows", nbytes=lambda self, x, *a: 3 * x.nbytes),
    )
    patcher.wrap(NumpyBackend, "index_add_", _counted(tracer, "backend.index_add"))


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer values of one traced replay, by metric name."""
    c = tracer.counters
    metrics = {
        "datasets.load_s": tracer.seconds("datasets.load"),
        "datasets.load_calls": float(sum(1 for s in tracer.spans if s[0] == "datasets.load")),
        "datasets.distinct_graphs": float(len(tracer.graphs)),
        "splits.split_s": tracer.seconds("splits.split"),
        "splits.calls": float(sum(1 for s in tracer.spans if s[0] == "splits.split")),
        "registry.make_model_s": tracer.seconds("registry.make_model"),
    }
    for model in FIT_MODELS:
        metrics["fit_s." + model] = tracer.seconds("fit." + model)
        metrics["fit_steps." + model] = c["fit_steps." + model]
    metrics.update(
        {
            "accountant.polls": c["accountant.poll_calls"],
            "accountant.poll_s": c["accountant.poll_s"],
            "accountant.steps": c["accountant.steps"],
            "evals.auc_s": tracer.seconds("evals.auc"),
            "evals.cluster_s": tracer.seconds("evals.cluster"),
            "backend.normalize_rows_s": c["backend.normalize_rows_s"],
            "backend.normalize_rows_calls": c["backend.normalize_rows_calls"],
            "backend.normalize_rows_bytes": c["backend.normalize_rows_bytes"],
            "backend.index_add_s": c["backend.index_add_s"],
            "backend.index_add_calls": c["backend.index_add_calls"],
            "trace.attributed_frac": tracer.attributed_frac(),
        }
    )
    return metrics
