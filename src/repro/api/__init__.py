"""Unified estimator API: protocol, model registry and experiment specs.

Three pieces turn the library's eleven bespoke trainers into one surface:

* :class:`GraphEmbedder` / :class:`EstimatorMixin` — the estimator protocol
  (``fit(graph, callbacks=()) -> self``, ``embeddings_``,
  ``get_params()/set_params()``) every model implements;
* :func:`register_model` / :func:`make_model` — the string-keyed registry, so
  ``make_model("advsgm", epsilon=6.0)`` replaces importing the right class
  from the right submodule and hand-assembling its config dataclass;
* :class:`ExperimentSpec` — a declarative, serialisable (dataset x model x
  epsilon x repeat) grid whose cells carry their own derived seeds, consumed
  by :func:`repro.experiments.runners.run_spec` serially or across a process
  pool; a :class:`Placement` (on-disk graphs, walk-corpus cache) travels
  beside it and never changes a result.
"""

from repro.api.estimator import EstimatorMixin, GraphEmbedder
from repro.api.registry import (
    ModelEntry,
    get_entry,
    list_models,
    make_model,
    register_model,
)
from repro.api.spec import (
    SEED_STRIDE,
    ExperimentCell,
    ExperimentSpec,
    ModelSpec,
    Placement,
)

__all__ = [
    "EstimatorMixin",
    "GraphEmbedder",
    "ModelEntry",
    "get_entry",
    "list_models",
    "make_model",
    "register_model",
    "ExperimentCell",
    "ExperimentSpec",
    "ModelSpec",
    "Placement",
    "SEED_STRIDE",
]
