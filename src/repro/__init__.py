"""AdvSGM reproduction: differentially private graph embeddings via an
adversarial skip-gram model (Zhang et al., ICDE 2025).

The package is organised as a set of substrates plus the paper's core
contribution:

``repro.graph``
    Graph data structure, synthetic dataset generators that stand in for the
    paper's public datasets, sampling routines (Algorithm 2) and edge-split
    utilities.
``repro.backend``
    Pluggable compute backends: the ``Backend`` array-ops protocol, the
    bit-for-bit default ``NumpyBackend`` and the optional, import-gated
    ``TorchBackend`` (CPU/GPU).  All models route their tensor math through
    the seam; randomness stays on seeded numpy streams so one seed
    reproduces a run on every backend.
``repro.nn``
    Minimal neural-network substrate: numerically stable activations, the
    constrained sigmoid built from exponential clipping (Algorithm 1),
    parameter initialisers, optimizers and the dense/GCN layers used by the
    GNN baselines — all backend-aware.
``repro.privacy``
    Differential-privacy substrate: Gaussian mechanism, gradient clipping,
    RDP of the subsampled Gaussian mechanism, composition, conversion to
    (epsilon, delta)-DP and a privacy accountant.
``repro.embedding``
    Non-private skip-gram family models (LINE-style SGM, DeepWalk, node2vec
    walks, the adversarial skip-gram without privacy).
``repro.core``
    AdvSGM itself (Algorithm 3): discriminator with optimizable noise terms,
    generator, weight tuning lambda = 1/S(.) and RDP-accounted training.
``repro.train``
    Unified training loop (epoch/step scheduling, callbacks) plus the
    single shared privacy-budget early stop used by every DP trainer.
``repro.baselines``
    Private baselines: DP-SGM, DP-ASGM, DPGGAN, DPGVAE, GAP and DPAR.
``repro.evals``
    Link-prediction and node-clustering evaluation protocols (AUC, affinity
    propagation, mutual information).
``repro.api``
    The unified estimator surface: the ``GraphEmbedder`` protocol, the
    string-keyed model registry (``make_model``) and declarative
    ``ExperimentSpec`` grids.
``repro.cache``
    Content-addressed experiment result cache: canonical cell keys,
    provenance manifests and the filesystem ``ResultStore`` that makes
    re-running partial sweeps free and interrupted sweeps resumable.
``repro.experiments``
    One module per paper table/figure that regenerates the reported series,
    all running through ``run_spec`` (serially or across a process pool,
    optionally against a result cache).
``repro.service``
    The embedding service: a lease-based cell scheduler behind a stdlib
    HTTP server (``serve``), remote worker loops (``worker``) that recompute
    cells through the same runner path, and an etag'd embeddings read path
    for lookup-heavy clients.

The command line mirrors the library: ``python -m repro train / evaluate /
experiment / serve / worker / submit / status / datasets list / models
list``.
"""

from repro.api import (
    ExperimentCell,
    ExperimentSpec,
    GraphEmbedder,
    ModelSpec,
    Placement,
    get_entry,
    list_models,
    make_model,
    register_model,
)
from repro.backend import Backend, BackendError, get_backend, list_backends
from repro.cache import ResultStore, cell_key
from repro.core.advsgm import AdvSGM
from repro.core.config import AdvSGMConfig
from repro.embedding.skipgram import SkipGramModel
from repro.embedding.adversarial import AdversarialSkipGram
from repro.graph.graph import Graph
from repro.graph.walk_engine import WalkEngine
from repro.graph.datasets import load_dataset, list_datasets
from repro.evals.link_prediction import LinkPredictionTask
from repro.evals.clustering import NodeClusteringTask
from repro.train import (
    Callback,
    PrivacyBudget,
    ProgressCallback,
    Trainer,
    TrainingLoop,
)

__version__ = "1.8.0"

__all__ = [
    "AdvSGM",
    "AdvSGMConfig",
    "Backend",
    "BackendError",
    "get_backend",
    "list_backends",
    "SkipGramModel",
    "AdversarialSkipGram",
    "Graph",
    "WalkEngine",
    "load_dataset",
    "list_datasets",
    "LinkPredictionTask",
    "NodeClusteringTask",
    "Callback",
    "PrivacyBudget",
    "ProgressCallback",
    "Trainer",
    "TrainingLoop",
    "GraphEmbedder",
    "ExperimentCell",
    "ExperimentSpec",
    "ModelSpec",
    "Placement",
    "ResultStore",
    "cell_key",
    "get_entry",
    "list_models",
    "make_model",
    "register_model",
    "__version__",
]


def run_spec(spec, workers: int = 1, **kwargs):
    """Run an :class:`ExperimentSpec`; see :func:`repro.experiments.runners.run_spec`.

    Imported lazily so ``import repro`` stays light.  ``cache=``, ``resume=``,
    ``force=``, ``store_embeddings=`` and ``placement=`` pass through to the
    runner.
    """
    from repro.experiments.runners import run_spec as _run_spec

    return _run_spec(spec, workers=workers, **kwargs)
