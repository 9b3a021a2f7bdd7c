"""Golden-parity digests: pinned bit-for-bit outputs of the default models.

The experiment cache's correctness story is *reproducibility*: a cache hit
must equal a recompute, and a resumed sweep must equal an uninterrupted one.
Both guarantees rest on the same foundation — that a (graph, config, seed)
triple fully determines a model's output, bit for bit.  This module pins
that foundation: it computes sha256 digests of the embeddings (plus a few
scalar metrics, and the privacy spent by the DP models) of one small run of
every registered model, and ``tests/test_golden_parity.py`` compares a fresh
recompute against the committed fixture ``tests/golden/golden_digests.json``.

Regenerate the fixture after an *intentional* numerical change with::

    PYTHONPATH=src python -m repro golden --update

and review the diff: every changed digest is a behaviour change that
invalidates previously cached results for that model.

The digests are **explicitly pinned to the NumPy backend**: every golden
case trains with ``backend="numpy"`` regardless of ``$REPRO_BACKEND``,
because raw-byte sha256 equality is a numpy-reference property.  Other
backends (torch) are held to the parity suite's rtol instead
(``tests/test_backend.py``), never to these digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.api.registry import make_model
from repro.graph.datasets import load_dataset

#: Version of the digest layout (independent of the cache schema).
GOLDEN_SCHEMA = 1
#: The small graph every golden case trains on.
GOLDEN_DATASET = "ppi"
GOLDEN_SCALE = 0.15
GOLDEN_DATASET_SEED = 7
#: Seed passed to every model (initialisation + sampling streams).
GOLDEN_SEED = 1234
#: The compute backend the digests are pinned to.  Always numpy: byte-exact
#: sha256 is a property of the reference backend only.
GOLDEN_BACKEND = "numpy"
#: Fixed node pairs whose link scores are recorded alongside the digest.
GOLDEN_SCORE_PAIRS = ((0, 1), (1, 2), (2, 3), (5, 8))

#: The pinned runs, one per registered model.  Schedules are tiny so the
#: whole suite recomputes in seconds, but every model's full training path
#: (walk engine, samplers, DP accounting for the private models) is
#: exercised.
GOLDEN_CASES: Dict[str, Dict[str, Any]] = {
    "deepwalk": {
        "model": "deepwalk",
        "epsilon": None,
        "overrides": {
            "embedding_dim": 16, "num_walks": 2, "walk_length": 8,
            "window_size": 3, "num_epochs": 1, "batch_size": 128,
        },
    },
    "node2vec": {
        "model": "node2vec",
        "epsilon": None,
        "overrides": {
            "embedding_dim": 16, "num_walks": 2, "walk_length": 8,
            "window_size": 3, "num_epochs": 1, "batch_size": 128,
            "p": 0.5, "q": 2.0,
        },
    },
    "sgm": {
        "model": "sgm",
        "epsilon": None,
        "overrides": {
            "embedding_dim": 16, "num_epochs": 2, "batches_per_epoch": 4,
            "batch_size": 32,
        },
    },
    "advsgm": {
        "model": "advsgm",
        "epsilon": 6.0,
        "overrides": {
            "embedding_dim": 16, "num_epochs": 2, "discriminator_steps": 2,
            "generator_steps": 1, "batch_size": 8,
        },
    },
    "advsgm-nodp": {
        "model": "advsgm-nodp",
        "epsilon": None,
        "overrides": {
            "embedding_dim": 16, "num_epochs": 2, "discriminator_steps": 2,
            "generator_steps": 1, "batch_size": 8,
        },
    },
    "dpsgm": {
        "model": "dpsgm",
        "epsilon": 6.0,
        "overrides": {
            "embedding_dim": 16, "num_epochs": 2, "batches_per_epoch": 4,
            "batch_size": 32,
        },
    },
    "dpasgm": {
        "model": "dpasgm",
        "epsilon": 6.0,
        "overrides": {
            "embedding_dim": 16, "num_epochs": 2, "batches_per_epoch": 4,
            "batch_size": 32, "generator_steps": 1,
        },
    },
    "dpggan": {
        "model": "dpggan",
        "epsilon": 6.0,
        "overrides": {
            "embedding_dim": 16, "num_epochs": 2, "batches_per_epoch": 4,
            "batch_size": 32,
        },
    },
    "dpgvae": {
        "model": "dpgvae",
        "epsilon": 6.0,
        "overrides": {
            "feature_dim": 16, "embedding_dim": 16, "num_epochs": 2,
            "batches_per_epoch": 4, "batch_size": 32,
        },
    },
    "dpar": {
        "model": "dpar",
        "epsilon": 6.0,
        "overrides": {
            "feature_dim": 16, "embedding_dim": 16, "num_epochs": 2,
            "batch_size": 64,
        },
    },
    "gap": {
        "model": "gap",
        "epsilon": 6.0,
        "overrides": {
            "feature_dim": 16, "embedding_dim": 16, "num_epochs": 2,
            "batch_size": 64,
        },
    },
}


def _sha256_array(array: np.ndarray) -> str:
    """sha256 hex digest over an array's raw bytes (C-order, native dtype)."""
    array = np.ascontiguousarray(array)
    return hashlib.sha256(array.tobytes()).hexdigest()


def golden_graph():
    """The shared small training graph of every golden case."""
    return load_dataset(GOLDEN_DATASET, scale=GOLDEN_SCALE, seed=GOLDEN_DATASET_SEED)


def compute_case(name: str, graph=None) -> Dict[str, Any]:
    """Train one golden case from scratch and digest its outputs."""
    case = GOLDEN_CASES[name]
    graph = graph if graph is not None else golden_graph()
    model = make_model(
        case["model"],
        epsilon=case["epsilon"],
        graph=graph,
        rng=GOLDEN_SEED,
        backend=GOLDEN_BACKEND,
        **case["overrides"],
    )
    model.fit()
    embeddings = np.ascontiguousarray(model.embeddings_)
    scores = model.score_edges(np.array(GOLDEN_SCORE_PAIRS, dtype=np.int64))
    metrics: Dict[str, Any] = {
        "frobenius_norm": float(np.linalg.norm(embeddings)),
        "edge_scores": [float(s) for s in scores],
    }
    spent = getattr(model, "privacy_spent", None)
    if callable(spent):
        spent = spent()
        if spent is not None:
            metrics["privacy_epsilon"] = float(spent.epsilon)
            metrics["privacy_delta"] = float(spent.delta)
    return {
        "model": case["model"],
        "backend": GOLDEN_BACKEND,
        "embeddings_sha256": _sha256_array(embeddings),
        "shape": list(embeddings.shape),
        "dtype": str(embeddings.dtype),
        "metrics": metrics,
    }


def compute_all() -> Dict[str, Any]:
    """Recompute every golden digest (one shared graph, independent models)."""
    graph = golden_graph()
    return {
        "schema": GOLDEN_SCHEMA,
        "dataset": {
            "name": GOLDEN_DATASET,
            "scale": GOLDEN_SCALE,
            "seed": GOLDEN_DATASET_SEED,
        },
        "seed": GOLDEN_SEED,
        "cases": {name: compute_case(name, graph) for name in GOLDEN_CASES},
    }


def default_path() -> Path:
    """``tests/golden/golden_digests.json`` relative to the repo checkout."""
    return Path(__file__).resolve().parents[2] / "tests" / "golden" / "golden_digests.json"


def load_digests(path: Union[str, Path, None] = None) -> Dict[str, Any]:
    """Load a committed digest fixture."""
    with open(Path(path) if path is not None else default_path(), "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_digests(path: Union[str, Path, None] = None) -> Path:
    """Recompute and write the digest fixture; returns the written path."""
    target = Path(path) if path is not None else default_path()
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(compute_all(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target


#: Relative tolerance of the relaxed metric comparison.  Last-ulp kernel
#: differences amplified over these tiny schedules stay far below this;
#: genuine behaviour changes move metrics by orders of magnitude more.
RELAXED_RTOL = 1e-9


def _metrics_close(expected: Any, actual: Any) -> bool:
    """Approximate equality of the metrics dicts (same keys, values close)."""
    if not isinstance(expected, dict) or not isinstance(actual, dict):
        return expected == actual
    if set(expected) != set(actual):
        return False
    for key, exp_value in expected.items():
        act_value = actual[key]
        try:
            if not np.allclose(
                np.asarray(exp_value, dtype=np.float64),
                np.asarray(act_value, dtype=np.float64),
                rtol=RELAXED_RTOL, atol=0.0,
            ):
                return False
        except (TypeError, ValueError):
            if exp_value != act_value:
                return False
    return True


def compare_digests(
    expected: Mapping[str, Any],
    actual: Optional[Mapping[str, Any]] = None,
    relaxed: bool = False,
) -> List[str]:
    """Human-readable mismatch descriptions (empty list == parity).

    The default comparison is bit-for-bit (sha256 of the raw embedding
    bytes).  ``relaxed=True`` drops the byte digest and compares the scalar
    metrics within :data:`RELAXED_RTOL` instead (shape/dtype/model still
    exact) — for environments whose BLAS build differs from the one that
    generated the fixture, where last-ulp kernel differences are expected
    but behaviour changes must still be caught.
    """
    actual = actual if actual is not None else compute_all()
    problems: List[str] = []
    if expected.get("schema") != actual.get("schema"):
        problems.append(
            f"schema: expected {expected.get('schema')}, got {actual.get('schema')}"
        )
    expected_cases = expected.get("cases", {})
    actual_cases = actual.get("cases", {})
    for name in sorted(set(expected_cases) | set(actual_cases)):
        if name not in actual_cases:
            problems.append(f"{name}: missing from recomputation")
            continue
        if name not in expected_cases:
            problems.append(f"{name}: not in the committed fixture")
            continue
        exp, act = expected_cases[name], actual_cases[name]
        fields = ("model", "backend", "shape", "dtype") if relaxed else (
            "model", "backend", "embeddings_sha256", "shape", "dtype", "metrics"
        )
        for field in fields:
            if exp.get(field) != act.get(field):
                problems.append(
                    f"{name}.{field}: expected {exp.get(field)!r}, got {act.get(field)!r}"
                )
        if relaxed and not _metrics_close(exp.get("metrics"), act.get("metrics")):
            problems.append(
                f"{name}.metrics: outside rtol={RELAXED_RTOL:g}: "
                f"expected {exp.get('metrics')!r}, got {act.get('metrics')!r}"
            )
    return problems
