"""The default NumPy compute backend — bit-for-bit the historical code.

Every operation here returns the *exact* bytes of the numpy expression the
models used before the backend seam existed (the stable activation
implementations moved here from :mod:`repro.nn.functional`, which now
delegates back); the sigmoid, the scatter-add and the row projection reach
those bytes by cheaper routes, each tested against the plain formula in
``tests/test_backend.py``.  ``asarray`` / ``to_numpy`` are identities for
float64 arrays, so routing the models through this backend changes no
bytes: the golden-parity suite pins that.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.backend.base import Backend
from repro.privacy.clipping import clip_by_l2_norm, clip_rows_by_l2_norm

# Sigmoid saturates numerically past |x| ~ 36 in float64; clipping the input
# keeps exp() away from overflow without changing the value of the output.
SIGMOID_CLIP = 500.0


#: Fewest rows a unique-index round of :meth:`NumpyBackend.index_add_` must
#: hold to be worth its fancy-index pass; smaller rounds (the later
#: occurrences of hub rows) go through one ``np.add.at`` call instead.
_SCATTER_MIN_ROUND = 16


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, stable for large positive and negative inputs.

    ``1 / (1 + exp(-x))`` for ``x >= 0`` and ``exp(x) / (1 + exp(x))``
    below, without branching: ``-|x|`` is ``-x`` on the first side and
    ``x`` on the second, so every element runs the same ``exp`` and
    division as the two-sided formula.
    """
    x = np.clip(np.asarray(x, dtype=np.float64), -SIGMOID_CLIP, SIGMOID_CLIP)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def stable_log_sigmoid(x: np.ndarray) -> np.ndarray:
    """``log(sigmoid(x))`` computed without intermediate underflow."""
    x = np.asarray(x, dtype=np.float64)
    # log sigma(x) = -softplus(-x) = min(x, 0) - log1p(exp(-|x|))
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def stable_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` with max-subtraction for stability."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


class NumpyBackend(Backend):
    """CPU numpy backend; the reference implementation of the protocol."""

    name = "numpy"

    @property
    def device(self) -> str:
        return "cpu"

    # ------------------------------------------------------------------
    # conversion and allocation
    # ------------------------------------------------------------------
    def asarray(self, x: Any) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)

    def to_numpy(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)

    def zeros(self, shape: Tuple[int, ...]) -> np.ndarray:
        return np.zeros(shape)

    def zeros_like(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)

    def full_like(self, x: np.ndarray, value: float) -> np.ndarray:
        return np.full_like(x, float(value))

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def gather(self, x: np.ndarray, idx: Any) -> np.ndarray:
        return x[idx]

    def index_add_(self, target: np.ndarray, idx: Any, rows: np.ndarray) -> None:
        # ``np.add.at`` bytes at fancy-indexing speed.  A stable sort lines
        # up each row's occurrences in call order; round r adds every row's
        # r-th occurrence with one unique-index ``target[u] += g``.  Rounds
        # only shrink, and once one holds too few rows to pay for its pass,
        # the rest (later occurrences of the busiest rows) go through
        # ``np.add.at`` in call order, as do 1-D targets, whose scalar
        # ``np.add.at`` loop is already fast.
        idx = np.asarray(idx, dtype=np.int64)
        if target.ndim == 1:
            np.add.at(target, idx, rows)
            return
        rows = np.asarray(rows)
        if rows.shape != idx.shape + target.shape[1:]:
            rows = np.broadcast_to(rows, idx.shape + target.shape[1:])
        idx = idx.reshape(-1)
        rows = rows.reshape(idx.shape + target.shape[1:])
        order = np.argsort(idx, kind="stable")
        keys = idx[order]
        if keys.size and keys[0] < 0:  # -1 and n-1 name one row
            np.add.at(target, idx, rows)
            return
        while order.size:
            first = np.empty(order.size, dtype=bool)
            first[0] = True
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            if np.count_nonzero(first) < _SCATTER_MIN_ROUND:
                break
            target[keys[first]] += rows[order[first]]
            order, keys = order[~first], keys[~first]
        if order.size:  # still grouped by row, each row's adds in call order
            np.add.at(target, keys, rows[order])

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def transpose(self, x: np.ndarray) -> np.ndarray:
        return x.T

    def rowwise_dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", a, b)

    def batched_rowwise_dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ikj->ik", a, b)

    def weighted_rows_sum(self, coeff: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("ik,ikj->ij", coeff, b)

    # ------------------------------------------------------------------
    # activations and elementwise math
    # ------------------------------------------------------------------
    def sigmoid(self, x: np.ndarray) -> np.ndarray:
        return stable_sigmoid(x)

    def log_sigmoid(self, x: np.ndarray) -> np.ndarray:
        return stable_log_sigmoid(x)

    def softmax(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return stable_softmax(x, axis=axis)

    def relu(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(np.asarray(x, dtype=np.float64), 0.0)

    def tanh(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(np.asarray(x, dtype=np.float64))

    def exp(self, x: np.ndarray) -> np.ndarray:
        return np.exp(x)

    def log(self, x: np.ndarray) -> np.ndarray:
        return np.log(x)

    def sqrt(self, x: np.ndarray) -> np.ndarray:
        return np.sqrt(x)

    def _clip(
        self, x: np.ndarray, lower: Optional[float], upper: Optional[float]
    ) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=np.float64), lower, upper)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, x: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
        return np.sum(x, axis=axis)

    def mean(self, x: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
        return np.mean(x, axis=axis)

    # ------------------------------------------------------------------
    # norm-based row operations
    # ------------------------------------------------------------------
    def normalize_rows_(
        self, x: np.ndarray, floor: float, rows: Any = None
    ) -> np.ndarray:
        if rows is not None:
            parts = rows if isinstance(rows, tuple) else (rows,)
            rows = np.unique(np.concatenate([np.ravel(np.asarray(r, dtype=np.int64)) for r in parts]))
        sub = x if rows is None else x[rows]
        norms = np.linalg.norm(sub, axis=1, keepdims=True)
        np.divide(sub, np.maximum(norms, floor), out=sub)
        if rows is not None:
            x[rows] = sub
        still = np.linalg.norm(sub, axis=1) > floor
        return np.flatnonzero(still) if rows is None else rows[still]

    def clip_rows(self, x: np.ndarray, max_norm: float) -> np.ndarray:
        return clip_rows_by_l2_norm(x, max_norm)

    def clip_global(self, x: np.ndarray, max_norm: float) -> np.ndarray:
        return clip_by_l2_norm(x, max_norm)

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------
    def gaussian(
        self,
        rng: np.random.Generator,
        mean: float,
        std: float,
        shape: Tuple[int, ...],
    ) -> np.ndarray:
        return rng.normal(mean, std, size=shape)

    def uniform(
        self,
        rng: np.random.Generator,
        low: float,
        high: float,
        shape: Tuple[int, ...],
    ) -> np.ndarray:
        return rng.uniform(low, high, size=shape)
