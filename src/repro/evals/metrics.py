"""Evaluation metrics: ROC AUC and (normalised) mutual information.

Both are implemented from their definitions so the library has no
scikit-learn dependency:

* AUC via the Mann-Whitney U statistic (rank formulation, ties averaged);
* mutual information from the contingency table of two labelings, in nats,
  matching ``sklearn.metrics.mutual_info_score``.
"""

from __future__ import annotations

import numpy as np

from scipy.stats import rankdata


def roc_auc_score(y_true: np.ndarray, y_score: np.ndarray) -> float:
    """Area under the ROC curve for binary labels.

    Parameters
    ----------
    y_true:
        Binary labels (0/1 or bool).
    y_score:
        Real-valued scores; larger means "more positive".
    """
    y_true = np.asarray(y_true).astype(bool)
    y_score = np.asarray(y_score, dtype=np.float64)
    if y_true.shape != y_score.shape:
        raise ValueError(
            f"shape mismatch: y_true {y_true.shape} vs y_score {y_score.shape}"
        )
    num_pos = int(y_true.sum())
    num_neg = int(y_true.size - num_pos)
    if num_pos == 0 or num_neg == 0:
        raise ValueError("roc_auc_score requires both positive and negative labels")
    ranks = rankdata(y_score)  # average ranks handle ties correctly
    rank_sum_pos = float(ranks[y_true].sum())
    u_statistic = rank_sum_pos - num_pos * (num_pos + 1) / 2.0
    return float(u_statistic / (num_pos * num_neg))


def _contingency(labels_a: np.ndarray, labels_b: np.ndarray) -> np.ndarray:
    """Contingency table of two integer labelings."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    if labels_a.shape != labels_b.shape or labels_a.ndim != 1:
        raise ValueError("labelings must be 1-D arrays of equal length")
    _, a_idx = np.unique(labels_a, return_inverse=True)
    _, b_idx = np.unique(labels_b, return_inverse=True)
    shape = (a_idx.max() + 1, b_idx.max() + 1)
    # Integer counts are exact in float64, so this equals accumulating 1.0s.
    counts = np.bincount(a_idx * shape[1] + b_idx, minlength=shape[0] * shape[1])
    return counts.reshape(shape).astype(np.float64)


def mutual_information(labels_true: np.ndarray, labels_pred: np.ndarray) -> float:
    """Mutual information (in nats) between two labelings."""
    table = _contingency(labels_true, labels_pred)
    total = table.sum()
    if total == 0:
        raise ValueError("empty labelings")
    joint = table / total
    marg_a = joint.sum(axis=1, keepdims=True)
    marg_b = joint.sum(axis=0, keepdims=True)
    nonzero = joint > 0
    ratio = np.zeros_like(joint)
    ratio[nonzero] = joint[nonzero] / (marg_a @ marg_b)[nonzero]
    mi = float(np.sum(joint[nonzero] * np.log(ratio[nonzero])))
    return max(0.0, mi)


def _entropy(labels: np.ndarray) -> float:
    """Shannon entropy (nats) of a labeling."""
    _, counts = np.unique(np.asarray(labels), return_counts=True)
    probs = counts / counts.sum()
    return float(-np.sum(probs * np.log(probs)))


def normalized_mutual_information(
    labels_true: np.ndarray, labels_pred: np.ndarray
) -> float:
    """NMI with arithmetic-mean normalisation (0 when either entropy is 0)."""
    mi = mutual_information(labels_true, labels_pred)
    h_true = _entropy(labels_true)
    h_pred = _entropy(labels_pred)
    denom = 0.5 * (h_true + h_pred)
    if denom == 0:
        return 0.0
    return float(mi / denom)
