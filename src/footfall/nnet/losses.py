"""Loss heads: categorical cross-entropy and center loss.

Cross-entropy is fused with softmax for numerical stability; a true-class
probability under the clamp keeps its loss finite but contributes no
gradient (the row is treated as a constant). The center loss gradient with
respect to feature i is exactly f_i - c_{z_i}; centers are not graph
parameters and move only through update_centers.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import FootfallError
from .autodiff import Tensor, _node

PROB_CLAMP = 1e-12


def _check_labels(labels, n_classes: int, what: str) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size == 0:
        raise FootfallError("empty batch")
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise FootfallError(f"{what} labels must be a flat integer array")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise FootfallError(f"missing {what} class for a label",
                            label=int(labels.max()), n_classes=n_classes)
    return labels


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-probability of the true class under softmax(logits)."""
    z = logits.data
    if z.ndim != 2:
        raise FootfallError("logits must be (batch, classes)", shape=list(z.shape))
    labels = _check_labels(labels, z.shape[1], "logit")
    if labels.size != z.shape[0]:
        raise FootfallError("labels do not match the batch",
                            batch=z.shape[0], labels=labels.size)
    zmax = z.max(axis=1, keepdims=True)
    logp = z - zmax - np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    probs = np.exp(logp)
    rows = np.arange(labels.size)
    p_true = probs[rows, labels]
    clamped = p_true < PROB_CLAMP
    if clamped.any():
        warnings.warn("true-class probability clamped at 1e-12", stacklevel=2)
    loss = -np.mean(np.log(np.maximum(p_true, PROB_CLAMP)))

    def backward(g):
        dz = probs.copy()
        dz[rows, labels] -= 1.0
        dz[clamped] = 0.0
        return [(logits, (float(g) / labels.size) * dz)]

    return _node(loss, (logits,), backward)


def center_loss(features: Tensor, labels, centers: np.ndarray) -> Tensor:
    """0.5 * sum of squared distances between features and their class centers."""
    f = features.data
    centers = np.asarray(centers, dtype=np.float64)
    if f.ndim != 2 or centers.ndim != 2 or f.shape[1] != centers.shape[1]:
        raise FootfallError("features and centers disagree",
                            features=list(f.shape), centers=list(centers.shape))
    labels = _check_labels(labels, centers.shape[0], "center")
    diff = f - centers[labels]
    loss = 0.5 * float(np.sum(diff * diff))

    def backward(g):
        return [(features, float(g) * diff)]

    return _node(loss, (features,), backward)


def update_centers(centers: np.ndarray, features: np.ndarray, labels,
                   alpha: float = 0.5) -> np.ndarray:
    """Move each class center toward its batch mean feature.

    c_j <- c_j - alpha * sum_i 1(z_i=j)(c_j - f_i) / (1 + sum_i 1(z_i=j));
    with alpha = 1 and a single sample the center lands on the midpoint.
    Classes absent from the batch keep their centers.
    """
    centers = np.asarray(centers, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    labels = _check_labels(labels, centers.shape[0], "center")
    out = centers.copy()
    for j in np.unique(labels):
        mask = labels == j
        delta = np.sum(centers[j] - features[mask], axis=0) / (1.0 + mask.sum())
        out[j] = centers[j] - alpha * delta
    return out
