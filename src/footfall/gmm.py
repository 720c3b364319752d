"""Diagonal-covariance Gaussian mixtures with EM fitting.

Fitting seeds from the best of five k-means++ runs and then iterates EM,
at most 200 times, until the mean per-frame log-likelihood gains less than
1e-6. Likelihood is guaranteed non-decreasing; the variance floor keeps
components from collapsing onto single frames.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .errors import FootfallError

VARIANCE_FLOOR = 1e-6
_TOL = 1e-6
_MAX_ITER = 200
_RESTARTS = 5
_LOG_2PI = float(np.log(2.0 * np.pi))


def _as_frames(features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise FootfallError("features must be a (n_frames, dim) matrix", shape=list(X.shape))
    if not np.all(np.isfinite(X)):
        raise FootfallError("features contain non-finite values")
    return X


@dataclass
class GmmModel:
    """weights (k,), means (k, d), diagonal variances (k, d)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    history: tuple = field(default=(), compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        k = self.weights.size
        if self.means.shape[0] != k or self.variances.shape != self.means.shape:
            raise FootfallError("component shapes disagree", k=k,
                                means=list(self.means.shape))
        if abs(self.weights.sum() - 1.0) > 1e-9 or np.any(self.weights < 0):
            raise FootfallError("weights must form a distribution",
                                total=float(self.weights.sum()))
        if np.any(self.variances < VARIANCE_FLOOR * (1 - 1e-12)):
            raise FootfallError("variance below floor", floor=VARIANCE_FLOOR)

    @property
    def k(self) -> int:
        return self.weights.size

    @property
    def feature_dim(self) -> int:
        return self.means.shape[1]

    def _component_log_densities(self, X: np.ndarray) -> np.ndarray:
        # (n, k): log w_j + log N(x_i; mu_j, diag var_j)
        const = -0.5 * (self.feature_dim * _LOG_2PI + np.sum(np.log(self.variances), axis=1))
        sq = ((X[:, None, :] - self.means[None, :, :]) ** 2 / self.variances[None, :, :]).sum(axis=2)
        return np.log(self.weights)[None, :] + const[None, :] - 0.5 * sq

    def log_likelihoods(self, features) -> np.ndarray:
        """Per-frame log density under the mixture."""
        X = _as_frames(features)
        if X.shape[1] != self.feature_dim:
            raise FootfallError("feature dimension mismatch",
                                got=X.shape[1], expected=self.feature_dim)
        return logsumexp(self._component_log_densities(X), axis=1)

    def mean_log_likelihood(self, features) -> float:
        return float(np.mean(self.log_likelihoods(features)))

    def to_dict(self) -> dict:
        return {"weights": self.weights.tolist(), "means": self.means.tolist(),
                "variances": self.variances.tolist()}

    @classmethod
    def from_dict(cls, blob: dict) -> "GmmModel":
        return cls(np.array(blob["weights"]), np.array(blob["means"]),
                   np.array(blob["variances"]))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "GmmModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _kmeans_pp(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [X[rng.integers(X.shape[0])]]
    for _ in range(k - 1):
        d2 = np.min([np.sum((X - c) ** 2, axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(X[rng.integers(X.shape[0])])
            continue
        centers.append(X[rng.choice(X.shape[0], p=d2 / total)])
    return np.array(centers)


def _lloyd(X: np.ndarray, centers: np.ndarray, iters: int = 15):
    for _ in range(iters):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for j in range(centers.shape[0]):
            mask = assign == j
            if mask.any():
                centers[j] = X[mask].mean(axis=0)
            else:
                centers[j] = X[d2.min(axis=1).argmax()]
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    return centers, assign, float(d2[np.arange(X.shape[0]), assign].sum())


def gmm_fit(features, k: int, seed: int) -> GmmModel:
    """EM fit; deterministic given seed; raises on degenerate data."""
    X = _as_frames(features)
    n, d = X.shape
    if k < 1:
        raise FootfallError("need at least one component", k=k)
    if n < 10 * k:
        raise FootfallError("need at least 10 frames per component", frames=n, k=k)
    if np.all(np.ptp(X, axis=0) < 1e-12):
        raise FootfallError("degenerate features: all frames identical")

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(_RESTARTS):
        centers, assign, inertia = _lloyd(X, _kmeans_pp(X, k, rng))
        if best is None or inertia < best[2]:
            best = (centers, assign, inertia)
    centers, assign, _ = best

    weights = np.array([(assign == j).mean() for j in range(k)])
    weights = np.maximum(weights, 1e-6)
    weights /= weights.sum()
    means = centers.copy()
    variances = np.empty((k, d))
    for j in range(k):
        mask = assign == j
        variances[j] = X[mask].var(axis=0) if mask.sum() > 1 else X.var(axis=0)
    variances = np.maximum(variances, VARIANCE_FLOOR)

    history = []
    model = GmmModel(weights, means, variances)
    for _ in range(_MAX_ITER):
        log_dens = model._component_log_densities(X)
        frame_ll = logsumexp(log_dens, axis=1)
        history.append(float(frame_ll.mean()))
        if len(history) > 1 and history[-1] - history[-2] < _TOL:
            break
        resp = np.exp(log_dens - frame_ll[:, None])
        nk = np.maximum(resp.sum(axis=0), 1e-12)
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        variances = np.maximum((resp.T @ (X * X)) / nk[:, None] - means ** 2, VARIANCE_FLOOR)
        model = GmmModel(weights / weights.sum(), means, variances)
    if not np.all(np.isfinite(history)):
        raise FootfallError("EM diverged", history_tail=history[-3:])
    model.history = tuple(history)
    return model


def gmm_classify(models: dict, segment) -> tuple:
    """(label, per-class mean log-likelihood); ties go to the earliest class.

    models is an ordered mapping label -> GmmModel; its order defines the
    class index used for tie-breaking.
    """
    if not models:
        raise FootfallError("no models to classify against")
    X = _as_frames(segment)
    scores = {}
    label = None
    for name, model in models.items():
        scores[name] = model.mean_log_likelihood(X)
        if label is None or scores[name] > scores[label]:
            label = name
    return label, scores
