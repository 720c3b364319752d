"""Diagonal-covariance Gaussian mixtures with EM fitting.

Fitting seeds from the best of five k-means++ runs and then iterates EM,
at most 200 times, until the mean per-frame log-likelihood gains less than
1e-6. Likelihood is guaranteed non-decreasing; the variance floor keeps
components from collapsing onto single frames.

Both stages run in matrix form. The five restarts' Lloyd sweeps run
together: one squared-distance GEMM against all their centres per sweep,
and one GEMM of the one-hot assignments for the new centres. EM expands
each squared distance ``(x - mu)^2 / var`` into GEMMs of the features and
their squares against ``mu / var`` and ``1 / var``, and the M-step takes
the variances as ``E[x^2] - mu^2``. Both expansions lose accuracy where
the features sit far from the origin, so a fit first centres the
features by their column means, and scoring centres them on the
mixture's weighted mean. Log-sum-exp is computed here, by a max shift,
and no scipy function is used, so scores do not depend on the scipy
version. A squared distance too large for a float scores -inf.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import FootfallError
from .types import _as_float_array, _as_whole, _check_instance

VARIANCE_FLOOR = 1e-6
_TOL = 1e-6
_MAX_ITER = 200
_RESTARTS = 5
_LLOYD_ITERS = 15  # k-means sweeps of each restart
_TIE = 1e-12  # k-means inertias closer than this share of the frames' total square are equal
_LOG_2PI = float(np.log(2.0 * np.pi))


def _log_sum_exp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) down the columns of a (k, n) array; -inf for a column of -inf."""
    peak = a.max(axis=0)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - peak).sum(axis=0)) + peak


def _squares(Xt: np.ndarray) -> np.ndarray:
    """(2d, n): the frames, the columns of Xt (d, n), over their squares;
    inf where a square overflows."""
    with np.errstate(over="ignore"):
        return np.vstack([Xt, Xt * Xt])


def _log_densities(F: np.ndarray, weights, means, variances) -> np.ndarray:
    """(k, n): log w_j + log N(x_i; mu_j, diag var_j), with F = _squares(Xt).

    The square of (x - mu) / sigma is expanded, so a frame whose square
    overflows gives -inf, or NaN where inf meets -inf; both read -inf.
    """
    inv = 1.0 / variances
    const = np.log(weights) - 0.5 * (means.shape[1] * _LOG_2PI + np.log(variances).sum(axis=1)
                                     + (means * means * inv).sum(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.hstack([means * inv, -0.5 * inv]) @ F + const[:, None]
    out[~(out < np.inf)] = -np.inf
    return out


@dataclass
class GmmModel:
    """weights (k,), means (k, d), diagonal variances (k, d)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    history: tuple = field(default=(), compare=False)

    def __post_init__(self):
        self.weights = _as_float_array(self.weights, "weights", (None,))
        self.means = _as_float_array(self.means, "means", (self.weights.size, None))
        self.variances = _as_float_array(self.variances, "variances", self.means.shape)
        if abs(self.weights.sum() - 1.0) > 1e-9 or np.any(self.weights < 0):
            raise FootfallError("weights must form a distribution",
                                total=float(self.weights.sum()))
        if np.any(self.variances < VARIANCE_FLOOR * (1 - 1e-12)):
            raise FootfallError("variance below floor", floor=VARIANCE_FLOOR)

    @property
    def feature_dim(self) -> int:
        return self.means.shape[1]

    def _frame_log_likelihoods(self, X: np.ndarray) -> np.ndarray:
        # expanded around the weighted mean, which sits among the components
        center = self.weights @ self.means
        F = _squares((X - center).T)
        return _log_sum_exp(_log_densities(F, self.weights, self.means - center, self.variances))

    def log_likelihoods(self, features) -> np.ndarray:
        """Per-frame log density under the mixture."""
        return self._frame_log_likelihoods(_as_frames(features, self.feature_dim))

    def mean_log_likelihood(self, features) -> float:
        return float(np.mean(self.log_likelihoods(features)))


def _as_frames(features, dim) -> np.ndarray:
    """features as an (n, dim) float array with at least one frame; dim None takes any."""
    X = _as_float_array(features, "features", (None, dim))
    if X.shape[0] == 0:
        raise FootfallError("features need at least one frame", argument="features")
    return X


def _kmeans_pp(Xt: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k starting centres (k, d) drawn from the frames, the columns of Xt (d, n)."""
    n = Xt.shape[1]
    centers = [Xt[:, rng.integers(n)]]
    d2 = np.full(n, np.inf)
    for _ in range(k - 1):
        d2 = np.minimum(d2, ((Xt - centers[-1][:, None]) ** 2).sum(axis=0))
        total = d2.sum()
        if total <= 0:
            centers.append(Xt[:, rng.integers(n)])
            continue
        centers.append(Xt[:, rng.choice(n, p=d2 / total)])
    return np.array(centers)


def _lloyd(Xt: np.ndarray, starts: np.ndarray):
    """Lloyd sweeps of every restart at once, over the frames Xt (d, n)
    from starts (restarts, k, d).

    Returns the centres (k, d) and assignment (n,) of the restart with the
    lowest inertia, the first of equals. Restarts that reach one partition
    in another order of centres get inertias equal only to rounding, so
    inertias within _TIE of the frames' total square count as equal. A
    centre left with no frame moves to its restart's frame farthest from
    its nearest centre.
    """
    d, n = Xt.shape
    restarts, k, _ = starts.shape
    centers = starts.reshape(restarts * k, d)
    x2 = (Xt * Xt).sum(axis=0)
    for sweep in range(_LLOYD_ITERS + 1):
        # squared distances less |x|^2, which no frame's nearest centre needs
        part = (centers * centers).sum(axis=1)[:, None] - 2.0 * (centers @ Xt)
        part = part.reshape(restarts, k, n)
        nearest, assign = part[:, 0], np.zeros((restarts, n), np.intp)
        for j in range(1, k):  # the first of equals, as argmin; faster on this short axis
            closer = part[:, j] < nearest
            nearest = np.where(closer, part[:, j], nearest)
            assign[closer] = j
        if sweep == _LLOYD_ITERS:
            break
        onehot = (assign[:, None, :] == np.arange(k)[:, None]).astype(float).reshape(-1, n)
        counts = onehot.sum(axis=1)
        far = Xt[:, (nearest + x2).argmax(axis=1)].T
        centers = np.where(counts[:, None] > 0, (onehot @ Xt.T) / np.maximum(counts, 1.0)[:, None],
                           np.repeat(far, k, axis=0))
    inertia = nearest.sum(axis=1)
    best = int(np.flatnonzero(inertia <= inertia.min() + _TIE * x2.sum())[0])
    return centers.reshape(restarts, k, d)[best], assign[best]


def gmm_fit(features, k: int, seed: int) -> GmmModel:
    """EM fit; deterministic given seed; raises on degenerate data."""
    X = _as_float_array(features, "features", (None, None))
    n, d = X.shape
    k = _as_whole(k, "k")
    if n < 10 * k:
        raise FootfallError("need at least 10 frames per component", frames=n, k=k)
    if np.all(np.ptp(X, axis=0) < 1e-12):
        raise FootfallError("degenerate features: all frames identical")

    offset = X.mean(axis=0)
    Xt = np.ascontiguousarray((X - offset).T)
    rng = np.random.default_rng(_as_whole(seed, "seed", zero_ok=True))
    starts = np.stack([_kmeans_pp(Xt, k, rng) for _ in range(_RESTARTS)])
    means, assign = _lloyd(Xt, starts)

    weights = np.bincount(assign, minlength=k) / n
    weights = np.maximum(weights, 1e-6)
    weights /= weights.sum()
    variances = np.empty((k, d))
    for j in range(k):
        mask = assign == j
        variances[j] = Xt[:, mask].var(axis=1) if mask.sum() > 1 else Xt.var(axis=1)
    variances = np.maximum(variances, VARIANCE_FLOOR)

    F = _squares(Xt)
    history = []
    for _ in range(_MAX_ITER):
        log_dens = _log_densities(F, weights, means, variances)
        frame_ll = _log_sum_exp(log_dens)
        history.append(float(frame_ll.mean()))
        if len(history) > 1 and history[-1] - history[-2] < _TOL:
            break
        resp = np.exp(log_dens - frame_ll)
        nk = np.maximum(resp.sum(axis=1), 1e-12)
        moments = (resp @ F.T) / nk[:, None]
        weights = nk / n
        weights /= weights.sum()
        means = moments[:, :d]
        variances = np.maximum(moments[:, d:] - means ** 2, VARIANCE_FLOOR)
    if not np.all(np.isfinite(history)):
        raise FootfallError("EM diverged", history_tail=history[-3:])
    model = GmmModel(weights, means + offset, variances)
    model.history = tuple(history)
    return model


def _check_models(models) -> None:
    """A FootfallError unless models is a non-empty mapping to GmmModels."""
    _check_instance(models, Mapping, "models")
    if not models:
        raise FootfallError("no models to classify against")
    for model in models.values():
        _check_instance(model, GmmModel, "models")


def gmm_classify(models: dict, segment) -> tuple:
    """(label, per-class mean log-likelihood); ties go to the earliest class.

    models is an ordered mapping label -> GmmModel; its order defines the
    class index used for tie-breaking.
    """
    _check_models(models)
    X = _as_frames(segment, None)
    scores = {}
    label = None
    for name, model in models.items():
        if X.shape[1] != model.feature_dim:
            raise FootfallError(f"features must have shape (n, {model.feature_dim})",
                                argument="features", shape=list(X.shape))
        scores[name] = float(np.mean(model._frame_log_likelihoods(X)))
        if label is None or scores[name] > scores[label]:
            label = name
    return label, scores
