import numpy as np
import pytest
from scipy.special import logsumexp

from footfall import gmm
from footfall.detect import DetectionEvent
from footfall.errors import FootfallError
from footfall.gmm import GmmModel, gmm_classify, gmm_fit


def _blob(rng, center, scale, n):
    return center + scale * rng.standard_normal((n, len(center)))


def test_single_component_matches_sample_moments():
    rng = np.random.default_rng(0)
    X = _blob(rng, np.array([1.0, -2.0]), np.array([0.5, 2.0]), 600)
    model = gmm_fit(X, k=1, seed=3)
    assert model.weights.tolist() == [1.0]
    assert np.allclose(model.means[0], X.mean(axis=0), atol=1e-6)
    assert np.allclose(model.variances[0], X.var(axis=0), atol=1e-6)


def test_two_separated_clusters_recovered():
    rng = np.random.default_rng(1)
    X = np.vstack([_blob(rng, np.zeros(3), 0.4, 400),
                   _blob(rng, np.full(3, 5.0), 0.4, 400)])
    model = gmm_fit(X, k=2, seed=7)
    got = model.means[np.argsort(model.means[:, 0])]
    assert np.all(np.abs(got[0] - 0.0) < 0.1)
    assert np.all(np.abs(got[1] - 5.0) < 0.1)


def test_em_log_likelihood_never_decreases():
    rng = np.random.default_rng(2)
    X = np.vstack([_blob(rng, np.zeros(2), 1.0, 300),
                   _blob(rng, np.array([2.0, -1.0]), 0.7, 300)])
    model = gmm_fit(X, k=3, seed=11)
    gains = np.diff(model.history)
    assert gains.size >= 1
    assert np.all(gains >= -1e-9)


def test_fit_is_deterministic():
    rng = np.random.default_rng(4)
    X = _blob(rng, np.zeros(2), 1.0, 250)
    a = gmm_fit(X, k=2, seed=5)
    b = gmm_fit(X, k=2, seed=5)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.variances, b.variances)


def test_degenerate_and_undersized_data_rejected():
    with pytest.raises(FootfallError):
        gmm_fit(np.ones((50, 3)), k=2, seed=0)
    with pytest.raises(FootfallError):
        gmm_fit(np.random.default_rng(0).standard_normal((15, 3)), k=2, seed=0)


def test_classify_picks_the_generating_model():
    rng = np.random.default_rng(8)
    near = gmm_fit(_blob(rng, np.zeros(2), 0.5, 300), k=1, seed=0)
    far = gmm_fit(_blob(rng, np.full(2, 6.0), 0.5, 300), k=1, seed=0)
    sample = _blob(rng, np.zeros(2), 0.5, 40)
    label, scores = gmm_classify({"near": near, "far": far}, sample)
    assert label == "near"
    assert scores["near"] > scores["far"]


def test_classify_tie_breaks_to_earliest_class():
    rng = np.random.default_rng(9)
    model = gmm_fit(_blob(rng, np.zeros(2), 1.0, 200), k=1, seed=0)
    label, scores = gmm_classify({"foot": model, "noise": model}, np.zeros((5, 2)))
    assert label == "foot"
    assert scores["foot"] == scores["noise"]


@pytest.mark.parametrize("features, k, key", [
    ("abc", 2, "argument"),
    (np.full((40, 2), np.nan), 2, "argument"),
    (np.ones((40, 2)) + 1j, 2, "argument"),
    (np.arange(80.0).reshape(40, 2), 2.5, "k"),
    (np.arange(80.0).reshape(40, 2), True, "k"),
    (np.arange(80.0).reshape(40, 2), 0, "k"),
], ids=["str-features", "nan-features", "complex-features", "fractional-k", "bool-k", "zero-k"])
def test_fit_rejects_bad_features_or_component_count(features, k, key):
    with pytest.raises(FootfallError) as err:
        gmm_fit(features, k=k, seed=0)
    assert key in err.value.details


def test_classify_rejects_dimension_mismatch():
    rng = np.random.default_rng(10)
    model = gmm_fit(_blob(rng, np.zeros(3), 1.0, 200), k=1, seed=0)
    with pytest.raises(FootfallError):
        gmm_classify({"a": model}, np.zeros((4, 2)))


def _reference_lloyd(X, centers):
    """One restart's sweeps as a loop over its centres, and its inertia."""
    for _ in range(gmm._LLOYD_ITERS):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for j in range(centers.shape[0]):
            mask = assign == j
            centers[j] = X[mask].mean(axis=0) if mask.any() else X[d2.min(axis=1).argmax()]
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    return centers, assign, d2[np.arange(X.shape[0]), assign].sum()


def _reference_best(X, starts):
    runs = [_reference_lloyd(X, s.copy()) for s in starts]
    return min(runs, key=lambda run: run[2])[:2]  # min keeps the first of equals


def _reference_fit(X, k, seed):
    """gmm_fit one restart at a time, with a broadcast E-step and no centring."""
    rng = np.random.default_rng(seed)
    starts = [gmm._kmeans_pp(np.ascontiguousarray(X.T), k, rng) for _ in range(gmm._RESTARTS)]
    means, assign = _reference_best(X, starts)
    weights = np.maximum(np.bincount(assign, minlength=k) / len(X), 1e-6)
    weights /= weights.sum()
    variances = np.maximum([X[assign == j].var(axis=0) if np.sum(assign == j) > 1 else X.var(axis=0)
                            for j in range(k)], gmm.VARIANCE_FLOOR)
    history = []
    for _ in range(gmm._MAX_ITER):
        sq = ((X[:, None, :] - means[None]) ** 2 / variances[None]).sum(axis=2)
        log_dens = np.log(weights) - 0.5 * (X.shape[1] * np.log(2 * np.pi)
                                            + np.log(variances).sum(axis=1) + sq)
        frame_ll = logsumexp(log_dens, axis=1)
        history.append(frame_ll.mean())
        if len(history) > 1 and history[-1] - history[-2] < gmm._TOL:
            break
        resp = np.exp(log_dens - frame_ll[:, None])
        nk = np.maximum(resp.sum(axis=0), 1e-12)
        weights = nk / nk.sum()
        means = resp.T @ X / nk[:, None]
        variances = np.maximum(resp.T @ (X * X) / nk[:, None] - means ** 2, gmm.VARIANCE_FLOOR)
    return weights, means, variances, history


def _assert_close(got, want):
    """Equal to 1e-9 of the largest magnitude, so a mean near 0 is not held to 1e-9 of itself."""
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


def _three_blobs():
    rng = np.random.default_rng(20)
    centers = np.array([[0.0, 0.0, 0.0], [6.0, 0.0, 1.0], [0.0, 7.0, -2.0]])
    return centers, np.vstack([_blob(rng, c, 0.8, 60) for c in centers])


def _starts(name):
    a, b, c = _three_blobs()[0]
    good = np.array([a, b, c]) + 0.3
    split = np.array([a - 0.5, a + 0.5, (b + c) / 2])  # a worse local optimum
    empty = np.array([a, b, np.full(3, 1e3)])          # the far centre takes no frame
    return {
        "five": np.stack([split, good, good[[2, 0, 1]] - 0.6, empty, good]),
        "empty": empty[None],
        # one partition in two orders of centres: the first restart's labels win
        "same-partition": np.stack([good[[1, 2, 0]], good - 0.5]),
    }[name]


@pytest.mark.parametrize("name", ["five", "empty", "same-partition"])
def test_lloyd_matches_its_per_restart_reference(name):
    X = _three_blobs()[1] + 2.0
    starts = _starts(name)
    centers, assign = gmm._lloyd(np.ascontiguousarray(X.T), starts.copy())
    want_centers, want_assign = _reference_best(X, starts)
    assert np.array_equal(assign, want_assign)
    _assert_close(centers, want_centers)


@pytest.mark.parametrize("k, seed, offset", [(3, 0, 0.0), (3, 5, 4.0), (4, 2, -3.0), (2, 9, 1.0)])
def test_fit_matches_its_broadcast_reference(k, seed, offset):
    X = _three_blobs()[1] + offset
    X[::7] += np.random.default_rng(seed).standard_normal((len(X[::7]), 3))
    model = gmm_fit(X, k=k, seed=seed)
    weights, means, variances, history = _reference_fit(X, k, seed)
    assert len(model.history) == len(history)
    for got, want in [(model.weights, weights), (model.means, means), (model.variances, variances)]:
        _assert_close(got, want)


def test_fit_far_from_the_origin_matches_the_fit_at_it():
    # E[x^2] - mu^2 cancels on uncentred features: 1e7 away the variances
    # read 1.05-1.31 instead of 0.95-1.11 and EM stopped an iteration early
    rng = np.random.default_rng(12)
    X = np.vstack([_blob(rng, np.zeros(2), 1.0, 300), _blob(rng, np.array([4.0, 3.0]), 1.0, 300)])
    near = gmm_fit(X, k=2, seed=3)
    far = gmm_fit(X + 1e7, k=2, seed=3)
    assert len(far.history) == len(near.history)
    np.testing.assert_allclose(far.means - 1e7, near.means, rtol=0, atol=1e-6)
    np.testing.assert_allclose(far.variances, near.variances, rtol=1e-6)


@pytest.mark.parametrize("value", [1e200, -1e200, 1e155])
def test_features_whose_squares_overflow_score_minus_inf(value):
    model = GmmModel(np.array([0.25, 0.75]), np.array([[0.0, 1.0, -2.0], [3.0, 0.5, 1.0]]),
                     np.array([[1.0, 2.0, 0.5], [1e-6, 4.0, 1.0]]))
    segment = np.full((4, 3), value)
    assert np.array_equal(model.log_likelihoods(segment), np.full(4, -np.inf))
    label, scores = gmm_classify({"a": model, "b": model}, segment)
    assert label == "a" and scores == {"a": -np.inf, "b": -np.inf}
    DetectionEvent(0.0, 0.1, label, scores)  # the label still carries the highest score
