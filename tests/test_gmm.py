import numpy as np
import pytest

from footfall.errors import FootfallError
from footfall.gmm import gmm_classify, gmm_fit


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
