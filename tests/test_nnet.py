"""Central-difference checks of the layer gradients IdNet computes by hand.

Each test differentiates one building block of idnet's numpy network
(elementwise maps, dense and convolution layers, batch-norm, dropout, the
losses and the gradient reversal) and compares the backward formulas that
_train_step uses against central differences of a scalar loss.
"""

import numpy as np
import pytest

from footfall.idnet import (
    DROP_RATE,
    FEATURE_DIM,
    IdNet,
    _batchnorm,
    _batchnorm_backward,
    _conv,
    _conv_backward,
    _cross_entropy,
    _dense_backward,
    _fold,
    _forward,
    _sigmoid,
    _softmax,
    _train_step,
)

RTOL = 1e-4


def _numeric_grad(loss, a, eps=1e-6):
    """Central differences of loss() with respect to each entry of a, in place."""
    g = np.zeros_like(a)
    for i in np.ndindex(a.shape):
        old = a[i]
        a[i] = old + eps
        hi = loss()
        a[i] = old - eps
        lo = loss()
        a[i] = old
        g[i] = (hi - lo) / (2.0 * eps)
    return g


def _assert_grads_match(loss, *pairs, eps=1e-6):
    """Analytic gradients against central differences, relative to the peak."""
    for a, analytic in pairs:
        numeric = _numeric_grad(loss, a, eps)
        scale = max(1e-8, np.abs(numeric).max())
        assert np.abs(analytic - numeric).max() / scale < RTOL


def _toy_batch(n_domains, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((4, 32, 16))
    users = np.array([0, 1, 0, 1])
    domains = np.array([0, 1, 1, 0]) if n_domains > 1 else np.zeros(4, dtype=int)
    return IdNet(2, n_domains, seed=seed), x, users, domains


def test_elementwise_and_reduction_gradients():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 4))
    s = _sigmoid(z)
    _assert_grads_match(lambda: np.sum(w * _sigmoid(z)), (z, w * s * (1.0 - s)))
    _assert_grads_match(lambda: np.sum(w * (z * (z > 0))), (z, w * (z > 0)))
    p = _softmax(z)
    _assert_grads_match(lambda: np.sum(w * _softmax(z)),
                        (z, p * (w - np.sum(p * w, axis=1, keepdims=True))))
    # a saturated sigmoid is exactly 0 or 1, without an overflow warning
    assert _sigmoid(np.array([-800.0]))[0] == 0.0
    assert _sigmoid(np.array([800.0]))[0] == 1.0


def test_bias_broadcast_gradient():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 3))
    w = rng.standard_normal((3, 2))
    b = rng.standard_normal(2)
    weight = rng.standard_normal((5, 2))
    _, db, _ = _dense_backward(weight, x, w)
    _assert_grads_match(lambda: np.sum(weight * (x @ w + b)), (b, db))


def test_matmul_and_shape_op_gradients():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 5))
    b = np.zeros(5)
    dw, _, da = _dense_backward(np.full((3, 5), 1.0 / 15), a, w)
    _assert_grads_match(lambda: np.mean(a @ w + b), (a, da), (w, dw))
    # the unfold, reshape and transpose of _conv give the direct convolution
    x = rng.standard_normal((2, 3, 6, 5))
    wc = rng.standard_normal((4, 3, 3, 2))
    direct = np.zeros((2, 4, 4, 4))
    for i in range(3):
        for j in range(2):
            direct += np.einsum("nchw,oc->nohw", x[:, :, i:i + 4, j:j + 4],
                                wc[:, :, i, j])
    out, _ = _conv(x, wc)
    assert np.allclose(out, direct, rtol=1e-12, atol=1e-12)


def test_unfold_and_conv_gradients():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 6, 5))
    w = rng.standard_normal((4, 3, 3, 2))
    g_cols = rng.standard_normal((2 * 4 * 4, 3 * 3 * 2))
    _assert_grads_match(lambda: 1.5 * np.sum(_conv(x, w)[1] * g_cols),
                        (x, 1.5 * _fold(g_cols, x.shape, 3, 2)))
    weight = rng.standard_normal((2, 4, 4, 4))
    _, cols = _conv(x, w)
    dw, dcols = _conv_backward(weight, cols, w)
    dx = _fold(dcols, x.shape, 3, 2)
    _assert_grads_match(lambda: np.sum(weight * _conv(x, w)[0]),
                        (x, dx), (w, dw))


def test_dense_gradient():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    weight = rng.standard_normal((3, 3))
    dw, db, dx = _dense_backward(weight, x, w)
    _assert_grads_match(lambda: np.sum((x @ w + b) * weight), (x, dx), (w, dw), (b, db))


def test_batchnorm_gradients_in_both_modes():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 6, 5))
    weight = rng.standard_normal((2, 3, 6, 5))
    gamma = 1.0 + 0.3 * rng.standard_normal(3)
    beta = rng.standard_normal(3)

    def train_loss():  # fresh running statistics keep the loss pure
        out, _, _ = _batchnorm(x, gamma, beta, np.zeros(3), np.ones(3), True)
        return np.sum(weight * out)

    _, xhat, inv = _batchnorm(x, gamma, beta, np.zeros(3), np.ones(3), True)
    dgamma, dbeta, dx = _batchnorm_backward(weight, xhat, inv, gamma)
    _assert_grads_match(train_loss, (x, dx), (gamma, dgamma), (beta, dbeta))

    mean = rng.standard_normal(3)
    var = 0.5 + rng.random(3)
    frozen = (mean.copy(), var.copy())

    def eval_loss():
        out, _, _ = _batchnorm(x, gamma, beta, mean, var, False)
        return np.sum(weight * out)

    _, xhat, inv = _batchnorm(x, gamma, beta, mean, var, False)
    _assert_grads_match(eval_loss,
                        (x, weight * gamma.reshape(1, -1, 1, 1) * inv),
                        (gamma, np.sum(weight * xhat, axis=(0, 2, 3))),
                        (beta, np.sum(weight, axis=(0, 2, 3))))
    assert np.array_equal(mean, frozen[0]) and np.array_equal(var, frozen[1])


def test_dropout_gradient_with_held_mask():
    net, x, users, domains = _toy_batch(n_domains=1, seed=9)
    centers = np.zeros((2, FEATURE_DIM))

    def step(seed):
        return _train_step(net, x, users, domains, centers, 0.0, 0.0,
                           np.random.default_rng(seed))

    _, grads, _ = step(42)
    # bn2_b sits upstream of the dropout; the step 1e-7 keeps ReLU inputs
    # on their side of zero
    _assert_grads_match(lambda: step(42)[0][0], (net.p["bn2_b"], grads["bn2_b"]),
                        eps=1e-7)
    assert not np.allclose(step(43)[1]["bn2_b"], grads["bn2_b"])
    _, _, _, cache = _forward(net, x, True, np.random.default_rng(42))
    assert set(np.unique(cache["mask"])) == {0.0, 1.0 / (1.0 - DROP_RATE)}
    # eval mode is the identity
    _, _, _, cache = _forward(net, x, False)
    assert cache["mask"] is None
    b2 = cache["b2"]
    assert np.array_equal(cache["h2"], (b2 * (b2 > 0)).reshape(x.shape[0], -1))


def test_cross_entropy_gradient_and_uniform_value():
    rng = np.random.default_rng(10)
    logits = rng.standard_normal((6, 4))
    labels = np.array([0, 1, 2, 3, 1, 0])
    _, grad = _cross_entropy(logits, labels)
    _assert_grads_match(lambda: _cross_entropy(logits, labels)[0], (logits, grad))
    loss, _ = _cross_entropy(np.zeros((5, 6)), np.zeros(5, dtype=int))
    assert loss == pytest.approx(np.log(6.0), abs=1e-12)


def test_center_loss_gradient_is_feature_minus_center():
    net, x, users, domains = _toy_batch(n_domains=1, seed=11)
    centers = np.random.default_rng(11).standard_normal((2, FEATURE_DIM))
    lam, m = 0.7, x.shape[0]

    def step(lam):
        return _train_step(net, x, users, domains, centers, lam, 0.0,
                           np.random.default_rng(5))

    (_, l_c, _), with_center, f = step(lam)
    _, without, _ = step(0.0)
    diff = f - centers[users]
    assert l_c == pytest.approx(0.5 * np.sum(diff * diff), rel=1e-12)
    # dL_c/df = f - c, so through f = h2 @ W + b: dL_c/db = sum_i (f_i - c_i)
    _assert_grads_match(lambda: step(lam)[0][1],
                        (net.p["project_b"], diff.sum(axis=0)), eps=1e-7)
    _, _, _, cache = _forward(net, x, True, np.random.default_rng(5))
    assert np.allclose(with_center["project_b"] - without["project_b"],
                       (lam / m) * diff.sum(axis=0), rtol=1e-9, atol=1e-12)
    assert np.allclose(with_center["project_w"] - without["project_w"],
                       cache["h2"].T @ ((lam / m) * diff), rtol=1e-9, atol=1e-12)
    for name in ("id_hidden_w", "id_hidden_b", "id_out_w", "id_out_b"):
        assert np.array_equal(with_center[name], without[name]), name


def test_gradient_reversal_identity():
    net, x, users, domains = _toy_batch(n_domains=2, seed=14)
    centers = np.zeros((2, FEATURE_DIM))
    lam = 0.37

    def step(lam_grl):
        return _train_step(net, x, users, domains, centers, 0.0, lam_grl,
                           np.random.default_rng(3))

    plain = step(0.0)[1]
    full = step(1.0)[1]
    reversed_ = step(lam)[1]
    for k, name in enumerate(net.p):
        if k < 8:  # the feature extractor gets -lam_grl * dL_delta
            expected = plain[name] + lam * (full[name] - plain[name])
            scale = np.abs(full[name] - plain[name]).max()
            assert np.abs(reversed_[name] - expected).max() <= 1e-5 * scale + 1e-12, name
        else:  # the heads do not see the reversal
            assert np.array_equal(reversed_[name], plain[name]), name
    # the sign: the extractor's share is minus the gradient of L_delta,
    # the domain head's is plus it
    _assert_grads_match(lambda: step(0.0)[0][2],
                        (net.p["project_b"], plain["project_b"] - full["project_b"]),
                        (net.p["dom_out_b"], full["dom_out_b"]), eps=1e-7)


def test_single_domain_gives_no_adversarial_gradient():
    # the domain softmax has one class: L_delta is 0 and so is its gradient,
    # so the reversal strength changes nothing
    net, x, users, domains = _toy_batch(n_domains=1, seed=15)
    centers = np.zeros((2, FEATURE_DIM))

    def step(lam_grl):
        return _train_step(net, x, users, domains, centers, 0.7, lam_grl,
                           np.random.default_rng(4))

    (_, _, l_d), plain, _ = step(0.0)
    (_, _, l_d_rev), reversed_, _ = step(0.7)
    assert l_d == 0.0 and l_d_rev == 0.0
    for name in ("dom_hidden_w", "dom_hidden_b", "dom_out_w", "dom_out_b"):
        assert not np.any(plain[name]), name
    for name in net.p:
        assert np.array_equal(plain[name], reversed_[name]), name
