"""Central-difference checks of the layer gradients IdNet computes by hand.

Each test differentiates one building block of idnet's numpy network
(elementwise maps, dense and convolution layers, batch-norm, dropout, the
losses and the gradient reversal) and compares the backward formulas that
_train_step uses against central differences of a scalar loss. The trunk
is channel-last; a channel-first einsum network checks its layout, and
checkpoints from the channel-first layout are refused. The net is float32;
float64 inputs drive the same helpers in float64 as the reference.
"""

import copy
import json

import numpy as np
import pytest

from footfall.errors import FootfallError
from footfall.idnet import (
    _BN_EPS,
    DROP_RATE,
    FEATURE_DIM,
    IdNet,
    _batchnorm,
    _batchnorm_backward,
    _cross_entropy,
    _dense_backward,
    _fold,
    _forward,
    _sigmoid,
    _softmax,
    _taps,
    _taps_grad,
    _train_step,
    _unfold,
    forward,
    load_checkpoint,
    save_checkpoint,
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
    # the unfolded rows times the reordered taps give the direct convolution
    x = rng.standard_normal((2, 6, 5, 3))
    wc = rng.standard_normal((4, 3, 3, 2))
    direct = np.zeros((2, 4, 4, 4))
    for i in range(3):
        for j in range(2):
            direct += np.einsum("nhwc,oc->nhwo", x[:, i:i + 4, j:j + 4],
                                wc[:, :, i, j])
    out = (_unfold(x, 3, 2) @ _taps(wc)).reshape(direct.shape)
    assert np.allclose(out, direct, rtol=1e-12, atol=1e-12)


def test_unfold_and_conv_gradients():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 6, 5, 3))
    w = rng.standard_normal((4, 3, 3, 2))
    g_cols = rng.standard_normal((2 * 4 * 4, 3 * 3 * 2))
    _assert_grads_match(lambda: 1.5 * np.sum(_unfold(x, 3, 2) * g_cols),
                        (x, 1.5 * _fold(g_cols, x.shape, 3, 2)))
    weight = rng.standard_normal((2 * 4 * 4, 4))
    cols = _unfold(x, 3, 2)
    dw = _taps_grad(weight, cols, w.shape)
    dx = _fold(weight @ _taps(w).T, x.shape, 3, 2)
    _assert_grads_match(lambda: np.sum(weight * (_unfold(x, 3, 2) @ _taps(w))),
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
    x = rng.standard_normal((2, 6, 5, 3))
    weight = rng.standard_normal((2, 6, 5, 3))
    gamma = 1.0 + 0.3 * rng.standard_normal(3)
    beta = rng.standard_normal(3)

    def train_loss():  # fresh running statistics keep the loss pure
        out, _, _ = _batchnorm(x, gamma, beta, np.zeros(3), np.ones(3), True)
        return np.sum(weight * out)

    _, xhat, inv = _batchnorm(x, gamma, beta, np.zeros(3), np.ones(3), True)
    dgamma, dbeta, dx = _batchnorm_backward(weight.reshape(-1, 3), xhat, inv, gamma)
    _assert_grads_match(train_loss, (x, dx.reshape(x.shape)), (gamma, dgamma),
                        (beta, dbeta))

    mean = rng.standard_normal(3)
    var = 0.5 + rng.random(3)
    frozen = (mean.copy(), var.copy())

    def eval_loss():
        out, _, _ = _batchnorm(x, gamma, beta, mean, var, False)
        return np.sum(weight * out)

    assert _batchnorm(x, gamma, beta, mean, var, False)[1:] == (None, None)
    inv = 1.0 / np.sqrt(var + _BN_EPS)
    xhat = (x - mean) * inv
    _assert_grads_match(eval_loss,
                        (x, weight * gamma * inv),
                        (gamma, np.sum(weight * xhat, axis=(0, 1, 2))),
                        (beta, np.sum(weight, axis=(0, 1, 2))))
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
    # the shared ReLU and dropout gate holds 0 and the inverted-dropout scale,
    # in the float32 of the shipped activations
    _, _, _, cache = _forward(net, x.astype(np.float32), True, np.random.default_rng(42))
    assert cache["gate2"].dtype == np.float32
    assert set(np.unique(cache["gate2"])) == {0.0, np.float32(1.0 / (1.0 - DROP_RATE))}
    # eval mode is the identity: a plain ReLU trunk, and no cache
    f, _, _, cache = _forward(net, x, False)
    assert cache is None
    p, r = net.p, net.running
    b1, _, _ = _batchnorm(_unfold(x[..., None], 5, 3) @ _taps(p["conv1_w"]),
                          p["bn1_g"], p["bn1_b"], r["bn1_mean"], r["bn1_var"], False)
    h1 = np.maximum(b1, 0.0).reshape(x.shape[0], 28, 14, 32)
    b2, _, _ = _batchnorm(_unfold(h1, 3, 2) @ _taps(p["conv2_w"]),
                          p["bn2_g"], p["bn2_b"], r["bn2_mean"], r["bn2_var"], False)
    h2 = np.maximum(b2, 0.0).reshape(x.shape[0], -1)
    assert np.array_equal(f, h2 @ p["project_w"] + p["project_b"])


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


def _channel_first_features(net, x):
    """Eval features of the same network written channel-first with einsum."""
    p, r = net.p, net.running

    def conv(a, w):
        kh, kw = w.shape[2:]
        ph, pw = a.shape[2] - kh + 1, a.shape[3] - kw + 1
        return sum(np.einsum("nchw,oc->nohw", a[:, :, i:i + ph, j:j + pw], w[:, :, i, j])
                   for i in range(kh) for j in range(kw))

    def bn_relu(a, k):
        s = (1, -1, 1, 1)
        z = (a - r[f"bn{k}_mean"].reshape(s)) / np.sqrt(r[f"bn{k}_var"].reshape(s) + _BN_EPS)
        return np.maximum(z * p[f"bn{k}_g"].reshape(s) + p[f"bn{k}_b"].reshape(s), 0.0)

    h1 = bn_relu(conv(x[:, None], p["conv1_w"]), 1)
    h2 = bn_relu(conv(h1, p["conv2_w"]), 2)
    # project_w's rows run over (row, col, channel)
    w = p["project_w"].reshape(h2.shape[2], h2.shape[3], h2.shape[1], FEATURE_DIM)
    return np.einsum("nchw,hwcf->nf", h2, w) + p["project_b"]


def _nets_and_patches(seed, n):
    """A float32 net with nontrivial batch-norm statistics, a float64 copy of
    it and n float64 patches: _forward follows its inputs' dtype, so the copy
    gives a float64 pass of the same helpers and weights."""
    rng = np.random.default_rng(seed)
    net = IdNet(3, 2, seed=seed)
    for k, c in ((1, 32), (2, 64)):
        net.p[f"bn{k}_g"] = (1.0 + 0.3 * rng.standard_normal(c)).astype(np.float32)
        net.p[f"bn{k}_b"] = (0.5 * rng.standard_normal(c)).astype(np.float32)
        net.running[f"bn{k}_mean"] = (0.3 * rng.standard_normal(c)).astype(np.float32)
        net.running[f"bn{k}_var"] = (0.5 + rng.random(c)).astype(np.float32)
    ref = copy.copy(net)
    ref.p = {name: a.astype(np.float64) for name, a in net.p.items()}
    ref.running = {name: a.astype(np.float64) for name, a in net.running.items()}
    return net, ref, rng.random((n, 32, 16))


def test_channel_last_trunk_equals_a_channel_first_network():
    _, ref, x = _nets_and_patches(16, 3)
    f, _, _, _ = _forward(ref, x, False)
    assert f.dtype == np.float64
    expected = _channel_first_features(ref, x)
    assert np.abs(f - expected).max() <= 1e-12 * np.abs(expected).max()


def test_float32_forward_follows_the_float64_pass():
    net, ref, x = _nets_and_patches(16, 8)
    f, pu, pd = forward(net, x)
    f64, id_logits, dom_logits, _ = _forward(ref, x, False)
    assert np.abs(f - f64).max() <= 1e-5 * np.abs(f64).max()
    for probs, logits in ((pu, id_logits), (pd, dom_logits)):
        assert np.abs(probs - _softmax(logits)).max() <= 1e-6
        assert np.array_equal(probs.argmax(axis=1), logits.argmax(axis=1))


def test_training_and_inference_stay_float32():
    # numpy 2 lifts float32 against an np.float64 scalar to float64, and
    # numpy 1.x can turn a bool array times a float32 scalar into float16
    net = IdNet(3, 2)
    rng = np.random.default_rng(17)
    x = rng.random((4, 32, 16)).astype(np.float32)
    users, domains = np.array([0, 1, 2, 0]), np.array([0, 1, 0, 1])
    centers = np.zeros((3, FEATURE_DIM), np.float32)
    _, grads, f = _train_step(net, x, users, domains, centers, 0.1, 0.5, rng)
    arrays = {**net.p, **net.running, **{f"d_{k}": g for k, g in grads.items()},
              "train_f": f}
    arrays.update(zip(("f", "identity", "domain"), forward(net, x)))
    for name, a in arrays.items():
        assert a.dtype == np.float32, name


def test_checkpoint_refuses_the_channel_first_version(tmp_path):
    # version 2 ordered project_w's rows by (channel, row, col)
    path = tmp_path / "net.npz"
    save_checkpoint(path, IdNet(2, 1), np.zeros((2, FEATURE_DIM)))
    with np.load(path, allow_pickle=False) as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = json.loads(str(arrays["__meta__"]))
    assert meta["version"] == 3
    meta["version"] = 2
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    with pytest.raises(FootfallError, match="version") as err:
        load_checkpoint(path)
    assert err.value.details["version"] == 2
