import numpy as np
import pytest

from footfall.errors import FootfallError
from footfall.nnet import (
    BatchNorm,
    Conv2d,
    Dense,
    Dropout,
    MomentumSgd,
    Tensor,
    add,
    backward,
    center_loss,
    cross_entropy,
    finite_difference,
    im2col,
    matmul,
    mul,
    parameter,
    power,
    relu,
    reshape,
    sigmoid,
    tmean,
    transpose,
    tsum,
    update_centers,
    zero_grads,
)

RTOL = 1e-4


def _assert_grads_match(build, *tensors):
    """Analytic gradients against central differences, relative to the peak."""
    zero_grads(tensors)
    backward(build())
    for t in tensors:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        numeric = finite_difference(lambda: build().data, t)
        scale = max(1e-8, np.abs(numeric).max())
        assert np.abs(analytic - numeric).max() / scale < RTOL
    zero_grads(tensors)


def test_elementwise_and_reduction_gradients():
    rng = np.random.default_rng(0)
    a = parameter(rng.standard_normal((3, 4)))
    b = parameter(rng.standard_normal((3, 4)))
    _assert_grads_match(lambda: tsum(mul(add(a, b), a)), a, b)
    _assert_grads_match(lambda: tmean(sigmoid(mul(a, b))), a, b)
    _assert_grads_match(lambda: tsum(relu(a)), a)
    _assert_grads_match(lambda: tsum(power(add(mul(a, a), 0.5), -0.5)), a)


def test_bias_broadcast_gradient():
    rng = np.random.default_rng(1)
    x = parameter(rng.standard_normal((5, 3)))
    bias = parameter(rng.standard_normal(3))
    _assert_grads_match(lambda: tsum(mul(add(x, bias), x)), x, bias)


def test_matmul_and_shape_op_gradients():
    rng = np.random.default_rng(2)
    a = parameter(rng.standard_normal((3, 4)))
    w = parameter(rng.standard_normal((4, 5)))
    _assert_grads_match(lambda: tmean(matmul(a, w)), a, w)
    b = Tensor(rng.standard_normal((4, 3)))
    _assert_grads_match(lambda: tsum(mul(transpose(reshape(a, (4, 3)), (1, 0)), a)), a)


def test_unfold_and_conv_gradients():
    rng = np.random.default_rng(4)
    x = parameter(rng.standard_normal((2, 3, 6, 5)))
    _assert_grads_match(lambda: tsum(mul(im2col(x, 3, 2), 1.5)), x)
    conv = Conv2d(3, 4, 3, 2, rng)
    _assert_grads_match(lambda: tsum(conv(x)), x, conv.w, conv.b)


def test_dense_gradient():
    rng = np.random.default_rng(6)
    x = parameter(rng.standard_normal((3, 4)))
    dense = Dense(4, 3, rng)
    weight = Tensor(rng.standard_normal((3, 3)))
    _assert_grads_match(lambda: tsum(mul(dense(x), weight)), x, dense.w, dense.b)


def test_batchnorm_gradients_in_both_modes():
    rng = np.random.default_rng(7)
    x = parameter(rng.standard_normal((2, 3, 6, 5)))
    weight = Tensor(rng.standard_normal((2, 3, 6, 5)))
    bn = BatchNorm(3)

    def train_loss():
        bn.running_mean[:] = 0.0  # pin the side effect so fn is pure
        bn.running_var[:] = 1.0
        return tsum(mul(bn(x, train=True), weight))

    _assert_grads_match(train_loss, x, bn.gamma, bn.beta)
    _assert_grads_match(lambda: tsum(mul(bn(x, train=False), weight)), x,
                        bn.gamma, bn.beta)


def test_batchnorm_running_stats_converge_to_batch_stats():
    rng = np.random.default_rng(8)
    x = Tensor(2.5 + 1.7 * rng.standard_normal((16, 4, 9, 7)))
    bn = BatchNorm(4)
    for _ in range(400):
        trained = bn(x, train=True)
    frozen = bn(x, train=False)
    assert np.abs(frozen.data - trained.data).max() < 1e-5


def test_dropout_gradient_with_held_mask():
    rng = np.random.default_rng(9)
    a = parameter(rng.standard_normal((4, 6)))
    drop = Dropout(0.65)
    _assert_grads_match(
        lambda: tsum(drop(a, train=True, rng=np.random.default_rng(42))), a)
    # eval mode is the identity
    out = drop(a, train=False, rng=np.random.default_rng(0))
    assert np.array_equal(out.data, a.data)


def test_cross_entropy_gradient_and_uniform_value():
    rng = np.random.default_rng(10)
    logits = parameter(rng.standard_normal((6, 4)))
    labels = np.array([0, 1, 2, 3, 1, 0])
    _assert_grads_match(lambda: cross_entropy(logits, labels), logits)
    flat = parameter(np.zeros((5, 6)))
    assert float(cross_entropy(flat, np.zeros(5, dtype=int)).data) == pytest.approx(
        np.log(6.0), abs=1e-12)


def test_cross_entropy_clamps_vanishing_truth():
    logits = parameter(np.array([[800.0, 0.0]]))
    with pytest.warns(UserWarning):
        loss = cross_entropy(logits, np.array([1]))
    assert float(loss.data) == pytest.approx(-np.log(1e-12))
    backward(loss)
    assert np.all(logits.grad == 0.0)  # clamped row contributes no gradient


def test_center_loss_gradient_is_feature_minus_center():
    rng = np.random.default_rng(11)
    feats = parameter(rng.standard_normal((6, 5)))
    centers = rng.standard_normal((3, 5))
    labels = np.array([0, 1, 2, 0, 1, 2])
    _assert_grads_match(lambda: center_loss(feats, labels, centers), feats)
    backward(center_loss(feats, labels, centers))
    assert np.allclose(feats.grad, feats.data - centers[labels], atol=1e-12)


def test_center_loss_values_and_missing_center():
    centers = np.zeros((2, 3))
    at_center = parameter(np.zeros((4, 3)))
    labels = np.array([0, 1, 0, 1])
    assert float(center_loss(at_center, labels, centers).data) == 0.0
    away = parameter(np.array([[2.0, 0.0, 0.0]]))
    assert float(center_loss(away, np.array([0]), centers).data) == pytest.approx(2.0)
    with pytest.raises(FootfallError):
        center_loss(away, np.array([5]), centers)


def test_update_centers_rules():
    centers = np.array([[0.0, 0.0], [3.0, 3.0]])
    feats = np.array([[2.0, 4.0]])
    moved = update_centers(centers, feats, np.array([0]), alpha=1.0)
    assert np.allclose(moved[0], [1.0, 2.0])  # midpoint for a single sample
    assert np.array_equal(moved[1], centers[1])  # absent class untouched
    # permutation invariance
    rng = np.random.default_rng(12)
    f = rng.standard_normal((8, 2))
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    perm = rng.permutation(8)
    a = update_centers(centers, f, labels)
    b = update_centers(centers, f[perm], labels[perm])
    assert np.allclose(a, b, atol=1e-12)


def test_gradient_reversal_identity():
    rng = np.random.default_rng(14)
    logits = parameter(rng.standard_normal((6, 4)))
    labels = np.array([0, 1, 2, 3, 1, 0])
    lam = 0.37
    backward(cross_entropy(logits, labels))
    plain = logits.grad.copy()
    zero_grads([logits])
    backward(mul(cross_entropy(logits, labels), -lam))
    assert np.abs(logits.grad + lam * plain).max() < 1e-5 * np.abs(plain).max()


def test_two_losses_through_one_forward_stay_independent():
    x = parameter(np.ones((2, 2)))
    shared = mul(x, 1.0)
    first = tsum(mul(shared, 2.0))
    second = tsum(mul(shared, 3.0))
    backward(first)
    assert np.allclose(x.grad, 2.0)
    zero_grads([x])
    backward(second)
    assert np.allclose(x.grad, 3.0)


def test_backward_rejects_non_scalar():
    x = parameter(np.ones((2, 2)))
    with pytest.raises(FootfallError):
        backward(mul(x, 2.0))


def test_momentum_sgd_step():
    p = parameter(np.array([1.0]))
    opt = MomentumSgd([p], lr=0.1, momentum=0.5)
    opt.step([np.array([1.0])])
    assert p.data[0] == pytest.approx(0.9)
    opt.step([np.array([1.0])])  # velocity: 0.5*1 + 1 = 1.5
    assert p.data[0] == pytest.approx(0.9 - 0.15)
    with pytest.raises(FootfallError):
        MomentumSgd([p], lr=-1.0)
