import numpy as np
import pytest

from footfall.errors import FootfallError
from footfall.idnet import (
    CENTER_WEIGHT,
    FEATURE_DIM,
    IdNet,
    TrainConfig,
    TrainSet,
    _batchnorm,
    _cross_entropy,
    _train_step,
    _update_centers,
    evaluate_accuracy,
    forward,
    identify,
    load_checkpoint,
    save_checkpoint,
    train_adversarial,
    voting_accuracy,
)


def _toy_patch(user, domain, rng):
    p = 0.05 * rng.random((32, 16))
    p[4 + 7 * user: 7 + 7 * user, 4:12] += 1.0 + 0.1 * rng.random()
    p[2 + 2 * domain, :] += 0.8
    return p


def _toy_dataset(per_cell=40, seed=0):
    rng = np.random.default_rng(seed)
    x, users, domains = [], [], []
    for u in range(3):
        for d in range(2):
            for _ in range(per_cell):
                x.append(_toy_patch(u, d, rng))
                users.append(u)
                domains.append(d)
    return TrainSet(np.array(x), np.array(users), np.array(domains))


@pytest.fixture(scope="module")
def trained():
    result = train_adversarial(_toy_dataset(), TrainConfig(epochs=8, seed=3))
    assert result.log[-1]["val_accuracy"] == 1.0  # toy users are separable
    return result


def test_forward_outputs_are_distributions():
    net = IdNet(4, 3, seed=0)
    rng = np.random.default_rng(1)
    patches = rng.random((5, 32, 16))
    f, pu, pd = forward(net, patches)
    assert pu.shape == (5, 4) and pd.shape == (5, 3)
    assert np.abs(pu.sum(axis=1) - 1.0).max() < 1e-6
    assert np.abs(pd.sum(axis=1) - 1.0).max() < 1e-6
    assert np.all(np.isfinite(f)) and np.linalg.norm(f) < 1e3


def test_eval_forward_is_bitwise_deterministic():
    net = IdNet(3, 2, seed=0)
    patch = np.random.default_rng(2).random((32, 16))
    _, a, _ = forward(net, patch)
    _, b, _ = forward(net, patch)
    assert np.array_equal(a, b)


def test_forward_rejects_bad_patches():
    net = IdNet(3, 2, seed=0)
    with pytest.raises(FootfallError):
        forward(net, np.ones((16, 16)))
    with pytest.raises(FootfallError):
        forward(net, -np.ones((32, 16)))


def test_identity_loss_closed_forms():
    loss, grad = _cross_entropy(np.zeros((10, 6)), np.zeros(10, dtype=int))
    assert loss == pytest.approx(np.log(6.0), abs=1e-12)
    expected = np.full((10, 6), 1.0 / 6.0)
    expected[:, 0] -= 1.0
    assert np.abs(grad - expected / 10).max() < 1e-15  # (softmax - one-hot) / batch
    perfect, _ = _cross_entropy(50.0 * np.eye(4), np.arange(4))
    assert perfect == pytest.approx(0.0, abs=1e-9)
    # raising the true-class logit can only lower the loss
    lo, _ = _cross_entropy(np.array([[0.3, 0.7]]), np.array([0]))
    hi, _ = _cross_entropy(np.array([[0.6, 0.4]]), np.array([0]))
    assert hi < lo


def test_cross_entropy_clamps_vanishing_truth():
    with pytest.warns(UserWarning):
        loss, grad = _cross_entropy(np.array([[800.0, 0.0]]), np.array([1]))
    assert loss == pytest.approx(-np.log(1e-12))
    assert np.all(grad == 0.0)  # clamped row contributes no gradient


def test_batchnorm_running_stats_converge_to_batch_stats():
    x = 2.5 + 1.7 * np.random.default_rng(8).standard_normal((16, 4, 9, 7))
    gamma, beta = np.ones(4), np.zeros(4)
    mean, var = np.zeros(4), np.ones(4)
    for _ in range(400):
        trained, _, _ = _batchnorm(x, gamma, beta, mean, var, train=True)
    frozen, _, _ = _batchnorm(x, gamma, beta, mean, var, train=False)
    assert np.abs(frozen - trained).max() < 1e-5


def test_update_centers_rules():
    centers = np.array([[0.0, 0.0], [3.0, 3.0]])
    feats = np.array([[2.0, 4.0]])
    moved = _update_centers(centers, feats, np.array([0]), alpha=1.0)
    assert np.allclose(moved[0], [1.0, 2.0])  # midpoint for a single sample
    assert np.array_equal(moved[1], centers[1])  # absent class untouched
    # permutation invariance
    rng = np.random.default_rng(12)
    f = rng.standard_normal((8, 2))
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    perm = rng.permutation(8)
    a = _update_centers(centers, f, labels)
    b = _update_centers(centers, f[perm], labels[perm])
    assert np.allclose(a, b, atol=1e-12)


def test_training_step_gradients_match_central_differences():
    """Each array's gradient, projected on random directions, against
    central differences of the loss its group descends."""
    ds = _toy_dataset(per_cell=1, seed=5)
    lam, lam_grl, eps = 0.7, 0.37, 1e-7  # at 1e-5 some ReLU inputs cross zero
    net = IdNet(ds.n_users, ds.n_domains, seed=1)
    centers = np.random.default_rng(6).standard_normal((ds.n_users, FEATURE_DIM))

    def step():  # the same dropout mask on every call
        return _train_step(net, ds.x, ds.users, ds.domains, centers, lam, lam_grl,
                           np.random.default_rng(7))

    def targets():
        (l_u, l_c, l_d), _, _ = step()
        l_eta = l_u + lam * l_c / ds.x.shape[0]
        return {"feature": l_eta - lam_grl * l_d, "identity": l_eta, "domain": l_d}

    _, grads, _ = step()
    assert set(grads) == set(net.p)
    rng = np.random.default_rng(8)
    for k, name in enumerate(net.p):
        group = "feature" if k < 8 else "identity" if k < 12 else "domain"
        for _ in range(2):
            u = rng.standard_normal(net.p[name].shape)
            base = net.p[name].copy()
            net.p[name] = base + eps * u
            hi = targets()[group]
            net.p[name] = base - eps * u
            lo = targets()[group]
            net.p[name] = base
            numeric = (hi - lo) / (2.0 * eps)
            analytic = float(np.sum(grads[name] * u))
            assert abs(analytic - numeric) <= 1e-6 * abs(numeric) + 1e-7, (
                name, analytic, numeric)


def test_training_step_is_momentum_sgd():
    ds = _toy_dataset(per_cell=3, seed=6)
    config = TrainConfig(epochs=2, lr=0.003, batch=64, seed=2, val_fraction=0.0)
    got = train_adversarial(ds, config).net
    # replay the two single-batch epochs: v <- 0.9 v + g; p <- p - lr v, on
    # float32 patches and centers as training runs them
    net = IdNet(ds.n_users, ds.n_domains, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(ds.x.shape[0])
    x = ds.x.astype(np.float32)
    centers = np.zeros((ds.n_users, FEATURE_DIM), np.float32)
    velocity = {name: 0.0 for name in net.p}
    for lam_grl in (0.0, 1.0):  # the reversal ramp over two epochs
        idx = order[rng.permutation(order.size)]
        _, grads, f = _train_step(net, x[idx], ds.users[idx], ds.domains[idx],
                                  centers, CENTER_WEIGHT, lam_grl, rng)
        for name, g in grads.items():
            velocity[name] = 0.9 * velocity[name] + g
            net.p[name] = net.p[name] - config.lr * velocity[name]
        centers = _update_centers(centers, f, ds.users[idx])
    for name in net.p:
        assert np.allclose(got.p[name], net.p[name], rtol=1e-12, atol=1e-15), name


def test_voting_closed_form():
    assert voting_accuracy(0.9, "2-of-3") == pytest.approx(0.972, abs=1e-12)
    assert voting_accuracy(0.9, "single") == pytest.approx(0.9, abs=1e-12)
    # 10 * 0.9**3 * 0.1**2 + 5 * 0.9**4 * 0.1 + 0.9**5
    assert voting_accuracy(0.9, "3-of-5") == pytest.approx(0.99144, abs=1e-12)
    for voting in ("best-of-7", ["single"]):
        with pytest.raises(FootfallError) as err:
            voting_accuracy(0.9, voting)
        assert err.value.details["voting"] == repr(voting)


def test_identify_unanimous_and_errors(trained):
    rng = np.random.default_rng(20)
    patches = [_toy_patch(1, 0, rng) for _ in range(3)]
    user, confidence = identify(trained.net, patches, "2-of-3")
    assert user == 1 and confidence == 1.0
    with pytest.raises(FootfallError):
        identify(trained.net, [], "single")
    with pytest.raises(FootfallError):
        identify(trained.net, patches, "3-of-5")
    for voting in ("best-of-7", ["single"]):
        with pytest.raises(FootfallError) as err:
            identify(trained.net, patches, voting)
        assert err.value.details["voting"] == repr(voting)


@pytest.mark.parametrize("shape", [(3, 32, 16), (1, 32, 16), (32, 15)])
def test_identify_refuses_an_element_that_is_not_one_patch(shape):
    # a stack of patches used to vote with its first patch alone
    with pytest.raises(FootfallError) as err:
        identify(IdNet(2, 1), [np.ones(shape)])
    assert err.value.details == {"argument": "patches", "shape": list(shape)}


def test_identify_never_invents_an_id(trained):
    rng = np.random.default_rng(21)
    for _ in range(10):
        patches = rng.random((5, 32, 16))
        _, pu, _ = forward(trained.net, patches)
        votes = set(pu.argmax(axis=1))
        user, _ = identify(trained.net, list(patches), "3-of-5")
        assert user in votes


def test_training_is_deterministic():
    ds = _toy_dataset(per_cell=12, seed=1)
    a = train_adversarial(ds, TrainConfig(epochs=2, seed=5))
    b = train_adversarial(ds, TrainConfig(epochs=2, seed=5))
    assert a.log == b.log
    assert all(np.array_equal(p, q) for p, q in zip(a.net.params(), b.net.params()))


def test_training_loss_trend_decreases(trained):
    total = [row["loss_identity"] + 0.1 * row["loss_center"] for row in trained.log]
    assert np.mean(total[-3:]) < np.mean(total[:3])


def test_divergent_training_reports_the_epoch():
    ds = _toy_dataset(per_cell=12, seed=2)
    with pytest.raises(FootfallError) as err, \
            pytest.warns(UserWarning, match="clamped"):
        train_adversarial(ds, TrainConfig(epochs=2, seed=0, lr=1e9))
    assert "epoch" in err.value.details


def test_trainset_validation():
    x = np.ones((4, 32, 16))
    with pytest.raises(FootfallError):
        TrainSet(x, np.zeros(4, dtype=int), np.zeros(4, dtype=int))  # one user
    with pytest.raises(FootfallError):
        TrainSet(x, np.array([0, 1]), np.zeros(4, dtype=int))  # label mismatch
    with pytest.raises(FootfallError):
        TrainConfig(epochs=0)
    with pytest.raises(FootfallError):
        TrainConfig(lr=-1.0)


@pytest.mark.parametrize("labels", [
    [0], [0, 1, 0], np.zeros((6, 1)), [0.5] * 6, [-1] * 6, [np.nan] * 6, ["a"] * 6, [True] * 6,
], ids=["one-label", "three-labels", "column", "fractional", "negative", "nan", "str", "bool"])
def test_evaluate_accuracy_wants_one_whole_label_per_patch(labels):
    # one label on six patches used to broadcast and read 1.0
    patches = np.random.default_rng(0).random((6, 32, 16))
    with pytest.raises(FootfallError) as err:
        evaluate_accuracy(IdNet(2, 1), patches, labels)
    assert err.value.details["argument"] == "labels"


def test_checkpoint_roundtrip(tmp_path, trained):
    path = tmp_path / "net.npz"
    save_checkpoint(path, trained.net, trained.centers)
    net, centers = load_checkpoint(path)
    ds = _toy_dataset(per_cell=6, seed=4)
    assert evaluate_accuracy(net, ds.x, ds.users) == evaluate_accuracy(
        trained.net, ds.x, ds.users)
    assert np.array_equal(centers, trained.centers)
    patch = np.random.default_rng(0).random((32, 16))
    _, a, _ = forward(trained.net, patch)
    _, b, _ = forward(net, patch)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("make, key", [
    (lambda: IdNet(2.5, 1), "n_users"),
    (lambda: IdNet(3, True), "n_domains"),
    (lambda: IdNet(3, 1, seed=-1), "seed"),
    (lambda: TrainConfig(epochs=2.5), "epochs"),
    (lambda: TrainConfig(batch="32"), "batch"),
    (lambda: TrainConfig(lr=float("nan")), "lr"),
    (lambda: forward(IdNet(3, 2), "abc"), "argument"),
    (lambda: forward(IdNet(3, 2), np.full((32, 16), np.inf)), "argument"),
    (lambda: forward(IdNet(3, 2), np.ones((0, 32, 16))), "argument"),
    (lambda: TrainSet(np.ones((2, 32, 16)), [0.5, 1.5], [0, 0]), "argument"),
    (lambda: TrainSet(np.ones((2, 32, 16)), [0, 1], ["a", "b"]), "argument"),
], ids=["fractional-users", "bool-domains", "negative-seed", "fractional-epochs", "str-batch",
        "nan-lr", "str-patches", "inf-patch", "empty-stack", "fractional-labels", "str-labels"])
def test_bad_net_settings_and_patches_raise_by_name(make, key):
    with pytest.raises(FootfallError) as err:
        make()
    assert key in err.value.details
    config = TrainConfig(epochs=2.0, batch=np.int64(8))
    assert type(config.epochs) is int and type(config.batch) is int


def _foreign_npz(path):
    np.savez(path, weights=np.ones(3))


def _pickled(path):
    np.save(path, np.array([{"version": 3}], dtype=object), allow_pickle=True)


def _truncated(path):
    save_checkpoint(path, IdNet(2, 1), np.zeros((2, FEATURE_DIM)))
    path.write_bytes(path.read_bytes()[:100])


@pytest.mark.parametrize("write", [_foreign_npz, _pickled, _truncated],
                         ids=["foreign-npz", "pickled", "truncated"])
def test_checkpoint_rejects_a_file_that_is_not_one(tmp_path, write):
    path = tmp_path / "net.npz"
    write(path)
    with pytest.raises(FootfallError) as err:
        load_checkpoint(path)
    assert err.value.details["path"] == str(path)


def test_checkpoint_rejects_other_versions(tmp_path, trained):
    import json

    path = tmp_path / "net.npz"
    save_checkpoint(path, trained.net, trained.centers)
    with np.load(path, allow_pickle=False) as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = json.loads(str(arrays["__meta__"]))
    meta["version"] = 99
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    with pytest.raises(FootfallError):
        load_checkpoint(path)
