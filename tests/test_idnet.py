import numpy as np
import pytest

from footfall.errors import FootfallError
from footfall.idnet import (
    IdNet,
    TrainConfig,
    TrainSet,
    evaluate_accuracy,
    forward,
    identify,
    load_checkpoint,
    loss_identity,
    save_checkpoint,
    simulate_voting,
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
    f, pu, pd = forward(net, patches, "eval")
    assert pu.shape == (5, 4) and pd.shape == (5, 3)
    assert np.abs(pu.sum(axis=1) - 1.0).max() < 1e-6
    assert np.abs(pd.sum(axis=1) - 1.0).max() < 1e-6
    assert np.all(np.isfinite(f)) and np.linalg.norm(f) < 1e3


def test_eval_forward_is_bitwise_deterministic():
    net = IdNet(3, 2, seed=0)
    patch = np.random.default_rng(2).random((32, 16))
    _, a, _ = forward(net, patch, "eval")
    _, b, _ = forward(net, patch, "eval")
    assert np.array_equal(a, b)


def test_forward_rejects_bad_patches():
    net = IdNet(3, 2, seed=0)
    with pytest.raises(FootfallError):
        forward(net, np.ones((16, 16)))
    with pytest.raises(FootfallError):
        forward(net, -np.ones((32, 16)))
    with pytest.raises(FootfallError):
        forward(net, np.ones((32, 16)), mode="predict")


def test_identity_loss_closed_forms():
    uniform = np.full((10, 6), 1.0 / 6.0)
    assert loss_identity(uniform, np.zeros(10, dtype=int)) == pytest.approx(
        np.log(6.0), abs=1e-12)
    perfect = np.eye(4)
    assert loss_identity(perfect, np.arange(4)) == pytest.approx(0.0, abs=1e-9)
    # raising the true-class probability can only lower the loss
    lo = loss_identity(np.array([[0.3, 0.7]]), np.array([0]))
    hi = loss_identity(np.array([[0.6, 0.4]]), np.array([0]))
    assert hi < lo


def test_voting_closed_form_and_monte_carlo():
    assert voting_accuracy(0.9, "2-of-3") == pytest.approx(0.972, abs=1e-12)
    assert voting_accuracy(0.9, "single") == pytest.approx(0.9, abs=1e-12)
    mc = simulate_voting(0.9, "2-of-3", 100000, np.random.default_rng(7))
    assert abs(mc - 0.972) < 0.005
    p = 0.9073
    mc5 = simulate_voting(p, "3-of-5", 10000, np.random.default_rng(8))
    assert abs(mc5 - voting_accuracy(p, "3-of-5")) < 0.01


def test_identify_unanimous_and_errors(trained):
    rng = np.random.default_rng(20)
    patches = [_toy_patch(1, 0, rng) for _ in range(3)]
    user, confidence = identify(trained.net, patches, "2-of-3")
    assert user == 1 and confidence == 1.0
    with pytest.raises(FootfallError):
        identify(trained.net, [], "single")
    with pytest.raises(FootfallError):
        identify(trained.net, patches, "3-of-5")
    with pytest.raises(FootfallError):
        identify(trained.net, patches, "best-of-7")


def test_identify_never_invents_an_id(trained):
    rng = np.random.default_rng(21)
    for _ in range(10):
        patches = rng.random((5, 32, 16))
        _, pu, _ = forward(trained.net, patches, "eval")
        votes = set(pu.argmax(axis=1))
        user, _ = identify(trained.net, list(patches), "3-of-5")
        assert user in votes


def test_training_is_deterministic():
    ds = _toy_dataset(per_cell=12, seed=1)
    a = train_adversarial(ds, TrainConfig(epochs=2, seed=5))
    b = train_adversarial(ds, TrainConfig(epochs=2, seed=5))
    assert a.log == b.log
    assert all(np.array_equal(p.data, q.data)
               for p, q in zip(a.net.params(), b.net.params()))


def test_training_loss_trend_decreases(trained):
    total = [row["loss_identity"] + 0.1 * row["loss_center"] for row in trained.log]
    assert np.mean(total[-3:]) < np.mean(total[:3])


def test_divergent_training_reports_the_epoch():
    ds = _toy_dataset(per_cell=12, seed=2)
    with pytest.raises(FootfallError) as err:
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


def test_checkpoint_roundtrip(tmp_path, trained):
    path = tmp_path / "net.npz"
    save_checkpoint(path, trained.net, trained.centers)
    net, centers = load_checkpoint(path)
    ds = _toy_dataset(per_cell=6, seed=4)
    assert evaluate_accuracy(net, ds.x, ds.users) == evaluate_accuracy(
        trained.net, ds.x, ds.users)
    assert np.array_equal(centers, trained.centers)
    patch = np.random.default_rng(0).random((32, 16))
    _, a, _ = forward(trained.net, patch, "eval")
    _, b, _ = forward(net, patch, "eval")
    assert np.array_equal(a, b)


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
