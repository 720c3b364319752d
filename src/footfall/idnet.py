"""Identification network with domain-adversarial training.

A small fixed CNN maps a 32x16 magnitude patch of one footstep to a 16-dim
feature. Two heads share it: the identity head (hidden sigmoid layer, then
class scores) and a domain head that sees the feature gated elementwise by
the identity head's hidden activation. Training pulls the feature extractor
toward identity evidence and away from domain evidence by reversing the
domain gradient; class centers tighten features within each user.

Inference is pure: eval-mode forwards use running batch-norm statistics and
no dropout, so repeated calls agree bitwise.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FootfallError
from .nnet import (
    BatchNorm,
    Conv2d,
    Dense,
    Dropout,
    MomentumSgd,
    Tensor,
    backward,
    center_loss,
    collect_grads,
    cross_entropy,
    mul,
    relu,
    reshape,
    sigmoid,
    update_centers,
    zero_grads,
)

PATCH_SHAPE = (32, 16)
FEATURE_DIM = 16
DROP_RATE = 0.65
CENTER_ALPHA = 0.5

VOTING_SCHEMES = {"single": (1, 1), "2-of-3": (2, 3), "3-of-5": (3, 5)}

_CHECKPOINT_VERSION = 1


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _as_patches(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[None]
    if x.ndim != 3 or x.shape[1:] != PATCH_SHAPE:
        raise FootfallError("patches must be 32x16", shape=list(x.shape))
    if not np.all(np.isfinite(x)):
        raise FootfallError("patch contains non-finite values")
    if x.min() < 0:
        raise FootfallError("magnitude patch must be nonnegative", minimum=float(x.min()))
    return x


class IdNet:
    """Feature extractor, identity predictor, and domain discriminator."""

    def __init__(self, n_users: int, n_domains: int, seed: int = 0):
        if n_users < 2:
            raise FootfallError("need at least two users", n_users=n_users)
        if n_domains < 1:
            raise FootfallError("need at least one domain", n_domains=n_domains)
        rng = np.random.default_rng(seed)
        self.n_users = int(n_users)
        self.n_domains = int(n_domains)
        self.conv1 = Conv2d(1, 32, 5, 3, rng)
        self.bn1 = BatchNorm(32)
        self.conv2 = Conv2d(32, 64, 3, 2, rng)
        self.bn2 = BatchNorm(64)
        self.drop = Dropout(DROP_RATE)
        self.project = Dense(64 * 26 * 13, FEATURE_DIM, rng)
        self.id_hidden = Dense(FEATURE_DIM, 16, rng)
        self.id_out = Dense(16, n_users, rng)
        self.dom_hidden = Dense(FEATURE_DIM, 16, rng)
        self.dom_out = Dense(16, n_domains, rng)

    def feature_params(self):
        return (self.conv1.params() + self.bn1.params() + self.conv2.params()
                + self.bn2.params() + self.project.params())

    def identity_params(self):
        return self.id_hidden.params() + self.id_out.params()

    def domain_params(self):
        return self.dom_hidden.params() + self.dom_out.params()

    def params(self):
        return self.feature_params() + self.identity_params() + self.domain_params()

    def graph(self, patches: np.ndarray, train: bool, rng=None):
        """Build the forward graph; returns (f, identity logits, domain logits)."""
        x = Tensor(patches[:, None, :, :])
        h = relu(self.bn1(self.conv1(x), train))
        h = relu(self.bn2(self.conv2(h), train))
        h = reshape(h, (patches.shape[0], 64 * 26 * 13))
        h = self.drop(h, train, rng if rng is not None else np.random.default_rng(0))
        f = self.project(h)
        latent = sigmoid(self.id_hidden(f))
        id_logits = self.id_out(latent)
        dom_logits = self.dom_out(sigmoid(self.dom_hidden(mul(f, latent))))
        return f, id_logits, dom_logits


def forward(net: IdNet, patches, mode: str = "eval", rng=None):
    """Features plus identity and domain distributions for the given patches.

    mode "train" enables dropout and batch statistics; "eval" is pure and
    deterministic. Returns (f, identity probs, domain probs) as arrays.
    """
    if mode not in ("train", "eval"):
        raise FootfallError("mode must be train or eval", mode=mode)
    x = _as_patches(patches)
    f, id_logits, dom_logits = net.graph(x, train=(mode == "train"), rng=rng)
    return f.data, _softmax(id_logits.data), _softmax(dom_logits.data)


def loss_identity(probs, labels) -> float:
    """Mean negative log of the true-class probabilities."""
    p = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if p.ndim != 2 or labels.size != p.shape[0] or labels.size == 0:
        raise FootfallError("probabilities and labels disagree",
                            probs=list(p.shape), labels=int(labels.size))
    p_true = p[np.arange(labels.size), labels]
    return float(-np.mean(np.log(np.maximum(p_true, 1e-12))))


@dataclass
class TrainSet:
    """Patches with user and domain labels, both 0-based and dense."""

    x: np.ndarray
    users: np.ndarray
    domains: np.ndarray

    def __post_init__(self):
        self.x = _as_patches(self.x)
        self.users = np.asarray(self.users, dtype=np.int64)
        self.domains = np.asarray(self.domains, dtype=np.int64)
        n = self.x.shape[0]
        if self.users.shape != (n,) or self.domains.shape != (n,):
            raise FootfallError("labels do not match the patches", n=n,
                                users=list(self.users.shape),
                                domains=list(self.domains.shape))
        if np.unique(self.users).size < 2:
            raise FootfallError("dataset must cover at least two users")
        if self.users.min() < 0 or self.domains.min() < 0:
            raise FootfallError("labels must be nonnegative")

    @property
    def n_users(self) -> int:
        return int(self.users.max()) + 1

    @property
    def n_domains(self) -> int:
        return int(self.domains.max()) + 1


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    lam: float = 0.1          # center-loss weight in L_eta = L_u + lam * L_c
    lam_grl: float = 1.0      # reversal strength after warm-up
    lr: float = 0.01
    batch: int = 32
    seed: int = 0
    val_fraction: float = 0.15

    def __post_init__(self):
        if self.epochs < 1 or self.batch < 1:
            raise FootfallError("epochs and batch must be positive",
                                epochs=self.epochs, batch=self.batch)
        if not 0.0 <= self.val_fraction < 1.0:
            raise FootfallError("val_fraction must be in [0, 1)",
                                val_fraction=self.val_fraction)


@dataclass
class TrainResult:
    net: IdNet
    centers: np.ndarray
    log: list = field(default_factory=list)


def evaluate_accuracy(net: IdNet, patches, labels, batch: int = 256) -> float:
    x = _as_patches(patches)
    labels = np.asarray(labels)
    hits = 0
    for lo in range(0, x.shape[0], batch):
        _, pu, _ = forward(net, x[lo:lo + batch], mode="eval")
        hits += int(np.sum(pu.argmax(axis=1) == labels[lo:lo + batch]))
    return hits / max(1, labels.size)


def _grl_ramp(epoch: int, epochs: int) -> float:
    # 0 -> 1 linearly over the first 30% of epochs, then flat
    warm = max(1.0, 0.3 * epochs)
    return min(1.0, epoch / warm)


def train_adversarial(dataset: TrainSet, config: TrainConfig = TrainConfig()) -> TrainResult:
    """Adversarial training loop over the three parameter groups.

    Identity head and feature extractor descend L_eta = L_u + lam * L_c
    with the center term normalized per sample, keeping lam independent of
    batch size and the projection-layer curvature (lam * |h|^2 / m) inside
    the step-size stability region; the batch-sum form diverges at this
    learning rate. The domain head descends L_delta; the extractor
    additionally ascends L_delta through the reversal weight. Single-domain
    datasets skip the adversarial branch entirely. Deterministic for a
    given seed. The log reports the per-sample center loss.
    """
    rng = np.random.default_rng(config.seed)
    net = IdNet(dataset.n_users, dataset.n_domains, seed=config.seed)
    centers = np.zeros((dataset.n_users, FEATURE_DIM))
    adversarial = dataset.n_domains >= 2

    order = rng.permutation(dataset.x.shape[0])
    n_val = int(round(config.val_fraction * order.size))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        raise FootfallError("no training samples left after validation split")

    n_feat = len(net.feature_params())
    n_id = len(net.identity_params())
    params = net.params()
    opt = MomentumSgd(params, lr=config.lr, momentum=0.9)
    log = []
    for epoch in range(config.epochs):
        lam_grl = config.lam_grl * _grl_ramp(epoch, config.epochs) if adversarial else 0.0
        perm = train_idx[rng.permutation(train_idx.size)]
        sums = np.zeros(3)
        n_batches = 0
        for lo in range(0, perm.size, config.batch):
            idx = perm[lo:lo + config.batch]
            f, id_logits, dom_logits = net.graph(dataset.x[idx], train=True, rng=rng)
            l_u = cross_entropy(id_logits, dataset.users[idx])
            l_c = center_loss(f, dataset.users[idx], centers)
            l_eta = l_u + mul(l_c, config.lam / idx.size)
            zero_grads(params)
            backward(l_eta)
            g_eta = collect_grads(params)
            l_d_val = 0.0
            if adversarial:
                l_d = cross_entropy(dom_logits, dataset.domains[idx])
                l_d_val = float(l_d.data)
                zero_grads(params)
                backward(l_d)
                g_dom = collect_grads(params)
            else:
                g_dom = [np.zeros_like(p.data) for p in params]
            if not (np.isfinite(l_eta.data) and np.isfinite(l_d_val)):
                raise FootfallError("training diverged", epoch=epoch)
            combined = []
            for k in range(len(params)):
                if k < n_feat:
                    combined.append(g_eta[k] - lam_grl * g_dom[k])
                elif k < n_feat + n_id:
                    combined.append(g_eta[k])
                else:
                    combined.append(g_dom[k])
            opt.step(combined)
            centers = update_centers(centers, f.data, dataset.users[idx],
                                     alpha=CENTER_ALPHA)
            sums += (float(l_u.data), float(l_c.data) / idx.size, l_d_val)
            n_batches += 1
        val = (evaluate_accuracy(net, dataset.x[val_idx], dataset.users[val_idx])
               if n_val else evaluate_accuracy(net, dataset.x[train_idx],
                                               dataset.users[train_idx]))
        log.append({"epoch": epoch,
                    "loss_identity": float(sums[0] / n_batches),
                    "loss_center": float(sums[1] / n_batches),
                    "loss_domain": float(sums[2] / n_batches),
                    "val_accuracy": float(val)})
    return TrainResult(net=net, centers=centers, log=log)


def identify(net: IdNet, patches, voting: str = "single"):
    """Vote the per-step predictions into one user id.

    Returns (user id, confidence) where confidence is the winning vote
    share. Ties go to the lowest user id.
    """
    if voting not in VOTING_SCHEMES:
        raise FootfallError("unknown voting scheme", voting=voting,
                            known=sorted(VOTING_SCHEMES))
    patches = list(patches)
    if not patches:
        raise FootfallError("no footsteps to identify")
    _, n = VOTING_SCHEMES[voting]
    if len(patches) != n:
        raise FootfallError("voting scheme needs a different step count",
                            voting=voting, expected=n, got=len(patches))
    _, pu, _ = forward(net, np.stack([_as_patches(p)[0] for p in patches]), "eval")
    votes = pu.argmax(axis=1)
    counts = np.bincount(votes, minlength=net.n_users)
    winner = int(counts.argmax())
    return winner, counts[winner] / len(patches)


def voting_accuracy(p: float, voting: str) -> float:
    """Closed-form accuracy of k-of-n voting from per-step accuracy p."""
    if voting not in VOTING_SCHEMES:
        raise FootfallError("unknown voting scheme", voting=voting)
    if not 0.0 <= p <= 1.0:
        raise FootfallError("per-step accuracy must be a probability", p=p)
    k, n = VOTING_SCHEMES[voting]
    return float(sum(math.comb(n, j) * p ** j * (1.0 - p) ** (n - j)
                     for j in range(k, n + 1)))


def simulate_voting(p: float, voting: str, trials: int, rng=None) -> float:
    """Monte-Carlo estimate of the same k-of-n voting accuracy."""
    if voting not in VOTING_SCHEMES:
        raise FootfallError("unknown voting scheme", voting=voting)
    rng = rng if rng is not None else np.random.default_rng(0)
    k, n = VOTING_SCHEMES[voting]
    return float(np.mean(rng.binomial(n, p, size=trials) >= k))


def _architecture_hash(net: IdNet) -> str:
    shapes = [list(p.data.shape) for p in net.params()]
    blob = json.dumps({"n_users": net.n_users, "n_domains": net.n_domains,
                       "shapes": shapes}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def save_checkpoint(path, net: IdNet, centers: np.ndarray) -> None:
    """Versioned binary checkpoint with an architecture hash."""
    meta = {"version": _CHECKPOINT_VERSION, "n_users": net.n_users,
            "n_domains": net.n_domains, "arch_hash": _architecture_hash(net)}
    arrays = {f"param_{i:03d}": p.data for i, p in enumerate(net.params())}
    arrays.update(bn1_mean=net.bn1.running_mean, bn1_var=net.bn1.running_var,
                  bn2_mean=net.bn2.running_mean, bn2_var=net.bn2.running_var,
                  centers=np.asarray(centers, dtype=np.float64))
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path):
    """Rebuild (net, centers) from a checkpoint, refusing stale formats."""
    with np.load(path, allow_pickle=False) as blob:
        meta = json.loads(str(blob["__meta__"]))
        if meta.get("version") != _CHECKPOINT_VERSION:
            raise FootfallError("unsupported checkpoint version",
                                version=meta.get("version"))
        net = IdNet(meta["n_users"], meta["n_domains"])
        for i, p in enumerate(net.params()):
            stored = blob[f"param_{i:03d}"]
            if stored.shape != p.data.shape:
                raise FootfallError("checkpoint does not fit the architecture",
                                    param=i, stored=list(stored.shape),
                                    expected=list(p.data.shape))
            p.data = stored.astype(np.float64)
        net.bn1.running_mean = blob["bn1_mean"].astype(np.float64)
        net.bn1.running_var = blob["bn1_var"].astype(np.float64)
        net.bn2.running_mean = blob["bn2_mean"].astype(np.float64)
        net.bn2.running_var = blob["bn2_var"].astype(np.float64)
        centers = blob["centers"].astype(np.float64)
    if _architecture_hash(net) != meta["arch_hash"]:
        raise FootfallError("architecture hash mismatch")
    return net, centers
