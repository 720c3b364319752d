"""Identification network with domain-adversarial training.

Architecture, on a 32x16 magnitude patch of one footstep:

    conv 5x3 (32) -> batch-norm -> ReLU -> conv 3x2 (64) -> batch-norm -> ReLU
    -> dropout (train only) -> dense to the 16-dim feature f
    identity head: latent = sigmoid(dense(f)); identity logits = dense(latent)
    domain head:   domain logits = dense(sigmoid(dense(f * latent)))

Gradient split (Ganin & Lempitsky 2015): the identity head descends
L_eta = L_u + lam * L_c / batch (cross-entropy plus the center loss), the
domain head descends the domain cross-entropy L_delta, and the feature
extractor descends L_eta - lam_grl * L_delta, so it is pulled toward
identity evidence and away from domain evidence. f reaches L_delta both
through the gate f * latent and through latent itself. Class centers move
only through _update_centers, and they tighten features within each user.

Inference is pure: eval-mode forwards use running batch-norm statistics and
no dropout, draw no random numbers, and repeated calls agree bitwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FootfallError

PATCH_SHAPE = (32, 16)
FEATURE_DIM = 16
DROP_RATE = 0.65
CENTER_ALPHA = 0.5
_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1
_PROB_CLAMP = 1e-12

VOTING_SCHEMES = {"single": (1, 1), "2-of-3": (2, 3), "3-of-5": (3, 5)}

_CHECKPOINT_VERSION = 2


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-z) = inf gives exactly 0
        return 1.0 / (1.0 + np.exp(-z))


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
    """Feature extractor, identity predictor, and domain discriminator.

    `p` holds the trainable float64 arrays in checkpoint order and
    `running` the batch-norm running statistics.
    """

    def __init__(self, n_users: int, n_domains: int, seed: int = 0):
        if n_users < 2:
            raise FootfallError("need at least two users", n_users=n_users)
        if n_domains < 1:
            raise FootfallError("need at least one domain", n_domains=n_domains)
        rng = np.random.default_rng(seed)
        self.n_users = int(n_users)
        self.n_domains = int(n_domains)
        # He-scaled filters, 1/sqrt(n_in) dense weights, drawn in this order
        conv1 = rng.normal(0.0, np.sqrt(2.0 / 15), size=(32, 1, 5, 3))
        conv2 = rng.normal(0.0, np.sqrt(2.0 / 192), size=(64, 32, 3, 2))
        dense = [(name, rng.normal(0.0, np.sqrt(1.0 / n_in), size=(n_in, n_out)))
                 for name, n_in, n_out in (("project", 64 * 26 * 13, FEATURE_DIM),
                                           ("id_hidden", FEATURE_DIM, 16),
                                           ("id_out", 16, self.n_users),
                                           ("dom_hidden", FEATURE_DIM, 16),
                                           ("dom_out", 16, self.n_domains))]
        self.p = {"conv1_w": conv1, "bn1_g": np.ones(32), "bn1_b": np.zeros(32),
                  "conv2_w": conv2, "bn2_g": np.ones(64), "bn2_b": np.zeros(64)}
        for name, w in dense:
            self.p[f"{name}_w"] = w
            self.p[f"{name}_b"] = np.zeros(w.shape[1])
        self.running = {"bn1_mean": np.zeros(32), "bn1_var": np.ones(32),
                        "bn2_mean": np.zeros(64), "bn2_var": np.ones(64)}

    def params(self):
        return list(self.p.values())


def _conv(x, w):
    """Valid stride-1 convolution of (B, C, H, W); also returns the unfolded rows.

    It has no bias: each convolution feeds _batchnorm, whose mean subtraction
    would cancel one, and whose beta is the shift.
    """
    n, c, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    ph, pw = h - kh + 1, wd - kw + 1
    view = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(n * ph * pw, c * kh * kw)
    out = cols @ w.reshape(c_out, -1).T
    return out.reshape(n, ph, pw, c_out).transpose(0, 3, 1, 2), cols


def _conv_backward(g, cols, w):
    """(dw, d cols) of _conv for the output gradient g."""
    c_out = w.shape[0]
    g = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
    return (cols.T @ g).T.reshape(w.shape), g @ w.reshape(c_out, -1)


def _fold(g_cols, shape, kh, kw):
    """Scatter unfolded-row gradients back onto the (B, C, H, W) input."""
    n, c, h, w = shape
    ph, pw = h - kh + 1, w - kw + 1
    g6 = g_cols.reshape(n, ph, pw, c, kh, kw)
    gx = np.zeros(shape)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i:i + ph, j:j + pw] += g6[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return gx


def _batchnorm(x, gamma, beta, mean, var, train):
    """Per-channel normalization; train mode uses the batch statistics
    (biased variance) and nudges the running ones in place."""
    shape = (1, -1, 1, 1)
    if train:
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        centered = x - mu
        batch_var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
        mean += _BN_MOMENTUM * (mu.reshape(-1) - mean)
        var += _BN_MOMENTUM * (batch_var.reshape(-1) - var)
        inv = (batch_var + _BN_EPS) ** -0.5
    else:
        centered = x - mean.reshape(shape)
        inv = 1.0 / np.sqrt(var.reshape(shape) + _BN_EPS)
    xhat = centered * inv
    return xhat * gamma.reshape(shape) + beta.reshape(shape), xhat, inv


def _batchnorm_backward(g, xhat, inv, gamma):
    """(d gamma, d beta, dx) of train-mode _batchnorm for the output gradient g."""
    axes = (0, 2, 3)
    gx = g * gamma.reshape(1, -1, 1, 1)
    dx = inv * (gx - gx.mean(axis=axes, keepdims=True)
                - xhat * (gx * xhat).mean(axis=axes, keepdims=True))
    return (g * xhat).sum(axis=axes), g.sum(axis=axes), dx


def _dense_backward(g, x, w):
    """(dw, db, dx) of x @ w + b for the output gradient g."""
    return x.T @ g, g.sum(axis=0), g @ w.T


def _forward(net: IdNet, x: np.ndarray, train: bool, rng=None):
    """(f, identity logits, domain logits, cache) for (B, 32, 16) patches.

    Train mode normalizes with batch statistics, updates the running ones
    and drops trunk units with a mask drawn from rng. The cache holds what
    _train_step needs for the backward pass.
    """
    p, r = net.p, net.running
    a1, cols1 = _conv(x[:, None], p["conv1_w"])
    b1, xhat1, inv1 = _batchnorm(a1, p["bn1_g"], p["bn1_b"],
                                 r["bn1_mean"], r["bn1_var"], train)
    h1 = b1 * (b1 > 0)
    a2, cols2 = _conv(h1, p["conv2_w"])
    b2, xhat2, inv2 = _batchnorm(a2, p["bn2_g"], p["bn2_b"],
                                 r["bn2_mean"], r["bn2_var"], train)
    h2 = (b2 * (b2 > 0)).reshape(x.shape[0], -1)
    mask = None
    if train:
        mask = (rng.random(h2.shape) >= DROP_RATE) / (1.0 - DROP_RATE)
        h2 = h2 * mask
    f = h2 @ p["project_w"] + p["project_b"]
    latent = _sigmoid(f @ p["id_hidden_w"] + p["id_hidden_b"])
    id_logits = latent @ p["id_out_w"] + p["id_out_b"]
    gated = f * latent
    dom_hidden = _sigmoid(gated @ p["dom_hidden_w"] + p["dom_hidden_b"])
    dom_logits = dom_hidden @ p["dom_out_w"] + p["dom_out_b"]
    cache = {"cols1": cols1, "xhat1": xhat1, "inv1": inv1, "b1": b1,
             "cols2": cols2, "xhat2": xhat2, "inv2": inv2, "b2": b2,
             "h2": h2, "mask": mask, "latent": latent, "gated": gated,
             "dom_hidden": dom_hidden}
    return f, id_logits, dom_logits, cache


def forward(net: IdNet, patches):
    """Features plus identity and domain distributions for the given patches.

    An eval-mode pass: running batch-norm statistics, no dropout, pure and
    deterministic. Returns (f, identity probs, domain probs) as arrays.
    """
    f, id_logits, dom_logits, _ = _forward(net, _as_patches(patches), False)
    return f, _softmax(id_logits), _softmax(dom_logits)


def _cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean -log softmax(logits)[label] and its gradient w.r.t. the logits.

    A true-class probability under the clamp keeps its loss finite but
    contributes no gradient (the row is treated as a constant).
    """
    z = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(z - np.log(np.exp(z).sum(axis=1, keepdims=True)))
    rows = np.arange(labels.size)
    p_true = probs[rows, labels]
    clamped = p_true < _PROB_CLAMP
    if clamped.any():
        warnings.warn("true-class probability clamped at 1e-12", stacklevel=2)
    loss = -np.mean(np.log(np.maximum(p_true, _PROB_CLAMP)))
    probs[rows, labels] -= 1.0
    probs[clamped] = 0.0
    return float(loss), (1.0 / labels.size) * probs


def _update_centers(centers: np.ndarray, features: np.ndarray, labels,
                   alpha: float = CENTER_ALPHA) -> np.ndarray:
    """Move each class center toward its batch mean feature.

    c_j <- c_j - alpha * sum_i 1(z_i=j)(c_j - f_i) / (1 + sum_i 1(z_i=j));
    with alpha = 1 and a single sample the center lands on the midpoint.
    Classes absent from the batch keep their centers.
    """
    out = centers.copy()
    for j in np.unique(labels):
        mask = labels == j
        delta = np.sum(centers[j] - features[mask], axis=0) / (1.0 + mask.sum())
        out[j] = centers[j] - alpha * delta
    return out


def _train_step(net: IdNet, x, users, domains, centers, lam: float,
                lam_grl: float, rng):
    """One train-mode forward and backward pass over a batch.

    Returns ((L_u, L_c, L_delta), gradients keyed like net.p, f). L_c is
    the batch sum 0.5 * |f - c|^2. With a single domain the domain softmax
    has one class, so L_delta and every domain-head gradient are exactly 0.
    """
    with np.errstate(all="ignore"):
        p, m = net.p, x.shape[0]
        f, id_logits, dom_logits, c = _forward(net, x, True, rng)
        latent = c["latent"]
        l_u, g = _cross_entropy(id_logits, users)
        diff = f - centers[users]
        l_c = 0.5 * float(np.sum(diff * diff))
        grads = {}
        grads["id_out_w"], grads["id_out_b"], g = _dense_backward(g, latent, p["id_out_w"])
        g = g * latent * (1.0 - latent)
        grads["id_hidden_w"], grads["id_hidden_b"], g_f = _dense_backward(
            g, f, p["id_hidden_w"])
        g_f = g_f + (lam / m) * diff
        l_d, g = _cross_entropy(dom_logits, domains)
        s = c["dom_hidden"]
        grads["dom_out_w"], grads["dom_out_b"], g = _dense_backward(g, s, p["dom_out_w"])
        g = g * s * (1.0 - s)
        grads["dom_hidden_w"], grads["dom_hidden_b"], g = _dense_backward(
            g, c["gated"], p["dom_hidden_w"])
        g_dom_f = g * latent + (g * f * latent * (1.0 - latent)) @ p["id_hidden_w"].T
        g_f = g_f - lam_grl * g_dom_f
        # one backward pass through the trunk
        grads["project_w"], grads["project_b"], g = _dense_backward(
            g_f, c["h2"], p["project_w"])
        b2 = c["b2"]
        g = (g * c["mask"]).reshape(b2.shape) * (b2 > 0)
        grads["bn2_g"], grads["bn2_b"], g = _batchnorm_backward(
            g, c["xhat2"], c["inv2"], p["bn2_g"])
        grads["conv2_w"], g = _conv_backward(g, c["cols2"], p["conv2_w"])
        b1 = c["b1"]
        g = _fold(g, b1.shape, *p["conv2_w"].shape[2:]) * (b1 > 0)
        grads["bn1_g"], grads["bn1_b"], g = _batchnorm_backward(
            g, c["xhat1"], c["inv1"], p["bn1_g"])
        grads["conv1_w"], _ = _conv_backward(g, c["cols1"], p["conv1_w"])
    return (l_u, l_c, l_d), grads, f


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
        if not self.lr > 0:
            raise FootfallError("learning rate must be positive", lr=self.lr)
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
        _, pu, _ = forward(net, x[lo:lo + batch])
        hits += int(np.sum(pu.argmax(axis=1) == labels[lo:lo + batch]))
    return hits / max(1, labels.size)


def _grl_ramp(epoch: int, epochs: int) -> float:
    # 0 -> 1 linearly over the first 30% of epochs, then flat
    warm = max(1.0, 0.3 * epochs)
    return min(1.0, epoch / warm)


def train_adversarial(dataset: TrainSet, config: TrainConfig = TrainConfig()) -> TrainResult:
    """Adversarial training with momentum SGD (v <- 0.9 v + g; p <- p - lr v).

    The center term of L_eta is normalized per sample, keeping lam
    independent of batch size and the projection-layer curvature
    (lam * |h|^2 / m) inside the step-size stability region; the batch-sum
    form diverges at this learning rate. On a single-domain dataset the
    domain loss and its gradients are exactly 0, so training reduces to
    L_eta. Deterministic for a given seed. The log reports the per-sample
    center loss.
    """
    rng = np.random.default_rng(config.seed)
    net = IdNet(dataset.n_users, dataset.n_domains, seed=config.seed)
    centers = np.zeros((dataset.n_users, FEATURE_DIM))

    order = rng.permutation(dataset.x.shape[0])
    n_val = int(round(config.val_fraction * order.size))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        raise FootfallError("no training samples left after validation split")

    velocity = {name: np.zeros_like(a) for name, a in net.p.items()}
    log = []
    for epoch in range(config.epochs):
        lam_grl = config.lam_grl * _grl_ramp(epoch, config.epochs)
        perm = train_idx[rng.permutation(train_idx.size)]
        sums = np.zeros(3)
        n_batches = 0
        for lo in range(0, perm.size, config.batch):
            idx = perm[lo:lo + config.batch]
            losses, grads, f = _train_step(net, dataset.x[idx], dataset.users[idx],
                                           dataset.domains[idx], centers, config.lam,
                                           lam_grl, rng)
            if not np.all(np.isfinite(losses)):
                raise FootfallError("training diverged", epoch=epoch)
            for name, g in grads.items():
                v = velocity[name]
                v *= 0.9
                v += g
                net.p[name] -= config.lr * v
            centers = _update_centers(centers, f, dataset.users[idx])
            sums += (losses[0], losses[1] / idx.size, losses[2])
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
    _, pu, _ = forward(net, np.stack([_as_patches(p)[0] for p in patches]))
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
    shapes = [list(a.shape) for a in net.params()]
    blob = json.dumps({"n_users": net.n_users, "n_domains": net.n_domains,
                       "shapes": shapes}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def save_checkpoint(path, net: IdNet, centers: np.ndarray) -> None:
    """Versioned binary checkpoint with an architecture hash."""
    meta = {"version": _CHECKPOINT_VERSION, "n_users": net.n_users,
            "n_domains": net.n_domains, "arch_hash": _architecture_hash(net)}
    arrays = {f"param_{i:03d}": a for i, a in enumerate(net.params())}
    arrays.update(net.running, centers=np.asarray(centers, dtype=np.float64))
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path):
    """Rebuild (net, centers) from a checkpoint, refusing stale formats."""
    with np.load(path, allow_pickle=False) as blob:
        meta = json.loads(str(blob["__meta__"]))
        if meta.get("version") != _CHECKPOINT_VERSION:
            raise FootfallError("unsupported checkpoint version",
                                version=meta.get("version"))
        net = IdNet(meta["n_users"], meta["n_domains"])
        for i, (name, a) in enumerate(net.p.items()):
            stored = blob[f"param_{i:03d}"]
            if stored.shape != a.shape:
                raise FootfallError("checkpoint does not fit the architecture",
                                    param=i, stored=list(stored.shape),
                                    expected=list(a.shape))
            net.p[name] = stored.astype(np.float64)
        for name in net.running:
            net.running[name] = blob[name].astype(np.float64)
        centers = blob["centers"].astype(np.float64)
    if _architecture_hash(net) != meta["arch_hash"]:
        raise FootfallError("architecture hash mismatch")
    return net, centers
