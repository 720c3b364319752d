"""Identification network with domain-adversarial training.

Architecture, on a 32x16 magnitude patch of one footstep:

    conv 5x3 (32) -> batch-norm -> ReLU -> conv 3x2 (64) -> batch-norm -> ReLU
    -> dropout (train only) -> dense to the 16-dim feature f
    identity head: latent = sigmoid(dense(f)); identity logits = dense(latent)
    domain head:   domain logits = dense(sigmoid(dense(f * latent)))

The trunk is channel-last: each activation is a 2-D array with one row per
(patch, row, col) and one column per channel. A convolution is one GEMM on
the unfolded rows and needs no transpose, batch-norm statistics are column
sums, and the flatten before the dense layer is a reshape, so `project_w`'s
rows run over (row, col, channel). Checkpoint version 3 has that order and
refuses older files.

The net trains and runs in float32: its parameters, running statistics,
momentum and class centers are float32 (the initial weights are drawn in
float64 and rounded), training casts the patches once and `forward` casts
them after checking. The helpers compute in their inputs' dtype, so float64
patches through `_forward` give a float64 reference pass of the same net.

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
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .errors import FootfallError
from .types import _as_float_array, _as_positive, _as_whole, _check_instance

PATCH_SHAPE = (32, 16)
FEATURE_DIM = 16
DROP_RATE = 0.65
CENTER_ALPHA = 0.5
CENTER_WEIGHT = 0.1  # lam, the center-loss weight in L_eta = L_u + lam * L_c / batch
_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1
_PROB_CLAMP = 1e-12

VOTING_SCHEMES = {"single": (1, 1), "2-of-3": (2, 3), "3-of-5": (3, 5)}

_CHECKPOINT_VERSION = 3
_EVAL_BATCH = 256  # patches per forward pass in evaluate_accuracy


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-z) = inf gives exactly 0
        return 1.0 / (1.0 + np.exp(-z))


def _as_patches(x) -> np.ndarray:
    """One 32x16 magnitude patch or a stack of them, as an (n, 32, 16) stack."""
    x = _as_float_array(x, "patches", None, nonnegative=True)
    if x.ndim == 2:
        x = x[None]
    if x.shape[1:] != PATCH_SHAPE:
        raise FootfallError("patches must be 32x16", argument="patches", shape=list(x.shape))
    if not x.shape[0]:
        raise FootfallError("patches must hold at least one patch", argument="patches",
                            shape=list(x.shape))
    return x


def _voting_scheme(voting) -> tuple[int, int]:
    """(k, n) of the k-of-n scheme VOTING_SCHEMES names voting."""
    if not (isinstance(voting, str) and voting in VOTING_SCHEMES):
        raise FootfallError("unknown voting scheme", voting=repr(voting),
                            known=sorted(VOTING_SCHEMES))
    return VOTING_SCHEMES[voting]


class IdNet:
    """Feature extractor, identity predictor, and domain discriminator.

    `p` holds the trainable float32 arrays in checkpoint order and
    `running` the float32 batch-norm running statistics.
    """

    def __init__(self, n_users: int, n_domains: int, seed: int = 0):
        self.n_users = _as_whole(n_users, "n_users")
        if self.n_users < 2:
            raise FootfallError("need at least two users", n_users=n_users)
        self.n_domains = _as_whole(n_domains, "n_domains")
        rng = np.random.default_rng(_as_whole(seed, "seed", zero_ok=True))
        # He-scaled filters, 1/sqrt(n_in) dense weights, drawn in this order
        conv1 = rng.normal(0.0, np.sqrt(2.0 / 15), size=(32, 1, 5, 3))
        conv2 = rng.normal(0.0, np.sqrt(2.0 / 192), size=(64, 32, 3, 2))
        dense = [(name, rng.normal(0.0, np.sqrt(1.0 / n_in), size=(n_in, n_out)))
                 for name, n_in, n_out in (("project", 64 * 26 * 13, FEATURE_DIM),
                                           ("id_hidden", FEATURE_DIM, 16),
                                           ("id_out", 16, self.n_users),
                                           ("dom_hidden", FEATURE_DIM, 16),
                                           ("dom_out", 16, self.n_domains))]
        p = {"conv1_w": conv1, "bn1_g": np.ones(32), "bn1_b": np.zeros(32),
             "conv2_w": conv2, "bn2_g": np.ones(64), "bn2_b": np.zeros(64)}
        for name, w in dense:
            p[f"{name}_w"] = w
            p[f"{name}_b"] = np.zeros(w.shape[1])
        self.p = {name: a.astype(np.float32) for name, a in p.items()}
        self.running = {"bn1_mean": np.zeros(32, np.float32),
                        "bn1_var": np.ones(32, np.float32),
                        "bn2_mean": np.zeros(64, np.float32),
                        "bn2_var": np.ones(64, np.float32)}

    def params(self):
        return list(self.p.values())


def _unfold(x, kh, kw):
    """Every valid kh x kw window of channel-last (B, H, W, C) x as one row,
    in (kh, kw, c) order: `_unfold(x) @ _taps(w)` is the convolution."""
    view = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    return view.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * x.shape[3])


def _taps(w):
    """A (C_out, C, kh, kw) filter bank as a (kh * kw * C, C_out) matrix. No
    bias: each convolution feeds _batchnorm, whose mean would cancel one."""
    return w.transpose(2, 3, 1, 0).reshape(-1, w.shape[0])


def _taps_grad(g, cols, shape):
    """The (C_out, C, kh, kw) weight gradient of `cols @ _taps(w)`."""
    c_out, c, kh, kw = shape
    return (cols.T @ g).reshape(kh, kw, c, c_out).transpose(3, 2, 0, 1)


def _fold(g_cols, shape, kh, kw):
    """Scatter unfolded-row gradients back onto the (B, H, W, C) input."""
    ph, pw = shape[1] - kh + 1, shape[2] - kw + 1
    g6 = g_cols.reshape(shape[0], ph, pw, kh, kw, shape[3])
    gx = np.zeros(shape, g_cols.dtype)
    for i in range(kh):
        for j in range(kw):
            gx[:, i:i + ph, j:j + pw] += g6[:, :, :, i, j]
    return gx


def _batchnorm(x, gamma, beta, mean, var, train):
    """Per-channel normalization of x read as rows of one value per channel.

    Train mode uses the batch statistics (biased variance), nudges the
    running ones in place and returns (out, xhat, inv); eval mode is one
    scale and shift per channel and returns (out, None, None).
    """
    rows = x.reshape(-1, gamma.size)
    if not train:
        scale = gamma / np.sqrt(var + _BN_EPS)
        return (rows * scale + (beta - mean * scale)).reshape(x.shape), None, None
    mu = rows.mean(axis=0)
    xhat = rows - mu
    batch_var = np.einsum("ij,ij->j", xhat, xhat) / rows.shape[0]
    mean += _BN_MOMENTUM * (mu - mean)
    var += _BN_MOMENTUM * (batch_var - var)
    inv = (batch_var + _BN_EPS) ** -0.5
    xhat *= inv
    return (xhat * gamma + beta).reshape(x.shape), xhat, inv


def _batchnorm_backward(g, xhat, inv, gamma):
    """(d gamma, d beta, dx) of train-mode _batchnorm for the (rows, C)
    output gradient g: dx = gamma inv (g - sum g / n - xhat sum(g xhat) / n)."""
    n = g.shape[0]
    dgamma = np.einsum("ij,ij->j", g, xhat)
    dbeta = g.sum(axis=0)
    dx = xhat * (-dgamma / n)
    dx += g
    dx -= dbeta / n
    dx *= gamma * inv
    return dgamma, dbeta, dx


def _dense_backward(g, x, w):
    """(dw, db, dx) of x @ w + b for the output gradient g."""
    return x.T @ g, g.sum(axis=0), g @ w.T


def _forward(net: IdNet, x: np.ndarray, train: bool, rng=None):
    """(f, identity logits, domain logits, cache) for (B, 32, 16) patches.

    ReLU and dropout share one gate. Train mode normalizes with batch
    statistics, updates the running ones, drops trunk units with a mask
    drawn from rng and caches what _train_step needs; eval returns no cache.
    """
    p, r, n = net.p, net.running, x.shape[0]
    h, cache = x[..., None], {}
    for k in (1, 2):
        w = p[f"conv{k}_w"]
        kh, kw = w.shape[2:]
        cols = _unfold(h, kh, kw)
        b, xhat, inv = _batchnorm(cols @ _taps(w), p[f"bn{k}_g"], p[f"bn{k}_b"],
                                  r[f"bn{k}_mean"], r[f"bn{k}_var"], train)
        gate = b > 0  # b * gate, not np.maximum: -inf turns into NaN, so divergence shows
        if train and k == 2:  # in b's dtype: numpy 1.x casts bool * float32 scalar to float16
            gate = (gate & (rng.random(b.shape) >= DROP_RATE)).astype(b.dtype)
            gate *= 1.0 / (1.0 - DROP_RATE)
        if train:
            cache.update({f"in{k}": h.shape, f"cols{k}": cols, f"xhat{k}": xhat,
                          f"inv{k}": inv, f"gate{k}": gate})
        b *= gate
        h = b.reshape(n, h.shape[1] - kh + 1, h.shape[2] - kw + 1, w.shape[0])
    h2 = h.reshape(n, -1)
    f = h2 @ p["project_w"] + p["project_b"]
    latent = _sigmoid(f @ p["id_hidden_w"] + p["id_hidden_b"])
    id_logits = latent @ p["id_out_w"] + p["id_out_b"]
    gated = f * latent
    dom_hidden = _sigmoid(gated @ p["dom_hidden_w"] + p["dom_hidden_b"])
    dom_logits = dom_hidden @ p["dom_out_w"] + p["dom_out_b"]
    if train:
        cache.update(h2=h2, latent=latent, gated=gated, dom_hidden=dom_hidden)
    return f, id_logits, dom_logits, cache if train else None


def forward(net: IdNet, patches):
    """Features plus identity and domain distributions for the given patches.

    An eval-mode pass: running batch-norm statistics, no dropout, pure and
    deterministic. Returns (f, identity probs, domain probs) as float32
    arrays.
    """
    _check_instance(net, IdNet, "net")
    f, id_logits, dom_logits, _ = _forward(net, _as_patches(patches).astype(np.float32), False)
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
        # a Python count: an np.int64 would lift float32 features to float64
        delta = np.sum(centers[j] - features[mask], axis=0) / (1 + int(mask.sum()))
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
        grads["id_hidden_w"], grads["id_hidden_b"], g_f = _dense_backward(g, f, p["id_hidden_w"])
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
        grads["project_w"], grads["project_b"], g = _dense_backward(g_f, c["h2"], p["project_w"])
        for k in (2, 1):
            w = p[f"conv{k}_w"]
            g = g.reshape(c[f"gate{k}"].shape)
            g *= c[f"gate{k}"]
            grads[f"bn{k}_g"], grads[f"bn{k}_b"], g = _batchnorm_backward(
                g, c[f"xhat{k}"], c[f"inv{k}"], p[f"bn{k}_g"])
            grads[f"conv{k}_w"] = _taps_grad(g, c[f"cols{k}"], w.shape)
            if k == 2:  # conv1's input gradient is never needed
                g = _fold(g @ _taps(w).T, c["in2"], *w.shape[2:])
    return (l_u, l_c, l_d), grads, f


def _as_labels(labels, name: str, n: int) -> np.ndarray:
    """labels as int64, when they are one whole number >= 0 for each of n
    patches; otherwise a FootfallError that calls them name."""
    labels = _as_float_array(labels, name, (n,), nonnegative=True)
    if np.any(labels % 1):
        raise FootfallError(f"{name} must be whole numbers", argument=name)
    return labels.astype(np.int64)


@dataclass
class TrainSet:
    """Patches with user and domain labels, both 0-based and dense."""

    x: np.ndarray
    users: np.ndarray
    domains: np.ndarray

    def __post_init__(self):
        self.x = _as_patches(self.x)
        n = self.x.shape[0]
        for name in ("users", "domains"):
            setattr(self, name, _as_labels(getattr(self, name), name, n))
        if np.unique(self.users).size < 2:
            raise FootfallError("dataset must cover at least two users")

    @property
    def n_users(self) -> int:
        return int(self.users.max()) + 1

    @property
    def n_domains(self) -> int:
        return int(self.domains.max()) + 1


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    lam_grl: float = 1.0      # reversal strength after warm-up
    lr: float = 0.01
    batch: int = 32
    seed: int = 0
    val_fraction: float = 0.15

    def __post_init__(self):  # frozen: the whole numbers are stored as ints
        for name in ("epochs", "batch", "seed"):
            value = _as_whole(getattr(self, name), name, zero_ok=name == "seed")
            object.__setattr__(self, name, value)
        _as_positive(self.lr, "lr")
        _as_positive(self.lam_grl, "lam_grl", zero_ok=True)
        if not _as_positive(self.val_fraction, "val_fraction", zero_ok=True) < 1.0:
            raise FootfallError("val_fraction must be in [0, 1)",
                                val_fraction=self.val_fraction)


@dataclass
class TrainResult:
    net: IdNet
    centers: np.ndarray
    log: list = field(default_factory=list)


def evaluate_accuracy(net: IdNet, patches, labels) -> float:
    """Share of patches whose most likely user is their label, one whole
    number >= 0 per patch."""
    x = _as_patches(patches)
    labels = _as_labels(labels, "labels", x.shape[0])
    hits = 0
    for lo in range(0, x.shape[0], _EVAL_BATCH):
        _, pu, _ = forward(net, x[lo:lo + _EVAL_BATCH])
        hits += int(np.sum(pu.argmax(axis=1) == labels[lo:lo + _EVAL_BATCH]))
    return hits / max(1, labels.size)


def train_adversarial(dataset: TrainSet, config: TrainConfig = TrainConfig()) -> TrainResult:
    """Adversarial training with momentum SGD (v <- 0.9 v + g; p <- p - lr v).

    The center term of L_eta is normalized per sample, keeping lam
    independent of batch size and the projection-layer curvature
    (lam * |h|^2 / m) inside the step-size stability region; the batch-sum
    form diverges at this learning rate. On a single-domain dataset the
    domain loss and its gradients are exactly 0, so training reduces to
    L_eta. Deterministic for a given seed. The log reports the per-sample
    center loss. A loss or a running batch-norm statistic that is no longer
    finite stops training with FootfallError.
    """
    _check_instance(dataset, TrainSet, "dataset")
    _check_instance(config, TrainConfig, "config")
    rng = np.random.default_rng(config.seed)
    net = IdNet(dataset.n_users, dataset.n_domains, seed=config.seed)
    centers = np.zeros((dataset.n_users, FEATURE_DIM), np.float32)
    x = dataset.x.astype(np.float32)

    order = rng.permutation(dataset.x.shape[0])
    n_val = int(round(config.val_fraction * order.size))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        raise FootfallError("no training samples left after validation split")

    velocity = {name: np.zeros_like(a) for name, a in net.p.items()}
    log = []
    for epoch in range(config.epochs):
        # the reversal ramps 0 -> 1 linearly over the first 30% of epochs
        lam_grl = config.lam_grl * min(1.0, epoch / max(1.0, 0.3 * config.epochs))
        perm = train_idx[rng.permutation(train_idx.size)]
        sums = np.zeros(3)
        starts = range(0, perm.size, config.batch)
        for lo in starts:
            idx = perm[lo:lo + config.batch]
            losses, grads, f = _train_step(net, x[idx], dataset.users[idx],
                                           dataset.domains[idx], centers, CENTER_WEIGHT,
                                           lam_grl, rng)
            if not (np.all(np.isfinite(losses))
                    and all(np.isfinite(s).all() for s in net.running.values())):
                raise FootfallError("training diverged", epoch=epoch)
            for name, g in grads.items():
                v = velocity[name]
                v *= 0.9
                v += g
                net.p[name] -= config.lr * v
            centers = _update_centers(centers, f, dataset.users[idx])
            sums += (losses[0], losses[1] / idx.size, losses[2])
        held = val_idx if n_val else train_idx
        val = evaluate_accuracy(net, x[held], dataset.users[held])
        l_u, l_c, l_d = sums / len(starts)
        log.append({"epoch": epoch, "loss_identity": float(l_u), "loss_center": float(l_c),
                    "loss_domain": float(l_d), "val_accuracy": float(val)})
    return TrainResult(net=net, centers=centers, log=log)


def identify(net: IdNet, patches, voting: str = "single"):
    """Vote the per-step predictions into one user id.

    Each of patches is one 32x16 patch, one per step. Returns (user id,
    confidence) where confidence is the winning vote share. Ties go to the
    lowest user id.
    """
    _, n = _voting_scheme(voting)
    patches = list(patches)
    if not patches:
        raise FootfallError("no footsteps to identify")
    if len(patches) != n:
        raise FootfallError("voting scheme needs a different step count",
                            voting=voting, expected=n, got=len(patches))
    _, pu, _ = forward(net, np.stack(
        [_as_float_array(p, "patches", PATCH_SHAPE, nonnegative=True) for p in patches]))
    counts = np.bincount(pu.argmax(axis=1), minlength=net.n_users)
    winner = int(counts.argmax())
    return winner, counts[winner] / len(patches)


def voting_accuracy(p: float, voting: str) -> float:
    """Closed-form accuracy of k-of-n voting from per-step accuracy p."""
    k, n = _voting_scheme(voting)
    if not _as_positive(p, "p", zero_ok=True) <= 1.0:
        raise FootfallError("per-step accuracy must be a probability", p=p)
    return float(sum(math.comb(n, j) * p ** j * (1.0 - p) ** (n - j)
                     for j in range(k, n + 1)))


def _architecture_hash(net: IdNet) -> str:
    shapes = [list(a.shape) for a in net.params()]
    blob = json.dumps({"n_users": net.n_users, "n_domains": net.n_domains,
                       "shapes": shapes}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def save_checkpoint(path, net: IdNet, centers: np.ndarray) -> None:
    """Versioned binary checkpoint with an architecture hash."""
    _check_instance(net, IdNet, "net")
    meta = {"version": _CHECKPOINT_VERSION, "n_users": net.n_users,
            "n_domains": net.n_domains, "arch_hash": _architecture_hash(net)}
    arrays = {f"param_{i:03d}": a for i, a in enumerate(net.params())}
    arrays.update(net.running, centers=_as_float_array(
        centers, "centers", (net.n_users, FEATURE_DIM)).astype(np.float32))
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path):
    """Rebuild (net, centers) from a checkpoint, refusing stale or foreign files.

    Everything loads as float32, so a save and load round trip is bitwise; a
    version-3 file written with float64 arrays is rounded on load.
    """
    try:
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
                net.p[name] = stored.astype(np.float32)
            for name in net.running:
                net.running[name] = blob[name].astype(np.float32)
            centers = blob["centers"].astype(np.float32)
        if _architecture_hash(net) != meta["arch_hash"]:
            raise FootfallError("architecture hash mismatch")
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as err:
        raise FootfallError("not a footfall checkpoint", path=str(path),
                            reason=str(err)) from None
    return net, centers
