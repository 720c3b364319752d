"""Trainable layers assembled from the autodiff primitives.

Each layer owns its parameter Tensors and exposes params() so optimizers
and checkpoints can walk the whole network as a flat list. Batch-norm is
the only stateful one: running statistics live outside the graph and are
refreshed as a side effect of train-mode forwards.
"""

from __future__ import annotations

import numpy as np

from ..errors import FootfallError
from .autodiff import (
    Tensor,
    add,
    dropout,
    im2col,
    matmul,
    mul,
    parameter,
    power,
    reshape,
    tmean,
    transpose,
)

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class Dense:
    """Affine map (n_in -> n_out), weights drawn at 1/sqrt(n_in) scale."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.w = parameter(rng.normal(0.0, np.sqrt(1.0 / n_in), size=(n_in, n_out)))
        self.b = parameter(np.zeros(n_out))

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[1] != self.w.data.shape[0]:
            raise FootfallError("dense input shape mismatch",
                                got=list(x.data.shape),
                                expected=self.w.data.shape[0])
        return add(matmul(x, self.w), self.b)

    def params(self):
        return [self.w, self.b]


class Conv2d:
    """Valid convolution, stride 1, on (B, C, H, W) inputs."""

    def __init__(self, c_in: int, c_out: int, kh: int, kw: int, rng: np.random.Generator):
        fan_in = c_in * kh * kw
        self.w = parameter(rng.normal(0.0, np.sqrt(2.0 / fan_in),
                                      size=(c_out, c_in, kh, kw)))
        self.b = parameter(np.zeros(c_out))
        self.kh, self.kw = kh, kw

    def __call__(self, x: Tensor) -> Tensor:
        b, c, h, w = x.data.shape
        c_out = self.w.data.shape[0]
        if c != self.w.data.shape[1]:
            raise FootfallError("conv channel mismatch", got=c,
                                expected=self.w.data.shape[1])
        ph, pw = h - self.kh + 1, w - self.kw + 1
        cols = im2col(x, self.kh, self.kw)
        flat = reshape(cols, (b * ph * pw, c * self.kh * self.kw))
        bank = transpose(reshape(self.w, (c_out, c * self.kh * self.kw)), (1, 0))
        out = add(matmul(flat, bank), self.b)
        return transpose(reshape(out, (b, ph, pw, c_out)), (0, 3, 1, 2))

    def params(self):
        return [self.w, self.b]


class BatchNorm:
    """Per-channel normalization with affine scale and shift.

    Train mode normalizes with the batch statistics (biased variance) and
    nudges the running estimates; eval mode is a fixed affine map through
    the running statistics. Channels are axis 1 for feature maps and the
    last axis for flat (B, F) inputs.
    """

    def __init__(self, channels: int):
        self.gamma = parameter(np.ones(channels))
        self.beta = parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def _axes_and_shape(self, ndim: int):
        if ndim == 2:
            return (0,), (1, -1)
        return tuple(i for i in range(ndim) if i != 1), (1, -1) + (1,) * (ndim - 2)

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        axes, bshape = self._axes_and_shape(x.data.ndim)
        gamma = reshape(self.gamma, bshape)
        beta = reshape(self.beta, bshape)
        if train:
            mu = tmean(x, axis=axes, keepdims=True)
            centered = add(x, mul(mu, -1.0))
            var = tmean(mul(centered, centered), axis=axes, keepdims=True)
            self.running_mean += BN_MOMENTUM * (mu.data.reshape(-1) - self.running_mean)
            self.running_var += BN_MOMENTUM * (var.data.reshape(-1) - self.running_var)
            inv = power(add(var, BN_EPS), -0.5)
            return add(mul(mul(centered, inv), gamma), beta)
        mu = Tensor(self.running_mean.reshape(bshape))
        inv = Tensor(1.0 / np.sqrt(self.running_var.reshape(bshape) + BN_EPS))
        return add(mul(mul(add(x, mul(mu, -1.0)), inv), gamma), beta)

    def params(self):
        return [self.gamma, self.beta]


class Dropout:
    def __init__(self, p: float):
        self.p = float(p)

    def __call__(self, x: Tensor, train: bool, rng: np.random.Generator) -> Tensor:
        return dropout(x, self.p, rng, train)

    def params(self):
        return []
