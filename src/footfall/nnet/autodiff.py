"""Reverse-mode automatic differentiation on small numpy graphs.

Built for fixed CPU-sized networks: every value is float64, a graph lives
for one batch, and each op records a closure that maps the output gradient
to parent gradients. backward() walks the graph once in reverse topological
order, keeps intermediate gradients in a scratch dict, and accumulates into
.grad only at leaves, so two losses sharing one forward pass can be pulled
back independently (zero the leaf grads in between).
"""

from __future__ import annotations

import numpy as np

from ..errors import FootfallError


class Tensor:
    """Graph node: a float64 array, its gradient, and the backward recipe."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __add__(self, other):
        return add(self, other)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _sum_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Undo numpy broadcasting: reduce g back to the given shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def backward(g):
        return [(a, _sum_to(g, a.data.shape)), (b, _sum_to(g, b.data.shape))]

    return _node(a.data + b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def backward(g):
        return [(a, _sum_to(g * b.data, a.data.shape)),
                (b, _sum_to(g * a.data, b.data.shape))]

    return _node(a.data * b.data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def backward(g):
        return [(a, g @ b.data.T), (b, a.data.T @ g)]

    return _node(a.data @ b.data, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    a = _wrap(a)
    e = float(exponent)

    def backward(g):
        return [(a, g * e * a.data ** (e - 1.0))]

    return _node(a.data ** e, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    old = a.data.shape

    def backward(g):
        return [(a, g.reshape(old))]

    return _node(a.data.reshape(shape), (a,), backward)


def transpose(a, axes) -> Tensor:
    a = _wrap(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return [(a, g.transpose(inverse))]

    return _node(a.data.transpose(axes), (a,), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return [(a, np.broadcast_to(g, a.data.shape).copy())]

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[i] for i in np.atleast_1d(axis)])

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return [(a, np.broadcast_to(g, a.data.shape) / count)]

    return _node(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0

    def backward(g):
        return [(a, g * mask)]

    return _node(a.data * mask, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    s = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        return [(a, g * s * (1.0 - s))]

    return _node(s, (a,), backward)


def im2col(x, kh: int, kw: int) -> Tensor:
    """Unfold (B, C, H, W) into (B, positions, C*kh*kw) patch rows.

    Stride 1, no padding. A convolution is then one matmul against the
    filter bank reshaped to (C*kh*kw, F).
    """
    x = _wrap(x)
    b, c, h, w = x.data.shape
    ph, pw = h - kh + 1, w - kw + 1
    if ph < 1 or pw < 1:
        raise FootfallError("kernel larger than input", input=[h, w], kernel=[kh, kw])
    view = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(b, ph * pw, c * kh * kw)

    def backward(g):
        g6 = g.reshape(b, ph, pw, c, kh, kw)
        gx = np.zeros_like(x.data)
        for i in range(kh):
            for j in range(kw):
                gx[:, :, i:i + ph, j:j + pw] += g6[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        return [(x, gx)]

    return _node(cols.copy(), (x,), backward)


def dropout(a, p: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout; the mask drawn at the forward is what backward sees."""
    a = _wrap(a)
    if not 0.0 <= p < 1.0:
        raise FootfallError("drop probability must be in [0, 1)", p=p)
    if not train or p == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)
    return mul(a, Tensor(mask))


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d leaf into .grad for every reachable leaf."""
    if loss.data.size != 1:
        raise FootfallError("backward needs a scalar loss", shape=list(loss.data.shape))
    if not loss.requires_grad:
        return
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in node._backward(g):
            if not parent.requires_grad:
                continue
            pg = np.asarray(pg, dtype=np.float64)
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


def collect_grads(params) -> list:
    """Copy the current leaf gradients (zeros where a leaf got none)."""
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]


def finite_difference(fn, t: Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the scalar fn() w.r.t. tensor t.

    fn must rebuild the forward pass from t.data on every call (any
    randomness inside it has to be re-seeded identically).
    """
    grad = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(fn())
        flat[i] = orig - eps
        lo = float(fn())
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad
