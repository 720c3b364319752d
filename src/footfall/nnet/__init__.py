"""From-scratch reverse-mode gradient engine for the small fixed networks."""

from .autodiff import (
    Tensor,
    add,
    backward,
    collect_grads,
    dropout,
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
    zero_grads,
)
from .layers import BatchNorm, Conv2d, Dense, Dropout
from .losses import center_loss, cross_entropy, update_centers
from .optim import MomentumSgd
