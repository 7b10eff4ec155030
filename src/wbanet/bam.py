"""Bi-dimensional aggregation: a global channel branch and a local spatial
branch fused by broadcast addition into a multiplicative gate on the input."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor


@dataclass
class BamParams:
    fc_c1: Tensor   # (C, C/r) channel branch squeeze
    fc_c2: Tensor   # (C/r, C) channel branch excite
    fc_s1: Tensor   # (C, C/r) spatial branch reduction
    fc_s2: Tensor   # (2C/r, 1) spatial branch head


def init_bam_params(c: int, rng: np.random.Generator) -> BamParams:
    r = 2  # the paper's channel reduction ratio, shared by both branches
    if c % r:
        raise ConfigError(f"embed dim {c} must be divisible by r={r}")
    return BamParams(
        fc_c1=T.weight((c, c // r), rng),
        fc_c2=T.weight((c // r, c), rng),
        fc_s1=T.weight((c, c // r), rng),
        fc_s2=T.weight((2 * c // r, 1), rng),
    )


def channel_aggregate(x: Tensor, p: BamParams) -> tuple[Tensor, Tensor]:
    """Global branch: pooled squeeze-excite. Returns (x_c, x_hat)."""
    pooled = T.global_avg_pool(x)                       # (..., 1, 1, C)
    x_hat = T.gelu(T.linear(pooled, p.fc_c1))           # (..., 1, 1, C/r)
    x_c = T.sigmoid(T.linear(x_hat, p.fc_c2))           # (..., 1, 1, C)
    return x_c, x_hat


def spatial_aggregate(x: Tensor, x_hat: Tensor, p: BamParams) -> Tensor:
    """Local branch: per-pixel reduction concatenated with the broadcast
    global squeeze, mapped to a single sigmoid channel."""
    if x_hat.shape[-1] != p.fc_s1.shape[1]:
        raise ShapeError(f"x_hat channels {x_hat.shape[-1]} != C/r "
                         f"{p.fc_s1.shape[1]}")
    x_tilde = T.gelu(T.linear(x, p.fc_s1))              # (..., H, W, C/r)
    x_hat_full = T.expand(x_hat, x_tilde.shape)
    joined = T.concat([x_tilde, x_hat_full], axis=-1)   # (..., H, W, 2C/r)
    return T.sigmoid(T.linear(joined, p.fc_s2))         # (..., H, W, 1)


def bam_forward(x: Tensor, p: BamParams) -> Tensor:
    """Gate the input by the broadcast sum of both branches; entries in (0, 2)."""
    x_c, x_hat = channel_aggregate(x, p)
    x_s = spatial_aggregate(x, x_hat, p)
    gate = T.add(x_c, x_s)                              # broadcast to (..., H, W, C)
    return T.mul(x, gate)
