"""Wavelet-based self-attention.

Queries come from the full-resolution feature map; Keys and Values come
from a channel-reduced copy pushed through the Haar DWT, so the KV token
count is a quarter of the query token count while the downsampling stays
invertible. The inverse transform of the same subbands is concatenated to
the attention heads before the output projection.

Each head's scores are stored key-major, ``(..., HW/4, HW) = K_i Q_i^T``,
and the softmax reduces over axis -2; the head is ``(V_i^T A_i)^T``. The
maths is softmax(Q_i K_i^T / sqrt(d)) V_i either way, but in the query-major
layout every max and sum reduces a short innermost axis of HW/4 keys, which
NumPy does several times slower than a reduction vectorised across the
contiguous query axis. Forming the head from ``V_i^T A_i`` keeps the
backward key-major too: the softmax's incoming gradient is then a fresh
contiguous ``(..., HW/4, HW)`` array, not a transposed view of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor
from .wavelet import dwt2_stack, idwt2_stack


@dataclass
class WsmParams:
    w_d: Tensor        # (C, C/4) channel reduction before the DWT
    w_q: Tensor        # (C, C) query projection, identity at init
    kv_conv: Tensor    # (C, 2C) fused 1x1 conv producing K and V
    w_o: Tensor        # (C + C/4, C) output projection over heads + reconstruction
    n_heads: int


def check_dims(c: int, n_heads: int):
    """Raise ConfigError unless embed dim c divides by 4 (for C/4) and by n_heads."""
    if c % 4:
        raise ConfigError(f"embed dim {c} must be divisible by 4")
    if c % n_heads:
        raise ConfigError(f"embed dim {c} must be divisible by n_heads={n_heads}")


def init_wsm_params(c: int, n_heads: int, rng: np.random.Generator) -> WsmParams:
    check_dims(c, n_heads)
    return WsmParams(
        w_d=T.weight((c, c // 4), rng),
        w_q=T.eye(c, requires_grad=True),
        kv_conv=T.weight((c, 2 * c), rng),
        w_o=T.weight((c + c // 4, c), rng),
        n_heads=n_heads,
    )


def wavelet_downsample(x: Tensor, w_d: Tensor) -> Tensor:
    """(..., H, W, C) -> (..., H/2, W/2, C): reduce channels to C/4, DWT, stack."""
    return dwt2_stack(T.linear(x, w_d))


def wave_attention(x: Tensor, p: WsmParams, return_attn: bool = False):
    """Multi-head attention with wavelet-downsampled KV; shape-preserving.

    With ``return_attn`` it also returns each head's attention map query-major,
    ``(..., HW, HW/4)``, each row summing to 1 over the keys."""
    h, w, c = x.shape[-3], x.shape[-2], x.shape[-1]
    check_dims(c, p.n_heads)
    lead = x.shape[:-3]
    n_tok = h * w
    dh = c // p.n_heads

    x_hat = wavelet_downsample(x, p.w_d)                    # (..., H/2, W/2, C)
    q = T.linear(T.reshape(x, lead + (n_tok, c)), p.w_q)    # (..., HW, C)
    kv = T.linear(T.reshape(x_hat, lead + (n_tok // 4, c)), p.kv_conv)
    k = T.narrow(kv, -1, 0, c)
    v = T.narrow(kv, -1, c, c)
    x_r = idwt2_stack(x_hat)                                # (..., H, W, C/4)
    x_r_tok = T.reshape(x_r, lead + (n_tok, c // 4))

    heads = []
    attn_maps = []
    for i in range(p.n_heads):
        qi = T.narrow(q, -1, i * dh, dh)
        ki = T.narrow(k, -1, i * dh, dh)
        vi = T.narrow(v, -1, i * dh, dh)
        attn = T.softmax_rows(T.matmul(ki, T.transpose_last2(qi)), axis=-2,
                              scale=1.0 / math.sqrt(dh))    # (..., HW/4, HW)
        if return_attn:
            attn_maps.append(np.swapaxes(attn.data, -1, -2).copy())
        heads.append(T.transpose_last2(T.matmul(T.transpose_last2(vi), attn)))

    fused = T.concat(heads + [x_r_tok], axis=-1)            # (..., HW, C + C/4)
    out = T.reshape(T.linear(fused, p.w_o), lead + (h, w, c))
    if return_attn:
        return out, attn_maps
    return out
