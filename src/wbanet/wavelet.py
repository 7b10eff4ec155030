"""Single-level orthonormal Haar 2-D DWT and its exact inverse.

Filters: low-pass (1/sqrt2, 1/sqrt2), high-pass (1/sqrt2, -1/sqrt2), applied
along rows first and then along columns. Subband naming X_AB: A is the
row-direction (horizontal) filter, B is the column-direction (vertical)
filter. The transform is orthonormal, so it preserves energy and its adjoint
equals its inverse, which makes the autodiff backward passes trivial.

Arrays are laid out (..., H, W, C); the stacked form concatenates the four
subbands on the channel axis in the order LL, LH, HL, HH.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, _node

_S = np.sqrt(0.5)


def _check_even(shape):
    h, w = shape[-3], shape[-2]
    if h % 2 or w % 2:
        raise ShapeError(f"H and W must be even for the Haar DWT, got {shape}")


def dwt2_numpy(a: np.ndarray) -> np.ndarray:
    """(..., H, W, C) -> (..., H/2, W/2, 4C) stacked [LL, LH, HL, HH]."""
    _check_even(a.shape)
    lo = (a[..., :, 0::2, :] + a[..., :, 1::2, :]) * _S
    hi = (a[..., :, 0::2, :] - a[..., :, 1::2, :]) * _S
    ll = (lo[..., 0::2, :, :] + lo[..., 1::2, :, :]) * _S
    lh = (lo[..., 0::2, :, :] - lo[..., 1::2, :, :]) * _S
    hl = (hi[..., 0::2, :, :] + hi[..., 1::2, :, :]) * _S
    hh = (hi[..., 0::2, :, :] - hi[..., 1::2, :, :]) * _S
    return np.concatenate([ll, lh, hl, hh], axis=-1)


def idwt2_numpy(s: np.ndarray) -> np.ndarray:
    """(..., H/2, W/2, 4C) stacked -> (..., H, W, C); exact inverse of dwt2_numpy."""
    c4 = s.shape[-1]
    if c4 % 4:
        raise ShapeError(f"stacked subbands need 4k channels, got {s.shape}")
    c = c4 // 4
    ll, lh, hl, hh = (s[..., i * c:(i + 1) * c] for i in range(4))
    h2, w2 = ll.shape[-3], ll.shape[-2]
    lead = ll.shape[:-3]
    lo = np.empty(lead + (2 * h2, w2, c))
    hi = np.empty(lead + (2 * h2, w2, c))
    lo[..., 0::2, :, :] = (ll + lh) * _S
    lo[..., 1::2, :, :] = (ll - lh) * _S
    hi[..., 0::2, :, :] = (hl + hh) * _S
    hi[..., 1::2, :, :] = (hl - hh) * _S
    out = np.empty(lead + (2 * h2, 2 * w2, c))
    out[..., :, 0::2, :] = (lo + hi) * _S
    out[..., :, 1::2, :] = (lo - hi) * _S
    return out


def dwt2_stack(x: Tensor) -> Tensor:
    """Differentiable stacked DWT; adjoint (= inverse) gives the backward pass."""
    return _node(dwt2_numpy(x.data), (x,), lambda g: (idwt2_numpy(g),))


def idwt2_stack(s: Tensor) -> Tensor:
    return _node(idwt2_numpy(s.data), (s,), lambda g: (dwt2_numpy(g),))


def energy(x) -> float:
    a = x.data if isinstance(x, Tensor) else np.asarray(x)
    return float((a * a).sum())
