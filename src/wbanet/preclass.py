"""Pre-classification: log-ratio difference image, hierarchical fuzzy
c-means three-way labeling, and balanced training-patch sampling."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import InputError, SamplingError

log = logging.getLogger(__name__)


class Label(IntEnum):
    UNCHANGED = 0
    CHANGED = 1
    INTERMEDIATE = 2


@dataclass
class LabelMap:
    labels: np.ndarray            # (H, W) int8 over Label values
    degenerate: bool = False      # constant difference image fallback

    def mask(self, label: Label) -> np.ndarray:
        return self.labels == int(label)


@dataclass
class PatchBatch:
    patches: np.ndarray           # (n, P, P, 2) co-registered image channels
    labels: np.ndarray            # (n,) binary
    coords: np.ndarray            # (n, 2) center pixel positions


@dataclass
class FcmResult:
    centers: np.ndarray           # (k,) sorted ascending
    memberships: np.ndarray       # (n, k) rows sum to 1
    objective: list[float] = field(default_factory=list)


def log_ratio(i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """DI = |ln(i2 + 1) - ln(i1 + 1)|, the +1 guards SAR zero returns."""
    i1 = np.asarray(i1, dtype=np.float64)
    i2 = np.asarray(i2, dtype=np.float64)
    if i1.shape != i2.shape:
        raise InputError(f"image extents differ: {i1.shape} vs {i2.shape}")
    if (i1 < 0).any() or (i2 < 0).any():
        raise InputError("intensities must be nonnegative")
    return np.abs(np.log1p(i2) - np.log1p(i1))


# FCM fuzzifier (Bezdek's m = 2), iteration cap and centre-shift tolerance
FCM_M = 2.0
FCM_MAX_ITER = 300
FCM_TOL = 1e-6


def fcm(values: np.ndarray, k: int) -> FcmResult:
    """Fuzzy c-means on 1-D data.

    Centers start at evenly spaced quantiles (deterministic); alternating
    updates keep the objective non-increasing until the center shift drops
    below ``FCM_TOL``.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    n = x.size
    if k < 2:
        raise InputError(f"need k >= 2 clusters, got {k}")
    if n <= k:
        raise InputError(f"need more samples ({n}) than clusters ({k})")

    centers = np.quantile(x, (np.arange(k) + 0.5) / k)
    expo = 1.0 / (FCM_M - 1.0)
    objective: list[float] = []
    u = np.empty((n, k))
    for _it in range(FCM_MAX_ITER):
        d2 = (x[:, None] - centers[None, :]) ** 2
        exact = d2 < 1e-300
        inv = (1.0 / np.maximum(d2, 1e-300)) ** expo
        u = inv / inv.sum(axis=1, keepdims=True)
        hit = exact.any(axis=1)
        if hit.any():
            u[hit] = exact[hit] / exact[hit].sum(axis=1, keepdims=True)
        um = u ** FCM_M
        objective.append(float((um * d2).sum()))
        new_centers = (um * x[:, None]).sum(axis=0) / um.sum(axis=0)
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        if shift < FCM_TOL:
            break
    order = np.argsort(centers)
    return FcmResult(centers[order], u[:, order], objective)


def hfcm_partition(di: np.ndarray, seed: int = 0) -> LabelMap:
    """Two-stage 5-then-3 fuzzy clustering into changed / unchanged /
    intermediate; label boundaries follow the ordered 1-D cluster intervals,
    so changed DI values always dominate unchanged ones.

    Deterministic: FCM centres start at quantiles and nothing is drawn, so
    ``seed`` does not affect the result."""
    di = np.asarray(di, dtype=np.float64)
    flat = di.ravel()
    labels = np.full(flat.size, int(Label.UNCHANGED), dtype=np.int8)
    if np.ptp(flat) == 0.0:
        return LabelMap(labels.reshape(di.shape), degenerate=True)

    stage1 = fcm(flat, k=5)
    assign1 = np.argmin(np.abs(flat[:, None] - stage1.centers[None, :]), axis=1)
    labels[assign1 == 4] = int(Label.CHANGED)
    labels[assign1 == 0] = int(Label.UNCHANGED)

    middle = (assign1 >= 1) & (assign1 <= 3)
    mid_vals = flat[middle]
    if mid_vals.size > 3 and np.ptp(mid_vals) > 0.0:
        stage2 = fcm(mid_vals, k=3)
        assign2 = np.argmin(np.abs(mid_vals[:, None] - stage2.centers[None, :]),
                            axis=1)
        sub = np.full(mid_vals.size, int(Label.INTERMEDIATE), dtype=np.int8)
        sub[assign2 == 0] = int(Label.UNCHANGED)
        sub[assign2 == 2] = int(Label.CHANGED)
        labels[middle] = sub
    else:
        labels[middle] = int(Label.INTERMEDIATE)
    return LabelMap(labels.reshape(di.shape))


def patch_windows(i1: np.ndarray, i2: np.ndarray, p: int) -> np.ndarray:
    """Read-only (H, W, P, P, 2) view over the reflect-padded image pair:
    ``[r, c]`` is the P x P patch with pixel (r, c) at (P/2, P/2). Indexing
    it with coordinate arrays gathers C-ordered (n, P, P, 2) float64 patches."""
    if p % 2:
        raise InputError(f"patch size must be even, got {p}")
    half = p // 2
    pair = np.stack([i1, i2], axis=-1).astype(np.float64, copy=False)
    padded = np.pad(pair, ((half, half), (half, half), (0, 0)), mode="reflect")
    return np.lib.stride_tricks.sliding_window_view(padded, (p, p, 2))[:-1, :-1, 0]


def sample_patches(i1: np.ndarray, i2: np.ndarray, labels: LabelMap, *,
                   p: int, n_per_class: int, seed: int) -> PatchBatch:
    """Balanced draw of changed/unchanged centers with reflect-padded
    extraction; deterministic under seed. Classes short on pixels are taken
    whole."""
    windows = patch_windows(i1, i2, p)
    rng = np.random.default_rng(seed)
    coords_list, label_list = [], []
    for lab, binval in ((Label.UNCHANGED, 0), (Label.CHANGED, 1)):
        rows, cols = np.nonzero(labels.mask(lab))
        if rows.size == 0:
            raise SamplingError(f"no pixels labeled {lab.name}")
        take = min(n_per_class, rows.size)
        if take < n_per_class:
            log.warning("class %s has only %d pixels (< %d requested); taking all",
                        lab.name, rows.size, n_per_class)
        idx = rng.choice(rows.size, size=take, replace=False)
        coords_list.append(np.stack([rows[idx], cols[idx]], axis=1))
        label_list.append(np.full(take, binval, dtype=np.int64))

    coords = np.concatenate(coords_list, axis=0)
    labs = np.concatenate(label_list, axis=0)
    return PatchBatch(windows[coords[:, 0], coords[:, 1]], labs, coords)
