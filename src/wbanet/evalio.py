"""Change-map metrics, binary PGM (P5) I/O, and a synthetic speckled SAR
pair generator used for desk-scale end-to-end evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, InputError, check_field_types


@dataclass
class MetricsReport:
    fp: int
    fn: int
    oe: int
    pcc: float        # percent
    kc: float         # percent
    n_total: int
    kc_defined: bool = True

    def to_json_dict(self) -> dict:
        return {"fp": self.fp, "fn": self.fn, "oe": self.oe,
                "pcc": self.pcc, "kc": self.kc, "n": self.n_total}


def confusion(pred: np.ndarray, gt: np.ndarray) -> tuple[int, int, int, int]:
    """Exhaustive per-pixel counts (tp, tn, fp, fn) for binary maps."""
    pred = np.asarray(pred).astype(bool)
    gt = np.asarray(gt).astype(bool)
    if pred.shape != gt.shape:
        raise InputError(f"extent mismatch: {pred.shape} vs {gt.shape}")
    tp = int(np.count_nonzero(pred & gt))
    tn = int(np.count_nonzero(~pred & ~gt))
    fp = int(np.count_nonzero(pred & ~gt))
    fn = int(np.count_nonzero(~pred & gt))
    return tp, tn, fp, fn


def metrics(tp: int, tn: int, fp: int, fn: int) -> MetricsReport:
    """OE = FP+FN; PCC = 100(TP+TN)/N; KC from the chance-agreement PRE."""
    n = tp + tn + fp + fn
    if n <= 0:
        raise InputError("empty confusion counts")
    oe = fp + fn
    pcc = 100.0 * (tp + tn) / n
    pre = ((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn)) / (n * n)
    if pre >= 1.0:
        return MetricsReport(fp, fn, oe, pcc, 0.0, n, kc_defined=False)
    kc = 100.0 * (pcc / 100.0 - pre) / (1.0 - pre)
    return MetricsReport(fp, fn, oe, pcc, kc, n)


def evaluate(pred: np.ndarray, gt: np.ndarray) -> MetricsReport:
    return metrics(*confusion(pred, gt))


# ---------------------------------------------------------------------------
# synthetic SAR pair

@dataclass
class SynthConfig:
    h: int = 128
    w: int = 128
    looks: float = 4.0
    background: float = 1.0
    change: float = 250.0
    seed: int = 0
    change_fraction: float = 0.05                 # share of the frame that changes

    def __post_init__(self):
        check_field_types(self)
        for name, low in (("seed", 0), ("looks", 1), ("background", 0),
                          ("change", 0)):
            if not low <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= {low}, "
                                  f"got {getattr(self, name)}")
        if not 0 < self.change_fraction < 1:
            raise ConfigError("change_fraction must be in (0, 1), got "
                              f"{self.change_fraction}")
        (cy, cx), (ry, rx) = self.resolved()
        ellipse = (f"ellipse (center=({cy:.1f},{cx:.1f}), "
                   f"axes=({ry:.1f},{rx:.1f}))")
        if cy - ry <= 0 or cy + ry >= self.h - 1 or cx - rx <= 0 or cx + rx >= self.w - 1:
            raise ConfigError(f"{ellipse} exceeds the {self.h}x{self.w} frame")
        if not ellipse_mask(self.h, self.w, (cy, cx), (ry, rx)).any():
            raise ConfigError(f"{ellipse} covers no pixel of the "
                              f"{self.h}x{self.w} frame")

    def resolved(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """(row, col) centre and radii of the change ellipse: centred in the
        frame, with pi*ry*rx = fraction*H*W and a mild 1.4 aspect ratio."""
        ry = np.sqrt(self.change_fraction * self.h * self.w / (np.pi * 1.4))
        return ((self.h - 1) / 2.0, (self.w - 1) / 2.0), (ry, 1.4 * ry)


def ellipse_mask(h: int, w: int, center, semi_axes) -> np.ndarray:
    cy, cx = center
    ry, rx = semi_axes
    yy, xx = np.mgrid[0:h, 0:w]
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def synth_pair(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reflectivity field with an elliptical change region, multiplied by
    independent L-look gamma speckle per acquisition. Returns (i1, i2, gt)."""
    (cy, cx), (ry, rx) = cfg.resolved()
    gt = ellipse_mask(cfg.h, cfg.w, (cy, cx), (ry, rx))
    refl1 = np.full((cfg.h, cfg.w), cfg.background)
    refl2 = refl1.copy()
    refl2[gt] = cfg.change
    rng = np.random.default_rng(cfg.seed)
    i1 = refl1 * rng.gamma(cfg.looks, 1.0 / cfg.looks, refl1.shape)
    i2 = refl2 * rng.gamma(cfg.looks, 1.0 / cfg.looks, refl2.shape)
    return i1, i2, gt.astype(np.uint8)


# ---------------------------------------------------------------------------
# PGM (P5) I/O

def write_pgm(path, grid: np.ndarray):
    """8-bit P5 with maxval 255; values are rounded and clipped to 0..255."""
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise InputError(f"PGM grids are 2-D, got shape {grid.shape}")
    data = np.clip(np.rint(grid), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Binary PGM with comment support; errors carry byte offsets."""
    return read_pgm_maxval(path)[0]


def read_pgm_maxval(path) -> tuple[np.ndarray, int]:
    """``read_pgm``'s grid and the maxval its header declares."""
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0

    def skip_ws_and_comments():
        nonlocal pos
        while pos < len(raw):
            ch = raw[pos:pos + 1]
            if ch.isspace():
                pos += 1
            elif ch == b"#":
                nl = raw.find(b"\n", pos)
                pos = len(raw) if nl < 0 else nl + 1
            else:
                return

    def token() -> bytes:
        nonlocal pos
        skip_ws_and_comments()
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("unexpected end of header", offset=start)
        return raw[start:pos]

    if raw[:2] != b"P5":
        raise FormatError(f"bad magic {raw[:2]!r}, expected P5", offset=0)
    pos = 2
    try:
        width = int(token())
        height = int(token())
        maxval = int(token())
    except ValueError:
        raise FormatError("non-numeric header field", offset=pos) from None
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}", offset=pos)
    if maxval > 255 or maxval < 1:
        raise FormatError(f"maxval {maxval} outside 1..255", offset=pos)
    if pos >= len(raw) or not raw[pos:pos + 1].isspace():
        raise FormatError("missing whitespace after maxval", offset=pos)
    pos += 1
    need = width * height
    if len(raw) - pos < need:
        raise FormatError(f"truncated payload: need {need} bytes, "
                          f"have {len(raw) - pos}", offset=pos)
    data = np.frombuffer(raw[pos:pos + need], dtype=np.uint8)
    return data.reshape(height, width).astype(np.float64), maxval
