"""WBANet assembly: patch embedding, N residual wavelet/aggregation blocks,
average-pool classifier head, Adam training on pseudo-labels, and per-pixel
change-map prediction with a binary checkpoint format."""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensor as T
from .bam import BamParams, bam_forward, init_bam_params
from .errors import ConfigError, FormatError, check_field_types
from .preclass import Label, LabelMap, PatchBatch, patch_windows, sample_patches
from .tensor import Adam, Tensor, no_grad
from .wsm import WsmParams, check_dims, init_wsm_params, wave_attention

PROVENANCE_PSEUDO = 0
PROVENANCE_NETWORK = 1

# INTERMEDIATE pixels gathered and forwarded at once by predict_map; bounds
# the patches held in memory.
PREDICT_CHUNK = 256


@dataclass
class ModelConfig:
    patch_size: int = 8
    embed_dim: int = 32
    n_heads: int = 4
    n_blocks: int = 2
    lr: float = 1e-3
    epochs: int = 30
    batch_size: int = 64
    seed: int = 0
    n_per_class: int = 1000

    def __post_init__(self):
        check_field_types(self)
        for name, low in (("patch_size", 2), ("embed_dim", 4), ("n_heads", 1),
                          ("epochs", 1), ("batch_size", 1), ("n_per_class", 1),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.patch_size % 2:
            raise ConfigError(f"patch_size must be even, got {self.patch_size}")
        check_dims(self.embed_dim, self.n_heads)
        if not 1 <= self.n_blocks <= 8:
            raise ConfigError(f"n_blocks must be in [1, 8], got {self.n_blocks}")


@dataclass
class WbaBlockParams:
    wsm: WsmParams
    bam: BamParams


@dataclass
class ModelParams:
    w_embed: Tensor
    blocks: list[WbaBlockParams]
    w_head: Tensor
    b_head: Tensor

    def named(self) -> list[tuple[str, Tensor]]:
        """Checkpoint names in a fixed order: ``blocks.{i}.{wsm|bam}.{field}``
        for each Tensor field of the module's params, in declaration order."""
        out = [("w_embed", self.w_embed)]
        for i, blk in enumerate(self.blocks):
            for module in ("wsm", "bam"):
                p = getattr(blk, module)
                out += [(f"blocks.{i}.{module}.{f.name}", getattr(p, f.name))
                        for f in fields(p) if isinstance(getattr(p, f.name), Tensor)]
        out += [("w_head", self.w_head), ("b_head", self.b_head)]
        return out

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]


def init_params(cfg: ModelConfig, rng: np.random.Generator | None = None) -> ModelParams:
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    c = cfg.embed_dim
    blocks = [WbaBlockParams(init_wsm_params(c, cfg.n_heads, rng),
                             init_bam_params(c, rng))
              for _ in range(cfg.n_blocks)]
    w_embed = T.weight((2, c), rng)
    w_head = T.weight((c, 2), rng)
    b_head = T.zeros((2,), requires_grad=True)
    return ModelParams(w_embed, blocks, w_head, b_head)


def embed(patch: Tensor, w_e: Tensor) -> Tensor:
    """Per-pixel linear lift of the two temporal channels to the embed dim."""
    return T.linear(patch, w_e)


def block_forward(x: Tensor, blk: WbaBlockParams) -> Tensor:
    """Residual wiring: x + attention, then + aggregation gate output."""
    x1 = T.add(x, wave_attention(x, blk.wsm))
    return T.add(x1, bam_forward(x1, blk.bam))


def forward(patches: np.ndarray, params: ModelParams) -> Tensor:
    """(n, P, P, 2) patches -> (n, 2) logits."""
    x = embed(Tensor(patches), params.w_embed)
    for blk in params.blocks:
        x = block_forward(x, blk)
    pooled = T.reshape(T.global_avg_pool(x), (x.shape[0], x.shape[-1]))
    return T.linear(pooled, params.w_head, params.b_head)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over two classes; softmax lives inside here."""
    n = logits.shape[0]
    onehot = np.zeros(logits.shape)
    onehot[np.arange(n), np.asarray(labels, dtype=np.int64)] = 1.0
    picked = T.tsum(T.mul(T.log_softmax_rows(logits), Tensor(onehot)))
    return T.scale(picked, -1.0 / n)


@dataclass
class TrainHistory:
    loss: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)


def train(i1: np.ndarray, i2: np.ndarray, labels: LabelMap,
          cfg: ModelConfig) -> tuple[ModelParams, TrainHistory]:
    batch = sample_patches(i1, i2, labels, p=cfg.patch_size,
                           n_per_class=cfg.n_per_class, seed=cfg.seed)
    return train_on_batch(batch, cfg)


def train_on_batch(batch: PatchBatch, cfg: ModelConfig) -> tuple[ModelParams, TrainHistory]:
    rng = np.random.default_rng(cfg.seed + 1)
    params = init_params(cfg)
    opt = Adam(params.tensors(), lr=cfg.lr)
    history = TrainHistory()
    n = batch.patches.shape[0]
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        ep_loss, ep_correct = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            logits = forward(batch.patches[idx], params)
            loss = cross_entropy(logits, batch.labels[idx])
            opt.zero_grad()
            loss.backward()
            opt.step()
            ep_loss += loss.item() * idx.size
            ep_correct += int((logits.data.argmax(axis=1) == batch.labels[idx]).sum())
        history.loss.append(ep_loss / n)
        history.accuracy.append(ep_correct / n)
    return params, history


@dataclass
class ChangeMap:
    values: np.ndarray       # (H, W) binary {0, 1}
    provenance: np.ndarray   # (H, W): PROVENANCE_PSEUDO or PROVENANCE_NETWORK


def predict_map(i1: np.ndarray, i2: np.ndarray, labels: LabelMap,
                params: ModelParams, cfg: ModelConfig) -> ChangeMap:
    """Confident pseudo-labels pass through; only intermediate pixels are
    resolved by the network, PREDICT_CHUNK at a time."""
    values = (labels.labels == int(Label.CHANGED)).astype(np.uint8)
    provenance = np.full(values.shape, PROVENANCE_PSEUDO, dtype=np.int8)

    rows, cols = np.nonzero(labels.mask(Label.INTERMEDIATE))
    if rows.size:
        windows = patch_windows(i1, i2, cfg.patch_size)
        with no_grad():
            for start in range(0, rows.size, PREDICT_CHUNK):
                r = rows[start:start + PREDICT_CHUNK]
                c = cols[start:start + PREDICT_CHUNK]
                logits = forward(windows[r, c], params)
                values[r, c] = logits.data.argmax(axis=1).astype(np.uint8)
        provenance[rows, cols] = PROVENANCE_NETWORK
    return ChangeMap(values, provenance)


# ---------------------------------------------------------------------------
# checkpoint format: magic "WBAN", version u32, length-prefixed JSON config,
# then per tensor (u32 name length, name, u32 rank, u32 extents, f64 LE data).

_MAGIC = b"WBAN"
_VERSION = 1


def save_checkpoint(path, params: ModelParams, cfg: ModelConfig):
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        blob = json.dumps(asdict(cfg), sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        named = params.named()
        fh.write(struct.pack("<I", len(named)))
        for name, t in named:
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", t.ndim))
            fh.write(struct.pack(f"<{t.ndim}I", *t.shape))
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig]:
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(raw):
            raise FormatError("truncated checkpoint", offset=pos)
        chunk = raw[pos:pos + n]
        pos += n
        return chunk

    if take(4) != _MAGIC:
        raise FormatError("bad checkpoint magic", offset=0)
    (version,) = struct.unpack("<I", take(4))
    if version != _VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    (cfg_len,) = struct.unpack("<I", take(4))
    cfg_offset = pos
    blob = take(cfg_len)
    try:
        cfg_dict = json.loads(blob.decode("utf-8"))
        keys = asdict(ModelConfig()).keys()
        if not isinstance(cfg_dict, dict) or cfg_dict.keys() != keys:
            raise ConfigError(f"config must hold exactly the keys {sorted(keys)}")
        cfg = ModelConfig(**cfg_dict)
    except ValueError as exc:  # bad UTF-8 or JSON, or a ConfigError
        raise FormatError(f"bad checkpoint config: {exc}", offset=cfg_offset) from None
    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        n_vals = int(np.prod(shape)) if rank else 1
        arrays[name] = np.frombuffer(take(8 * n_vals), dtype="<f8").reshape(shape)

    # The tensors must be exactly those of the model the config describes.
    params = init_params(cfg)
    want = {name: t.shape for name, t in params.named()}
    got = {name: a.shape for name, a in arrays.items()}
    if count != len(want) or got != want:
        bad = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
        raise FormatError(f"tensors do not fit the checkpoint config: {count} "
                          f"stored, {len(want)} needed; missing, extra or "
                          f"misshapen: {bad}")
    for name, t in params.named():
        t.data = arrays[name].astype(np.float64)
    return params, cfg
