"""The program's public stage functions, driven in the order ``wbanet run``
calls them, plus the trace hooks and the isolated per-layer timings.

Importing this module imports ``wbanet`` and NumPy; the benchmark's set-up
time is measured around that import.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from wbanet import bam, evalio, model, preclass, tensor, wsm
from wbanet.preclass import Label

import spec
from spans import ROOT, Tracer, self_times, tail_percentile

INPUTS = ("i1.pgm", "i2.pgm", "gt.pgm")
clock = time.perf_counter


def model_config(w: spec.Workload) -> model.ModelConfig:
    return model.ModelConfig(
        patch_size=w.patch, embed_dim=w.dim, n_heads=w.heads, n_blocks=w.blocks,
        epochs=w.epochs, batch_size=w.batch_size, seed=w.model_seed,
        n_per_class=w.n_per_class)


def read_inputs(data: Path) -> list[np.ndarray]:
    return [evalio.read_pgm(data / name) for name in INPUTS]


def run_once(data: Path, out: Path, cfg: model.ModelConfig) -> dict:
    """One pass from the first ``read_pgm`` to the return of ``evaluate``."""
    t0 = clock()
    i1 = evalio.read_pgm(data / "i1.pgm")
    i2 = evalio.read_pgm(data / "i2.pgm")
    gt = (evalio.read_pgm(data / "gt.pgm") > 127).astype(np.uint8)
    di = preclass.log_ratio(i1, i2)
    labels = preclass.hfcm_partition(di, seed=cfg.seed)
    if labels.degenerate:
        raise RuntimeError("degenerate pre-classification")
    batch = preclass.sample_patches(i1, i2, labels, p=cfg.patch_size,
                                    n_per_class=cfg.n_per_class, seed=cfg.seed)
    t1 = clock()
    params, _history = model.train_on_batch(batch, cfg)
    t2 = clock()
    change = model.predict_map(i1, i2, labels, params, cfg)
    t3 = clock()
    evalio.write_pgm(out / "change_map.pgm", change.values * 255)
    model.save_checkpoint(out / "checkpoint.wban", params, cfg)
    report = evalio.evaluate(change.values, gt)
    t4 = clock()

    # Outside the timed pass: the written map must hold exactly the values.
    written = np.fromfile(out / "change_map.pgm", dtype=np.uint8)[-change.values.size:]
    return {
        "run_s": t4 - t0, "train_s": t2 - t1, "predict_s": t3 - t2,
        "patches": int(batch.patches.shape[0]),
        "intermediate_px": int(labels.mask(Label.INTERMEDIATE).sum()),
        "pcc": report.pcc, "kc": report.kc,
        "digest": hashlib.sha256(change.values.tobytes()).hexdigest(),
        "map_written": bool(np.array_equal(written, change.values.ravel() * 255)),
        "checkpoint_bytes": (out / "checkpoint.wban").stat().st_size,
    }


# ---------------------------------------------------------------------------
# tracing

OPS = ("add", "mul", "scale", "matmul", "transpose_last2", "linear", "reshape",
       "concat", "narrow", "expand", "tsum", "global_avg_pool", "sigmoid",
       "gelu", "softmax_rows", "log_softmax_rows")
OP_PREFIX = "tensor.op."


def install_spans(tracer: Tracer):
    """Wrap each layer boundary at the attribute its caller looks up."""
    for attr in ("read_pgm", "write_pgm", "evaluate"):
        tracer.wrap(evalio, attr, f"evalio.{attr}")
    for attr in ("log_ratio", "hfcm_partition", "sample_patches"):
        tracer.wrap(preclass, attr, f"preclass.{attr}")
    tracer.wrap(preclass, "fcm", "preclass.fcm",
                count=lambda r: {"preclass.fcm_iters": len(r.objective)})
    for attr in ("train_on_batch", "predict_map", "save_checkpoint", "forward",
                 "embed", "cross_entropy"):
        tracer.wrap(model, attr, f"model.{attr}")
    tracer.wrap(model, "wave_attention", "wsm.wave_attention")
    tracer.wrap(model, "bam_forward", "bam.bam_forward")
    for attr in ("channel_aggregate", "spatial_aggregate"):
        tracer.wrap(bam, attr, f"bam.{attr}")
    for attr in ("dwt2_stack", "idwt2_stack"):
        tracer.wrap(wsm, attr, f"wavelet.{attr}")
    tracer.wrap(tensor.Tensor, "backward", "tensor.backward")
    tracer.wrap(tensor.Adam, "step", "tensor.adam_step")
    for op in OPS:
        tracer.wrap(tensor, op, OP_PREFIX + op)


def span_metrics(tracer: Tracer, rep: dict) -> tuple[dict[str, float], float]:
    """Per-layer metrics of one traced pass whose root span is ``run``, and
    the sum of all self times, which must equal the root's duration."""
    spans = tracer.spans
    selfs = self_times(spans)
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    stage: list[str | None] = []        # the root's child each span sits under
    for s, st in zip(spans, selfs):
        total[s.name] += s.end - s.start
        own[s.name] += st
        calls[s.name] += 1
        if s.parent == ROOT:
            stage.append(None)
        else:
            stage.append(s.name if spans[s.parent].parent == ROOT
                         else stage[s.parent])

    def op_calls(under: str) -> Counter:
        return Counter(s.name[len(OP_PREFIX):] for s, st in zip(spans, stage)
                       if st == under and s.name.startswith(OP_PREFIX))

    steps = calls["tensor.adam_step"]
    step_ends = [s.end for s in spans if s.name == "tensor.adam_step"]
    step_ms = [1e3 * (b - a) for a, b in zip(step_ends, step_ends[1:])]
    tail = tail_percentile(step_ms) or (100.0, max(step_ms))
    batches = sum(1 for s, st in zip(spans, stage)
                  if s.name == "model.forward" and st == "model.predict_map")
    train_ops, predict_ops = op_calls("model.train_on_batch"), op_calls("model.predict_map")

    m = {f"{name}_s": total[name] for name in (
        "evalio.read_pgm", "evalio.write_pgm", "evalio.evaluate",
        "preclass.log_ratio", "preclass.hfcm_partition", "preclass.sample_patches",
        "model.train_on_batch", "model.forward", "model.embed",
        "model.cross_entropy", "model.predict_map", "model.save_checkpoint",
        "wsm.wave_attention", "wavelet.dwt2_stack", "wavelet.idwt2_stack",
        "bam.bam_forward", "bam.channel_aggregate", "bam.spatial_aggregate",
        "tensor.backward")}
    m.update({
        "preclass.fcm_calls": calls["preclass.fcm"],
        "preclass.fcm_iters": tracer.counters.get("preclass.fcm_iters", 0),
        "preclass.intermediate_px": rep["intermediate_px"],
        "preclass.patches": rep["patches"],
        "model.train_steps": steps,
        "model.train_step_ms_p50": statistics.median(step_ms),
        "model.train_step_ms_tail": tail[1],
        "model.train_step_tail_pct": tail[0],
        "model.train_step_samples": len(step_ms),
        "model.train_loop_self_s": own["model.train_on_batch"],
        "model.forward_self_s": own["model.forward"],
        "model.predict_map_self_s": own["model.predict_map"],
        "model.predict_batches": batches,
        "model.checkpoint_bytes": rep["checkpoint_bytes"],
        "wsm.wave_attention_self_s": own["wsm.wave_attention"],
        "tensor.backward_calls": calls["tensor.backward"],
        "tensor.adam_step_s": total["tensor.adam_step"],
        "tensor.op_calls_per_step.total": sum(train_ops.values()) / steps,
        "tensor.op_calls_per_predict_batch.total": sum(predict_ops.values()) / batches,
    })
    for op in spec.REPORTED_OPS:
        m[f"tensor.op_s.{op}"] = own[OP_PREFIX + op]
        m[f"tensor.op_calls_per_step.{op}"] = train_ops[op] / steps
    m["trace.run_s"] = spans[0].end - spans[0].start
    return m, sum(selfs)


# ---------------------------------------------------------------------------
# isolated per-layer timings

def layer_timings(cfg: model.ModelConfig, prefix: str = "layer.",
                  repeats: int = 5) -> dict[str, float]:
    """Median forward and backward (``tsum(out).backward()``) time of each
    layer called alone at the training batch shape of ``cfg``, and the time
    of one Adam step over all parameters."""
    rng = np.random.default_rng(0)
    b, p, c = cfg.batch_size, cfg.patch_size, cfg.embed_dim
    params = model.init_params(cfg)
    labels = rng.integers(0, 2, b)

    def x(*shape):
        return tensor.Tensor(rng.normal(size=shape), requires_grad=True)

    def head_loss(h):
        pooled = tensor.reshape(tensor.global_avg_pool(h), (b, c))
        logits = tensor.linear(pooled, params.w_head, params.b_head)
        return model.cross_entropy(logits, labels)

    cases = {
        "embed": (lambda: x(b, p, p, 2), lambda a: model.embed(a, params.w_embed)),
        "wave_attention": (lambda: x(b, p, p, c),
                           lambda a: wsm.wave_attention(a, params.blocks[0].wsm)),
        "bam_forward": (lambda: x(b, p, p, c),
                        lambda a: bam.bam_forward(a, params.blocks[0].bam)),
        "head_loss": (lambda: x(b, p, p, c), head_loss),
    }
    out: dict[str, float] = {}
    for name, (make, fn) in cases.items():
        fwd, bwd = [], []
        for _ in range(repeats + 1):            # the first call warms up
            for t in params.tensors():
                t.grad = None
            a = make()
            t0 = clock()
            y = fn(a)
            t1 = clock()
            tensor.tsum(y).backward()
            t2 = clock()
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
        out[f"{prefix}{name}.fwd_ms"] = 1e3 * statistics.median(fwd[1:])
        out[f"{prefix}{name}.bwd_ms"] = 1e3 * statistics.median(bwd[1:])

    opt = tensor.Adam(params.tensors(), lr=cfg.lr)
    for t in params.tensors():
        t.grad = rng.normal(size=t.shape)
    steps = []
    for _ in range(repeats + 1):
        t0 = clock()
        opt.step()
        steps.append(clock() - t0)
    out[f"{prefix}adam_step.fwd_ms"] = 1e3 * statistics.median(steps[1:])
    return out
