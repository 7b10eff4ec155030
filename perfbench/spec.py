"""What the benchmark runs and reports: workloads, quality floors, and the
end-to-end and per-layer metric tables with the layer -> end-to-end map.

``BENCHMARK.json`` at the repository root mirrors these tables (its key set
is fixed, so the "moves"/"workload" columns and the notes live only here);
``perfbench/tests/test_perfbench.py`` checks that the two agree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: int               # scene side in pixels (square scene)
    patch: int
    epochs: int
    n_per_class: int
    min_pcc: float          # quality floor, percent
    min_kc: float
    looks: float = 4.0
    blocks: int = 2
    dim: int = 32
    heads: int = 4
    batch_size: int = 64
    model_seed: int = 0     # the program always runs with seed 0, as in criterion 6


# Scenes per run. On 8-bit inputs HFCM falls into a second regime on some
# seeds: it leaves about 270 INTERMEDIATE pixels instead of about 4,000 at
# 128x128 (40 of 300 seeds), 860 instead of 12,400 at 224x224 (9 of 300),
# which cuts run_s by 40-70% and KC to about 92. So a run synthesises
# SCENES pairs from its seed (synth seeds seed*SCENES .. seed*SCENES+4) and
# reports the median over scenes: the regime then moves a run's figures only
# when it hits 3 of the 5 scenes. The regime still shows, per scene, in each
# run's record and in preclass.intermediate_px.
SCENES = 5

# Run lengths are cut from the issue's figures (10 epochs over 1,820
# patches at 128x128, a 384x384 scene) so that one run passes over all five
# scenes, plus one repeat for the determinism gate, in run_seconds; each
# workload keeps the layer mix it was chosen for. c6-train trains 6 epochs on
# up to 500 patches per class, about the cost of 3 epochs on 1,000: in the
# second HFCM regime the CHANGED class shrinks to about 420 pixels, 3 epochs
# on 1,000 per class then make only about 66 Adam steps, and KC fell to 76.7
# on one scene (synth seed 112), below the criterion-6 floor this workload
# keeps. With about 90 steps the lowest KC over all 86 such scenes among
# synth seeds 0-599 was 87.27 (PCC 98.91). The scene-infer floor sits below
# the lowest score seen in either regime.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="c6-train",
        why="criterion-6 scene (128x128, patch 8): most of run_s is "
            "train_on_batch on small (64,8,8,32) arrays, so per-op Python and "
            "tape overhead (backward, Adam, GELU, per-head loops) dominate",
        size=128, patch=8, epochs=6, n_per_class=500,
        min_pcc=95.0, min_kc=80.0),
    Workload(
        name="scene-infer",
        why="224x224 scene, 1 epoch: most of run_s is forward-only predict_map "
            "under no_grad plus HFCM over the scene; tape-only changes should "
            "not move it, gather/forward/preclass changes should",
        size=224, patch=8, epochs=1, n_per_class=500,
        min_pcc=98.5, min_kc=85.0),
)}

# Patch size of the "layer.wide.*" timings: the shape of the wide-patch
# workload (256 query x 64 KV tokens, 16x larger score matrices), which is
# not run end to end. At patch 16 one pass costs about 3.4 ms per
# INTERMEDIATE pixel, so five scenes large enough for a steady HFCM do not
# fit one run; the isolated layer timings keep its contrast with c6-train
# (arithmetic and memory versus per-op overhead).
WIDE_PATCH = 16

# Left out on purpose: low-look scenes. At 1 look a 512x512 pair leaves no
# INTERMEDIATE pixel (PCC 82.29, KC 29.97), so the network never runs; at
# 2 looks 384x384 scores PCC 89.73, KC 45.23. That is the open preclass
# weakness on the ROADMAP (item 3), not something a timing run can track.


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None      # end-to-end metrics only
    moves: str = ""                 # end-to-end metric the layer should move
    workload: str = ""              # where it should move (flat on ...)


# Wall-time bounds are the widest allowed because the machine the benchmark
# was tuned on (2 shared cores) swings in speed by 15-40% within a minute.
# Over ten seeds (30-39) the quartile spread of run_s was 0.084 on c6-train
# and 0.063 on scene-infer, of the throughputs 0.050-0.069.
END_TO_END = (
    Metric("run_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("train_patches_per_s", "patches/s", "higher", 0.25),
    Metric("predict_px_per_s", "px/s", "higher", 0.25),
    Metric("pcc", "%", "higher", 0.02),
    Metric("kc", "%", "higher", 0.1),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

REPORTED_OPS = ("matmul", "softmax_rows", "gelu", "sigmoid", "narrow",
                "concat", "reshape", "linear", "add", "mul")
_LAYERS = ("embed", "wave_attention", "bam_forward", "head_loss")


def _per_layer():
    m = Metric
    rows = [
        m("evalio.read_pgm_s", "s", "lower", None, "setup_s, run_s", "scene-infer (c6-train)"),
        m("evalio.write_pgm_s", "s", "lower", None, "run_s", "scene-infer (c6-train)"),
        m("evalio.evaluate_s", "s", "lower", None, "run_s", "scene-infer (c6-train)"),
        m("preclass.log_ratio_s", "s", "lower", None, "run_s", "scene-infer (c6-train)"),
        m("preclass.hfcm_partition_s", "s", "lower", None, "run_s", "scene-infer (c6-train)"),
        m("preclass.fcm_calls", "count", "lower", None, "run_s", "scene-infer"),
        m("preclass.fcm_iters", "count", "lower", None, "run_s", "scene-infer"),
        m("preclass.intermediate_px", "count", "lower", None,
          "predict_px_per_s denominator, pcc, kc", "all"),
        m("preclass.sample_patches_s", "s", "lower", None, "run_s", "c6-train"),
        m("preclass.patches", "count", "higher", None, "train_patches_per_s numerator", "all"),
        m("model.train_on_batch_s", "s", "lower", None, "train_patches_per_s",
          "c6-train (scene-infer)"),
        m("model.train_steps", "count", "lower", None, "train_patches_per_s", "all"),
        m("model.train_step_ms_p50", "ms", "lower", None, "train_patches_per_s",
          "c6-train"),
        m("model.train_step_ms_tail", "ms", "lower", None, "train_patches_per_s",
          "c6-train"),
        m("model.train_step_tail_pct", "%", "higher", None,
          "percentile of model.train_step_ms_tail", "all"),
        m("model.train_step_samples", "count", "higher", None,
          "samples behind the step percentiles", "all"),
        m("model.train_loop_self_s", "s", "lower", None, "train_patches_per_s", "c6-train"),
        m("model.forward_s", "s", "lower", None, "train_patches_per_s, predict_px_per_s", "all"),
        m("model.forward_self_s", "s", "lower", None, "train_patches_per_s, predict_px_per_s", "all"),
        m("model.embed_s", "s", "lower", None, "train_patches_per_s, predict_px_per_s", "all"),
        m("model.cross_entropy_s", "s", "lower", None, "train_patches_per_s", "all"),
        m("model.predict_map_s", "s", "lower", None, "predict_px_per_s",
          "scene-infer (c6-train train)"),
        m("model.predict_map_self_s", "s", "lower", None, "predict_px_per_s",
          "scene-infer (c6-train train)"),
        m("model.predict_batches", "count", "lower", None, "predict_px_per_s", "scene-infer"),
        m("model.save_checkpoint_s", "s", "lower", None, "run_s", "all"),
        m("model.checkpoint_bytes", "bytes", "lower", None, "run_s", "all"),
        m("wsm.wave_attention_s", "s", "lower", None,
          "train_patches_per_s c6-train; predict_px_per_s scene-infer",
          "c6-train, scene-infer (layer.wide.wave_attention barely)"),
        m("wsm.wave_attention_self_s", "s", "lower", None,
          "train_patches_per_s c6-train; predict_px_per_s scene-infer",
          "c6-train, scene-infer (layer.wide.wave_attention barely)"),
        m("wavelet.dwt2_stack_s", "s", "lower", None, "train_patches_per_s", "c6-train"),
        m("wavelet.idwt2_stack_s", "s", "lower", None, "train_patches_per_s", "c6-train"),
        m("bam.bam_forward_s", "s", "lower", None, "predict_px_per_s", "scene-infer, c6-train"),
        m("bam.channel_aggregate_s", "s", "lower", None, "predict_px_per_s", "scene-infer, c6-train"),
        m("bam.spatial_aggregate_s", "s", "lower", None, "predict_px_per_s", "scene-infer, c6-train"),
        m("tensor.backward_s", "s", "lower", None, "train_patches_per_s", "c6-train (scene-infer)"),
        m("tensor.backward_calls", "count", "lower", None, "train_patches_per_s", "c6-train (scene-infer)"),
        m("tensor.adam_step_s", "s", "lower", None, "train_patches_per_s", "c6-train (scene-infer)"),
    ]
    rows += [m(f"tensor.op_s.{op}", "s", "lower", None, "predict_px_per_s",
               "scene-infer") for op in REPORTED_OPS]
    rows += [m(f"tensor.op_calls_per_step.{op}", "count", "lower", None,
               "train_patches_per_s", "c6-train; identical on all")
             for op in REPORTED_OPS + ("total",)]
    rows.append(m("tensor.op_calls_per_predict_batch.total", "count", "lower", None,
                  "predict_px_per_s", "scene-infer"))
    for prefix in ("layer.", "layer.wide."):
        rows += [m(f"{prefix}{layer}.{kind}_ms", "ms", "lower", None,
                   "train_patches_per_s",
                   "patch 8 (layer.) vs patch 16 (layer.wide.)")
                 for layer in _LAYERS for kind in ("fwd", "bwd")]
    # Adam has no backward: its "fwd" is one step over every parameter.
    rows.append(m("layer.adam_step.fwd_ms", "ms", "lower", None,
                  "train_patches_per_s", "c6-train (scene-infer)"))
    rows += [
        m("trace.run_s", "s", "lower", None, "run_s with every span recorded", "all"),
        m("trace.overhead_s", "s", "lower", None,
          "trace.run_s minus the untraced run_s median of the same run", "all"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()
