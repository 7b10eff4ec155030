"""One workload in one fresh process: repeat the whole pipeline until the
run's time is spent, gate every pass, and print one JSON line of results.

    worker.py --setup-only --data DIR
    worker.py --workload NAME --data DIR --seconds S --trace 0|1

DIR holds one directory per scene, ``scene0`` .. ``scene4``, each with
``i1.pgm``, ``i2.pgm`` and ``gt.pgm``; passes write their outputs to
``sceneN/out``.

``run.py`` starts this with the BLAS/OpenMP thread count pinned and
``src`` on ``PYTHONPATH``; it is not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import spec

clock = time.perf_counter
# Untraced: scene 0 twice (the determinism gate needs a repeat), then every
# other scene. Traced: scenes 0, 1, 2, each untraced and then traced.
MIN_PASSES = spec.SCENES + 1
# A run stops starting passes at this multiple of --seconds even short of
# MIN_PASSES (keeping at least the first two), so a slow machine cannot
# stretch the run without limit.
HARD_LIMIT = 1.3
SELF_SUM_TOLERANCE_S = 1e-6


def setup(data: Path) -> float:
    """Seconds to import ``wbanet`` (with NumPy) and read the three inputs."""
    t0 = clock()
    import pipeline
    pipeline.read_inputs(data / "scene0")
    return clock() - t0


def judge(passes: list[dict], w: spec.Workload) -> int:
    """Record why each pass failed in ``pass["failures"]``; return how many
    failed. A pass fails if it raised, fell below the workload's quality
    floor, wrote a wrong map, or produced a change map that differs bitwise
    from the one most passes over the same scene produced."""
    digests: dict[int, Counter] = {}
    for p in passes:
        if "error" not in p:
            digests.setdefault(p["scene"], Counter())[p["digest"]] += 1
    for p in passes:
        why = []
        if "error" in p:
            why.append(p["error"])
        else:
            if p["pcc"] < w.min_pcc:
                why.append(f"pcc {p['pcc']:.2f} < floor {w.min_pcc}")
            if p["kc"] < w.min_kc:
                why.append(f"kc {p['kc']:.2f} < floor {w.min_kc}")
            if not p["map_written"]:
                why.append("change_map.pgm does not hold the predicted map")
            majority = digests[p["scene"]].most_common(1)[0][0]
            if p["digest"] != majority:
                why.append(f"change-map sha256 {p['digest'][:12]} differs from "
                           f"{majority[:12]} of the other passes")
            if "self_sum_s" in p and abs(p["self_sum_s"] - p["span_run_s"]) > SELF_SUM_TOLERANCE_S:
                why.append(f"span self times sum to {p['self_sum_s']:.6f} s, "
                           f"not the traced run's {p['span_run_s']:.6f} s")
        p["failures"] = why
    return sum(1 for p in passes if p["failures"])


def end_to_end(passes: list[dict], w: spec.Workload) -> dict[str, float]:
    """Median over scenes of each scene's median over its untraced passes
    that completed (``setup_s`` is added by the parent, which measures it in
    separate processes)."""
    per_scene: dict[int, list[dict]] = {}
    for p in passes:
        if "error" not in p and not p["traced"]:
            per_scene.setdefault(p["scene"], []).append(p)
    if not per_scene:
        return {}
    values = {
        "run_s": lambda p: p["run_s"],
        "train_patches_per_s": lambda p: p["patches"] * w.epochs / p["train_s"],
        "predict_px_per_s": lambda p: p["intermediate_px"] / p["predict_s"],
        "pcc": lambda p: p["pcc"],
        "kc": lambda p: p["kc"],
    }
    med = statistics.median
    out = {name: med(med(f(p) for p in ps) for ps in per_scene.values())
           for name, f in values.items()}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def tracing_gaps(passes: list[dict]) -> list[float]:
    """Traced minus untraced run_s, per scene that completed both ways."""
    runs: dict[tuple[int, bool], list[float]] = {}
    for p in passes:
        if "error" not in p:
            runs.setdefault((p["scene"], p["traced"]), []).append(p["run_s"])
    return [statistics.median(runs[s, True]) - statistics.median(runs[s, False])
            for s, traced in runs if traced and (s, False) in runs]


def measure(w: spec.Workload, data: Path, seconds: float, trace: bool) -> dict:
    import pipeline
    from spans import Tracer

    cfg = pipeline.model_config(w)
    start = clock()
    tracer = Tracer()
    layer = {}
    if trace:
        layer = pipeline.layer_timings(cfg)
        layer.update(pipeline.layer_timings(
            dataclasses.replace(cfg, patch_size=spec.WIDE_PATCH), "layer.wide."))
        pipeline.install_spans(tracer)
    passes, per_layer = [], []
    # A traced run passes over each scene untraced and then traced; the gap
    # between the two is the tracing overhead.
    while True:
        n = len(passes)
        scene = (n // 2 if trace else max(n - 1, 0)) % spec.SCENES
        scene_dir = data / f"scene{scene}"
        (scene_dir / "out").mkdir(exist_ok=True)
        traced = trace and n % 2 == 1
        tracer.spans, tracer.counters = [], {}
        tracer.run_id, tracer.active = n, traced
        try:
            with tracer.span("run") if traced else contextlib.nullcontext():
                p = pipeline.run_once(scene_dir, scene_dir / "out", cfg)
            tracer.active = False
            if traced:
                m, self_sum = pipeline.span_metrics(tracer, p)
                per_layer.append(m)
                p.update(self_sum_s=self_sum, span_run_s=m["trace.run_s"])
        except Exception:
            tracer.active = False
            p = {"error": traceback.format_exc(limit=3).strip().splitlines()[-1]}
            traceback.print_exc(file=sys.stderr)
        p.update(scene=scene, traced=traced)
        passes.append(p)
        spent = [q["run_s"] for q in passes if "run_s" in q] or [0.0]
        next_end = clock() + statistics.median(spent) - start
        if len(passes) >= MIN_PASSES and next_end > seconds:
            break
        if len(passes) >= 2 and next_end > HARD_LIMIT * seconds:
            break
    tracer.unwrap_all()

    failed = judge(passes, w)
    result = {"attempted": len(passes), "failed": failed, "passes": passes}
    if trace:
        names = [m.name for m in spec.PER_LAYER]
        metrics = dict(layer)
        if per_layer:
            metrics.update({n: statistics.median(m[n] for m in per_layer)
                            for n in per_layer[0]})
        gaps = tracing_gaps(passes)
        if gaps:
            metrics["trace.overhead_s"] = statistics.median(gaps)
        result["metrics"] = {n: metrics[n] for n in names if n in metrics}
    else:
        result["metrics"] = end_to_end(passes, w)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--data", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.data)}))
        return 0
    if args.workload is None:
        ap.error("--workload is required unless --setup-only")
    setup(args.data)
    result = measure(spec.WORKLOADS[args.workload], args.data, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
