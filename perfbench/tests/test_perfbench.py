"""Tests for the benchmark's own code: span arithmetic, the tail rule, the
metric tables against BENCHMARK.json, the pass gate, and the traced pipeline
on a miniature scene.

    python -m pytest perfbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import spec  # noqa: E402
from spans import ROOT, Span, Tracer, self_times, tail_percentile  # noqa: E402
from worker import judge, tracing_gaps  # noqa: E402


# ---------------------------------------------------------------------------
# spans

def _tree():
    #   run [0,10]
    #   |- a [1,4]    |- a1 [1.5,2.5]  |- a2 [3,4]
    #   `- b [5,9]    `- b1 [6,7]
    return [Span("run", 0.0, 10.0, ROOT, 0),
            Span("a", 1.0, 4.0, 0, 0),
            Span("a1", 1.5, 2.5, 1, 0),
            Span("a2", 3.0, 4.0, 1, 0),
            Span("b", 5.0, 9.0, 0, 0),
            Span("b1", 6.0, 7.0, 4, 0)]


def test_self_times_subtract_children():
    assert self_times(_tree()) == pytest.approx([3.0, 1.0, 1.0, 1.0, 3.0, 1.0])


def test_self_times_sum_to_root_duration():
    spans = _tree()
    assert sum(self_times(spans)) == pytest.approx(spans[0].end - spans[0].start)


def test_self_times_count_overlapping_cover_once():
    spans = [Span("p", 0.0, 5.0, ROOT, 0),
             Span("c1", 1.0, 3.0, 0, 0),
             Span("c2", 2.0, 4.0, 0, 0),
             Span("c3", 4.5, 6.0, 0, 0)]       # clipped at the parent's end
    assert self_times(spans)[0] == pytest.approx(5.0 - 3.0 - 0.5)


def test_tracer_records_nesting_and_counters():
    class Box:
        @staticmethod
        def inner(x):
            return [x] * x

        @staticmethod
        def outer(x):
            return Box.inner(x)

    tracer = Tracer()
    tracer.wrap(Box, "inner", "inner", count=lambda r: {"items": len(r)})
    tracer.wrap(Box, "outer", "outer")
    Box.outer(2)                                # inactive: nothing recorded
    tracer.active = True
    with tracer.span("run"):
        Box.outer(3)
    tracer.unwrap_all()
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("run", ROOT), ("outer", 0), ("inner", 1)]
    assert tracer.counters == {"items": 3}
    assert Box.outer(1) == [1] and not hasattr(Box.outer, "__wrapped__")


# ---------------------------------------------------------------------------
# tail percentile: the highest ladder percentile with >= 10 samples beyond it

@pytest.mark.parametrize("n, expected", [
    (19, None),                 # p50 would leave only 9 beyond
    (20, (50.0, 10)),
    (86, (75.0, 65)),           # p90 leaves 8 beyond
    (100, (90.0, 90)),
    (1000, (99.0, 990)),        # p99.9 leaves 1 beyond
])
def test_tail_percentile_rule(n, expected):
    samples = list(range(n, 0, -1))             # order must not matter
    assert tail_percentile(samples) == expected
    if expected:
        assert sum(1 for s in samples if s > expected[1]) >= 10


# ---------------------------------------------------------------------------
# metric tables

def _all_metrics():
    return list(spec.END_TO_END) + list(spec.PER_LAYER)


def test_metric_names_follow_the_rule():
    names = [m.name for m in _all_metrics()] + list(spec.WORKLOADS)
    for name in names:
        assert spec.METRIC_NAME.fullmatch(name) and len(name) <= 64, name
        assert name[0].isalnum(), name
    assert len(names) == len(set(names))
    for bad in ("run s", "tensor/op", "kc%", ""):
        assert not spec.METRIC_NAME.fullmatch(bad)


def test_units_and_directions():
    unit = __import__("re").compile(r"[A-Za-z0-9_/%.-]{1,16}")
    for m in _all_metrics():
        assert unit.fullmatch(m.unit), m
        assert m.better in ("lower", "higher"), m
    for m in spec.END_TO_END:
        assert 0 < m.bound <= 0.25
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)


def test_benchmark_json_mirrors_spec():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["workloads"] == [{"name": w.name, "why": w.why}
                                  for w in spec.WORKLOADS.values()]
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER]
    for w in spec.WORKLOADS.values():
        assert len(w.why) <= 200 and "\n" not in w.why


# ---------------------------------------------------------------------------
# the pass gate

def _pass(digest="d0", pcc=99.0, kc=95.0, **extra):
    return {"digest": digest, "pcc": pcc, "kc": kc, "map_written": True,
            "scene": 0, "traced": False, **extra}


def test_digest_mismatch_fails_the_pass():
    w = spec.WORKLOADS["c6-train"]
    passes = [_pass(), _pass(digest="d1"), _pass(),
              _pass(digest="e0", scene=1)]       # another scene, another map
    assert judge(passes, w) == 1
    assert passes[1]["failures"] and "differs" in passes[1]["failures"][0]
    assert not any(passes[i]["failures"] for i in (0, 2, 3))


def test_floors_errors_and_unattributed_time_fail_the_pass():
    w = spec.WORKLOADS["c6-train"]
    passes = [_pass(), _pass(pcc=w.min_pcc - 0.1), _pass(kc=w.min_kc - 0.1),
              {"error": "RuntimeError: boom", "scene": 0, "traced": False},
              _pass(traced=True, self_sum_s=1.0, span_run_s=1.5),
              _pass(traced=True, self_sum_s=1.5, span_run_s=1.5)]
    assert judge(passes, w) == 4
    assert [bool(p["failures"]) for p in passes] == [False, True, True, True,
                                                     True, False]


def test_tracing_overhead_pairs_passes_of_one_scene():
    passes = [_pass(run_s=2.0), _pass(run_s=2.5, traced=True),
              _pass(run_s=5.0, scene=1), _pass(run_s=5.1, scene=1, traced=True),
              _pass(run_s=9.0, scene=2, traced=True),       # no untraced twin
              {"error": "boom", "scene": 1, "traced": True}]
    assert sorted(tracing_gaps(passes)) == pytest.approx([0.1, 0.5])


# ---------------------------------------------------------------------------
# end to end on a miniature scene

def test_traced_pass_counts_ops_and_attributes_all_time(tmp_path):
    import pipeline
    from wbanet import evalio

    w = dataclasses.replace(spec.WORKLOADS["c6-train"], size=48, epochs=1,
                            n_per_class=80)
    i1, i2, gt = evalio.synth_pair(evalio.SynthConfig(h=48, w=48, seed=3))
    for name, img in zip(pipeline.INPUTS, (i1, i2, gt * 255)):
        evalio.write_pgm(tmp_path / name, img)
    cfg = pipeline.model_config(w)
    plain = pipeline.run_once(tmp_path, tmp_path, cfg)

    tracer = Tracer()
    pipeline.install_spans(tracer)
    try:
        tracer.active = True
        with tracer.span("run"):
            traced = pipeline.run_once(tmp_path, tmp_path, cfg)
        tracer.active = False
        m, self_sum = pipeline.span_metrics(tracer, traced)
    finally:
        tracer.unwrap_all()

    assert traced["digest"] == plain["digest"] and traced["map_written"]
    assert self_sum == pytest.approx(m["trace.run_s"], abs=1e-9)
    per_step = {op: m[f"tensor.op_calls_per_step.{op}"]
                for op in ("matmul", "narrow", "softmax_rows", "concat")}
    assert per_step == {"matmul": 34, "narrow": 28, "softmax_rows": 8, "concat": 4}
    assert m["model.train_steps"] == math.ceil(traced["patches"] / cfg.batch_size)
    assert m["model.predict_batches"] == math.ceil(traced["intermediate_px"] / 256)
    assert m["preclass.fcm_calls"] == 2 and m["preclass.fcm_iters"] > 2
    layer_names = {x.name for x in spec.PER_LAYER if not x.name.startswith(
        ("layer.", "trace.overhead"))}
    assert layer_names <= set(m)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "c6-train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
