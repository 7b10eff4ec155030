"""wbanet benchmark: run one workload (or all of them) and print every metric.

    python3 perfbench/run.py --workload c6-train --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run it from the repository root. Each workload runs in a fresh worker
process with the BLAS/OpenMP threads pinned; its scenes are synthesised from
``--seed`` and written as PGM before any timing starts. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
environment included, goes to ``.perfbench/<workload>-seed<seed>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
# One thread: measured neutral against two on 2 cores, for patch-8 and for
# patch-16 training and prediction, and it keeps an OpenBLAS pool from
# competing with the Python thread.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9
INVOCATION_LIMIT_S = 170.0      # one invocation must end within 180 s


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, nproc()))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_record(env: dict[str, str]) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": nproc(),
        "cpu": cpu_model(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def make_inputs(root: Path, w: spec.Workload, seed: int) -> Path:
    """Synthesise the run's scenes from ``seed`` and write each pair as 8-bit
    PGM, as ``wbanet synth`` does; nothing here is timed."""
    from wbanet import evalio
    data = root / ".perfbench" / f"{w.name}-seed{seed}"
    for j in range(spec.SCENES):
        scene = data / f"scene{j}"
        scene.mkdir(parents=True, exist_ok=True)
        i1, i2, gt = evalio.synth_pair(evalio.SynthConfig(
            h=w.size, w=w.size, looks=w.looks, seed=seed * spec.SCENES + j))
        evalio.write_pgm(scene / "i1.pgm", i1)
        evalio.write_pgm(scene / "i2.pgm", i2)
        evalio.write_pgm(scene / "gt.pgm", gt * 255)
    return data


def run_worker(argv: list[str], env: dict[str, str], timeout: float) -> dict:
    """Run ``worker.py`` to completion and return its last JSON line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(root: Path, w: spec.Workload, seed: int, seconds: float,
                 trace: bool, env: dict[str, str], record: dict) -> dict:
    t_end = time.monotonic() + INVOCATION_LIMIT_S
    data = make_inputs(root, w, seed)
    result = {"workload": w.name, "seed": seed, "trace": int(trace),
              "environment": record}
    if not trace:
        probes = [run_worker(["--setup-only", "--data", str(data)], env,
                             t_end - time.monotonic())["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result["setup_s_samples"] = probes
    result.update(run_worker(
        ["--workload", w.name, "--data", str(data), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        env, t_end - time.monotonic()))
    if not trace and result["metrics"]:
        result["metrics"]["setup_s"] = statistics.median(result["setup_s_samples"])
    (data / f"result-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def print_workload(result: dict, table) -> list[str]:
    """Print one workload's metrics; return the names that are missing."""
    att, failed = result["attempted"], result["failed"]
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{att} passes, {failed} failed, failed_run_ratio {failed / att:.4f}")
    for p in result["passes"]:
        for why in p["failures"]:
            print(f"  FAILED pass: {why}")
    missing = []
    for m in table:
        v = result["metrics"].get(m.name)
        if v is None:
            missing.append(m.name)
            print(f"  {m.name:44s} missing")
        else:
            print(f"  {m.name:44s} {v:14.6g} {m.unit:10s} ({m.better} is better)")
    if result["trace"] and "trace.overhead_s" in result["metrics"]:
        print(f"  tracing overhead: {result['metrics']['trace.overhead_s']:.4f} s "
              f"on a traced run_s of {result['metrics']['trace.run_s']:.4f} s")
    return missing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(spec.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wbanet" / "__init__.py").is_file():
        print(f"error: no src/wbanet under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = child_env(root)
    record = environment_record(env)
    print("environment: " + json.dumps(record, sort_keys=True))

    table = spec.PER_LAYER if args.trace else spec.END_TO_END
    names = sorted(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    results, missing = [], []
    for name in names:
        try:
            r = run_workload(root, spec.WORKLOADS[name], args.seed, args.seconds,
                             bool(args.trace), env, record)
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        results.append(r)
        missing += print_workload(r, table)

    prefix = len(results) > 1
    metrics = {f"{r['workload']}.{m.name}" if prefix else m.name:
               {"value": r["metrics"][m.name], "unit": m.unit}
               for r in results for m in table if m.name in r["metrics"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0 and not missing,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
