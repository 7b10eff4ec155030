"""Command-line entry point: synthetic data generation, the full
change-detection run, the block-count sweep, and the invariant selftest.

``@FILE`` reads arguments from FILE, one per line (``--epochs=10``), through
the same parser as flags; a later option overrides an earlier one, and unset
options take the config dataclass defaults. Every command persists its
resolved configuration next to its outputs. Exit codes: 0 success, 2
input/config or usage error, 3 degenerate-data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import evalio, model, preclass, tensor as T
from .errors import ConfigError, FormatError, InputError, SamplingError
from .model import ChangeMap, ModelConfig, predict_map, save_checkpoint, train
from .preclass import Label
from .wavelet import dwt2_numpy, energy, idwt2_numpy

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


def _given(args: argparse.Namespace, keys) -> dict:
    """The options among ``keys`` that were given; the dataclass holds the rest."""
    return {k: v for k, v in vars(args).items() if k in keys and v is not None}


def _out_dir(path: str) -> Path:
    """The -o directory, created with its parents if missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # -o or one of its parents is a file
        raise InputError(f"-o {path}: {exc}") from None
    return out


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    opts = _given(args, ["size", "looks", "seed", "change_fraction",
                         "background", "change"])
    if "size" in opts:  # SynthConfig holds the defaults
        opts["h"] = opts["w"] = opts.pop("size")
    cfg = evalio.SynthConfig(**opts)
    i1, i2, gt = evalio.synth_pair(cfg)
    out = _out_dir(args.out)
    evalio.write_pgm(out / "i1.pgm", i1)
    evalio.write_pgm(out / "i2.pgm", i2)
    evalio.write_pgm(out / "gt.pgm", gt * 255)
    (center, axes) = cfg.resolved()
    _write_json(out / "synth_config.json", {
        **asdict(cfg), "center": list(center), "semi_axes": list(axes)})
    print(f"wrote i1.pgm, i2.pgm, gt.pgm to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run

# flag dest -> ModelConfig field; ModelConfig holds the defaults
_MODEL_FIELDS = {"seed": "seed", "patch": "patch_size", "dim": "embed_dim",
                 "heads": "n_heads", "blocks": "n_blocks", "epochs": "epochs",
                 "lr": "lr", "n_per_class": "n_per_class"}


def _model_config(opts: dict) -> ModelConfig:
    return ModelConfig(**{_MODEL_FIELDS[k]: v for k, v in opts.items()})


def _read_pgm(flag: str, path: str) -> tuple[np.ndarray, int]:
    try:
        return evalio.read_pgm_maxval(path)
    except OSError as exc:  # missing, a directory, no permission
        raise InputError(f"{flag} {path}: {exc}") from None


def _load_pair(args):
    i1, _ = _read_pgm("--i1", args.i1)
    i2, _ = _read_pgm("--i2", args.i2)
    if i1.shape != i2.shape:
        raise InputError(f"image extents differ: {i1.shape} vs {i2.shape}")
    gt = None
    if args.gt:
        gt, maxval = _read_pgm("--gt", args.gt)
        if gt.shape != i1.shape:
            raise InputError(f"ground truth extent {gt.shape} != {i1.shape}")
        # set above half the maxval, so 0/1 and 0/255 masks read alike
        gt = (gt > maxval / 2).astype(np.uint8)
    return i1, i2, gt


def _preclassify(i1, i2):
    di = preclass.log_ratio(i1, i2)
    labels = preclass.hfcm_partition(di)
    if labels.degenerate:
        raise SamplingError("degenerate pre-classification: constant "
                            "difference image")
    return di, labels


def _threshold_fallback(di: np.ndarray, labels) -> ChangeMap:
    """N=0 path: intermediate pixels resolved by thresholding the difference
    image at the midpoint of the confident class means."""
    values = (labels.labels == int(Label.CHANGED)).astype(np.uint8)
    provenance = np.full(values.shape, model.PROVENANCE_PSEUDO, dtype=np.int8)
    inter = labels.mask(Label.INTERMEDIATE)
    if inter.any():
        thr = 0.5 * (di[labels.mask(Label.CHANGED)].mean()
                     + di[labels.mask(Label.UNCHANGED)].mean())
        values[inter] = (di[inter] > thr).astype(np.uint8)
        provenance[inter] = model.PROVENANCE_NETWORK
    return ChangeMap(values, provenance)


def cmd_run(args) -> int:
    i1, i2, gt = _load_pair(args)
    cfg = _model_config(_given(args, _MODEL_FIELDS))
    out = _out_dir(args.out)

    di, labels = _preclassify(i1, i2)
    params, history = train(i1, i2, labels, cfg)
    change = predict_map(i1, i2, labels, params, cfg)
    evalio.write_pgm(out / "change_map.pgm", change.values * 255)
    save_checkpoint(out / "checkpoint.wban", params, cfg)

    result = {"config": asdict(cfg),
              "final_train_loss": history.loss[-1],
              "final_train_accuracy": history.accuracy[-1]}
    if gt is not None:
        report = evalio.evaluate(change.values, gt)
        _write_json(out / "metrics.json", report.to_json_dict())
        result["metrics"] = report.to_json_dict()
        print(f"PCC={report.pcc:.2f}% KC={report.kc:.2f}% OE={report.oe}")
    _write_json(out / "run_config.json", result)
    print(f"wrote change_map.pgm, checkpoint.wban to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep-blocks

def cmd_sweep_blocks(args) -> int:
    if not 0 <= args.blocks_from <= args.blocks_to <= 8:
        raise ConfigError("need 0 <= --blocks-from <= --blocks-to <= 8, got "
                          f"{args.blocks_from}..{args.blocks_to}")
    i1, i2, gt = _load_pair(args)
    if gt is None:
        raise InputError("sweep-blocks requires --gt to score each run")
    opts = _given(args, _MODEL_FIELDS)
    base = _model_config(opts)  # checked before any training
    out = _out_dir(args.out)

    di, labels = _preclassify(i1, i2)
    rows = []
    for n in range(args.blocks_from, args.blocks_to + 1):
        t0 = time.perf_counter()
        if n == 0:
            change = _threshold_fallback(di, labels)
        else:
            cfg = replace(base, n_blocks=n)
            params, _ = train(i1, i2, labels, cfg)
            change = predict_map(i1, i2, labels, params, cfg)
        report = evalio.evaluate(change.values, gt)
        seconds = time.perf_counter() - t0
        rows.append((n, report.pcc, report.kc, seconds))
        print(f"N={n}: PCC={report.pcc:.2f}% KC={report.kc:.2f}% "
              f"({seconds:.1f}s)")

    with open(out / "pcc_vs_n.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "pcc", "kc", "seconds"])
        for n, pcc, kc, seconds in rows:
            writer.writerow([n, f"{pcc:.6f}", f"{kc:.6f}", f"{seconds:.3f}"])
    _write_json(out / "sweep_config.json",
                {**opts, "blocks_from": args.blocks_from,
                 "blocks_to": args.blocks_to})
    print(f"wrote pcc_vs_n.csv to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest

def run_selftest() -> list[tuple[str, bool, str]]:
    """(name, passed, detail) of three invariant suites: the wavelet round trip,
    the gradient oracle over every op of criterion 2's mini network, a hand kappa."""
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(50):
        h = 2 * int(rng.integers(1, 17))
        w = 2 * int(rng.integers(1, 17))
        c = int(rng.integers(1, 9))
        x = rng.normal(size=(h, w, c))
        s = dwt2_numpy(x)
        # np.max, unlike max, carries a NaN through to the check
        worst = np.max([worst, np.abs(idwt2_numpy(s) - x).max(),
                        abs(energy(s) - energy(x))])
    results = [("wavelet reconstruction + energy", bool(worst <= 1e-9),
                f"worst err {worst:.2e}")]

    params = model.init_params(ModelConfig(patch_size=4, embed_dim=8, n_heads=2,
                                           n_blocks=1), rng)
    x = rng.normal(size=(2, 4, 4, 2))
    err = T.max_rel_grad_err(
        lambda: model.cross_entropy(model.forward(x, params), np.array([0, 1])),
        params.tensors(), rng, n_coords=1)
    results.append(("gradient finite differences, miniature network",
                    bool(err < 1e-3), f"max rel err {err:.2e}"))

    rep = evalio.metrics(40, 40, 10, 10)
    ok = rep.oe == 20 and abs(rep.pcc - 80.0) <= 1e-9 and abs(rep.kc - 60.0) <= 1e-9
    results.append(("metric identities", ok, f"oe={rep.oe} pcc={rep.pcc} kc={rep.kc}"))
    return results


def cmd_selftest(args) -> int:
    results = run_selftest()
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return EXIT_OK if all(ok for _, ok, _ in results) else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbanet", fromfile_prefix_chars="@",
        description="Wavelet-attention SAR change detection. @FILE reads "
                    "arguments from FILE, one per line; a later flag wins.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic speckled pair")
    synth.add_argument("--size", type=int)
    synth.add_argument("--looks", type=float)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--change-fraction", type=float)
    synth.add_argument("--background", type=float)
    synth.add_argument("--change", type=float)
    synth.add_argument("-o", "--out", required=True)
    synth.set_defaults(func=cmd_synth)

    def add_model_flags(p):
        p.add_argument("--i1", required=True)
        p.add_argument("--i2", required=True)
        p.add_argument("--gt")
        p.add_argument("--seed", type=int)
        p.add_argument("--patch", type=int)
        p.add_argument("--dim", type=int)
        p.add_argument("--heads", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--n-per-class", type=int)
        p.add_argument("-o", "--out", required=True)

    run = sub.add_parser("run", help="full pipeline on an image pair")
    add_model_flags(run)
    run.add_argument("--blocks", type=int)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep-blocks",
                           help="train once per block count, emit CSV")
    add_model_flags(sweep)
    sweep.add_argument("--blocks-from", type=int, default=1)
    sweep.add_argument("--blocks-to", type=int, default=5)
    sweep.set_defaults(func=cmd_sweep_blocks)

    selftest = sub.add_parser("selftest", help="run the invariant suites")
    selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UnicodeDecodeError as exc:  # an @file that is not text (Python < 3.12)
        parser.error(str(exc))
    try:
        return args.func(args)
    except (ConfigError, InputError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
