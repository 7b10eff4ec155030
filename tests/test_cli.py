import dataclasses
import hashlib
import json
import sys
import typing

import numpy as np
import pytest

from wbanet import cli, evalio, tensor as T
from wbanet.cli import _MODEL_FIELDS, build_parser, main, run_selftest
from wbanet.model import ModelConfig
from wbanet.wavelet import dwt2_numpy


def checksum(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_pair(tmp_path, size=32, seed=3):
    out = tmp_path / "data"
    rc = main(["synth", "--size", str(size), "--looks", "4",
               "--seed", str(seed), "-o", str(out)])
    assert rc == 0
    return out


FAST = ["--epochs", "2", "--dim", "8", "--heads", "2", "--patch", "4",
        "--n-per-class", "20"]


def args_file(path, *lines):
    """Write an option file, one argument per line; return its @ argument."""
    path.write_text("".join(f"{line}\n" for line in lines))
    return f"@{path}"


def usage_error(argv, capsys) -> str:
    """Run main, expecting argparse's exit 2; return what it wrote to stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestSynth:
    def test_writes_three_pgms_and_config(self, tmp_path):
        out = make_pair(tmp_path)
        for name in ("i1.pgm", "i2.pgm", "gt.pgm", "synth_config.json"):
            assert (out / name).exists()

    def test_same_seed_identical_files(self, tmp_path):
        a = make_pair(tmp_path / "a", seed=7)
        b = make_pair(tmp_path / "b", seed=7)
        for name in ("i1.pgm", "i2.pgm", "gt.pgm"):
            assert checksum(a / name) == checksum(b / name)

    def test_oversized_ellipse_exits_2(self, tmp_path, capsys):
        rc = main(["synth", "--size", "32", "--change-fraction", "2.0",
                   "-o", str(tmp_path / "x")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("--size=32.0", "argument --size: invalid int value: '32.0'"),
        ("--looks=four", "argument --looks: invalid float value: 'four'"),
        ("--seed=1.5", "argument --seed: invalid int value: '1.5'"),
        ("--change=", "argument --change: invalid float value: ''")],
        ids=["size-float", "looks-str", "seed-float", "change-null"])
    def test_wrongly_typed_config_value_exits_2(self, tmp_path, capsys, line,
                                                message):
        opts = args_file(tmp_path / "s.args", line)
        err = usage_error(["synth", opts, "-o", str(tmp_path / "x")], capsys)
        assert f"error: {message}" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "-1"), ("--change-fraction", "0"),
        ("--change-fraction", "-0.1"), ("--change-fraction", "nan"),
        ("--looks", "nan"), ("--change", "nan")])
    def test_out_of_range_synth_flag_exits_2(self, tmp_path, capsys, flag,
                                             value):
        rc = main(["synth", "--size", "32", f"{flag}={value}",
                   "-o", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {flag[2:].replace('-', '_')} must be")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [["--size", "4"],
                                      ["--change-fraction", "1e-6"]],
                             ids=["size-4", "change-fraction-1e-6"])
    def test_empty_change_region_exits_2(self, tmp_path, capsys, argv):
        # the ellipse fits the frame but contains no pixel centre, so the
        # ground truth would have no changed pixel
        rc = main(["synth", *argv, "-o", str(tmp_path / "x")])
        assert rc == 2
        assert "covers no pixel" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_defaults_are_synth_config_defaults(self, tmp_path):
        assert main(["synth", "-o", str(tmp_path / "d")]) == 0
        written = json.loads((tmp_path / "d" / "synth_config.json").read_text())
        want = dataclasses.asdict(evalio.SynthConfig())
        assert written.keys() == want.keys() | {"center", "semi_axes"}
        for key, value in want.items():
            assert written[key] == value, key

    def test_size_sets_height_and_width(self, tmp_path):
        assert main(["synth", "--size", "48", "-o", str(tmp_path / "d")]) == 0
        written = json.loads((tmp_path / "d" / "synth_config.json").read_text())
        assert (written["h"], written["w"]) == (48, 48)
        assert evalio.read_pgm(tmp_path / "d" / "i1.pgm").shape == (48, 48)


class TestRun:
    def test_full_run_writes_artifacts(self, tmp_path):
        data = make_pair(tmp_path)
        out = tmp_path / "run"
        rc = main(["run", "--i1", str(data / "i1.pgm"),
                   "--i2", str(data / "i2.pgm"),
                   "--gt", str(data / "gt.pgm"),
                   "--blocks", "1", *FAST, "--seed", "0", "-o", str(out)])
        assert rc == 0
        for name in ("change_map.pgm", "checkpoint.wban",
                     "metrics.json", "run_config.json"):
            assert (out / name).exists()
        report = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= report["pcc"] <= 100.0

    def test_blocks_flag_honored_in_checkpoint(self, tmp_path):
        data = make_pair(tmp_path)
        out = tmp_path / "run"
        main(["run", "--i1", str(data / "i1.pgm"), "--i2",
              str(data / "i2.pgm"), "--blocks", "2", *FAST, "-o", str(out)])
        from wbanet.model import load_checkpoint
        _, cfg = load_checkpoint(out / "checkpoint.wban")
        assert cfg.n_blocks == 2

    def test_missing_gt_skips_metrics(self, tmp_path):
        data = make_pair(tmp_path)
        out = tmp_path / "run"
        rc = main(["run", "--i1", str(data / "i1.pgm"),
                   "--i2", str(data / "i2.pgm"),
                   "--blocks", "1", *FAST, "-o", str(out)])
        assert rc == 0
        assert not (out / "metrics.json").exists()

    def test_extent_mismatch_exits_2(self, tmp_path):
        a = make_pair(tmp_path / "a", size=32)
        b = make_pair(tmp_path / "b", size=16)
        rc = main(["run", "--i1", str(a / "i1.pgm"),
                   "--i2", str(b / "i2.pgm"), "-o", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["run", "sweep-blocks"])
    def test_degenerate_input_exits_3(self, tmp_path, capsys, command):
        flat = np.full((16, 16), 9.0)
        evalio.write_pgm(tmp_path / "f.pgm", flat)
        f = str(tmp_path / "f.pgm")
        rc = main([command, "--i1", f, "--i2", f, "--gt", f, *FAST,
                   "-o", str(tmp_path / "x")])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "error: degenerate pre-classification")

    @pytest.mark.parametrize("flag,value", [
        ("--heads", "0"), ("--heads", "-4"), ("--dim", "0"), ("--patch", "0"),
        ("--n-per-class", "0"), ("--epochs", "0"), ("--lr", "-1"),
        ("--lr", "nan"), ("--seed", "-1")])
    def test_out_of_range_model_flag_exits_2(self, tmp_path, capsys, flag,
                                             value):
        data = make_pair(tmp_path)
        capsys.readouterr()
        rc = main(["run", "--i1", str(data / "i1.pgm"),
                   "--i2", str(data / "i2.pgm"), *FAST, flag, value,
                   "-o", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "x").exists()

    def test_gt_maxval_does_not_change_metrics(self, tmp_path):
        data = make_pair(tmp_path)
        gt = (evalio.read_pgm(data / "gt.pgm") > 0).astype(np.uint8)
        assert gt.any()
        # the same mask stored as 0/1 with maxval 1
        (tmp_path / "gt1.pgm").write_bytes(b"P5\n32 32\n1\n" + gt.tobytes())
        metrics = []
        for name, gt_path in (("r255", data / "gt.pgm"),
                              ("r1", tmp_path / "gt1.pgm")):
            out = tmp_path / name
            rc = main(["run", "--i1", str(data / "i1.pgm"),
                       "--i2", str(data / "i2.pgm"), "--gt", str(gt_path),
                       "--blocks", "1", *FAST, "-o", str(out)])
            assert rc == 0
            metrics.append((out / "metrics.json").read_text())
        assert metrics[0] == metrics[1]

    def test_config_file_precedence(self, tmp_path):
        data = make_pair(tmp_path)
        opts = args_file(tmp_path / "cfg.args", "--epochs=1", "--dim=8",
                         "--heads=2", "--patch=4", "--n-per-class=10",
                         "--blocks=2")
        out = tmp_path / "run"
        # the flag after the file overrides its --blocks=2
        rc = main(["run", "--i1", str(data / "i1.pgm"),
                   "--i2", str(data / "i2.pgm"), opts, "--blocks", "1",
                   "-o", str(out)])
        assert rc == 0
        resolved = json.loads((out / "run_config.json").read_text())
        assert resolved["config"]["n_blocks"] == 1
        assert resolved["config"]["epochs"] == 1

    @pytest.mark.parametrize("content,message", [
        (b"--dim=8\n--epochs\n", "argument --epochs: expected one argument"),
        (b"--dim=8\n1\n", "unrecognized arguments: 1"),
        (b"--blocks=two\n", "argument --blocks: invalid int value: 'two'"),
        # argparse decodes an @file strictly before Python 3.12 and with
        # surrogateescape from 3.12 on
        (b"--epochs\n--dim=\xff\n", "codec can't decode byte 0xff"
         if sys.version_info < (3, 12) else
         "argument --epochs: expected one argument")],
        ids=["missing-value", "stray-token", "wrong-type", "not-text"])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, content, message):
        data = make_pair(tmp_path)
        capsys.readouterr()
        (tmp_path / "cfg.args").write_bytes(content)
        err = usage_error(["run", "--i1", str(data / "i1.pgm"),
                           "--i2", str(data / "i2.pgm"),
                           "-o", str(tmp_path / "run"),
                           f"@{tmp_path / 'cfg.args'}"], capsys)
        assert message in err.splitlines()[-1]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["synth", "run"])
    def test_directory_as_option_file_exits_2(self, tmp_path, capsys,
                                              command):
        data = make_pair(tmp_path)
        capsys.readouterr()
        argv = {"synth": ["synth"],
                "run": ["run", "--i1", str(data / "i1.pgm"),
                        "--i2", str(data / "i2.pgm")]}[command]
        err = usage_error([*argv, f"@{tmp_path}", "-o", str(tmp_path / "out")],
                          capsys)
        assert err.splitlines()[-1].endswith(
            f"Is a directory: '{tmp_path}'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag", [
        ("run", "--i1"), ("run", "--i2"), ("run", "--gt")])
    def test_directory_as_input_path_exits_2(self, tmp_path, capsys,
                                             command, flag):
        data = make_pair(tmp_path)
        capsys.readouterr()
        rc = main([command, "--i1", str(data / "i1.pgm"),
                   "--i2", str(data / "i2.pgm"), flag, str(tmp_path),
                   "-o", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} {tmp_path}")



@pytest.mark.parametrize("command", ["synth", "run"])
def test_unknown_config_keys_exit_2(tmp_path, capsys, command):
    data = make_pair(tmp_path)
    capsys.readouterr()
    opts = args_file(tmp_path / "cfg.args", "--seed=1", "--epochz=5")
    argv = {"synth": ["synth"],
            "run": ["run", "--i1", str(data / "i1.pgm"),
                    "--i2", str(data / "i2.pgm")]}[command]
    err = usage_error([*argv, opts, "-o", str(tmp_path / "out")], capsys)
    assert err.splitlines()[-1] == \
        "wbanet: error: unrecognized arguments: --epochz=5"
    assert not (tmp_path / "out").exists()


def test_flag_types_match_field_types():
    """argparse is the only type gate for CLI values, so each flag's type
    must be the annotation of the config field it sets."""
    commands = next(a for a in build_parser()._actions
                    if a.dest == "command").choices
    run_types = {a.dest: a.type for a in commands["run"]._actions}
    model_hints = typing.get_type_hints(ModelConfig)
    for dest, field in _MODEL_FIELDS.items():
        assert run_types[dest] is model_hints[field], dest
    synth_hints = typing.get_type_hints(evalio.SynthConfig)
    synth_fields = {"w"}  # --size sets h and w
    for a in commands["synth"]._actions:
        if a.dest not in ("help", "out"):
            field = "h" if a.dest == "size" else a.dest
            assert a.type is synth_hints[field], a.dest
            synth_fields.add(field)
    assert synth_fields == synth_hints.keys()


@pytest.mark.parametrize("command", ["synth", "run", "sweep-blocks"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command):
    data = make_pair(tmp_path)
    capsys.readouterr()
    target = tmp_path / "taken"
    target.write_text("not a directory")
    pair = ["--i1", str(data / "i1.pgm"), "--i2", str(data / "i2.pgm"),
            "--gt", str(data / "gt.pgm"), *FAST]
    argv = {"synth": ["synth", "--size", "32"], "run": ["run", *pair],
            "sweep-blocks": ["sweep-blocks", *pair]}[command]
    rc = main([*argv, "-o", str(target)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: -o {target}")
    assert target.read_text() == "not a directory"


class TestSweep:
    def test_csv_rows_and_determinism(self, tmp_path):
        data = make_pair(tmp_path)
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            rc = main(["sweep-blocks", "--i1", str(data / "i1.pgm"),
                       "--i2", str(data / "i2.pgm"),
                       "--gt", str(data / "gt.pgm"),
                       "--blocks-from", "0", "--blocks-to", "2",
                       *FAST, "--seed", "1", "-o", str(out)])
            assert rc == 0
            outs.append((out / "pcc_vs_n.csv").read_text().splitlines())
        header, *rows = outs[0]
        assert header == "n,pcc,kc,seconds"
        assert len(rows) == 3  # N = 0, 1, 2 including the degenerate row
        # deterministic modulo the wall-clock seconds column
        for r1, r2 in zip(*outs):
            assert r1.split(",")[:3] == r2.split(",")[:3]

    def test_out_of_range_blocks_rejected_before_training(self, tmp_path,
                                                          capsys):
        data = make_pair(tmp_path)
        out = tmp_path / "x"
        rc = main(["sweep-blocks", "--i1", str(data / "i1.pgm"),
                   "--i2", str(data / "i2.pgm"), "--gt", str(data / "gt.pgm"),
                   "--blocks-from", "8", "--blocks-to", "9", *FAST,
                   "-o", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "N=" not in captured.out
        assert captured.err.startswith("error: ")

    def test_blocks_config_key_rejected(self, tmp_path, capsys):
        # the sweep range comes from --blocks-from/--blocks-to only
        data = make_pair(tmp_path)
        capsys.readouterr()
        opts = args_file(tmp_path / "cfg.args", "--blocks=3", "--epochs=1")
        err = usage_error(["sweep-blocks", "--i1", str(data / "i1.pgm"),
                           "--i2", str(data / "i2.pgm"),
                           "--gt", str(data / "gt.pgm"),
                           "--blocks-from", "1", "--blocks-to", "1", *FAST,
                           opts, "-o", str(tmp_path / "x")], capsys)
        assert err.splitlines()[-1].endswith(
            "error: ambiguous option: --blocks=3 could match --blocks-from, "
            "--blocks-to")
        assert not (tmp_path / "x").exists()

    def test_requires_gt(self, tmp_path):
        data = make_pair(tmp_path)
        rc = main(["sweep-blocks", "--i1", str(data / "i1.pgm"),
                   "--i2", str(data / "i2.pgm"), *FAST,
                   "-o", str(tmp_path / "x")])
        assert rc == 2


class TestSelftest:
    def test_fresh_build_passes(self):
        results = run_selftest()
        assert all(ok for _, ok, _ in results)

    def test_injected_wavelet_sign_bug_detected(self, monkeypatch):
        def buggy_dwt(a):
            s = dwt2_numpy(a)
            c = s.shape[-1] // 4
            s[..., c:2 * c] *= -1.0  # flipped LH sign
            return s

        monkeypatch.setattr(cli, "dwt2_numpy", buggy_dwt)
        results = run_selftest()
        recon = [ok for name, ok, _ in results if "reconstruction" in name]
        assert recon == [False]

    def test_nan_wavelet_output_detected(self, monkeypatch):
        # Python's max skips a NaN, so this passed while the suite used it
        monkeypatch.setattr(cli, "dwt2_numpy",
                            lambda a: np.full_like(dwt2_numpy(a), np.nan))
        recon = [ok for name, ok, _ in run_selftest() if "reconstruction" in name]
        assert recon == [False]

    def test_injected_gelu_backward_bug_detected(self, monkeypatch, capsys):
        # GELU is reached only through the BAM gates, so this fails unless
        # the gradient suite covers the whole network
        gelu = T.gelu

        def gelu_grad_doubled(a):
            out = gelu(a)
            fn = out._backward_fn
            if fn is not None:
                out._backward_fn = lambda g: tuple(2.0 * pg for pg in fn(g))
            return out

        monkeypatch.setattr(T, "gelu", gelu_grad_doubled)
        grad = [ok for name, ok, _ in run_selftest() if "gradient" in name]
        assert grad == [False]
        assert main(["selftest"]) == 1
        assert "[FAIL] gradient" in capsys.readouterr().out

    def test_cli_exit_code(self):
        assert main(["selftest"]) == 0
