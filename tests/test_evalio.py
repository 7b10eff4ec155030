import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbanet.errors import ConfigError, FormatError, InputError
from wbanet.evalio import (SynthConfig, confusion, ellipse_mask, evaluate,
                           metrics, read_pgm, synth_pair, write_pgm)

# FP / FN / OE rows reported for the three evaluated datasets
PUBLISHED_COUNTS = [
    (7528, 2213, 9741), (2231, 1272, 3503), (1472, 1559, 3031),
    (1822, 1023, 2845), (1867, 906, 2773), (1092, 1373, 2465),
    (2987, 387, 3374), (1661, 883, 2544), (1835, 585, 2420),
    (1761, 635, 2396), (1105, 1207, 2312), (1553, 640, 2193),
    (3052, 1034, 4086), (2199, 1467, 3666), (1251, 2222, 3473),
    (915, 2343, 3258), (991, 2126, 3117), (605, 1905, 2510),
]


def brute_force_confusion(pred, gt):
    tp = tn = fp = fn = 0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            p, g = bool(pred[i, j]), bool(gt[i, j])
            if p and g:
                tp += 1
            elif not p and not g:
                tn += 1
            elif p and not g:
                fp += 1
            else:
                fn += 1
    return tp, tn, fp, fn


class TestConfusion:
    def test_perfect_prediction(self):
        gt = np.eye(4, dtype=np.uint8)
        tp, tn, fp, fn = confusion(gt, gt)
        assert fp == fn == 0 and tp == 4 and tn == 12

    def test_inverted_prediction(self):
        gt = np.eye(4, dtype=np.uint8)
        tp, tn, fp, fn = confusion(1 - gt, gt)
        assert tp == tn == 0

    def test_extent_mismatch(self):
        with pytest.raises(InputError):
            confusion(np.zeros((2, 2)), np.zeros((2, 3)))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 2, (16, 16))
        gt = rng.integers(0, 2, (16, 16))
        assert confusion(pred, gt) == brute_force_confusion(pred, gt)


class TestMetrics:
    @pytest.mark.parametrize("fp,fn,oe", PUBLISHED_COUNTS)
    def test_oe_identity_on_published_rows(self, fp, fn, oe):
        rep = metrics(tp=5000, tn=100000, fp=fp, fn=fn)
        assert rep.oe == oe == fp + fn

    def test_all_correct(self):
        rep = metrics(tp=10, tn=90, fp=0, fn=0)
        assert rep.pcc == 100.0
        assert rep.kc == pytest.approx(100.0, abs=1e-9)

    def test_hand_derived_kappa(self):
        rep = metrics(tp=40, tn=40, fp=10, fn=10)
        assert rep.pcc == pytest.approx(80.0, abs=1e-9)
        assert rep.kc == pytest.approx(60.0, abs=1e-9)

    def test_pcc_oe_identity(self):
        rep = metrics(tp=7, tn=83, fp=4, fn=6)
        assert rep.pcc + 100.0 * rep.oe / rep.n_total == pytest.approx(100.0)

    def test_single_class_degenerate_flagged(self):
        rep = metrics(tp=0, tn=100, fp=0, fn=0)
        assert not rep.kc_defined
        assert rep.kc == 0.0

    def test_json_fields(self):
        d = metrics(tp=1, tn=1, fp=1, fn=1).to_json_dict()
        assert set(d) == {"fp", "fn", "oe", "pcc", "kc", "n"}


class TestSynthPair:
    def test_deterministic_under_seed(self):
        cfg = SynthConfig(h=32, w=32, seed=5)
        a = synth_pair(cfg)
        b = synth_pair(cfg)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_gt_matches_rasterization_oracle(self):
        cfg = SynthConfig(h=64, w=64, seed=1)
        _, _, gt = synth_pair(cfg)
        (cy, cx), (ry, rx) = cfg.resolved()
        count = 0
        for i in range(64):
            for j in range(64):
                if ((i - cy) / ry) ** 2 + ((j - cx) / rx) ** 2 <= 1.0:
                    count += 1
        assert int(gt.sum()) == count

    def test_high_look_limit_recovers_reflectivity(self):
        cfg = SynthConfig(h=32, w=32, looks=1e6, seed=2,
                          background=25.0, change=140.0)
        i1, _, _ = synth_pair(cfg)
        assert np.all(np.abs(i1 / 25.0 - 1.0) < 0.01)

    def test_speckle_mean_near_one(self):
        cfg = SynthConfig(h=128, w=128, looks=4.0, seed=3,
                          background=25.0, change=140.0)
        i1, _, gt = synth_pair(cfg)
        bg = i1[gt == 0] / 25.0
        assert abs(bg.mean() - 1.0) < 0.02

    def test_ellipse_outside_frame_rejected(self):
        with pytest.raises(ConfigError):
            synth_pair(SynthConfig(h=16, w=16, change_fraction=0.9))

    def test_invalid_looks_rejected(self):
        with pytest.raises(ConfigError):
            synth_pair(SynthConfig(looks=0.5))

    def test_ellipse_mask_area_close_to_request(self):
        cfg = SynthConfig(h=128, w=128)
        (c, a) = cfg.resolved()
        mask = ellipse_mask(128, 128, c, a)
        assert abs(mask.mean() - 0.05) < 0.01


class TestPgm:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(4)
        grid = rng.integers(0, 256, (32, 32)).astype(np.float64)
        path = tmp_path / "img.pgm"
        write_pgm(path, grid)
        assert np.array_equal(read_pgm(path), grid)

    def test_header_and_payload_length(self, tmp_path):
        path = tmp_path / "ok.pgm"
        path.write_bytes(b"P5\n32 32\n255\n" + bytes(1024))
        assert read_pgm(path).shape == (32, 32)
        bad = tmp_path / "short.pgm"
        bad.write_bytes(b"P5\n32 32\n255\n" + bytes(1023))
        with pytest.raises(FormatError) as exc:
            read_pgm(bad)
        assert exc.value.offset is not None

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# foo\n2 2\n# bar\n255\n" + bytes([1, 2, 3, 4]))
        assert np.array_equal(read_pgm(path), [[1, 2], [3, 4]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
        with pytest.raises(FormatError) as exc:
            read_pgm(path)
        assert exc.value.offset == 0

    def test_maxval_over_255_rejected(self, tmp_path):
        path = tmp_path / "wide.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(FormatError):
            read_pgm(path)

    def test_binary_map_written_as_0_255(self, tmp_path):
        path = tmp_path / "map.pgm"
        write_pgm(path, np.array([[0, 1], [1, 0]]) * 255)
        back = read_pgm(path)
        assert set(np.unique(back)) == {0.0, 255.0}


def test_evaluate_composes():
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[:2, :] = 1
    rep = evaluate(gt, gt)
    assert rep.oe == 0 and rep.pcc == 100.0
