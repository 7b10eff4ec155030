import json
import struct

import numpy as np
import pytest

from wbanet import evalio, tensor as T
from wbanet.errors import ConfigError, FormatError
from wbanet.model import (ModelConfig, ModelParams, block_forward,
                          cross_entropy, embed, forward, init_params,
                          load_checkpoint, predict_map, save_checkpoint,
                          train, train_on_batch)
from wbanet.preclass import Label, LabelMap, PatchBatch, hfcm_partition, log_ratio
from wbanet.tensor import Tensor, max_rel_grad_err


MINI = dict(patch_size=4, embed_dim=8, n_heads=2, n_blocks=1,
            epochs=2, batch_size=8, n_per_class=8)


def mini_cfg(**over):
    return ModelConfig(**{**MINI, **over})


class TestConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.embed_dim % 4 == 0

    @pytest.mark.parametrize("bad", [dict(patch_size=7), dict(embed_dim=10),
                                     dict(n_heads=3), dict(n_blocks=0),
                                     dict(n_blocks=9), dict(n_blocks="2"),
                                     dict(epochs=2.0), dict(lr="0.1"),
                                     dict(seed=True), dict(patch_size=0),
                                     dict(patch_size=-2), dict(embed_dim=0),
                                     dict(n_heads=0), dict(n_heads=-4),
                                     dict(epochs=0), dict(batch_size=0),
                                     dict(n_per_class=0), dict(lr=-1.0),
                                     dict(lr=0), dict(lr=float("nan")),
                                     dict(lr=float("inf")), dict(seed=-1)])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ConfigError):
            ModelConfig(**{**MINI, **bad})


def test_named_checkpoint_order():
    # the checkpoint stores tensors under these names, in this order
    names = [name for name, _ in init_params(mini_cfg(n_blocks=2)).named()]
    assert names == [
        "w_embed",
        "blocks.0.wsm.w_d", "blocks.0.wsm.w_q", "blocks.0.wsm.kv_conv",
        "blocks.0.wsm.w_o", "blocks.0.bam.fc_c1", "blocks.0.bam.fc_c2",
        "blocks.0.bam.fc_s1", "blocks.0.bam.fc_s2",
        "blocks.1.wsm.w_d", "blocks.1.wsm.w_q", "blocks.1.wsm.kv_conv",
        "blocks.1.wsm.w_o", "blocks.1.bam.fc_c1", "blocks.1.bam.fc_c2",
        "blocks.1.bam.fc_s1", "blocks.1.bam.fc_s2",
        "w_head", "b_head"]


class TestForward:
    def test_embed_shapes_and_zero(self):
        rng = np.random.default_rng(0)
        w_e = Tensor(rng.normal(size=(2, 32)))
        out = embed(Tensor(np.zeros((8, 8, 2))), w_e)
        assert out.shape == (8, 8, 32)
        assert np.all(out.data == 0.0)

    def test_embed_gradient(self):
        rng = np.random.default_rng(1)
        w_e = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 4, 2)))
        err = max_rel_grad_err(lambda: T.tsum(T.sigmoid(embed(x, w_e))),
                               [w_e], rng)
        assert err < 1e-4

    def test_block_stack_no_shape_drift(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 4, 8)))
        for n in range(1, 9):
            cfg = mini_cfg(n_blocks=n)
            params = init_params(cfg, np.random.default_rng(0))
            out = x
            for blk in params.blocks:
                out = block_forward(out, blk)
            assert out.shape == x.shape
            assert np.all(np.isfinite(out.data))

    def test_logit_shape(self):
        cfg = mini_cfg()
        params = init_params(cfg)
        patches = np.random.default_rng(3).normal(size=(5, 4, 4, 2))
        assert forward(patches, params).shape == (5, 2)

    def test_forward_deterministic(self):
        cfg = mini_cfg()
        params = init_params(cfg)
        patches = np.random.default_rng(4).normal(size=(3, 4, 4, 2))
        a = forward(patches, params).data
        b = forward(patches, params).data
        assert np.array_equal(a, b)

    def test_argmax_shift_invariant(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(10, 2))
        assert np.array_equal(logits.argmax(axis=1),
                              (logits + 3.7).argmax(axis=1))

    def test_end_to_end_gradient_mini(self):
        rng = np.random.default_rng(6)
        cfg = mini_cfg()
        params = init_params(cfg, rng)
        patches = rng.normal(size=(2, 4, 4, 2))
        labels = np.array([0, 1])

        def loss():
            return cross_entropy(forward(patches, params), labels)

        err = max_rel_grad_err(loss, params.tensors(), rng, n_coords=2)
        assert err < 1e-3


class TestTraining:
    @staticmethod
    def toy_batch(n=16):
        # class 0: dark pair, class 1: bright second channel
        rng = np.random.default_rng(7)
        patches = rng.uniform(0, 0.2, size=(n, 4, 4, 2))
        labels = np.arange(n) % 2
        patches[labels == 1, :, :, 1] += 2.0
        return PatchBatch(patches, labels,
                          np.zeros((n, 2), dtype=np.int64))

    def test_separable_toy_reaches_full_accuracy(self):
        cfg = mini_cfg(epochs=50, lr=1e-2)
        _, history = train_on_batch(self.toy_batch(), cfg)
        assert max(history.accuracy) == 1.0

    def test_loss_trend_downward(self):
        cfg = mini_cfg(epochs=20, lr=1e-2)
        _, history = train_on_batch(self.toy_batch(), cfg)
        assert np.mean(history.loss[-5:]) <= history.loss[0]

    def test_seeded_training_bitwise_identical(self):
        cfg = mini_cfg(epochs=3, seed=11)
        batch = self.toy_batch()
        p1, _ = train_on_batch(batch, cfg)
        p2, _ = train_on_batch(batch, cfg)
        for (n1, t1), (n2, t2) in zip(p1.named(), p2.named()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data), n1


def softmax_rows_flipped(a, axis=-1, scale=1.0):
    """``T.softmax_rows`` with its max and sums taken over the reversed axis:
    the same function, with the same scale, floor and refined backward,
    rounded in another order."""
    s = float(scale)
    out = a.data * s
    out -= np.flip(out, axis).max(axis=axis, keepdims=True)
    np.maximum(out, T._SOFTMAX_FLOOR, out=out)
    np.exp(out, out=out)
    out /= np.flip(out, axis).sum(axis=axis, keepdims=True)

    def backward(g):
        w = np.flip(out, axis)
        grad = g - T._dot_along(np.flip(g, axis), w, axis)
        grad -= T._dot_along(np.flip(grad, axis), w, axis)
        grad *= out
        grad *= s
        return (grad,)

    return T._node(out, (a,), backward)


# How far PCC and KC (points) may move when the softmax sums in another
# order. Set from synth seeds 0-11 with these settings before the softmax
# floor, where the largest moves were 0.20 PCC and 2.07 KC (seed 8, 33
# pixels). With the floor and the refined backward, seeds 0-19 move at most
# 0.07 PCC and 0.68 KC (11 pixels); seed 1 moves 0.02 and 0.19.
SUM_ORDER_PCC_BOUND = 0.25
SUM_ORDER_KC_BOUND = 2.5


def test_summation_order_moves_scores_within_bounds(monkeypatch):
    x = Tensor(np.random.default_rng(0).normal(size=(64, 16, 64)))
    assert not np.array_equal(T.softmax_rows(x, axis=-2).data,
                              softmax_rows_flipped(x, axis=-2).data)

    # a criterion-6-sized scene as `synth --size 128 --looks 4 --seed 1` writes it
    i1, i2, gt = evalio.synth_pair(evalio.SynthConfig(h=128, w=128, looks=4.0, seed=1))
    i1, i2 = (np.clip(np.rint(a), 0, 255) for a in (i1, i2))
    labels = hfcm_partition(log_ratio(i1, i2))
    cfg = ModelConfig(epochs=6, n_per_class=500, seed=0)  # c6-train's settings

    def score():
        params, _ = train(i1, i2, labels, cfg)
        return evalio.evaluate(predict_map(i1, i2, labels, params, cfg).values, gt)

    shipped = score()
    monkeypatch.setattr(T, "softmax_rows", softmax_rows_flipped)
    flipped = score()
    assert abs(flipped.pcc - shipped.pcc) <= SUM_ORDER_PCC_BOUND
    assert abs(flipped.kc - shipped.kc) <= SUM_ORDER_KC_BOUND


class TestPredictMap:
    @staticmethod
    def scene():
        rng = np.random.default_rng(8)
        i1 = rng.uniform(0, 10, (16, 16))
        i2 = i1.copy()
        i2[4:8, 4:8] += 200.0
        labels = np.zeros((16, 16), dtype=np.int8)
        labels[4:8, 4:8] = int(Label.CHANGED)
        return i1, i2, LabelMap(labels)

    def test_no_intermediate_pixels_copies_pseudo_labels(self):
        i1, i2, labels = self.scene()
        cfg = mini_cfg()
        params, _ = train(i1, i2, labels, cfg)
        cm = predict_map(i1, i2, labels, params, cfg)
        assert np.array_equal(cm.values.astype(bool),
                              labels.mask(Label.CHANGED))
        assert np.all(cm.provenance == 0)

    def test_every_pixel_binary(self):
        i1, i2, labels = self.scene()
        labels.labels[12:14, 12:14] = int(Label.INTERMEDIATE)
        cfg = mini_cfg()
        params, _ = train(i1, i2, labels, cfg)
        cm = predict_map(i1, i2, labels, params, cfg)
        assert set(np.unique(cm.values)) <= {0, 1}
        assert cm.values.shape == i1.shape
        assert np.all(cm.provenance[labels.mask(Label.INTERMEDIATE)] == 1)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = mini_cfg()
        params = init_params(cfg)
        path = tmp_path / "model.wban"
        save_checkpoint(path, params, cfg)
        loaded, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        for (n1, t1), (n2, t2) in zip(params.named(), loaded.named()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    def test_round_trip_identical_predictions(self, tmp_path):
        cfg = mini_cfg()
        params = init_params(cfg)
        patches = np.random.default_rng(9).normal(size=(6, 4, 4, 2))
        before = forward(patches, params).data
        path = tmp_path / "model.wban"
        save_checkpoint(path, params, cfg)
        loaded, _ = load_checkpoint(path)
        after = forward(patches, loaded).data
        assert np.array_equal(before, after)

    @pytest.mark.parametrize("saved, changes", [
        (dict(n_blocks=1), dict(n_blocks=2)),       # tensors missing
        (dict(n_blocks=2), dict(n_blocks=1)),       # tensors left over
        (dict(), dict(dropout=0.1)),                # unknown key
        (dict(), dict(embed_dim=16)),               # every shape wrong
        (dict(), dict(n_heads=3)),                  # config itself invalid
        (dict(), dict(n_heads=0)),                  # out of range, not a crash
    ], ids=["more-blocks", "fewer-blocks", "unknown-key", "embed-dim", "n-heads",
            "n-heads-0"])
    def test_config_not_fitting_tensors_rejected(self, tmp_path, saved, changes):
        cfg = mini_cfg(**saved)
        path = tmp_path / "model.wban"
        save_checkpoint(path, init_params(cfg), cfg)
        # rewrite the length-prefixed JSON config that follows magic + version
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[8:12])
        blob = json.dumps({**json.loads(raw[12:12 + n]), **changes}).encode()
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                         + raw[12 + n:])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", ["bad-magic", "version-2", "cut-in-config",
                                      "cut-in-table", "cut-in-data",
                                      "name-not-utf8"])
    def test_corrupt_bytes_raise_format_error_at_offset(self, tmp_path, case):
        cfg = mini_cfg()
        path = tmp_path / "model.wban"
        save_checkpoint(path, init_params(cfg), cfg)
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[8:12])
        name = 12 + n + 8  # first tensor name: after the config, count, length
        last = len(raw) - 8 * 2  # data of the last tensor, b_head (2,)
        corrupt, offset = {
            "bad-magic": (b"XBAN" + raw[4:], 0),
            "version-2": (raw[:4] + struct.pack("<I", 2) + raw[8:], 4),
            "cut-in-config": (raw[:12 + n // 2], 12),
            "cut-in-table": (raw[:name + 2], name),
            "cut-in-data": (raw[:-1], last),
            "name-not-utf8": (raw[:name] + b"\xff" + raw[name + 1:], name),
        }[case]
        path.write_bytes(corrupt)
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == offset
