import dataclasses

import numpy as np
import pytest

from wbanet import tensor as T
from wbanet.errors import ConfigError, ShapeError
from wbanet.tensor import Tensor, max_rel_grad_err
from wbanet.wavelet import dwt2_numpy, idwt2_numpy
from wbanet.wsm import init_wsm_params, wave_attention, wavelet_downsample


def test_downsample_shape():
    rng = np.random.default_rng(0)
    p = init_wsm_params(16, 4, rng)
    x = Tensor(rng.normal(size=(8, 8, 16)))
    assert wavelet_downsample(x, p.w_d).shape == (4, 4, 16)


def test_downsample_zero_input():
    rng = np.random.default_rng(1)
    p = init_wsm_params(8, 2, rng)
    out = wavelet_downsample(T.zeros((4, 4, 8)), p.w_d)
    assert np.all(out.data == 0.0)


def test_downsample_constant_image_high_bands_zero():
    # w_d selecting the first 4 channels of a constant input: only the LL
    # block of the stacked output can be nonzero
    w_d = np.zeros((16, 4))
    w_d[:4, :4] = np.eye(4)
    out = wavelet_downsample(Tensor(np.full((4, 4, 16), 3.0)), Tensor(w_d))
    assert np.allclose(out.data[..., 4:], 0.0, atol=1e-12)
    assert np.all(out.data[..., :4] != 0.0)


def test_indivisible_channels_rejected():
    rng = np.random.default_rng(2)
    with pytest.raises(ConfigError):
        init_wsm_params(6, 2, rng)
    p = init_wsm_params(8, 2, rng)
    with pytest.raises(ShapeError):  # 6 channels against an (8, 2) w_d
        wavelet_downsample(T.zeros((4, 4, 6)), p.w_d)


def test_output_shape_preserved():
    rng = np.random.default_rng(3)
    p = init_wsm_params(16, 4, rng)
    x = Tensor(rng.normal(size=(8, 8, 16)))
    assert wave_attention(x, p).shape == (8, 8, 16)


def test_attention_structure_4x_kv_reduction():
    rng = np.random.default_rng(4)
    p = init_wsm_params(16, 4, rng)
    x = Tensor(rng.normal(size=(8, 8, 16)))
    _, attn = wave_attention(x, p, return_attn=True)
    assert len(attn) == 4
    for a in attn:
        assert a.shape == (64, 16)  # H*W queries over H*W/4 keys
        assert np.allclose(a.sum(axis=-1), 1.0, atol=1e-9)


def test_identical_keys_give_uniform_attention():
    rng = np.random.default_rng(5)
    c = 8
    p = init_wsm_params(c, 2, rng)
    # K block of the fused conv zeroed: every key row is identical (zero),
    # so each query attends uniformly and heads average the value rows
    p.kv_conv.data[:, :c] = 0.0
    x = Tensor(rng.normal(size=(4, 4, c)))
    _, attn = wave_attention(x, p, return_attn=True)
    for a in attn:
        assert np.allclose(a, 1.0 / a.shape[-1], atol=1e-12)


def test_batched_leading_dims():
    rng = np.random.default_rng(6)
    p = init_wsm_params(8, 2, rng)
    xb = rng.normal(size=(3, 4, 4, 8))
    out_b = wave_attention(Tensor(xb), p)
    assert out_b.shape == (3, 4, 4, 8)
    for i in range(3):
        single = wave_attention(Tensor(xb[i]), p)
        assert np.allclose(out_b.data[i], single.data, atol=1e-12)


def reference_attention(x, p):
    """Plain-NumPy, query-major softmax(Q K^T / sqrt(d)) V per head,
    concatenated with the IDWT path and projected by w_o; also returns the
    (..., HW, HW/4) attention maps."""
    *lead, h, w, c = x.shape
    n, dh = h * w, c // p.n_heads
    x_hat = dwt2_numpy(x @ p.w_d.data)
    q = x.reshape(*lead, n, c) @ p.w_q.data
    kv = x_hat.reshape(*lead, n // 4, c) @ p.kv_conv.data
    k, v = kv[..., :c], kv[..., c:]
    heads, maps = [], []
    for i in range(p.n_heads):
        cols = slice(i * dh, (i + 1) * dh)
        s = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / np.sqrt(dh)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        maps.append(e / e.sum(axis=-1, keepdims=True))
        heads.append(maps[-1] @ v[..., cols])
    x_r = idwt2_numpy(x_hat).reshape(*lead, n, c // 4)
    fused = np.concatenate(heads + [x_r], axis=-1)
    return (fused @ p.w_o.data).reshape(x.shape), maps


@pytest.mark.parametrize("shape", [(3, 8, 8, 16), (2, 16, 16, 16)],
                         ids=["3x8x8x16", "2x16x16x16"])
def test_matches_query_major_reference(shape):
    # the key-major layout reorders rounding only
    rng = np.random.default_rng(10)
    p = init_wsm_params(shape[-1], 4, rng)
    p = dataclasses.replace(p, w_q=Tensor(rng.normal(size=p.w_q.shape)))
    x = rng.normal(size=shape)
    out, maps = wave_attention(Tensor(x), p, return_attn=True)
    ref, ref_maps = reference_attention(x, p)
    assert np.abs(out.data - ref).max() <= 1e-12 * np.abs(ref).max()
    for a, r in zip(maps, ref_maps, strict=True):
        assert a.shape == r.shape and a.flags.c_contiguous
        assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max()


def test_end_to_end_gradients():
    rng = np.random.default_rng(7)
    p = init_wsm_params(8, 2, rng)
    x = Tensor(rng.normal(size=(4, 4, 8)), requires_grad=True)
    params = [x, p.w_d, p.w_q, p.kv_conv, p.w_o]
    err = max_rel_grad_err(lambda: T.tsum(wave_attention(x, p)), params,
                           rng, n_coords=4)
    assert err < 1e-4


def test_information_preservation_witness():
    # with orthonormal w_d columns, the reduced map is exactly recoverable
    # from the downsampled stack, and an in-subspace input comes back whole
    rng = np.random.default_rng(8)
    c = 16
    q, _ = np.linalg.qr(rng.normal(size=(c, c // 4)))
    w_d = Tensor(q)
    base = rng.normal(size=(8, 8, c // 4))
    x = Tensor(base @ q.T)                       # lies in the column space
    x_tilde = (x.data @ q)                       # the reduced map
    x_hat = wavelet_downsample(x, w_d)
    recovered_tilde = idwt2_numpy(x_hat.data)
    assert np.abs(recovered_tilde - x_tilde).max() < 1e-6
    recovered_x = recovered_tilde @ np.linalg.pinv(q)
    assert np.abs(recovered_x - x.data).max() < 1e-6


def test_reconstruction_path_changes_output():
    rng = np.random.default_rng(9)
    p = init_wsm_params(8, 2, rng)
    x = Tensor(rng.normal(size=(4, 4, 8)))
    with_r = wave_attention(x, p)
    # the last C/4 rows of w_o project the IDWT path; zeroing them cuts it
    c = x.shape[-1]
    w_o = p.w_o.data.copy()
    w_o[-(c // 4):] = 0.0
    without_r = wave_attention(x, dataclasses.replace(p, w_o=Tensor(w_o)))
    assert not np.allclose(with_r.data, without_r.data)
