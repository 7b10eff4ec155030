import numpy as np
import pytest

from conftest import max_rel_grad_err
from wbanet import tensor as T
from wbanet.bam import (bam_forward, channel_aggregate, init_bam_params,
                        spatial_aggregate)
from wbanet.errors import ShapeError
from wbanet.tensor import Tensor


@pytest.fixture
def params16():
    return init_bam_params(16, np.random.default_rng(0))


def zero_params(c):
    p = init_bam_params(c, np.random.default_rng(0))
    for t in (p.fc_c1, p.fc_c2, p.fc_s1, p.fc_s2):
        t.data[...] = 0.0
    return p


def test_channel_branch_shapes(params16):
    x = Tensor(np.random.default_rng(1).normal(size=(8, 8, 16)))
    x_c, x_hat = channel_aggregate(x, params16)
    assert x_c.shape == (1, 1, 16)
    assert x_hat.shape == (1, 1, 8)


def test_channel_branch_zero_weights():
    x_c, _ = channel_aggregate(Tensor(np.ones((4, 4, 8))), zero_params(8))
    assert np.all(x_c.data == 0.5)


def test_channel_branch_spatially_invariant(params16):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 8, 16))
    perm = rng.permutation(64)
    shuffled = x.reshape(64, 16)[perm].reshape(8, 8, 16)
    a, _ = channel_aggregate(Tensor(x), params16)
    b, _ = channel_aggregate(Tensor(shuffled), params16)
    assert np.array_equal(a.data, b.data)


def test_spatial_branch_shapes(params16):
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(8, 8, 16)))
    x_hat = Tensor(rng.normal(size=(1, 1, 8)))
    x_s = spatial_aggregate(x, x_hat, params16)
    assert x_s.shape == (8, 8, 1)
    assert np.all((x_s.data > 0) & (x_s.data < 1))


def test_spatial_branch_zero_weights():
    p = zero_params(8)
    x_s = spatial_aggregate(Tensor(np.ones((4, 4, 8))),
                            Tensor(np.zeros((1, 1, 4))), p)
    assert np.all(x_s.data == 0.5)


def test_spatial_branch_channel_mismatch(params16):
    with pytest.raises(ShapeError):
        spatial_aggregate(Tensor(np.zeros((4, 4, 16))),
                          Tensor(np.zeros((1, 1, 5))), params16)


def test_spatial_branch_constant_input_constant_output(params16):
    x_hat = Tensor(np.random.default_rng(4).normal(size=(1, 1, 8)))
    x_s = spatial_aggregate(Tensor(np.full((8, 8, 16), 0.7)), x_hat, params16)
    assert np.allclose(x_s.data, x_s.data.ravel()[0], atol=1e-15)


def test_spatial_branch_permutation_equivariant(params16):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 8, 16))
    x_hat = Tensor(rng.normal(size=(1, 1, 8)))
    perm = rng.permutation(64)
    shuffled = x.reshape(64, 16)[perm].reshape(8, 8, 16)
    a = spatial_aggregate(Tensor(x), x_hat, params16).data.reshape(64)
    b = spatial_aggregate(Tensor(shuffled), x_hat, params16).data.reshape(64)
    assert np.array_equal(a[perm], b)


def test_forward_shape_and_zero_input(params16):
    x = Tensor(np.random.default_rng(6).normal(size=(8, 8, 16)))
    assert bam_forward(x, params16).shape == (8, 8, 16)
    assert np.all(bam_forward(T.zeros((8, 8, 16)), params16).data == 0.0)


def test_zero_weights_identity_gate():
    # sigmoid(0) + sigmoid(0) = 1.0 gate
    x = Tensor(np.random.default_rng(7).normal(size=(4, 4, 8)))
    out = bam_forward(x, zero_params(8))
    assert np.allclose(out.data, x.data, atol=1e-15)


def test_gate_bounds_output_magnitude(params16):
    x = Tensor(np.random.default_rng(8).normal(size=(8, 8, 16)))
    out = bam_forward(x, params16)
    assert np.all(np.abs(out.data) <= 2.0 * np.abs(x.data) + 1e-15)


def test_batched_matches_single(params16):
    rng = np.random.default_rng(9)
    xb = rng.normal(size=(3, 8, 8, 16))
    out_b = bam_forward(Tensor(xb), params16)
    for i in range(3):
        assert np.allclose(out_b.data[i],
                           bam_forward(Tensor(xb[i]), params16).data,
                           atol=1e-12)


def test_full_differentiability():
    rng = np.random.default_rng(10)
    p = init_bam_params(4, rng)
    x = Tensor(rng.normal(size=(4, 4, 4)), requires_grad=True)
    params = [x, p.fc_c1, p.fc_c2, p.fc_s1, p.fc_s2]
    err = max_rel_grad_err(lambda: T.tsum(bam_forward(x, p)), params,
                           rng, n_coords=4)
    assert err < 1e-4
