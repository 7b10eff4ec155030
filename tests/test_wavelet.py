import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbanet import tensor as T
from wbanet.errors import ShapeError
from wbanet.tensor import Tensor
from wbanet.wavelet import (dwt2_numpy, dwt2_stack, energy, idwt2_numpy,
                            idwt2_stack)


def bands(stacked: Tensor) -> list[np.ndarray]:
    """The LL, LH, HL, HH blocks of a stacked transform's channel axis."""
    c = stacked.shape[-1] // 4
    return [stacked.data[..., i * c:(i + 1) * c] for i in range(4)]


def test_constant_image_has_no_high_frequency():
    ll, *high = bands(dwt2_stack(Tensor(np.full((2, 2, 1), 1.0))))
    assert ll.ravel()[0] == pytest.approx(2.0, abs=1e-15)
    for band in high:
        assert np.allclose(band, 0.0, atol=1e-15)


def test_hand_example():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
    ll, lh, hl, hh = bands(dwt2_stack(x))
    assert ll.ravel()[0] == pytest.approx(5.0)
    assert lh.ravel()[0] == pytest.approx(-2.0)
    assert hl.ravel()[0] == pytest.approx(-1.0)
    assert hh.ravel()[0] == pytest.approx(0.0, abs=1e-12)


def test_energy_hand_example():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
    s = dwt2_numpy(x)
    assert energy(x) == pytest.approx(30.0)
    assert energy(s) == pytest.approx(30.0, abs=1e-9)


def test_round_trip_random():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 8, 3))
    assert np.abs(idwt2_numpy(dwt2_numpy(x)) - x).max() < 1e-9


def test_idwt_of_trivial_subbands():
    s = Tensor(np.array([2.0, 0.0, 0.0, 0.0]).reshape(1, 1, 4))
    out = idwt2_stack(s)
    assert out.shape == (2, 2, 1)
    assert np.allclose(out.data, 1.0, atol=1e-12)


def test_two_sided_inverse_from_random_subbands():
    rng = np.random.default_rng(1)
    s = rng.normal(size=(4, 4, 8))  # stacked subbands, 4 x 2 channels
    assert np.abs(dwt2_numpy(idwt2_numpy(s)) - s).max() < 1e-9


def test_odd_shape_rejected():
    with pytest.raises(ShapeError):
        dwt2_stack(T.zeros((3, 4, 1)))
    with pytest.raises(ShapeError):
        dwt2_stack(T.zeros((4, 5, 1)))


def test_idwt_channels_not_multiple_of_4_rejected():
    with pytest.raises(ShapeError):
        idwt2_stack(T.zeros((2, 2, 6)))


@given(st.integers(1, 16), st.integers(1, 16), st.integers(1, 8),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_perfect_reconstruction_and_energy(h2, w2, c, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2 * h2, 2 * w2, c))
    s = dwt2_numpy(x)
    assert np.abs(idwt2_numpy(s) - x).max() < 1e-9
    assert abs(energy(s) - energy(x)) < 1e-9 * max(1.0, energy(x))


@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 6, 2))
    y = rng.normal(size=(4, 6, 2))
    lhs = dwt2_numpy(a * x + b * y)
    rhs = a * dwt2_numpy(x) + b * dwt2_numpy(y)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_subbands_share_shape_and_energy_split():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(8, 6, 3)))
    s = bands(dwt2_stack(x))
    assert [b.shape for b in s] == [(4, 3, 3)] * 4
    total = sum(energy(b) for b in s)
    assert total == pytest.approx(energy(x), abs=1e-9)


def test_transforms_are_differentiable():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 4, 2)), requires_grad=True)
    T.tsum(T.sigmoid(dwt2_stack(x))).backward()
    g_fwd = x.grad.copy()
    assert g_fwd.shape == x.shape and np.all(np.isfinite(g_fwd))

    y = Tensor(rng.normal(size=(2, 2, 8)), requires_grad=True)
    T.tsum(T.sigmoid(idwt2_stack(y))).backward()
    assert y.grad.shape == y.shape and np.all(np.isfinite(y.grad))


def test_dwt_adjoint_identity():
    # orthonormality: <dwt(x), y> == <x, idwt(y)> for random x, y
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 4, 2))
    y = rng.normal(size=(3, 2, 8))
    lhs = float((dwt2_numpy(x) * y).sum())
    rhs = float((x * idwt2_numpy(y)).sum())
    assert lhs == pytest.approx(rhs, abs=1e-9)
