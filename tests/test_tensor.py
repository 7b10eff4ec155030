import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wbanet import tensor as T
from wbanet.errors import GradError, ShapeError
from wbanet.tensor import Adam, Tensor, max_rel_grad_err


class TestCreation:
    def test_zeros(self):
        t = T.zeros((2, 2))
        assert np.array_equal(t.data, np.zeros((2, 2)))

    def test_uniform_seeded_identical(self):
        a = T.weight((9, 3), np.random.default_rng(7))
        b = T.weight((9, 3), np.random.default_rng(7))
        assert np.array_equal(a.data, b.data)
        assert a.requires_grad
        assert np.all(np.abs(a.data) <= 1.0 / 3.0)

    @pytest.mark.parametrize("shape", [(0,), (2, -1), (0, 3)])
    def test_bad_extent(self, shape):
        with pytest.raises(ShapeError):
            T.zeros(shape)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, T.eye(2))
        assert np.array_equal(out.data, a.data)

    def test_hand_value(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        assert np.array_equal(T.matmul(a, b).data, [[3.0], [7.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(T.zeros((2, 3)), T.zeros((2, 3)))

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        err = max_rel_grad_err(lambda: T.tsum(T.matmul(a, b)), [a, b], rng)
        assert err < 1e-5


class TestElementwise:
    def test_add_identity_bitwise(self):
        a = Tensor([1.0, 2.0])
        out = T.add(a, T.zeros((2,)))
        assert np.array_equal(out.data, a.data)

    def test_broadcast_mul_constants(self):
        a = Tensor(np.full((3, 4, 1), 0.5))
        b = Tensor(np.full((1, 1, 5), 2.0))
        out = T.mul(a, b)
        assert out.shape == (3, 4, 5)
        assert np.all(out.data == 1.0)

    def test_non_broadcastable(self):
        with pytest.raises(ShapeError):
            T.add(T.zeros((2, 3)), T.zeros((2, 4)))

    def test_broadcast_grad_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        err = max_rel_grad_err(lambda: T.tsum(T.mul(a, b)), [a, b], rng)
        assert err < 1e-5


class TestLinear:
    def test_identity(self):
        x = Tensor(np.arange(8.0).reshape(2, 4))
        out = T.linear(x, T.eye(4), T.zeros((4,)))
        assert np.array_equal(out.data, x.data)

    def test_hand_value(self):
        x = Tensor([[1.0, 1.0]])
        w = Tensor([[1.0], [1.0]])
        assert np.array_equal(T.linear(x, w).data, [[2.0]])

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.linear(T.zeros((2, 3)), T.zeros((4, 5)))

    def test_grad_w_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)
        err = max_rel_grad_err(lambda: T.tsum(T.linear(x, w, b)), [w, b], rng)
        assert err < 1e-5


class TestActivations:
    def test_sigmoid_center(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_gelu_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_gelu_hand_value(self):
        assert abs(T.gelu(Tensor([1.0])).data[0] - 0.8411919906082768) <= 1e-15

    def test_gelu_matches_scalar_reference(self):
        xs = np.concatenate([np.linspace(-30.0, 30.0, 6001), [0.0, -0.0]])
        c = math.sqrt(2.0 / math.pi)
        ref = np.array([0.5 * x * (1.0 + math.tanh(c * (x + 0.044715 * x ** 3)))
                        for x in xs.tolist()])
        out = T.gelu(Tensor(xs)).data
        assert np.all(np.abs(out - ref) <= 1e-12 * np.maximum(1.0, np.abs(xs)))

    def test_gelu_leaves_input_and_grad_untouched(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 5, 6)) * 3, requires_grad=True)
        x0 = x.data.copy()
        out = T.gelu(x)
        assert np.array_equal(x.data, x0)
        g = rng.normal(size=x.shape)
        g0 = g.copy()
        (gx,) = out._backward_fn(g)
        assert np.array_equal(g, g0)
        assert gx is not g

    def test_sigmoid_saturation_no_overflow(self):
        out = T.sigmoid(Tensor([50.0, -50.0])).data
        assert abs(out[0] - 1.0) < 1e-15
        assert abs(out[1] - 0.0) < 1e-15
        assert np.all(np.isfinite(out))

    def test_activation_grads(self):
        rng = np.random.default_rng(3)
        for op in (T.sigmoid, T.gelu):
            x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            err = max_rel_grad_err(lambda: T.tsum(op(x)), [x], rng)
            assert err < 1e-5


class TestSoftmax:
    def test_uniform_row(self):
        out = T.softmax_rows(Tensor([[0.0, 0.0, 0.0]])).data
        assert np.allclose(out, 1 / 3, atol=1e-15)

    def test_large_values_stable(self):
        out = T.softmax_rows(Tensor([[1000.0, 0.0]])).data
        assert abs(out[0, 0] - 1.0) < 1e-12
        assert abs(out[0, 1]) < 1e-12

    def test_log_row(self):
        out = T.softmax_rows(Tensor([[np.log(1), np.log(2), np.log(3)]])).data
        assert np.allclose(out, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    @given(arrays(np.float64, (3, 5), elements=st.floats(-50, 50)))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, x):
        out = T.softmax_rows(Tensor(x)).data
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)

    @given(arrays(np.float64, (2, 4), elements=st.floats(-20, 20)),
           st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, x, c):
        a = T.softmax_rows(Tensor(x)).data
        b = T.softmax_rows(Tensor(x + c)).data
        assert np.allclose(a, b, atol=1e-12)

    def test_grad(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))
        err = max_rel_grad_err(
            lambda: T.tsum(T.mul(T.softmax_rows(x), w)), [x], rng)
        assert err < 1e-5

    def test_grad_key_axis(self):
        # axis=-2, the key-major layout wave_attention uses
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 4, 6)))
        err = max_rel_grad_err(
            lambda: T.tsum(T.mul(T.softmax_rows(x, axis=-2), w)), [x], rng)
        assert err < 1e-5
        assert np.allclose(T.softmax_rows(x, axis=-2).data.sum(axis=-2), 1.0,
                           atol=1e-12)

    @pytest.mark.parametrize("layout,axis", [
        pytest.param("contiguous", -1, id="contiguous"),
        pytest.param("transposed", -1, id="transposed"),
        pytest.param("contiguous", -2, id="contiguous-axis-2"),
        pytest.param("transposed", -2, id="transposed-axis-2")])
    def test_in_place_contract(self, layout, axis):
        # the output is built in place in one fresh buffer; it must equal the
        # three-temporary formula bitwise and write into neither the input
        # nor the incoming gradient, which add's backward shares
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 16, 12)) * 3
        if layout == "transposed":
            x = np.swapaxes(x, 0, 2)
        a = Tensor(x, requires_grad=True)
        x0 = a.data.copy(order="K")  # same layout, same summation order
        out = T.softmax_rows(a, axis=axis)
        e = np.exp(x0 - x0.max(axis=axis, keepdims=True))
        assert np.array_equal(out.data, e / e.sum(axis=axis, keepdims=True))
        assert np.array_equal(a.data, x0)
        g = rng.normal(size=a.shape)
        g0 = g.copy()
        (gx,) = out._backward_fn(g)
        assert np.array_equal(g, g0)
        idx = list(range(g0.ndim))
        kept = [i for i in idx if i != axis % g0.ndim]

        def dot(v):
            return np.expand_dims(np.einsum(v, idx, out.data, idx, kept), axis)

        r = g0 - dot(g0)
        assert np.array_equal(gx, out.data * (r - dot(r)))

    def test_floor_leaves_no_subnormal(self):
        # scores x1000 put most max-subtracted exponents far below exp's
        # underflow limit (~-708); the floor keeps every weight, and every
        # product the backward forms, out of the subnormal range
        rng = np.random.default_rng(8)
        x = rng.normal(size=(64, 16, 64)) * 1000
        out = T.softmax_rows(Tensor(x, requires_grad=True), axis=-2)
        (gx,) = out._backward_fn(rng.normal(size=x.shape))
        tiny = np.finfo(float).tiny
        for v in (out.data, gx):
            assert np.all((v == 0) | (np.abs(v) >= tiny))
        assert np.abs(out.data.sum(axis=-2) - 1.0).max() <= 1e-15
        with np.errstate(under="ignore"):
            e = np.exp(x - x.max(axis=-2, keepdims=True))
        ref = e / e.sum(axis=-2, keepdims=True)
        # exp(ln 2^-64) rounds to 2^-64 * (1 + 1.6e-15), a few ulps above it
        assert np.abs(out.data - ref).max() <= np.exp(T._SOFTMAX_FLOOR)

    def test_backward_keeps_saturated_gradients(self):
        # scores x30 leave one weight near 1 in most columns, where the
        # naive w * (g - <g, w>) is rounding (30x off here); the refined
        # backward must match the same gradient taken relative to the
        # dominant entry's g, which has nothing to cancel
        rng = np.random.default_rng(11)
        x = rng.normal(size=(64, 16, 64)) * 30
        g = rng.normal(size=x.shape)
        out = T.softmax_rows(Tensor(x, requires_grad=True), axis=-2)
        (gx,) = out._backward_fn(g)
        w = out.data
        top = np.take_along_axis(g, w.argmax(axis=-2)[:, None, :], axis=-2)
        d = g - top
        ref = w * (d - (w * d).sum(axis=-2, keepdims=True))
        assert np.all(np.abs(gx - ref) <= 1e-10 * np.abs(ref))

    def test_scale_matches_scale_node(self):
        # on N(0,1) scores nothing reaches the floor, so folding the scale in
        # is bitwise the scale op followed by the softmax, both ways
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 16, 64))
        g = rng.normal(size=x.shape)
        s = 1.0 / math.sqrt(8)
        a, b = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        fused = T.softmax_rows(a, axis=-2, scale=s)
        split = T.softmax_rows(T.scale(b, s), axis=-2)
        assert np.array_equal(fused.data, split.data)
        T.tsum(T.mul(fused, Tensor(g))).backward()
        T.tsum(T.mul(split, Tensor(g))).backward()
        assert np.array_equal(a.grad, b.grad)

    def test_grad_scaled_key_axis(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 4, 6)))
        err = max_rel_grad_err(
            lambda: T.tsum(T.mul(T.softmax_rows(x, axis=-2, scale=-2.5), w)),
            [x], rng)
        assert err < 1e-5


class TestPoolConcat:
    def test_gap_constant(self):
        out = T.global_avg_pool(Tensor(np.full((5, 7, 3), 2.5)))
        assert out.shape == (1, 1, 3)
        assert np.all(out.data == 2.5)

    def test_gap_hand_mean(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2, 1))
        assert T.global_avg_pool(x).data.ravel()[0] == 2.5

    def test_gap_grad_uniform_spread(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        T.tsum(T.global_avg_pool(x)).backward()
        assert np.allclose(x.grad, 1.0 / 6, atol=1e-15)
        err = max_rel_grad_err(
            lambda: T.tsum(T.sigmoid(T.global_avg_pool(x))), [x], rng)
        assert err < 1e-5

    def test_gap_bitwise_pixel_permutation_invariant(self):
        rng = np.random.default_rng(8)
        n, c = 4, 16
        x = rng.normal(size=(n, 8, 8, c))
        pixels = x.reshape(n, 64, c)
        shuffled = np.stack([p[rng.permutation(64)] for p in pixels])
        want = T.global_avg_pool(Tensor(x)).data
        assert want.shape == (n, 1, 1, c)
        # the summation order differs from np.mean: a float64 rounding bound
        bound = 64 * np.finfo(np.float64).eps * np.abs(x).max()
        assert np.allclose(want, x.mean(axis=(1, 2), keepdims=True),
                           rtol=0, atol=bound)
        assert np.array_equal(
            T.global_avg_pool(Tensor(shuffled.reshape(x.shape))).data, want)
        # a reversed view is a permutation too, with negative strides
        assert np.array_equal(
            T.global_avg_pool(Tensor(x[:, ::-1, ::-1])).data, want)

    def test_concat_shape(self):
        out = T.concat([T.zeros((2, 2, 1)), T.zeros((2, 2, 1))], axis=-1)
        assert out.shape == (2, 2, 2)

    def test_concat_slice_round_trip_bitwise(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2, 5)))
        cat = T.concat([a, b], axis=1)
        assert np.array_equal(T.narrow(cat, 1, 0, 3).data, a.data)
        assert np.array_equal(T.narrow(cat, 1, 3, 5).data, b.data)

    def test_concat_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([T.zeros((2, 2)), T.zeros((3, 2))], axis=1)

    def test_four_subbands_shape(self):
        parts = [T.zeros((4, 4, 4)) for _ in range(4)]
        assert T.concat(parts, axis=-1).shape == (4, 4, 16)

    def test_concat_narrow_grads(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

        def loss():
            cat = T.concat([a, b], axis=1)
            return T.tsum(T.sigmoid(T.narrow(cat, 1, 1, 3)))

        assert max_rel_grad_err(loss, [a, b], rng) < 1e-5


class TestBackwardContract:
    def test_sum_grad_is_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.tsum(w).backward()
        assert np.array_equal(w.grad, np.ones((2, 3)))

    def test_quadratic_vs_finite_differences(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3)))
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)

        def loss():
            y = T.matmul(x, w)
            return T.tsum(T.mul(y, y))

        assert max_rel_grad_err(loss, [w], rng) < 1e-4

    def test_double_backward_errors(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tsum(w)
        loss.backward()
        with pytest.raises(GradError):
            loss.backward()

    def test_non_scalar_loss_errors(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GradError):
            T.mul(w, w).backward()

    def test_shared_gradient_accumulates_without_aliasing(self):
        # x feeds four consumers; add's backward hands its one g to both x
        # and b. Gradients are summed in place only into a buffer the engine
        # allocated: x gets the exact sum, and g and b's gradient stay intact.
        # Integer-valued data keeps every partial sum exact, so any summation
        # order gives the same bits.
        rng = np.random.default_rng(9)
        xd = rng.integers(-4, 5, size=(3, 4)).astype(float)
        w1, w2 = (Tensor(rng.integers(-4, 5, size=(3, 4)).astype(float))
                  for _ in range(2))
        x = Tensor(xd, requires_grad=True)
        b = Tensor(np.zeros((3, 4)), requires_grad=True)
        s = T.add(x, b)
        received = []
        add_backward = s._backward_fn

        def spy(g):
            received.append((g, g.copy()))
            return add_backward(g)

        s._backward_fn = spy
        loss = T.tsum(T.add(T.add(T.mul(s, w1), T.mul(x, w2)),
                            T.add(T.scale(x, 3.0), T.scale(x, -2.0))))
        loss.backward()
        ((g, g0),) = received
        assert np.array_equal(g, g0) and np.array_equal(g0, w1.data)
        assert np.array_equal(b.grad, w1.data)
        assert np.array_equal(x.grad, w1.data + w2.data + 3.0 - 2.0)

    def test_no_grad_suppresses_graph(self):
        w = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            out = T.tsum(T.mul(w, w))
        out.backward()  # graph not recorded, nothing reaches w
        assert w.grad is None


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        p.grad = np.zeros(2)
        before = p.data.copy()
        Adam([p], lr=1e-2).step()
        assert np.array_equal(p.data, before)

    def test_single_step_sign_move(self):
        p = Tensor([0.0, 0.0], requires_grad=True)
        p.grad = np.array([3.0, -0.25])
        Adam([p], lr=1e-2).step()
        assert np.allclose(p.data, [-1e-2, 1e-2], rtol=1e-6)

    def test_missing_grad_errors(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(GradError):
            Adam([p], lr=1e-3).step()

    def test_quadratic_descent(self):
        p = Tensor([5.0], requires_grad=True)
        opt = Adam([p], lr=1e-2)
        prev = np.inf
        for _ in range(100):
            loss = T.tsum(T.mul(p, p))
            opt.zero_grad()
            loss.backward()
            opt.step()
            assert loss.item() <= prev + 1e-12
            prev = loss.item()


def test_forward_ops_finite_on_finite_inputs():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(4, 4, 4)) * 100)
    for out in (T.sigmoid(x), T.gelu(x), T.softmax_rows(x),
                T.global_avg_pool(x), T.mul(x, x)):
        assert np.all(np.isfinite(out.data))


class TestGradOracle:
    @staticmethod
    def identity(backward):
        """An identity op on the tape with the given backward."""
        return lambda x: T._node(x.data.copy(), (x,), backward)

    def test_wrong_backward_reported_and_data_restored(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        before = a.data.copy()
        doubled = self.identity(lambda g: (2.0 * g,))
        err = max_rel_grad_err(lambda: T.tsum(doubled(a)), [a],
                               np.random.default_rng(1))
        assert abs(err - 0.5) < 1e-6  # |2 - 1| / 2
        assert np.array_equal(a.data, before)

    def test_nan_gradient_fails_every_bound(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        broken = self.identity(lambda g: (np.full_like(g, np.nan),))
        err = max_rel_grad_err(lambda: T.tsum(broken(a)), [a],
                               np.random.default_rng(1))
        assert not err < 1e3
