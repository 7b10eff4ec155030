"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The graph is dynamic: every op that touches a tracked tensor records its
parents and a backward closure. ``Tensor.backward()`` topologically sorts the
recorded nodes and accumulates gradients onto every tensor created with
``requires_grad=True``. A graph is single-use; a second ``backward()`` on the
same loss raises.

Aliasing rule: a kernel, forward or backward, may write in place only into an
array it allocated itself. It never writes into a parent's ``.data`` (the
caller still holds it) or into the gradient ``g`` its backward receives:
``add``'s backward hands the same ``g``, or views of it, to both parents.
``Tensor.backward`` keeps the same rule when a tensor has several consumers:
it adds their gradients in place only into a sum it allocated.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GradError, ShapeError

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_tracked", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable | None = None
        self._tracked = self.requires_grad
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        """Accumulate gradients of this scalar onto all requires_grad tensors."""
        if self.data.size != 1:
            raise GradError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._consumed:
            raise GradError("graph already consumed; run a fresh forward pass")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        owned: set[int] = set()  # grads entries this loop allocated
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            if node._backward_fn is None:
                continue
            for parent, pg in zip(node._parents, node._backward_fn(g)):
                if pg is None:
                    continue
                key = id(parent)
                if key in owned:
                    grads[key] += pg
                elif key in grads:
                    # the first arrival may be shared (add hands one g to
                    # both parents): sum into a fresh buffer, then own it
                    grads[key] = grads[key] + pg
                    owned.add(key)
                else:
                    grads[key] = pg
        self._consumed = True


def _node(data: np.ndarray, parents: Sequence[Tensor],
          backward_fn: Callable) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p._tracked for p in parents):
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        out._tracked = True
    return out


def _check_extents(shape: Iterable[int]) -> tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ShapeError(f"extents must be positive, got {shape}")
    return shape


# ---------------------------------------------------------------------------
# creation

def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(_check_extents(shape)), requires_grad)


def weight(shape, rng: np.random.Generator) -> Tensor:
    """Trainable U(-b, b) draw with b = 1/sqrt(fan-in), the fan-in being
    shape[0] (LeCun et al., "Efficient BackProp", 1998)."""
    shape = _check_extents(shape)
    bound = 1.0 / math.sqrt(shape[0])
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


def eye(n: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.eye(n), requires_grad)


# ---------------------------------------------------------------------------
# gradient bookkeeping for broadcasting

def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum-reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape))
                 if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcastable(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x, y in zip(reversed(a), reversed(b)):
        if x != y and x != 1 and y != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# elementwise

def add(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcastable(a.shape, b.shape):
        raise ShapeError(f"cannot broadcast {a.shape} with {b.shape}")
    out = a.data + b.data
    return _node(out, (a, b), lambda g: (_unbroadcast(g, a.shape),
                                         _unbroadcast(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcastable(a.shape, b.shape):
        raise ShapeError(f"cannot broadcast {a.shape} with {b.shape}")
    out = a.data * b.data
    return _node(out, (a, b), lambda g: (_unbroadcast(g * b.data, a.shape),
                                         _unbroadcast(g * a.data, b.shape)))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _node(a.data * s, (a,), lambda g: (g * s,))


# ---------------------------------------------------------------------------
# linear algebra

def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must be at least 2-D")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner dims disagree: {a.shape} @ {b.shape}")
    if not _broadcastable(a.shape[:-2], b.shape[:-2]):
        raise ShapeError(f"leading dims disagree: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def backward(g):
        return (_unbroadcast(np.matmul(g, _swap(b.data)), a.shape),
                _unbroadcast(np.matmul(_swap(a.data), g), b.shape))

    return _node(out, (a, b), backward)


def transpose_last2(a: Tensor) -> Tensor:
    return _node(_swap(a.data), (a,), lambda g: (_swap(g),))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map over the last axis; doubles as a 1x1 convolution."""
    if w.ndim != 2:
        raise ShapeError(f"weight must be 2-D, got {w.shape}")
    lead = x.shape[:-1]
    flat = reshape(x, (-1, x.shape[-1]))
    out = matmul(flat, w)
    out = reshape(out, lead + (w.shape[1],))
    if b is not None:
        if b.shape != (w.shape[1],):
            raise ShapeError(f"bias shape {b.shape} does not match output {w.shape[1]}")
        out = add(out, b)
    return out


# ---------------------------------------------------------------------------
# shape manipulation

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    src = a.shape
    return _node(out, (a,), lambda g: (g.reshape(src),))


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    ref = parts[0].shape
    ax = axis % len(ref)
    for p in parts[1:]:
        if len(p.shape) != len(ref) or any(
                p.shape[i] != ref[i] for i in range(len(ref)) if i != ax):
            raise ShapeError(f"concat mismatch off axis {ax}: {ref} vs {p.shape}")
    out = np.concatenate([p.data for p in parts], axis=ax)
    splits = np.cumsum([p.shape[ax] for p in parts])[:-1]
    return _node(out, tuple(parts),
                 lambda g: tuple(np.split(g, splits, axis=ax)))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    ax = axis % a.ndim
    if start < 0 or start + length > a.shape[ax]:
        raise ShapeError(f"narrow [{start}:{start + length}] outside axis "
                         f"{ax} of {a.shape}")
    idx = tuple(slice(None) if i != ax else slice(start, start + length)
                for i in range(a.ndim))

    def backward(g):
        full_g = np.zeros_like(a.data)
        full_g[idx] = g
        return (full_g,)

    return _node(a.data[idx], (a,), backward)


def expand(a: Tensor, shape) -> Tensor:
    """Broadcast to an explicit shape; gradient sum-reduces back."""
    shape = tuple(shape)
    out = np.broadcast_to(a.data, shape)
    return _node(np.ascontiguousarray(out), (a,),
                 lambda g: (_unbroadcast(g, a.shape),))


# ---------------------------------------------------------------------------
# reductions and nonlinearities

def tsum(a: Tensor) -> Tensor:
    return _node(np.asarray(a.data.sum()), (a,),
                 lambda g: (np.broadcast_to(g, a.shape).copy(),))


def global_avg_pool(a: Tensor) -> Tensor:
    """Spatial mean over the (H, W) axes of a (..., H, W, C) tensor.

    Contract: for each leading (batch) index and channel, the output is
    bitwise the same under any permutation of the H x W pixels, so a consumer
    of the pooled vector sees the pixels only as a set. The H*W values are
    sorted before they are summed, which fixes the order in which rounding
    happens; a plain ``mean`` adds them in memory order. The gradient is the
    uniform ``g / (H*W)`` spread back over every pixel.
    """
    if a.ndim < 3:
        raise ShapeError(f"expected (..., H, W, C), got {a.shape}")
    *lead, h, w, c = a.shape
    # a fresh C-ordered (..., C, H*W) copy: the sort may work in place, and
    # the sum runs over one contiguous axis whatever the input's strides
    pixels = np.swapaxes(a.data.reshape(*lead, h * w, c), -1, -2).copy()
    pixels.sort(axis=-1)
    out = (pixels.sum(axis=-1) / (h * w)).reshape(*lead, 1, 1, c)
    return _node(out, (a,),
                 lambda g: (np.broadcast_to(g / (h * w), a.shape).copy(),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    x = a.data
    # x*x*x, not x**3: NumPy sends a float cube through libm pow, which costs
    # ~40x more and differs from the product by at most 1 ulp
    x2 = x * x
    inner = _GELU_C * (x + 0.044715 * (x2 * x))
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def backward(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x2)
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * d_inner
        return (g * d,)

    return _node(out, (a,), backward)


def softmax_rows(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (the last by default), max-subtracted for
    stability. Reducing a non-innermost axis lets NumPy vectorise the max and
    the sum across the contiguous axis; a short innermost axis is its slowest
    reduction shape."""
    x = a.data
    out = x - x.max(axis=axis, keepdims=True)  # the one fresh full-size buffer
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        grad = g - dot
        grad *= out
        return (grad,)

    return _node(out, (a,), backward)


def log_softmax_rows(a: Tensor) -> Tensor:
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    shifted = x - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    sm = np.exp(out)

    def backward(g):
        return (g - sm * g.sum(axis=-1, keepdims=True),)

    return _node(out, (a,), backward)


# ---------------------------------------------------------------------------
# optimizer

# Adam's published defaults (Kingma & Ba, ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction over a list of parameter tensors."""

    def __init__(self, params: Sequence[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise GradError(f"parameter {i} has no gradient; run backward first")
            g = p.grad
            self._m[i] = b1 * self._m[i] + (1 - b1) * g
            self._v[i] = b2 * self._v[i] + (1 - b2) * g * g
            m_hat = self._m[i] / (1 - b1 ** self.t)
            v_hat = self._v[i] / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


# ---------------------------------------------------------------------------
# gradient oracle

def max_rel_grad_err(loss_fn: Callable[[], Tensor], params: Sequence[Tensor],
                     rng: np.random.Generator, n_coords=5) -> float:
    """Worst relative gap (NaN if either side is) between the tape's gradient of
    ``loss_fn()`` and (f(x+h) - f(x-h)) / 2h at ``n_coords`` random entries of
    each contiguous param, skipping entries where both are below 1e-7."""
    h = 1e-5
    for p in params:
        p.grad = None
    loss_fn().backward()
    worst = 0.0
    for p in params:
        flat, gflat = p.data.reshape(-1), p.grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(n_coords, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            f1 = loss_fn().item()
            flat[idx] = orig - h
            fd = (f1 - loss_fn().item()) / (2 * h)
            flat[idx] = orig
            scale = np.maximum(abs(fd), abs(gflat[idx]))
            if not scale < 1e-7:
                worst = np.maximum(worst, abs(gflat[idx] - fd) / scale)
    return worst
