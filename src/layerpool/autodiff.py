"""Reverse-mode autodiff tape, seeded randomness, and stable reductions.

Everything trains in float64. The tape is the implicit graph of `Tensor`
nodes; ``Tensor.backward`` walks it once in reverse topological order.
"""

from __future__ import annotations

import hashlib

import numpy as np


class Rng:
    """Splittable deterministic random stream.

    Backed by the counter-based Philox generator. A stream is identified by
    (seed, path); ``child(*tags)`` derives an independent stream by extending
    the path. The Philox key is SHA-256 of the (seed, path) repr, so equal
    seeds and paths always give identical streams and distinct paths give
    statistically independent ones.
    """

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(path)

    def child(self, *tags) -> "Rng":
        return Rng(self.seed, self.path + tags)

    def key(self) -> np.ndarray:
        """The stream's 128-bit Philox key as two little-endian uint64 words."""
        digest = hashlib.sha256(repr((self.seed, self.path)).encode()).digest()
        return np.frombuffer(digest[:16], dtype="<u8")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key()))

    def __repr__(self):
        return f"Rng(seed={self.seed}, path={self.path})"


def uniform_init(gen: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Symmetric uniform in ±1/sqrt(fan_in): every encoder and pooler weight."""
    bound = 1.0 / np.sqrt(max(1, fan_in))
    return gen.uniform(-bound, bound, size=shape)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


_F64 = np.dtype(np.float64)


class Tensor:
    """A float64 array node on the tape.

    An operation records its parents and backward closure only when some
    parent requires grad, so arithmetic on constants builds no tape and
    keeps no intermediate alive. Calling ``backward()`` on a scalar result
    accumulates gradients into every reachable node with ``requires_grad``.
    Parameters that do not participate in a computation keep ``grad is None``
    (exactly zero).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw")

    def __init__(self, data, requires_grad: bool = False, parents=(), bw=None):
        if type(data) is not np.ndarray or data.dtype != _F64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        if not requires_grad:
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents = parents if requires_grad else ()
        self._bw = bw if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g: np.ndarray) -> None:
        # a copy (g may be shared with another parent) and never a numpy scalar
        if self.grad is None:
            self.grad = np.array(g)
        else:
            self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._bw is not None:
                node._bw(node.grad)

    # ---- arithmetic -------------------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = self._lift(other)

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        return Tensor(self.data + other.data, parents=(self, other), bw=bw)

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.data, parents=(self,), bw=lambda g: self._accum(-g))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        other = self._lift(other)

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(self.data * other.data, parents=(self, other), bw=bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accum(
                    _unbroadcast(-g * self.data / other.data**2, other.data.shape)
                )

        return Tensor(self.data / other.data, parents=(self, other), bw=bw)

    def __pow__(self, exponent: float):
        return Tensor(self.data**exponent, parents=(self,),
                      bw=lambda g: self._accum(g * exponent * self.data ** (exponent - 1)))

    def __matmul__(self, other):
        other = self._lift(other)

        def bw(g):
            # promote 1-D operands the way matmul does, then undo broadcasting
            a = self.data[None, :] if self.data.ndim == 1 else self.data
            b = other.data[:, None] if other.data.ndim == 1 else other.data
            if other.data.ndim == 1:
                g = np.expand_dims(g, -1)
            if self.data.ndim == 1:
                g = np.expand_dims(g, -2)
            if self.requires_grad:
                grad = g @ np.swapaxes(b, -1, -2)
                self._accum(_unbroadcast(grad, a.shape).reshape(self.data.shape))
            if other.requires_grad:
                if b.ndim == 2 and a.ndim > 2:
                    # a stacked (..., T, k) @ (k, n): one GEMM over all rows
                    grad = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
                else:
                    grad = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
                other._accum(grad.reshape(other.data.shape))

        return Tensor(self.data @ other.data, parents=(self, other), bw=bw)

    # ---- shape ------------------------------------------------------------

    def __getitem__(self, idx):
        # basic indices and a boolean mask name each position at most once, so
        # their gradient is assigned; integer-array indices may repeat one
        unique = (type(idx) is np.ndarray and idx.dtype == bool) or all(
            i is None or i is Ellipsis or isinstance(i, (int, slice))
            for i in (idx if type(idx) is tuple else (idx,)))

        def bw(g):
            full = np.zeros_like(self.data)
            if unique:
                full[idx] = g
            else:
                np.add.at(full, idx, g)
            self._accum(full)

        return Tensor(self.data[idx], parents=(self,), bw=bw)

    def reshape(self, *shape):
        return Tensor(self.data.reshape(*shape), parents=(self,),
                      bw=lambda g: self._accum(g.reshape(self.data.shape)))

    def transpose(self, *axes):
        """Permute the axes as ``np.transpose`` does."""
        inverse = np.argsort(axes)
        return Tensor(self.data.transpose(axes), parents=(self,),
                      bw=lambda g: self._accum(g.transpose(inverse)))

    @property
    def T(self):
        """Swap the last two axes."""
        n = self.data.ndim
        return self.transpose(*range(n - 2), n - 1, n - 2)

    @staticmethod
    def concat(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._lift(t) for t in tensors]
        offsets = [0]
        for t in tensors:
            offsets.append(offsets[-1] + t.data.shape[axis])

        def bw(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(lo, hi)
                    t._accum(g[tuple(sl)])

        return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                      parents=tuple(tensors), bw=bw)

    # ---- reductions and elementwise ---------------------------------------

    def sum(self, axis=None, keepdims=False):
        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), parents=(self,), bw=bw)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def tanh(self):
        y = np.tanh(self.data)
        return Tensor(y, parents=(self,), bw=lambda g: self._accum(g * (1.0 - y * y)))

    def logsumexp(self, axis: int = -1):
        """Stable log-sum-exp along an axis, with a softmax backward."""
        m = self.data.max(axis=axis, keepdims=True)
        s = np.exp(self.data - m).sum(axis=axis, keepdims=True)
        val = m + np.log(s)
        soft = np.exp(self.data - val)
        return Tensor(np.squeeze(val, axis=axis), parents=(self,),
                      bw=lambda g: self._accum(np.expand_dims(g, axis) * soft))

    def softmax(self, axis: int = -1):
        """exp(x - max) / Σ exp(x - max) along an axis, with one exp."""
        y = np.exp(self.data - self.data.max(axis=axis, keepdims=True))
        y /= y.sum(axis=axis, keepdims=True)
        return Tensor(y, parents=(self,),
                      bw=lambda g: self._accum(y * (g - (g * y).sum(axis=axis, keepdims=True))))

    def layer_norm(self, gamma: "Tensor", beta: "Tensor", eps: float = 1e-6):
        """(x - mean) / sqrt(var + eps) * gamma + beta over the last axis.

        The backward is closed-form: with ĝ = g·gamma and x̂ the normalized
        input, dx = (ĝ - mean ĝ - x̂·mean(ĝ·x̂)) / sqrt(var + eps).
        """
        inv_n = 1.0 / self.data.shape[-1]
        centered = self.data - self.data.sum(axis=-1, keepdims=True) * inv_n
        std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_n + eps)
        xhat = centered / std

        def bw(g):
            if self.requires_grad:
                gh = g * gamma.data
                proj = (gh * xhat).sum(axis=-1, keepdims=True) * inv_n
                self._accum((gh - gh.sum(axis=-1, keepdims=True) * inv_n - xhat * proj) / std)
            if gamma.requires_grad:
                gamma._accum(_unbroadcast(g * xhat, gamma.data.shape))
            if beta.requires_grad:
                beta._accum(_unbroadcast(g, beta.data.shape))

        return Tensor(xhat * gamma.data + beta.data, parents=(self, gamma, beta), bw=bw)

    def item(self) -> float:
        return float(self.data)


# ---- scalar/array utilities (non-tape public operations) -------------------


NORM_FLOOR = 2.0**-511  # a smaller norm has a subnormal square: 0 or inexact


def check_norms(norms, name: str) -> None:
    """The one norm rule for vectors about to be divided by their L2 norm:
    each of ``norms`` must lie in [NORM_FLOOR, inf), and a ValueError names
    the first row outside it. A NaN norm passes, to each caller's own rule
    for non-finite input."""
    bad = (norms < NORM_FLOOR) | (norms == np.inf)
    if np.count_nonzero(bad):  # a third of bad.any()'s time on a query's one norm
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        row = f" row {at[0] if len(at) == 1 else at}" if at else ""
        raise ValueError(f"{name}{row} has norm {np.asarray(norms)[at]}, outside "
                         f"[{NORM_FLOOR}, inf): a zero-norm, underflowing or overflowing vector")


def cosine_sim(a, b):
    """Cosine similarity along the last axis, clamped to [-1, 1].

    Two vectors give a scalar; stacked vectors give one value per row.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("cosine_sim: non-finite input")
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        na, nb = np.linalg.norm(a, axis=-1), np.linalg.norm(b, axis=-1)
    check_norms(na, "cosine_sim lhs")
    check_norms(nb, "cosine_sim rhs")
    return np.clip((a * b).sum(axis=-1) / (na * nb), -1.0, 1.0)


# one bit generator for all dropout masks, as building one costs about as much as
# a small mask; each fill resets its whole state, so nothing carries over (but
# two threads must not draw masks at the same time)
_DROPOUT_BITS = np.random.Philox(0)
_DROPOUT_GEN = np.random.Generator(_DROPOUT_BITS)
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


def fill_uniform(out: np.ndarray, rng: Rng) -> None:
    """Write into the C-contiguous float64 array ``out`` the draws of
    ``rng.generator().random(out.shape)``: the stream's first out.size
    uniforms in [0, 1), from a shared generator reset to the stream's key."""
    _DROPOUT_BITS.state = {"bit_generator": "Philox",
                           "state": {"counter": _ZERO_WORDS, "key": rng.key()},
                           "buffer": _ZERO_WORDS, "buffer_pos": 4,
                           "has_uint32": 0, "uinteger": 0}
    _DROPOUT_GEN.random(out=out)


def dropout_mask(shape, p: float, rng: Rng) -> np.ndarray:
    """Inverted-dropout mask ``rng.generator().random(shape) >= p`` scaled to
    {0, 1/(1-p)}; identity when p = 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return np.ones(shape, dtype=np.float64)
    draws = np.empty(shape)
    fill_uniform(draws, rng)
    return np.divide(draws >= p, 1.0 - p, out=draws)


def grad_check(f, params: list[np.ndarray], eps: float = 1e-5) -> float:
    """Max relative error between tape gradients of f and central differences.

    `f` maps a list of Tensors to a scalar Tensor. Relative error per
    coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    tensors = [Tensor(np.array(p, dtype=np.float64), requires_grad=True) for p in params]
    out = f(tensors)
    if not np.isfinite(out.data).all():
        raise ValueError("grad_check: non-finite function value")
    out.backward()
    worst = 0.0
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f(tensors).data)
            flat[i] = orig - eps
            fm = float(f(tensors).data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            a = analytic.reshape(-1)[i]
            worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
    return worst
