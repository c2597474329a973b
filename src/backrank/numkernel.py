"""Dense float64 tensors with a recorded reverse-mode gradient tape.

Everything is 64-bit and row-major. Ops compute with numpy; gradients are
hand-written per op and recorded onto the innermost active `Tape` (a context
manager) whenever any input has `requires_grad`. The fused ops (`linear`,
`split_heads`, `merge_heads`, `attention_weights`) record one node where
their primitive chain would record several, with the chain's values and
gradients bit for bit. Inference with no tape active records nothing and is
safe to run from many threads; recording and `backward` are single-threaded.

A tape can be replayed backward exactly once; running `backward` twice on
one tape raises `ContractError`. `backward` returns the gradients it was asked
for and leaves no state on any tensor, so consecutive steps need no reset.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeError

_TLS = threading.local()


def _tapes() -> list:
    stack = getattr(_TLS, "tapes", None)
    if stack is None:
        stack = []
        _TLS.tapes = stack
    return stack


class Tape:
    """Ordered record of primitive ops, replayable backward once."""

    __slots__ = ("_nodes", "_consumed")

    def __init__(self):
        self._nodes: list[_Node] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._nodes)

    def __enter__(self) -> "Tape":
        _tapes().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tapes().pop()
        if popped is not self:
            raise ContractError("tape stack corrupted: exited a tape that is not innermost")


class _Node:
    __slots__ = ("inputs", "out", "backward_fn")

    def __init__(self, inputs, out, backward_fn):
        self.inputs = inputs
        self.out = out
        self.backward_fn = backward_fn


class Tensor:
    """Dense float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if not np.all(np.isfinite(arr)):
            raise DomainError("tensor values must be finite")
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        t = object.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _record(inputs: tuple[Tensor, ...], out: Tensor, backward_fn) -> None:
    stack = _tapes()
    if not stack:
        return
    tape = stack[-1]
    if tape._consumed:
        raise ContractError("recording onto a tape that already ran backward")
    tape._nodes.append(_Node(inputs, out, backward_fn))


def _make(inputs: tuple[Tensor, ...], arr: np.ndarray, backward_fn) -> Tensor:
    rg = any(t.requires_grad for t in inputs)
    out = Tensor._wrap(arr, rg)
    if rg:
        _record(inputs, out, backward_fn)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        arr = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward_fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make((a, b), arr, backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        arr = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None
    ad, bd = a.data, b.data

    def backward_fn(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return _make((a, b), arr, backward_fn)


def neg(a: Tensor) -> Tensor:
    def backward_fn(g):
        return (-g,)

    return _make((a,), -a.data, backward_fn)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: shapes incompatible, {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    try:
        arr = ad @ bd
    except ValueError:
        raise ShapeError(f"matmul: batch axes do not broadcast, {a.shape} x {b.shape}") from None

    def backward_fn(g):
        return (_unbroadcast(g @ bd.swapaxes(-1, -2), a.shape),
                _unbroadcast(ad.swapaxes(-1, -2) @ g, b.shape))

    return _make((a, b), arr, backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node, broadcasting as add(matmul(x, w), b) does."""
    if x.ndim < 2 or w.ndim < 2 or x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"linear: shapes incompatible, {x.shape} x {w.shape}")
    xd, wd = x.data, w.data
    try:
        mm = xd @ wd
        arr = mm + b.data
    except ValueError:
        raise ShapeError(f"linear: {x.shape} x {w.shape} + {b.shape} does not broadcast") from None

    def backward_fn(g):
        gm = _unbroadcast(g, mm.shape)
        return (_unbroadcast(gm @ wd.swapaxes(-1, -2), x.shape),
                _unbroadcast(xd.swapaxes(-1, -2) @ gm, w.shape),
                _unbroadcast(g, b.shape))

    return _make((x, w, b), arr, backward_fn)


def dot(u: Tensor, v: Tensor) -> Tensor:
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise ShapeError(f"dot: expects equal-length vectors, got {u.shape} and {v.shape}")
    ud, vd = u.data, v.data

    def backward_fn(g):
        return g * vd, g * ud

    return _make((u, v), np.einsum("i,i->", ud, vd), backward_fn)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape

    def backward_fn(g):
        return (g.reshape(old),)

    return _make((a,), a.data.reshape(shape), backward_fn)


def split_heads(x: Tensor, parts: int) -> Tensor:
    """B x n x (parts * w) -> B x parts x n x w, as one node."""
    if x.ndim != 3 or x.shape[-1] % parts:
        raise ShapeError(f"split_heads: cannot split {x.shape} into {parts} parts")
    b, n, width = x.shape

    def backward_fn(g):
        return (np.ascontiguousarray(g.transpose(0, 2, 1, 3)).reshape(b, n, width),)

    arr = np.ascontiguousarray(x.data.reshape(b, n, parts, width // parts).transpose(0, 2, 1, 3))
    return _make((x,), arr, backward_fn)


def merge_heads(x: Tensor) -> Tensor:
    """B x parts x n x w -> B x n x (parts * w), the inverse of split_heads."""
    if x.ndim != 4:
        raise ShapeError(f"merge_heads: expects a 4-D tensor, got {x.shape}")
    b, parts, n, w = x.shape

    def backward_fn(g):
        return (np.ascontiguousarray(g.reshape(b, n, parts, w).transpose(0, 2, 1, 3)),)

    arr = np.ascontiguousarray(x.data.transpose(0, 2, 1, 3)).reshape(b, n, parts * w)
    return _make((x,), arr, backward_fn)


def take_rows(a: Tensor, idx) -> Tensor:
    """Rows of a 2-D tensor at an index array of any shape, shaped
    idx.shape + (columns,); backward scatter-adds into the source."""
    if a.ndim != 2:
        raise ShapeError(f"take_rows: expects a 2-D tensor, got {a.shape}")
    ix = np.asarray(idx, dtype=np.intp)
    if ix.size and (ix.min() < 0 or ix.max() >= a.shape[0]):
        raise DomainError(f"take_rows: index out of range for {a.shape[0]} rows")
    shape = a.shape

    def backward_fn(g):
        z = np.zeros(shape, dtype=np.float64)
        np.add.at(z, ix, g)
        return (z,)

    return _make((a,), a.data[ix].copy(), backward_fn)


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    shape = a.shape

    if axis is None:
        def backward_fn(g):
            return (np.broadcast_to(g, shape).copy(),)

        return _make((a,), a.data.sum(), backward_fn)

    def backward_fn(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _make((a,), a.data.sum(axis=axis), backward_fn)


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(a: Tensor) -> Tensor:
    arr = np.tanh(a.data)

    def backward_fn(g):
        return (g * (1.0 - arr * arr),)

    return _make((a,), arr, backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    arr = np.empty_like(x)
    pos = x >= 0
    arr[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    arr[~pos] = ex / (1.0 + ex)

    def backward_fn(g):
        return (g * arr * (1.0 - arr),)

    return _make((a,), arr, backward_fn)


def attention_weights(q: Tensor, key: Tensor, mask: np.ndarray) -> Tensor:
    """Shift-stabilized softmax(q key^T / sqrt(w) + mask) over the last axis as
    one node: q is ... x m x w, key ... x n x w and ``mask`` an additive
    constant array (0 where a key is visible, -1e30 where it is not) that
    broadcasts to the ... x m x n scores."""
    if q.ndim < 2 or key.ndim != q.ndim or q.shape[-1] != key.shape[-1]:
        raise ShapeError(f"attention_weights: shapes incompatible, {q.shape} and {key.shape}")
    qd = q.data
    kt = np.ascontiguousarray(key.data.swapaxes(-1, -2))
    c = 1.0 / math.sqrt(q.shape[-1])
    try:
        arr = qd @ kt
        arr *= c
        arr += mask
    except ValueError:
        raise ShapeError(f"attention_weights: mask {np.shape(mask)} does not broadcast") from None
    arr -= arr.max(axis=-1, keepdims=True)
    np.exp(arr, out=arr)
    arr /= arr.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        gs = arr * (g - (g * arr).sum(axis=-1, keepdims=True)) * c
        gkt = _unbroadcast(qd.swapaxes(-1, -2) @ gs, kt.shape)
        return (_unbroadcast(gs @ kt.swapaxes(-1, -2), q.shape),
                np.ascontiguousarray(gkt.swapaxes(-1, -2)))

    return _make((q, key), arr, backward_fn)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    arr = shifted - lse
    sm = np.exp(arr)

    def backward_fn(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return _make((a,), arr, backward_fn)


# ---------------------------------------------------------------------------
# backward pass


def backward(tape: Tape, loss: Tensor, wrt: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of the scalar loss, one array per tensor of ``wrt`` in its
    order; zeros where the loss does not reach the tensor. An array may be
    shared by several tensors, so treat the arrays as read-only."""
    if not isinstance(loss, Tensor) or loss.data.ndim != 0:
        raise ContractError("backward: loss must be a scalar (0-d) tensor")
    if tape._consumed:
        raise ContractError("backward: this tape already ran backward; record a fresh tape")
    if not any(n.out is loss for n in tape._nodes):
        raise ContractError("backward: loss was not produced under this tape")

    tape._consumed = True
    wanted = {id(t) for t in wrt}
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(tape._nodes):
        out = id(node.out)
        # an unwanted intermediate gradient is freed once its node has used it
        g = grads.get(out) if out in wanted else grads.pop(out, None)
        if g is None:
            continue
        for t, gin in zip(node.inputs, node.backward_fn(g)):
            if gin is None or not t.requires_grad:
                continue
            key = id(t)
            grads[key] = grads[key] + gin if key in grads else gin
    return [grads[id(t)] if id(t) in grads else np.zeros(t.shape) for t in wrt]


# ---------------------------------------------------------------------------
# utilities


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """cos(u, v) for equal-length 1-D arrays, clamped to [-1, 1]."""
    ud = np.asarray(u, dtype=np.float64)
    vd = np.asarray(v, dtype=np.float64)
    if ud.ndim != 1 or vd.ndim != 1 or ud.shape != vd.shape or ud.size < 1:
        raise ShapeError(f"cosine_similarity: expects equal-length vectors, got {ud.shape} and {vd.shape}")
    nu = float(np.linalg.norm(ud))
    nv = float(np.linalg.norm(vd))
    if nu == 0.0 or nv == 0.0:
        raise DomainError("cosine_similarity: zero vector")
    c = float(ud @ vd) / (nu * nv)
    return min(1.0, max(-1.0, c))
