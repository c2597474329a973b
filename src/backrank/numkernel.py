"""Dense float64 tensors, a reverse-mode gradient tape, and the plain-array
kernels the model's components are built from.

Everything is 64-bit and row-major. A model component computes its forward
pass with the kernels below and records one node through `record`, whose
backward function returns the gradient of every input. Each component's
backward replays, in the same order, the numpy operations that a tape of
primitive ops (kept in the tests as the oracle) would apply, so its values and
gradients equal that chain's bit for bit. A node is recorded onto the
innermost active `Tape` (a context manager) whenever any input has
`requires_grad`. Inference with no tape active records nothing and is safe to
run from many threads; recording and `backward` are single-threaded.

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
    """Ordered record of nodes, replayable backward once."""

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


def record(inputs: tuple[Tensor, ...], arr: np.ndarray, backward_fn) -> Tensor:
    """Wrap ``arr`` as the output of a node over ``inputs``. If any input
    requires a gradient, the output does too and the node goes onto the
    innermost active tape; ``backward_fn(g)`` then maps the output's gradient
    to one gradient per input, in order."""
    rg = any(t.requires_grad for t in inputs)
    out = object.__new__(Tensor)
    out.data = arr
    out.requires_grad = rg
    stack = _tapes()
    if rg and stack:
        tape = stack[-1]
        if tape._consumed:
            raise ContractError("recording onto a tape that already ran backward")
        tape._nodes.append(_Node(inputs, out, backward_fn))
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
# tensor ops


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        arr = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward_fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record((a, b), arr, backward_fn)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape

    def backward_fn(g):
        return (g.reshape(old),)

    return record((a,), a.data.reshape(shape), backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    arr = np.empty_like(x)
    pos = x >= 0
    arr[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    arr[~pos] = ex / (1.0 + ex)

    def backward_fn(g):
        return (g * arr * (1.0 - arr),)

    return record((a,), arr, backward_fn)


# ---------------------------------------------------------------------------
# array kernels: forward values and gradients on plain numpy arrays


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b over the last two axes, where x carries every leading axis
    of the result and b broadcasts to it."""
    return x @ w + b


def linear_grads(g, x, w, b_shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``linear(x, w, b)`` for its output gradient g, as (x, w, b)."""
    return (g @ w.swapaxes(-1, -2), _unbroadcast(x.swapaxes(-1, -2) @ g, w.shape),
            _unbroadcast(g, b_shape))


def split_heads(x: np.ndarray, parts: int) -> np.ndarray:
    """B x n x (parts * w) -> B x parts x n x w; also merge_heads' gradient."""
    b, n, width = x.shape
    return np.ascontiguousarray(x.reshape(b, n, parts, width // parts).transpose(0, 2, 1, 3))


def merge_heads(x: np.ndarray) -> np.ndarray:
    """B x parts x n x w -> B x n x (parts * w); also split_heads' gradient."""
    b, parts, n, w = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(b, n, parts * w)


def attention(q: np.ndarray, key: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift-stabilized softmax(q key^T / sqrt(w) + mask) over the last axis,
    and the contiguous key^T that ``attention_grads`` needs: q is ... x m x w,
    key ... x n x w with the same leading axes, and ``mask`` an additive
    constant array (0 where a key is visible, -1e30 where it is not) that
    broadcasts to the ... x m x n scores."""
    kt = np.ascontiguousarray(key.swapaxes(-1, -2))
    arr = q @ kt
    arr *= 1.0 / math.sqrt(q.shape[-1])
    arr += mask
    arr -= arr.max(axis=-1, keepdims=True)
    np.exp(arr, out=arr)
    arr /= arr.sum(axis=-1, keepdims=True)
    return arr, kt


def attention_grads(g, probs, q, kt) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``attention`` for its output gradient g, as (q, key)."""
    gs = probs * (g - (g * probs).sum(axis=-1, keepdims=True)) * (1.0 / math.sqrt(q.shape[-1]))
    gkt = q.swapaxes(-1, -2) @ gs
    return gs @ kt.swapaxes(-1, -2), np.ascontiguousarray(gkt.swapaxes(-1, -2))


def gather_rows(table: np.ndarray, idx) -> tuple[np.ndarray, np.ndarray]:
    """(index array, rows of a 2-D table at it, shaped idx.shape + (columns,))."""
    ix = np.asarray(idx, dtype=np.intp)
    if ix.size and (ix.min() < 0 or ix.max() >= table.shape[0]):
        raise DomainError(f"row index out of range for {table.shape[0]} rows")
    return ix, table[ix]


def scatter_rows(shape: tuple[int, int], ix: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of ``gather_rows``: the rows of g summed into zeros of
    ``shape`` at ix. Each bin adds its rows in index order starting from 0.0,
    as np.add.at does, so the sums are bit-equal to it."""
    rows, cols = shape
    bins = (ix[..., None] * cols + np.arange(cols)).ravel()
    return np.bincount(bins, weights=g.ravel(), minlength=rows * cols).reshape(shape)


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
