"""The parameter holder and the plain-array kernels the model's components
are built from.

Everything is 64-bit and row-major. A model component computes its forward
pass with numpy and the kernels below, and returns it with a backward closure
from the output's gradient to its input's and its parameters'. Each backward
replays, in the same order, the numpy operations that a tape of primitive ops
(kept in the tests as the oracle) would apply, so its values and gradients
equal that chain's bit for bit. Nothing here holds state between calls.
"""

from __future__ import annotations

import math

import numpy as np


class Tensor:
    """A model parameter: a dense float64 array, ``data``."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`: leading axes in one reduction, then any held as 1."""
    g = np.add.reduce(g, axis=tuple(range(g.ndim - len(shape))))
    if g.shape == shape:
        return g
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    return np.add.reduce(g, axis=axes, keepdims=True)


# ---------------------------------------------------------------------------
# array kernels: forward values and gradients on plain numpy arrays


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray, squash: bool = False) -> np.ndarray:
    """``x @ w + b`` (with ``squash``, its tanh), in place on the fresh product."""
    out = x @ w
    out += b
    return np.tanh(out, out=out) if squash else out


def linear_grads(g, x, w, b_shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``x @ w + b`` for its output gradient g, as (x, w, b),
    where x carries every leading axis of the output and b broadcasts to it."""
    return (g @ w.swapaxes(-1, -2), _unbroadcast(x.swapaxes(-1, -2) @ g, w.shape),
            _unbroadcast(g, b_shape))


def split_heads(x: np.ndarray, parts: int) -> np.ndarray:
    """B x n x (parts * w) -> a B x parts x n x w view; merge_heads' gradient."""
    return x.reshape(*x.shape[:2], parts, -1).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """B x parts x n x w -> B x n x (parts * w), a row-major copy whatever the
    layout of x (as for kt in ``attention``); split_heads' gradient."""
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(x.shape[0], x.shape[2], -1)


def attention(q: np.ndarray, key: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift-stabilized softmax(q key^T / sqrt(w) + mask) over the last axis,
    and the contiguous key^T that ``attention_grads`` needs: q is ... x m x w,
    key ... x n x w with the same leading axes, and ``mask`` an additive
    constant array (0 where a key is visible, -1e30 where it is not) that
    broadcasts to the ... x m x n scores. key^T is a row-major copy, not a
    view: numpy hands a transposed operand to another BLAS kernel, which sums
    in another order and so changes the scores' last bits and every checkpoint."""
    kt = np.ascontiguousarray(key.swapaxes(-1, -2))
    arr = q @ kt
    arr *= 1.0 / math.sqrt(q.shape[-1])
    arr += mask
    arr -= np.maximum.reduce(arr, axis=-1, keepdims=True)
    np.exp(arr, out=arr)
    arr /= np.add.reduce(arr, axis=-1, keepdims=True)
    return arr, kt


def attention_grads(g, probs, q, kt) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``attention`` for its output's g, as (q, key); key's is a view."""
    gs = g - np.add.reduce(g * probs, axis=-1, keepdims=True)
    gs *= probs
    gs *= 1.0 / math.sqrt(q.shape[-1])
    gkt = q.swapaxes(-1, -2) @ gs
    return gs @ kt.swapaxes(-1, -2), gkt.swapaxes(-1, -2)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) elementwise, with no overflow for either sign."""
    arr = np.empty_like(x)
    pos = x >= 0
    arr[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    arr[~pos] = ex / (1.0 + ex)
    return arr


def scatter_rows(shape: tuple[int, int], ix: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the row gather ``table[ix]``: the rows of g summed into
    zeros of ``shape`` at ix. Each bin adds its rows in index order starting
    from 0.0, as np.add.at does, so the sums are bit-equal to it."""
    rows, cols = shape
    bins = (ix[..., None] * cols + np.arange(cols)).ravel()
    return np.bincount(bins, weights=g.ravel(), minlength=rows * cols).reshape(shape)
