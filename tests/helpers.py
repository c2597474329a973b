"""Shared fixtures-in-code for the model-layer tests, the central-difference
gradient oracle, and the primitive tape ops the fused numkernel nodes replace
(kept here as their bit-for-bit reference)."""

import json
import math
import struct

import numpy as np

from backrank import (Backpack, BackpackConfig, ContractError, DomainError,
                      SplitMix64, Tape, Tensor, Vocab, backward)
from backrank import numkernel as nk


def finite_diff_check(f, x, eps=1e-5):
    """Max relative error between f's tape gradient and central differences.

    Per coordinate: |analytic - (f(x+eps e) - f(x-eps e)) / 2 eps| scaled by
    max(1, |analytic|). f must map a tensor to a scalar tensor.
    """
    if eps <= 0.0:
        raise DomainError("finite_diff_check: eps must be positive")
    xt = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(xt)
    if not isinstance(y, Tensor) or y.data.ndim != 0:
        raise ContractError("finite_diff_check: f must return a scalar tensor")
    (analytic,) = backward(tape, y, [xt])
    analytic = analytic.ravel()

    flat = x.data.ravel()
    worst = 0.0
    for i in range(flat.size):
        probe = flat.copy()
        probe[i] = flat[i] + eps
        hi = f(Tensor(probe.reshape(x.shape))).item()
        probe[i] = flat[i] - eps
        lo = f(Tensor(probe.reshape(x.shape))).item()
        fd = (hi - lo) / (2.0 * eps)
        err = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]))
        if err > worst:
            worst = err
    return worst


# ---------------------------------------------------------------------------
# reference primitives: the chains that linear, split_heads, merge_heads and
# attention_weights fuse are built from these


def transpose(a, axes):
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))

    def backward_fn(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return nk._make((a,), np.ascontiguousarray(a.data.transpose(axes)), backward_fn)


def scale(a, c):
    c = float(c)

    def backward_fn(g):
        return (g * c,)

    return nk._make((a,), a.data * c, backward_fn)


def softmax(a, axis=-1):
    """Shift-stabilized softmax along `axis`; rows sum to 1."""
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    arr = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        return (arr * (g - (g * arr).sum(axis=axis, keepdims=True)),)

    return nk._make((a,), arr, backward_fn)


def linear_chain(x, w, b):
    return nk.add(nk.matmul(x, w), b)


def split_heads_chain(x, parts):
    b, n, width = x.shape
    return transpose(nk.reshape(x, (b, n, parts, width // parts)), (0, 2, 1, 3))


def merge_heads_chain(x):
    b, parts, n, w = x.shape
    return nk.reshape(transpose(x, (0, 2, 1, 3)), (b, n, parts * w))


def attention_weights_chain(q, key, mask):
    perm = tuple(range(key.ndim - 2)) + (key.ndim - 1, key.ndim - 2)
    scores = scale(nk.matmul(q, transpose(key, perm)), 1.0 / math.sqrt(q.shape[-1]))
    return softmax(nk.add(scores, Tensor(mask)), axis=-1)


def build_planted_model(seed, k=4, p=2, d=8):
    """A toy model where exactly one sense channel encodes the he/she contrast.

    The construction exploits the sense-table structure directly:

    - ``he`` and ``she`` get antipodal base embeddings along a random unit
      direction u.
    - The planted channel's first-layer columns read u with zero bias, so its
      tanh output flips sign between the two words and the resulting sense
      vectors are antipodal (pair cosine -1).
    - Every other channel's first-layer block is zeroed with a nonzero random
      bias, so its output is the same constant vector for every token (pair
      cosine +1).

    Returns (model, vocab, planted_sense_index).
    """
    rng = SplitMix64(seed)
    vocab = Vocab(["<pad>", "<unk>", "<sep>", "he", "she", "cat", "dog"])
    cfg = BackpackConfig(vocab_size=len(vocab), embed_dim=d, num_senses=k,
                         sense_hidden=p, context_heads=1, max_seq_len=8)
    model = Backpack(cfg, seed=seed)
    planted = rng.randint(k)

    u = rng.normal_array((d,), 1.0)
    u /= np.linalg.norm(u)
    base = rng.normal_array((len(vocab), d), 0.1)
    base[vocab.token_id("he")] = 2.0 * u
    base[vocab.token_id("she")] = -2.0 * u

    w1 = np.zeros((d, k * p))
    b1 = rng.normal_array((k * p,), 0.5)
    for col in range(p):
        w1[:, planted * p + col] = u * (1.0 + 0.5 * col)
    b1[planted * p:(planted + 1) * p] = 0.0
    w2 = rng.normal_array((k, p, d), 0.5)

    params = model.parameters()
    for name, value in (("base", base), ("w1", w1), ("b1", b1), ("w2", w2)):
        params[f"sense.{name}"].data = value
    return model, vocab, planted


def forward_triple_loop(model, token_ids):
    """Independent evaluation of the aggregation sum, one scalar at a time."""
    alpha = model.context.alpha([list(token_ids)], np.arange(len(token_ids))).data[0]
    senses = model.senses.senses_for([list(token_ids)]).data[0]
    k, n, d = senses.shape
    out = np.zeros((n, d))
    for i in range(n):
        for l in range(k):
            for j in range(n):
                for c in range(d):
                    out[i, c] += alpha[l, i, j] * senses[l, j, c]
    return out


def rewrite_checkpoint_header(src, dst, edit):
    """Copy a checkpoint with its JSON header replaced by edit(header)."""
    blob = src.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    new = json.dumps(edit(json.loads(blob[12:12 + hlen]))).encode("utf-8")
    dst.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + hlen:])
