"""Shared fixtures-in-code for the model-layer tests, the central-difference
gradient oracle, and the reverse-mode tape with the primitive ops and chains
that the model's components replace (kept here as their bit-for-bit
reference), the run-file reader and record grouping that ``read_ranking``
replaces, the scalar RaB/ARaB definitions, the per-(metric, cutoff) MRR and
NDCG that ``effectiveness_per_query`` replaces, the one-process means
(``effectiveness``) that ``eval``'s block driver replaces, the
per-document ``Counter`` BM25 index build, the regular-expression
tokenizer, the scalar SplitMix64
whose stream the block-mixed ``SplitMix64`` serves, the per-pair cosine
loop that ``attribute_scores`` replaces, and the patches that
pin the usable cores or forbid a fork for the forked-helper tests."""

import copy
import json
import logging
import math
import os
import re
import struct
from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from backrank import (Backpack, BackpackConfig, DomainError, ParseError, Qrels, ShapeError,
                      SplitMix64, TrainExample, Vocab, bm25_retrieve)
from backrank import numkernel as nk
from backrank.backpack import _causal_mask
from backrank.corpus import BM25_B, BM25_K1
from backrank.errors import read_lines
from backrank.metrics import (FEMALE_TERMS, MALE_TERMS, check_cutoffs, effectiveness_means,
                              effectiveness_per_query)


class ContractError(RuntimeError):
    """The oracle tape was used against its stated usage contract."""


# ---------------------------------------------------------------------------
# the oracle tape: a node per op, replayed backward once. Single-threaded.

_TAPES: list = []


class Tape:
    """Ordered record of nodes, replayable backward once."""

    __slots__ = ("_nodes", "_consumed")

    def __init__(self):
        self._nodes: list[_Node] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._nodes)

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if _TAPES.pop() is not self:
            raise ContractError("tape stack corrupted: exited a tape that is not innermost")


class _Node:
    __slots__ = ("inputs", "out", "backward_fn")

    def __init__(self, inputs, out, backward_fn):
        self.inputs = inputs
        self.out = out
        self.backward_fn = backward_fn


class Tensor(nk.Tensor):
    """A finite float64 array the tape can track; a model parameter too, so
    ``Backpack.parameters`` lists it (see ``tracked``)."""

    __slots__ = ("requires_grad",)

    def __init__(self, data, requires_grad: bool = False):
        super().__init__(data)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))


def record(inputs, arr, backward_fn):
    """Wrap ``arr`` as the output of a node over ``inputs``. If any input
    requires a gradient, the output does too and the node goes onto the
    innermost active tape; ``backward_fn(g)`` then maps the output's gradient
    to one gradient per input, in order."""
    rg = any(t.requires_grad for t in inputs)
    out = object.__new__(Tensor)
    out.data = arr
    out.requires_grad = rg
    if rg and _TAPES:
        tape = _TAPES[-1]
        if tape._consumed:
            raise ContractError("recording onto a tape that already ran backward")
        tape._nodes.append(_Node(inputs, out, backward_fn))
    return out


def backward(tape, loss, wrt):
    """Gradients of the scalar loss, one array per tensor of ``wrt`` in its
    order; zeros where the loss does not reach the tensor."""
    if not isinstance(loss, Tensor) or loss.data.ndim != 0:
        raise ContractError("backward: loss must be a scalar (0-d) tensor")
    if tape._consumed:
        raise ContractError("backward: this tape already ran backward; record a fresh tape")
    if not any(n.out is loss for n in tape._nodes):
        raise ContractError("backward: loss was not produced under this tape")

    tape._consumed = True
    wanted = {id(t) for t in wrt}
    grads = {id(loss): np.ones((), dtype=np.float64)}
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


def node(fn, inputs, *consts, params=()):
    """``fn(*input arrays, *consts)``, a model component that returns
    ``(out, backward)``, recorded as one node over the tensors ``inputs``
    and then ``params``: the order its backward returns gradients in."""
    out, back = fn(*(t.data for t in inputs), *consts)
    return record(tuple(inputs) + tuple(params), out, back)


def tracked(model):
    """A copy of model whose parameters are tape leaves sharing its arrays,
    listed by ``parameters()`` in registry order; the model is unchanged."""
    def leaves(comp):
        clone = copy.copy(comp)
        for name, value in vars(comp).items():
            if isinstance(value, nk.Tensor):
                setattr(clone, name, Tensor(value.data, requires_grad=True))
        return clone

    clone = copy.copy(model)
    clone.senses, clone.context, clone.head = map(leaves, (model.senses, model.context,
                                                           model.head))
    clone.context.layers = [leaves(layer) for layer in model.context.layers]
    return clone


# ---------------------------------------------------------------------------
# central differences


def central_diff_error(f, x, analytic, eps=1e-5):
    """Max relative error between an analytic gradient of the scalar f()
    with respect to the array x and central differences.

    Per coordinate: |analytic - (f(x+eps e) - f(x-eps e)) / 2 eps| scaled by
    max(1, |analytic|). f reads x, whose coordinates move in place and are
    restored.
    """
    if eps <= 0.0:
        raise DomainError("central differences need a positive eps")
    flat = x.reshape(-1)
    analytic = np.asarray(analytic).ravel()
    worst = 0.0
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = f()
        flat[i] = keep - eps
        lo = f()
        flat[i] = keep
        fd = (hi - lo) / (2.0 * eps)
        worst = max(worst, abs(analytic[i] - fd) / max(1.0, abs(analytic[i])))
    return worst


def finite_diff_check(f, x, eps=1e-5):
    """``central_diff_error`` of f's tape gradient at the tensor x, where f
    maps a tensor to a scalar tensor."""
    xt = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(xt)
    if not isinstance(y, Tensor) or y.data.ndim != 0:
        raise ContractError("finite_diff_check: f must return a scalar tensor")
    (analytic,) = backward(tape, y, [xt])
    probe = Tensor(x.data.copy())
    return central_diff_error(lambda: f(probe).item(), probe.data, analytic, eps)


def logits(model, query, docs, weights=None):
    """The (B,) relevance logits of each document of docs for the query,
    under one per-sense weight vector (None for all ones)."""
    w = np.ones((1, model.config.num_senses)) if weights is None else [weights]
    return model.relevance_logits([model.pack_sequence(query, d) for d in docs], w)[0][0]


# ---------------------------------------------------------------------------
# reference tape ops: one node per primitive operation, recorded through
# record. The fused ones (linear, split_heads, merge_heads,
# attention_weights) are checked against the chains of finer ops below.


_unbroadcast = nk._unbroadcast


def add(a, b):
    try:
        arr = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward_fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record((a, b), arr, backward_fn)


def reshape(a, shape):
    old = a.shape

    def backward_fn(g):
        return (g.reshape(old),)

    return record((a,), a.data.reshape(shape), backward_fn)


def sigmoid(a):
    arr = nk.sigmoid(a.data)

    def backward_fn(g):
        return (g * arr * (1.0 - arr),)

    return record((a,), arr, backward_fn)


def mul(a, b):
    try:
        arr = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None
    ad, bd = a.data, b.data

    def backward_fn(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return record((a, b), arr, backward_fn)


def neg(a):
    def backward_fn(g):
        return (-g,)

    return record((a,), -a.data, backward_fn)


def matmul(a, b):
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

    return record((a, b), arr, backward_fn)


def linear(x, w, b):
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

    return record((x, w, b), arr, backward_fn)


def dot(u, v):
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise ShapeError(f"dot: expects equal-length vectors, got {u.shape} and {v.shape}")
    ud, vd = u.data, v.data

    def backward_fn(g):
        return g * vd, g * ud

    return record((u, v), np.einsum("i,i->", ud, vd), backward_fn)


def split_heads(x, parts):
    """B x n x (parts * w) -> B x parts x n x w, as one node."""
    if x.ndim != 3 or x.shape[-1] % parts:
        raise ShapeError(f"split_heads: cannot split {x.shape} into {parts} parts")
    b, n, width = x.shape

    def backward_fn(g):
        return (np.ascontiguousarray(g.transpose(0, 2, 1, 3)).reshape(b, n, width),)

    arr = np.ascontiguousarray(x.data.reshape(b, n, parts, width // parts).transpose(0, 2, 1, 3))
    return record((x,), arr, backward_fn)


def merge_heads(x):
    """B x parts x n x w -> B x n x (parts * w), the inverse of split_heads."""
    if x.ndim != 4:
        raise ShapeError(f"merge_heads: expects a 4-D tensor, got {x.shape}")
    b, parts, n, w = x.shape

    def backward_fn(g):
        return (np.ascontiguousarray(g.reshape(b, n, parts, w).transpose(0, 2, 1, 3)),)

    arr = np.ascontiguousarray(x.data.transpose(0, 2, 1, 3)).reshape(b, n, parts * w)
    return record((x,), arr, backward_fn)


def take_rows(a, idx):
    """Rows of a 2-D tensor at an index array of any shape, shaped
    idx.shape + (columns,); backward scatter-adds into the source with
    np.add.at, the reference for nk.scatter_rows."""
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

    return record((a,), a.data[ix].copy(), backward_fn)


def tensor_sum(a, axis=None):
    shape = a.shape

    if axis is None:
        def backward_fn(g):
            return (np.broadcast_to(g, shape).copy(),)

        return record((a,), a.data.sum(), backward_fn)

    def backward_fn(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return record((a,), a.data.sum(axis=axis), backward_fn)


def tanh(a):
    arr = np.tanh(a.data)

    def backward_fn(g):
        return (g * (1.0 - arr * arr),)

    return record((a,), arr, backward_fn)


def attention_weights(q, key, mask):
    """Shift-stabilized softmax(q key^T / sqrt(w) + mask) over the last axis
    as one node, for an additive constant mask array."""
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

    return record((q, key), arr, backward_fn)


def log_softmax(a, axis=-1):
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    arr = shifted - lse
    sm = np.exp(arr)

    def backward_fn(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return record((a,), arr, backward_fn)


def transpose(a, axes):
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))

    def backward_fn(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return record((a,), np.ascontiguousarray(a.data.transpose(axes)), backward_fn)


def scale(a, c):
    c = float(c)

    def backward_fn(g):
        return (g * c,)

    return record((a,), a.data * c, backward_fn)


def softmax(a, axis=-1):
    """Shift-stabilized softmax along `axis`; rows sum to 1."""
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    arr = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        return (arr * (g - (g * arr).sum(axis=axis, keepdims=True)),)

    return record((a,), arr, backward_fn)


def linear_chain(x, w, b):
    return add(matmul(x, w), b)


def split_heads_chain(x, parts):
    b, n, width = x.shape
    return transpose(reshape(x, (b, n, parts, width // parts)), (0, 2, 1, 3))


def merge_heads_chain(x):
    b, parts, n, w = x.shape
    return reshape(transpose(x, (0, 2, 1, 3)), (b, n, parts * w))


def attention_weights_chain(q, key, mask):
    perm = tuple(range(key.ndim - 2)) + (key.ndim - 1, key.ndim - 2)
    scores = scale(matmul(q, transpose(key, perm)), 1.0 / math.sqrt(q.shape[-1]))
    return softmax(add(scores, Tensor(mask)), axis=-1)


# ---------------------------------------------------------------------------
# the model's components as chains of the reference ops: each backpack and
# ranker component's output and backward equal these, bit for bit


def senses_chain(table, ids):
    h = tanh(linear(take_rows(table.base, ids), table.w1, table.b1))
    return linear(split_heads(h, table._k), table.w2, table.b2)


def embed_chain(enc, ids):
    n = np.shape(ids)[1]
    return add(take_rows(enc.tok_emb, ids), take_rows(enc.pos_emb, np.arange(n)))


def layer_chain(layer, hs, heads):
    q = split_heads(linear(hs, layer.wq, layer.bq), heads)
    k = split_heads(linear(hs, layer.wk, layer.bk), heads)
    v = split_heads(linear(hs, layer.wv, layer.bv), heads)
    n = hs.shape[1]
    probs = attention_weights(q, k, _causal_mask(n))
    hs = add(hs, linear(merge_heads(matmul(probs, v)), layer.wo, layer.bo))
    ff = tanh(linear(hs, layer.f1, layer.fb1))
    return add(hs, linear(ff, layer.f2, layer.fb2))


def sense_attention_chain(enc, hs, pos):
    b, n, d = hs.shape
    k = enc.cfg.num_senses
    rows = take_rows(reshape(hs, (b * n, d)), pos + n * np.arange(b)[:, None])
    q = split_heads(linear(rows, enc.aq, enc.abq), k)
    key = split_heads(linear(hs, enc.ak, enc.abk), k)
    return attention_weights(q, key, _causal_mask(n)[pos[:, None]])


def aggregate_chain(alpha, senses, weights=None):
    ctx = matmul(alpha, senses)
    if weights is not None:
        ctx = mul(ctx, Tensor(np.asarray(weights, dtype=np.float64).reshape(-1, 1, 1)))
    return tensor_sum(ctx, axis=1)


def head_chain(head, pooled):
    h = tanh(linear(pooled, head.w1, head.b1))
    return reshape(linear(h, head.w2, head.b2), (pooled.shape[0],))


def listwise_loss_chain(y, y_hat):
    return neg(dot(Tensor(np.asarray(y, dtype=np.float64)), log_softmax(y_hat, axis=-1)))


def relevance_logit_chain(model, query, docs, weights=None):
    """The relevance logits of each document of docs for the query through
    the reference chains; only the parameters of a ``tracked`` model are
    leaves the tape follows."""
    seqs = [model.pack_sequence(query, d) for d in docs]
    ids = model._pad(seqs)
    hs = embed_chain(model.context, ids)
    for layer in model.context.layers:
        hs = layer_chain(layer, hs, model.config.context_heads)
    pos = np.array([[len(s) - 1] for s in seqs], dtype=np.intp)
    alpha = sense_attention_chain(model.context, hs, pos)
    pooled = aggregate_chain(alpha, senses_chain(model.senses, ids), weights)
    return head_chain(model.head, pooled)


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
        params[f"sense.{name}"].data[...] = value    # in place: it stays in model.flat
    return model, vocab, planted


def cosine_similarity(u, v):
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


def attribute_scores_reference(model, pairs, vocab):
    """The per-sense scores ``attribute_scores`` gives for pairs that are all
    in vocab, one cosine per (sense, pair): 0 for a zero vector, and each
    sense's cosines summed in sorted order."""
    ids = np.array([[vocab.token_id(p.negative), vocab.token_id(p.positive)] for p in pairs])
    vecs = model.senses.senses_for(ids)[0]    # pairs x k x 2 x d
    scores = []
    for sense in range(vecs.shape[1]):
        sims = []
        for va, vb in vecs[:, sense]:
            try:
                sims.append(cosine_similarity(va, vb))
            except DomainError:
                sims.append(0.0)
        sims.sort()
        scores.append(sum(sims) / len(sims))
    return tuple(scores)


def forward_triple_loop(model, token_ids):
    """Independent evaluation of the aggregation sum, one scalar at a time."""
    alpha = model.context.alpha([list(token_ids)], np.arange(len(token_ids)))[0][0]
    senses = model.senses.senses_for([list(token_ids)])[0][0]
    k, n, d = senses.shape
    out = np.zeros((n, d))
    for i in range(n):
        for l in range(k):
            for j in range(n):
                for c in range(d):
                    out[i, c] += alpha[l, i, j] * senses[l, j, c]
    return out


def pin_cores(monkeypatch, n):
    """The code under test sees n usable cores, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def forbid_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)


def rewrite_checkpoint_header(src, dst, edit):
    """Copy a checkpoint with its JSON header replaced by edit(header)."""
    blob = src.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    new = json.dumps(edit(json.loads(blob[12:12 + hlen]))).encode("utf-8")
    dst.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + hlen:])


def assert_ranking_invariants(ranked):
    """A RankedList lists each document once, by finite score descending,
    ties in ascending doc id: the order its producers give it, which the
    type itself does not check."""
    ids = ranked.doc_ids
    assert len(set(ids)) == len(ids), ranked.query_id
    assert all(math.isfinite(score) for _, score in ranked.items), ranked.query_id
    for (da, sa), (db, sb) in zip(ranked.items, ranked.items[1:]):
        assert sa > sb or (sa == sb and da < db), (ranked.query_id, da, sa, db, sb)


def read_run(path):
    """Each line of a run file as a ``(qid, docid, rank, score, tag)`` tuple,
    in file order: the oracle for ``read_ranking``'s per-line checks. Each
    line is checked as it is read, a (query, document) pair seen on an
    earlier line included, so the first faulty line is the one named."""
    records, seen = [], set()
    for lineno, raw in read_lines(path):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise ParseError(f"expected 6 fields, got {len(parts)}", path=str(path), line=lineno)
        qid, _q0, did, rank, score, tag = parts
        if not re.fullmatch(r"-?[0-9]+", rank):    # the qrels grade rule
            raise ParseError(f"bad rank {rank!r}", path=str(path), line=lineno)
        rank = int(rank)
        try:
            value = float(score)
        except ValueError:
            raise ParseError(f"bad score {score!r}", path=str(path), line=lineno) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite score {score!r}", path=str(path), line=lineno)
        if (qid, did) in seen:
            raise ParseError(f"query {qid} lists document {did!r} twice",
                             path=str(path), line=lineno)
        seen.add((qid, did))
        records.append((qid, did, rank, value, tag))
    return records


def group_run(records):
    """Per-query doc ids ordered by rank, stable on ties: the oracle for
    ``read_ranking`` over ``read_run``'s records."""
    grouped = {}
    for qid, did, rank, _score, _tag in records:
        grouped.setdefault(qid, []).append((rank, did))
    return {qid: [did for _rank, did in sorted(recs, key=lambda rec: rec[0])]
            for qid, recs in grouped.items()}


# ---------------------------------------------------------------------------
# RaB / ARaB of one ranked list, transcribed from the definitions (Rekabsaz &
# Schedl, SIGIR 2020): the oracles for ``bias_report``'s per-query values


def mag_tf(doc, terms):
    """The sum of natural-log counts of the distinct lexicon terms in the
    document, in sorted order; a single occurrence contributes log(1) = 0."""
    total = 0.0
    for term in sorted({t for t in doc if t in terms}):
        total += math.log(doc.count(term))
    return total


def gender_delta(doc, variant):
    """Female magnitude minus male magnitude, each computed on its own."""
    if variant == "bool":
        return float(any(t in FEMALE_TERMS for t in doc)) - float(
            any(t in MALE_TERMS for t in doc))
    return mag_tf(doc, FEMALE_TERMS) - mag_tf(doc, MALE_TERMS)


def rab(docs, variant, t):
    """Mean gender delta of the top t of the token lists docs."""
    return sum(gender_delta(d, variant) for d in docs[:t]) / t


def arab(docs, variant, t):
    """Mean of RaB over the prefixes 1..t."""
    return sum(rab(docs, variant, x) for x in range(1, t + 1)) / t


# ---------------------------------------------------------------------------
# MRR@k and NDCG@k of one ranked list and their mean over queries, one walk
# per (metric, cutoff): the oracles for ``effectiveness_per_query``; and
# ``effectiveness``, the one-process means: the oracle for ``eval``

log = logging.getLogger(__name__)


def mrr_at_k(query_id: str, ranked_ids: Sequence[str], qrels: Qrels, k: int = 10) -> float:
    """Reciprocal rank of the first relevant doc in the top k, else 0."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if not qrels.has_query(query_id):
        log.warning("query %s absent from qrels; scoring 0", query_id)
        return 0.0
    for i, did in enumerate(ranked_ids[:k]):
        if qrels.grade(query_id, did) > 0:
            return 1.0 / (i + 1)
    return 0.0


def ndcg_at_k(query_id: str, ranked_ids: Sequence[str], qrels: Qrels, k: int = 10) -> float:
    """Discounted cumulative gain over the top k, normalized by the ideal.

    Gain is 2^grade - 1 with a log2(rank + 1) discount; 0 when the query has
    no relevant documents.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if not qrels.has_query(query_id):
        log.warning("query %s absent from qrels; scoring 0", query_id)
        return 0.0
    ideal = sorted(qrels.relevant(query_id).values(), reverse=True)
    if not ideal:
        return 0.0
    dcg = 0.0
    for i, did in enumerate(ranked_ids[:k]):
        g = qrels.grade(query_id, did)
        if g > 0:
            dcg += (2.0 ** g - 1.0) / math.log2(i + 2)
    idcg = 0.0
    for i, g in enumerate(ideal[:k]):
        idcg += (2.0 ** g - 1.0) / math.log2(i + 2)
    return dcg / idcg


def mean_metric(ranked: Mapping[str, Sequence[str]], qrels: Qrels,
                metric: str, k: int = 10) -> float:
    """Mean MRR@k or NDCG@k over queries, iterated in sorted id order.

    A query absent from qrels scores 0; all such queries are one warning,
    naming how many and the first.
    """
    if metric not in ("mrr", "ndcg"):
        raise DomainError(f"unknown metric {metric!r}")
    if not ranked:
        raise DomainError("no queries to evaluate")
    if k < 1:
        raise DomainError("k must be >= 1")
    fn = mrr_at_k if metric == "mrr" else ndcg_at_k
    total = 0.0
    absent = []
    for qid in sorted(ranked):
        if qrels.has_query(qid):
            total += fn(qid, ranked[qid], qrels, k)
        else:
            absent.append(qid)
    if absent:
        log.warning("%d of %d queries absent from qrels (first %s); scoring them 0",
                    len(absent), len(ranked), absent[0])
    return total / len(ranked)


def effectiveness(ranked: Mapping[str, Sequence[str]], qrels: Qrels,
                  cutoffs: Sequence[int]) -> dict[tuple[str, int], float]:
    """Mean MRR@k and NDCG@k of one ranking over its queries, keyed ("mrr", k)
    and ("ndcg", k): the library's per-query pass and reduction over the whole
    ranking in one process, as ``eval`` scored a run before it scored blocks.
    The oracle for ``eval``'s block driver; the metrics tests check it
    against ``mean_metric``."""
    if not ranked:
        raise DomainError("no queries to evaluate")
    per_ranking = effectiveness_per_query([ranked], qrels, check_cutoffs(cutoffs))
    return effectiveness_means(per_ranking, sorted(ranked), qrels)[0]


class CounterBm25Index:
    """The per-document ``Counter`` build of ``corpus._Bm25Index``: the oracle
    for its doc ids, posting key order, rows and impacts."""

    def __init__(self, docs):
        self.doc_ids = sorted(docs)
        n = len(self.doc_ids)
        doc_len = np.array([len(docs[did]) for did in self.doc_ids], dtype=np.int64)
        avgdl = int(doc_len.sum()) / n if n else 0.0
        rows, tfs = {}, {}
        for row, did in enumerate(self.doc_ids):
            for term, tf in Counter(docs[did]).items():
                rows.setdefault(term, []).append(row)
                tfs.setdefault(term, []).append(tf)
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * doc_len / (avgdl or 1.0))
        buf = np.empty(max(map(len, rows.values()), default=0))
        self.postings = {}
        for term, r in rows.items():
            idf = max(0.0, math.log((n - len(r) + 0.5) / (len(r) + 0.5)))
            if idf == 0.0:
                continue
            rr = np.array(r, dtype=np.intp)
            impact = np.array(tfs[term], dtype=np.float64)
            denom = np.take(norm, rr, out=buf[:len(r)])
            denom += impact
            impact *= idf
            impact *= BM25_K1 + 1.0
            impact /= denom
            self.postings[term] = (rr, impact)


def build_train_examples_reference(coll, vocab, num_negatives=7, seed=0, candidate_depth=100):
    """``corpus.build_train_examples`` with its own BM25 retrieval per query
    and its own encode-once cache: the oracle for the lists, and the draws,
    that the library forms from ``build_eval_set``'s candidates."""
    if num_negatives < 1:
        raise DomainError("num_negatives must be >= 1")
    rng = SplitMix64(seed)
    examples = []
    encoded = {}    # each distinct document, encoded once
    for qid, qtokens in sorted(coll.queries.items()):
        positives = coll.qrels.relevant(qid)
        if not positives:
            continue
        retrieved = bm25_retrieve(qtokens, coll, candidate_depth, query_id=qid)
        pool = [d for d in retrieved.doc_ids if coll.qrels.grade(qid, d) == 0]
        if not pool:
            continue
        query_ids = tuple(vocab.encode(qtokens))
        for pos in sorted(positives):
            negs = rng.sample(pool, min(num_negatives, len(pool)))
            doc_ids = (pos, *negs)
            for d in doc_ids:
                if d not in encoded:
                    encoded[d] = tuple(vocab.encode(coll.docs[d]))
            examples.append(TrainExample(
                query_id=qid,
                query=query_ids,
                doc_ids=doc_ids,
                docs=tuple(encoded[d] for d in doc_ids),
                labels=(1.0,) + (0.0,) * len(negs),
            ))
    if not examples:
        raise DomainError("no training examples could be built from the collection")
    return examples


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def regex_tokenize(text):
    """The runs of ASCII letters and digits in the lowercased text: the oracle
    for ``corpus.tokenize``."""
    return _TOKEN_RE.findall(text.lower())


# ---------------------------------------------------------------------------
# SplitMix64 as a scalar recurrence, one output per call: the oracle for
# ``SplitMix64``'s block-mixed stream, and the home of the scalar ``normal``
# that ``normal_array`` follows

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO53 = float(1 << 53)


class ScalarSplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / _TWO53

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        u1 = ((self.next_u64() >> 11) + 1) / _TWO53
        u2 = (self.next_u64() >> 11) / _TWO53
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def randint(self, n: int) -> int:
        if n <= 0:
            raise DomainError(f"randint needs n > 0, got {n}")
        return self.next_u64() % n

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randint(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def sample(self, xs, k: int) -> list:
        if k > len(xs):
            raise DomainError(f"cannot sample {k} items from {len(xs)}")
        pool = list(xs)
        self.shuffle(pool)
        return pool[:k]

    def normal_array(self, shape, sigma: float = 1.0) -> np.ndarray:
        """Row-major array of normal(0, sigma) draws, bit-equal to calling
        ``normal(0.0, sigma)`` once per element.

        The 2n raw outputs are mixed as uint64 arrays (which wrap mod 2^64);
        the transcendental functions stay the scalar ``math`` ones.
        """
        n = 1
        for s in shape:
            n *= s
        z = np.arange(1, 2 * n + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self._state)
        self._state = (self._state + 2 * n * _GAMMA) & _MASK64
        z = (z ^ (z >> 30)) * np.uint64(_MIX1)
        z = (z ^ (z >> 27)) * np.uint64(_MIX2)
        z = (z ^ (z >> 31)) >> 11
        u1 = ((z[0::2] + 1) / _TWO53).tolist()
        u2 = (z[1::2] / _TWO53).tolist()
        two_pi = 2.0 * math.pi
        out = [0.0 + sigma * math.sqrt(-2.0 * math.log(a)) * math.cos(two_pi * b)
               for a, b in zip(u1, u2)]
        return np.array(out, dtype=np.float64).reshape(shape)
