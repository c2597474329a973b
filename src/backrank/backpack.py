"""A small Backpack-style ranking model.

Every vocabulary token owns k context-independent sense vectors (a learned
multi-vector extension of a classic embedding table). A transformer-style
encoder reads the input once and emits nonnegative contextualization weights
alpha of shape k x m x n for m query positions, row-normalized per (sense,
position) under a causal mask; the output at position i is the
alpha-weighted sum of the sense vectors of tokens 0..i. Because that sum is
linear in the senses, scaling chosen senses by a factor in (0, 1] at
inference time suppresses whatever those senses encode without retraining;
the all-ones weighting reproduces the plain forward pass bit for bit.

Every component works on a batch: a B x n matrix of token ids, right-padded
with id 0. The causal mask keeps each real position blind to the padding
after it: a padded row matches the row alone up to rounding (about 1e-16).

For ranking, query and document are packed as query ++ <sep> ++ document,
pooled at the last real position, and passed through a two-layer MLP; the
sigmoid of its output is the relevance score. ``Backpack.relevance_logits``
is the one scoring method: training uses the backward it returns, ranking
drops it. Only the pooled position's alpha row reaches the score, so it
computes alpha for that position alone (m = 1); ``Backpack.forward``
computes every position (m = n).
"""

from __future__ import annotations

import array
import functools
import itertools
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from . import numkernel as nk
from .corpus import Vocab
from .errors import DomainError, ParseError
from .numkernel import Tensor
from .rng import SplitMix64

CHECKPOINT_MAGIC = b"BPCKPT1\n"
CHECKPOINT_FORMAT = 4
_MASK_VALUE = -1e30

# a component's backward: its output's gradient -> the gradient of its
# activation input (if it has one), then of its parameters in registry order
Backward = Callable[[np.ndarray], tuple]


@dataclass(frozen=True)
class BackpackConfig:
    """Model hyperparameters, each an int >= 1; embed_dim must be divisible
    by context_heads."""

    vocab_size: int
    embed_dim: int = 24
    num_senses: int = 16
    sense_hidden: int = 4
    context_layers: int = 1
    context_heads: int = 2
    max_seq_len: int = 32
    head_hidden: int = 16

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:
                raise DomainError(f"{f.name} must be an int, got {value!r}")
            if value < 1:
                raise DomainError(f"{f.name} must be >= 1")
        if self.embed_dim % self.context_heads != 0:
            raise DomainError("context_heads must divide embed_dim")


def _param(rng: SplitMix64 | None, shape: tuple[int, ...], sigma: float) -> Tensor:
    return Tensor(np.zeros(shape) if rng is None else rng.normal_array(shape, sigma))


def _zeros(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape))


class SenseTable:
    """Per-token sense vectors: embedding plus k independent two-layer maps.

    Non-contextual by construction; the output for a token depends only on
    that token's base embedding.  Each sense reads the embedding through its
    own narrow bottleneck (sense_hidden wide) rather than a shared hidden
    layer.  A shared wide layer leaks every embedding direction into every
    sense, so all senses end up encoding the same contrasts; independent
    low-rank channels start out sensitive to different subspaces and stay
    specialized under training.
    """

    def __init__(self, cfg: BackpackConfig, rng: SplitMix64 | None):
        d, k, p = cfg.embed_dim, cfg.num_senses, cfg.sense_hidden
        self.base = _param(rng, (cfg.vocab_size, d), 0.1)
        self.w1 = _param(rng, (d, k * p), 1.0 / math.sqrt(d))
        # Random (not zero) hidden biases: tanh is odd, so with zero biases a
        # +/- contrast in an embedding stays a +/- contrast in every sense and
        # the senses can never disagree about it.
        self.b1 = _param(rng, (k * p,), 0.5)
        self.w2 = _param(rng, (k, p, d), 1.0 / math.sqrt(p))
        self.b2 = _zeros((k, 1, d))
        self._k = k

    def senses_for(self, ids: np.ndarray) -> tuple[np.ndarray, Backward]:
        """Sense vectors for a B x n intp id matrix, shaped B x k x n x d, and
        their backward: g -> gradients of base, w1, b1, w2, b2."""
        base, w1, b1, w2, b2 = (t.data for t in (self.base, self.w1, self.b1, self.w2, self.b2))
        rows = base[ids]
        h = nk.dense(rows, w1, b1, squash=True)
        hk = nk.split_heads(h, self._k)

        def backward(g):
            ghk, gw2, gb2 = nk.linear_grads(g, hk, w2, b2.shape)
            grows, gw1, gb1 = nk.linear_grads(nk.merge_heads(ghk) * (1.0 - h * h),
                                              rows, w1, b1.shape)
            return nk.scatter_rows(base.shape, ids, grows), gw1, gb1, gw2, gb2

        return nk.dense(hk, w2, b2), backward


class _EncoderLayer:
    def __init__(self, cfg: BackpackConfig, rng: SplitMix64 | None):
        d = cfg.embed_dim
        hidden = 2 * d
        w_sigma = 1.0 / math.sqrt(d)
        self.wq = _param(rng, (d, d), w_sigma)
        self.bq = _zeros((d,))
        self.wk = _param(rng, (d, d), w_sigma)
        self.bk = _zeros((d,))
        self.wv = _param(rng, (d, d), w_sigma)
        self.bv = _zeros((d,))
        self.wo = _param(rng, (d, d), w_sigma)
        self.bo = _zeros((d,))
        self.f1 = _param(rng, (d, hidden), w_sigma)
        self.fb1 = _zeros((hidden,))
        self.f2 = _param(rng, (hidden, d), 1.0 / math.sqrt(hidden))
        self.fb2 = _zeros((d,))

    def forward(self, x: np.ndarray, heads: int) -> tuple[np.ndarray, Backward]:
        """x + attention, then + a tanh feed-forward block, and its backward:
        g -> gradients of x and of every parameter."""
        params = (self.wq, self.bq, self.wk, self.bk, self.wv, self.bv,
                  self.wo, self.bo, self.f1, self.fb1, self.f2, self.fb2)
        wq, bq, wk, bk, wv, bv, wo, bo, f1, fb1, f2, fb2 = (t.data for t in params)
        q = nk.split_heads(nk.dense(x, wq, bq), heads)
        probs, kt = nk.attention(q, nk.split_heads(nk.dense(x, wk, bk), heads),
                                 _causal_mask(x.shape[1]))
        v = nk.split_heads(nk.dense(x, wv, bv), heads)
        merged = nk.merge_heads(probs @ v)
        mid = x + nk.dense(merged, wo, bo)
        ff = nk.dense(mid, f1, fb1, squash=True)

        def backward(g):
            gff, gf2, gfb2 = nk.linear_grads(g, ff, f2, fb2.shape)
            gmid, gf1, gfb1 = nk.linear_grads(gff * (1.0 - ff * ff), mid, f1, fb1.shape)
            # fan-out gradients add up in the order a reverse pass over the
            # primitive chain meets them: the residual first, then v, k, q
            gmid += g
            gmerged, gwo, gbo = nk.linear_grads(gmid, merged, wo, bo.shape)
            gctx = nk.split_heads(gmerged, heads)
            gq, gk = nk.attention_grads(gctx @ v.swapaxes(-1, -2), probs, q, kt)
            gxv, gwv, gbv = nk.linear_grads(nk.merge_heads(probs.swapaxes(-1, -2) @ gctx),
                                            x, wv, bv.shape)
            gxk, gwk, gbk = nk.linear_grads(nk.merge_heads(gk), x, wk, bk.shape)
            gxq, gwq, gbq = nk.linear_grads(nk.merge_heads(gq), x, wq, bq.shape)
            return (gmid + gxv + gxk + gxq, gwq, gbq, gwk, gbk, gwv, gbv,
                    gwo, gbo, gf1, gfb1, gf2, gfb2)

        return mid + nk.dense(ff, f2, fb2), backward


@functools.lru_cache(maxsize=64)    # every length up to the default max_seq_len, and more
def _causal_mask(n: int) -> np.ndarray:
    """n x n: -1e30 where key j follows query i, else 0; one read-only array per n."""
    mask = np.where(np.arange(n) > np.arange(n)[:, None], _MASK_VALUE, 0.0)
    mask.flags.writeable = False
    return mask


class ContextEncoder:
    """Produces the per-sense contextualization weights from the raw tokens."""

    def __init__(self, cfg: BackpackConfig, rng: SplitMix64 | None):
        d, k = cfg.embed_dim, cfg.num_senses
        self.cfg = cfg
        self.alpha_dim = d // cfg.context_heads
        w_sigma = 1.0 / math.sqrt(d)
        self.tok_emb = _param(rng, (cfg.vocab_size, d), 0.1)
        self.pos_emb = _param(rng, (cfg.max_seq_len, d), 0.1)
        self.layers = [_EncoderLayer(cfg, rng) for _ in range(cfg.context_layers)]
        self.aq = _param(rng, (d, k * self.alpha_dim), w_sigma)
        self.abq = _zeros((k * self.alpha_dim,))
        self.ak = _param(rng, (d, k * self.alpha_dim), w_sigma)
        self.abk = _zeros((k * self.alpha_dim,))

    def _embed(self, ids: np.ndarray) -> tuple[np.ndarray, Backward]:
        """Token plus position embeddings of a B x n intp id matrix, B x n x d,
        and their backward: g -> gradients of tok_emb and pos_emb."""
        tok, pos = self.tok_emb.data, self.pos_emb.data
        rows = tok[ids]
        n = rows.shape[1]

        def backward(g):
            gpos = np.zeros(pos.shape)
            gpos[:n] += np.add.reduce(g, axis=0)    # 0.0 + each sum, as the scatter adds
            return nk.scatter_rows(tok.shape, ids, g), gpos

        return np.add(rows, pos[:n], out=rows), backward

    def alpha(self, ids, positions) -> tuple[np.ndarray, Callable[[np.ndarray], dict]]:
        """B x k x m x n weights of query positions ``positions`` (B x m, or
        m shared by every row; unchecked, in [0, n)) over key positions j,
        softmax-normalized over j <= the query position, and their backward:
        g -> {component: parameter gradients} for this encoder and its layers.
        ``np.arange(n)`` gives the full k x n x n."""
        hs, embed_back = self._embed(ids)
        layer_backs = []
        for layer in self.layers:
            hs, back = layer.forward(hs, self.cfg.context_heads)
            layer_backs.append((layer, back))
        pos = np.asarray(positions, dtype=np.intp)
        out, attention_back = self._sense_attention(hs, pos.reshape(-1, pos.shape[-1]))

        def backward(g):
            ghs, *gattention = attention_back(g)
            grads = {}
            for layer, back in reversed(layer_backs):
                ghs, *grads[layer] = back(ghs)
            grads[self] = [*embed_back(ghs), *gattention]
            return grads

        return out, backward

    def _sense_attention(self, x: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, Backward]:
        """Per-sense attention of the B x m query positions ``pos`` (or 1 x m,
        shared by every row) over the hidden states x, and its backward:
        g -> gradients of x, aq, abq, ak and abk."""
        aq, abq, ak, abk = (t.data for t in (self.aq, self.abq, self.ak, self.abk))
        b, n, d = x.shape
        k = self.cfg.num_senses
        ix = pos + n * np.arange(b)[:, None]    # in range: the model builds every pos
        rows = x.reshape(b * n, d)[ix]
        q = nk.split_heads(nk.dense(rows, aq, abq), k)
        out, kt = nk.attention(q, nk.split_heads(nk.dense(x, ak, abk), k),
                               _causal_mask(n)[pos[:, None]])

        def backward(g):
            gq, gkey = nk.attention_grads(g, out, q, kt)
            gx, gak, gabk = nk.linear_grads(nk.merge_heads(gkey), x, ak, abk.shape)
            grows, gaq, gabq = nk.linear_grads(nk.merge_heads(gq), rows, aq, abq.shape)
            # the key projection's gradient first, then the gathered rows'
            gx += nk.scatter_rows((b * n, d), ix, grows).reshape(b, n, d)
            return gx, gaq, gabq, gak, gabk

        return out, backward


class RelevanceHead:
    """Pooled representation -> two dense layers -> one logit per row."""

    def __init__(self, cfg: BackpackConfig, rng: SplitMix64 | None):
        d, h = cfg.embed_dim, cfg.head_hidden
        self.w1 = _param(rng, (d, h), 1.0 / math.sqrt(d))
        self.b1 = _zeros((h,))
        self.w2 = _param(rng, (h, 1), 1.0 / math.sqrt(h))
        self.b2 = _zeros((1,))

    def logit(self, x: np.ndarray) -> tuple[np.ndarray, Backward]:
        """... x 1 x d pooled vectors -> (...) logits, and their backward:
        g -> gradients of x, w1, b1, w2 and b2."""
        w1, b1, w2, b2 = (t.data for t in (self.w1, self.b1, self.w2, self.b2))
        h = nk.dense(x, w1, b1, squash=True)
        out = nk.dense(h, w2, b2)

        def backward(g):
            gh, gw2, gb2 = nk.linear_grads(g.reshape(out.shape), h, w2, b2.shape)
            gx, gw1, gb1 = nk.linear_grads(gh * (1.0 - h * h), x, w1, b1.shape)
            return gx, gw1, gb1, gw2, gb2

        return out.reshape(x.shape[:-2]), backward


def aggregate(a: np.ndarray, s: np.ndarray, weights) -> tuple[np.ndarray, Backward]:
    """Weighted sense aggregation, W x B x m x d for B x k x m x n weights a
    and B x k x n x d senses s: out[w, b, i] = sum_l weights[w, l] sum_j
    a[b, l, i, j] s[b, l, j], and its backward: g -> gradients of a and s.

    ``weights`` is a W x k matrix of finite positive per-sense multipliers,
    applied outside alpha with no renormalization; an all-ones row is exact.
    a @ s is computed once for all W rows. It is the only place weights act.
    """
    if a.ndim != 4 or s.ndim != 4 or a.shape[:2] != s.shape[:2] or a.shape[3] != s.shape[2]:
        raise DomainError("aggregate expects B x k x m x n weights and B x k x n x d senses")
    k = a.shape[1]
    w = np.asarray(weights, dtype=np.float64)    # ragged rows: numpy's ValueError
    if w.ndim != 2 or w.shape[1] != k:
        raise DomainError(f"sense weights must be a W x {k} matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w) & (w > 0.0)):    # w <= 0 alone would pass nan
        raise DomainError("sense weights must be finite and strictly positive")
    w = w[:, None, :, None, None]    # W x 1 x k x 1 x 1
    ctx = (a @ s) * w

    def backward(g):
        gctx = np.add.reduce(np.expand_dims(g, 2) * w, axis=0)
        return gctx @ s.swapaxes(-1, -2), a.swapaxes(-1, -2) @ gctx

    return ctx.sum(axis=2), backward


class Backpack:
    """The full model: sense table, contextualizer and relevance head."""

    def __init__(self, config: BackpackConfig, seed: int | None = 0):
        self.config = config
        rng = None if seed is None else SplitMix64(seed)    # None: zeros, no draws
        self.senses = SenseTable(config, rng)
        self.context = ContextEncoder(config, rng)
        self.head = RelevanceHead(config, rng)
        # every parameter's data becomes a view of one flat array, in registry
        # order, for the model's life; one at a time, so none is held twice
        params = list(self.parameters().values())
        ends = np.cumsum([p.data.size for p in params])
        self.flat = np.empty(ends[-1])
        for p, view in zip(params, np.split(self.flat, ends[:-1])):
            view[:] = p.data.ravel()
            p.data = view.reshape(p.data.shape)

    # ------------------------------------------------------------------
    # parameter registry

    def _components(self) -> dict[str, object]:
        """Name prefix -> component, in registry order."""
        comps = {"sense": self.senses, "ctx": self.context, "head": self.head}
        comps.update((f"ctx.layer{i}", layer) for i, layer in enumerate(self.context.layers))
        return comps

    def parameters(self) -> dict[str, Tensor]:
        """Stable name -> tensor mapping over every trainable parameter; each
        tensor's data is a view of ``flat``, in this order."""
        return {f"{prefix}.{attr}": value for prefix, comp in self._components().items()
                for attr, value in vars(comp).items() if isinstance(value, Tensor)}

    # ------------------------------------------------------------------
    # forward

    def _pad(self, seqs: Sequence[Sequence[int]]) -> np.ndarray:
        """A B x n intp id matrix, right-padded with id 0: the one check of
        token ids. A non-integer id is a DomainError naming it, and so is the
        first id outside [0, vocab_size) in row-major order."""
        if len(seqs) == 0:
            raise DomainError("batch must hold at least one sequence")
        lengths = [len(s) for s in seqs]
        if min(lengths) == 0:
            raise DomainError("token sequence must be non-empty")
        n = max(lengths)
        if n > self.config.max_seq_len:
            raise DomainError(
                f"sequence length {n} exceeds max_seq_len {self.config.max_seq_len}")
        flat = list(itertools.chain.from_iterable(seqs))
        try:    # array.array takes what operator.index takes, up to 64 bits
            values = np.frombuffer(array.array("q", flat), np.int64)
        except (TypeError, OverflowError):    # a non-integer, or an int past 64 bits
            values = np.array(flat, dtype=object)
            non_int = [x for x in flat if not isinstance(x, numbers.Integral)]
            if non_int:
                raise DomainError(f"token id {non_int[0]!r} is not an integer") from None
        v = self.config.vocab_size
        bad = values[(values < 0) | (values >= v)]
        if bad.size:
            raise DomainError(f"row index {bad[0]} out of range for {v} rows")
        ids = np.zeros((len(seqs), n), dtype=np.intp)
        ids[np.arange(n) < np.array(lengths)[:, None]] = values
        return ids

    def forward(self, seqs: Sequence[Sequence[int]], weights=None) -> np.ndarray:
        """Per-position output vectors, B x n x d, for B token sequences
        right-padded to the longest; ``weights`` (None: all ones) scales senses."""
        ids = self._pad(seqs)
        alpha = self.context.alpha(ids, np.arange(ids.shape[1]))[0]
        w = np.ones((1, self.config.num_senses)) if weights is None else [weights]
        return aggregate(alpha, self.senses.senses_for(ids)[0], w)[0][0]

    def packed_length(self, query_len: int, doc_len: int) -> int:
        """Length of the packed sequence of a query and a document of these
        lengths: max_seq_len cuts the document tail first, then the query's."""
        return min(query_len + 1 + doc_len, self.config.max_seq_len)

    def pack_sequence(self, query_ids: Sequence[int], doc_ids: Sequence[int]) -> list[int]:
        """query ++ <sep> ++ document, cut to ``packed_length``."""
        n = self.packed_length(len(query_ids), len(doc_ids))
        q = list(query_ids[:n - 1])
        return q + [Vocab.SEP] + list(doc_ids[:n - 1 - len(q)])

    def relevance_logits(self, seqs: Sequence[Sequence[int]], weights
                         ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """Pre-sigmoid relevance of each packed sequence (``pack_sequence``),
        W x B for a W x k matrix of per-sense ``weights`` (all ones: none),
        and one closure that maps their W x B gradient to the gradient of
        every parameter, concatenated flat in ``parameters()`` order: the
        one scoring path, for training and ranking alike.

        Each row is pooled at its own last real position: alpha is computed
        for that position alone (B x k x 1 x n), so ``aggregate`` returns the
        pooled W x B x 1 x d. The encoder, sense table, aggregation and head
        run once per batch. Rows of one length, and rows of ``weights``, are
        bit-identical to each scored alone. Each component's backward runs
        once, in reverse; no output feeds two components, so no gradient is
        summed across them.
        """
        ids = self._pad(seqs)
        alpha, alpha_back = self.context.alpha(ids, [[len(s) - 1] for s in seqs])
        senses, senses_back = self.senses.senses_for(ids)
        pooled, aggregate_back = aggregate(alpha, senses, weights)
        z, head_back = self.head.logit(pooled)

        def backward(g):
            gpooled, *ghead = head_back(g)
            galpha, gsenses = aggregate_back(gpooled)
            grads = {**alpha_back(galpha), self.senses: senses_back(gsenses), self.head: ghead}
            return np.concatenate([g.ravel() for comp in self._components().values()
                                   for g in grads[comp]])

        return z, backward


# ---------------------------------------------------------------------------
# checkpoints


def _check_vocab(config: BackpackConfig, vocab: Sequence) -> None:
    """A checkpoint's vocabulary fits its config: config.vocab_size strings
    that form a ``Vocab``."""
    if len(vocab) != config.vocab_size:
        raise DomainError(f"{len(vocab)} tokens for a config of {config.vocab_size}")
    if not all(isinstance(t, str) for t in vocab):
        raise DomainError("a token is not a string")
    Vocab(vocab)


def save_checkpoint(path, model: Backpack, vocab_tokens: Sequence[str],
                    meta: dict | None = None) -> None:
    """Checkpoint: magic, u32 little-endian header length, a UTF-8 JSON header
    (format_version, config, vocab, meta, and tensors: [name, shape] for each
    parameter in registry order), then ``model.flat`` as <f8: each
    parameter's values, row-major, in that same order. A vocabulary that does
    not fit the model's config is a DomainError, and nothing is written."""
    _check_vocab(model.config, vocab_tokens)
    header = {
        "format_version": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "vocab": list(vocab_tokens),
        "meta": dict(meta or {}),
        "tensors": [[name, list(t.data.shape)] for name, t in model.parameters().items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + len(blob).to_bytes(4, "little") + blob)
        fh.write(model.flat.astype("<f8", copy=False))


def _read_header(data: bytes, where: str) -> tuple[dict, int]:
    """The checked JSON header and the offset of the first value byte."""
    n = len(CHECKPOINT_MAGIC)
    # a short length field reads as a smaller length but still ends past the data
    start = n + 4 + int.from_bytes(data[n:n + 4], "little")
    if len(data) < start:
        raise ParseError("truncated while reading the checkpoint header", path=where)
    try:
        header = json.loads(data[n + 4:start].decode("utf-8"))
    except ValueError as exc:
        raise ParseError(f"checkpoint header is not JSON: {exc}", path=where) from None
    if not isinstance(header, dict):
        raise ParseError("checkpoint header is not a JSON object", path=where)
    version = header.get("format_version")
    if version != CHECKPOINT_FORMAT:
        raise ParseError(f"checkpoint format {version} is not supported "
                         f"(this version reads format {CHECKPOINT_FORMAT})", path=where)
    for key, kind in (("config", dict), ("vocab", list), ("meta", dict), ("tensors", list)):
        if not isinstance(header.get(key), kind):
            raise ParseError(f"checkpoint header field {key!r} is missing or not a "
                             f"{kind.__name__}", path=where)
    return header, start


def load_checkpoint(path) -> tuple[Backpack, list[str], dict]:
    """Rebuild a model bit-identically from a checkpoint file; returns
    (model, vocabulary tokens, meta). Any malformed part is a ParseError."""
    where = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(CHECKPOINT_MAGIC):
        raise ParseError("not a checkpoint file (bad magic)", path=where)
    header, start = _read_header(data, where)
    try:
        config = BackpackConfig(**header["config"])
    except (TypeError, DomainError) as exc:
        raise ParseError(f"bad checkpoint config: {exc}", path=where) from None
    vocab = header["vocab"]
    try:
        _check_vocab(config, vocab)
    except DomainError as exc:
        raise ParseError(f"bad checkpoint vocab: {exc}", path=where) from None
    model = Backpack(config, seed=None)
    params = model.parameters()
    if header["tensors"] != [[name, list(t.data.shape)] for name, t in params.items()]:
        raise ParseError("checkpoint tensor table does not match the parameters "
                         "of its config", path=where)
    if len(data) - start != 8 * model.flat.size:
        raise ParseError(f"checkpoint holds {len(data) - start} value bytes, "
                         f"its tensor table {8 * model.flat.size}", path=where)
    model.flat[:] = np.frombuffer(data, "<f8", offset=start)
    for name, t in params.items():
        if not np.all(np.isfinite(t.data)):
            raise ParseError(f"checkpoint tensor {name!r} holds non-finite values", path=where)
    return model, vocab, dict(header["meta"])
