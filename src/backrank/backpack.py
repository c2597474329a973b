"""A small Backpack-style ranking model.

Every vocabulary token owns k context-independent sense vectors (a learned
multi-vector extension of a classic embedding table). A transformer-style
encoder reads the input once and emits nonnegative contextualization weights
alpha of shape k x n x n, row-normalized per (sense, position) under a
causal mask; the output at position i is the alpha-weighted sum of the sense
vectors of tokens 0..i. Because that sum is linear in the senses, scaling
chosen senses by a factor in (0, 1] at inference time suppresses whatever
those senses encode without retraining; the all-ones weighting reproduces
the plain forward pass bit for bit.

Every component works on a batch: a B x n matrix of token ids, right-padded
with id 0. The causal mask keeps each real position blind to the padding
after it, so a padded row computes what the row would compute alone.

For ranking, query and document are packed as query ++ <sep> ++ document,
pooled at the last real position, and passed through a two-layer MLP; the
sigmoid of its output is the relevance score.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import numkernel as nk
from .errors import DomainError, ParseError
from .numkernel import Tensor
from .rng import SplitMix64

CHECKPOINT_MAGIC = b"BPCKPT1\n"
CHECKPOINT_FORMAT = 2
_MASK_VALUE = -1e30


@dataclass(frozen=True)
class BackpackConfig:
    """Model hyperparameters; embed_dim must be divisible by context_heads."""

    vocab_size: int
    embed_dim: int = 24
    num_senses: int = 16
    sense_hidden: int = 4
    context_layers: int = 1
    context_heads: int = 2
    max_seq_len: int = 32
    head_hidden: int = 16
    sep_index: int = 2

    def __post_init__(self):
        if self.vocab_size < 1:
            raise DomainError("vocab_size must be >= 1")
        if self.embed_dim < 1:
            raise DomainError("embed_dim must be >= 1")
        if self.num_senses < 1:
            raise DomainError("num_senses must be >= 1")
        if self.sense_hidden < 1:
            raise DomainError("sense_hidden must be >= 1")
        if self.context_layers < 1:
            raise DomainError("context_layers must be >= 1")
        if self.context_heads < 1:
            raise DomainError("context_heads must be >= 1")
        if self.embed_dim % self.context_heads != 0:
            raise DomainError("context_heads must divide embed_dim")
        if self.max_seq_len < 1:
            raise DomainError("max_seq_len must be >= 1")
        if self.head_hidden < 1:
            raise DomainError("head_hidden must be >= 1")
        if not 0 <= self.sep_index < self.vocab_size:
            raise DomainError("sep_index must be a valid vocab index")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "BackpackConfig":
        return cls(**d)


def _param(rng: SplitMix64, shape: tuple[int, ...], sigma: float) -> Tensor:
    return Tensor(rng.normal_array(shape, sigma), requires_grad=True)


def _zeros(shape: tuple[int, ...]) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


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

    def __init__(self, cfg: BackpackConfig, rng: SplitMix64):
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
        self._p = p

    def senses_for(self, ids) -> Tensor:
        """Sense vectors for a B x n id matrix, shaped B x k x n x d."""
        b, n = np.shape(ids)
        e = nk.take_rows(self.base, ids)
        h = nk.tanh(nk.add(nk.matmul(e, self.w1), self.b1))
        h = nk.transpose(nk.reshape(h, (b, n, self._k, self._p)), (0, 2, 1, 3))
        return nk.add(nk.matmul(h, self.w2), self.b2)


class _EncoderLayer:
    def __init__(self, cfg: BackpackConfig, rng: SplitMix64):
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


def _causal_scores(q: Tensor, key: Tensor) -> Tensor:
    """Scaled dot products q key^T over the last two axes, with -1e30 added
    wherever the key position follows the query position."""
    n, dh = q.shape[-2], q.shape[-1]
    scores = nk.scale(nk.matmul(q, nk.transpose(key, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    return nk.add(scores, Tensor(np.triu(np.full((n, n), _MASK_VALUE), k=1)))


def _split(x: Tensor, parts: int) -> Tensor:
    """B x n x (parts * w) -> B x parts x n x w."""
    b, n, width = x.shape
    return nk.transpose(nk.reshape(x, (b, n, parts, width // parts)), (0, 2, 1, 3))


class ContextEncoder:
    """Produces the per-sense contextualization weights from the raw tokens."""

    def __init__(self, cfg: BackpackConfig, rng: SplitMix64):
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

    def _attention(self, layer: _EncoderLayer, hs: Tensor) -> Tensor:
        heads = self.cfg.context_heads
        q = _split(nk.add(nk.matmul(hs, layer.wq), layer.bq), heads)
        k = _split(nk.add(nk.matmul(hs, layer.wk), layer.bk), heads)
        v = _split(nk.add(nk.matmul(hs, layer.wv), layer.bv), heads)
        ctx = nk.matmul(nk.softmax(_causal_scores(q, k), axis=-1), v)
        merged = nk.reshape(nk.transpose(ctx, (0, 2, 1, 3)), hs.shape)
        return nk.add(nk.matmul(merged, layer.wo), layer.bo)

    def encode(self, ids) -> Tensor:
        """Hidden states for a B x n id matrix, shaped B x n x d."""
        n = np.shape(ids)[1]
        hs = nk.add(nk.take_rows(self.tok_emb, ids), nk.take_rows(self.pos_emb, np.arange(n)))
        for layer in self.layers:
            hs = nk.add(hs, self._attention(layer, hs))
            ff = nk.tanh(nk.add(nk.matmul(hs, layer.f1), layer.fb1))
            hs = nk.add(hs, nk.add(nk.matmul(ff, layer.f2), layer.fb2))
        return hs

    def alpha(self, ids) -> Tensor:
        """B x k x n x n weights, softmax-normalized over j for every (l, i)."""
        hs = self.encode(ids)
        k = self.cfg.num_senses
        q = _split(nk.add(nk.matmul(hs, self.aq), self.abq), k)
        key = _split(nk.add(nk.matmul(hs, self.ak), self.abk), k)
        return nk.softmax(_causal_scores(q, key), axis=-1)


class RelevanceHead:
    """Pooled representation -> two dense layers -> one logit per row."""

    def __init__(self, cfg: BackpackConfig, rng: SplitMix64):
        d, h = cfg.embed_dim, cfg.head_hidden
        self.w1 = _param(rng, (d, h), 1.0 / math.sqrt(d))
        self.b1 = _zeros((h,))
        self.w2 = _param(rng, (h, 1), 1.0 / math.sqrt(h))
        self.b2 = _zeros((1,))

    def logit(self, pooled: Tensor) -> Tensor:
        """B x d pooled vectors -> (B,) logits."""
        h = nk.tanh(nk.add(nk.matmul(pooled, self.w1), self.b1))
        out = nk.add(nk.matmul(h, self.w2), self.b2)
        return nk.reshape(out, (pooled.shape[0],))


def aggregate(alpha: Tensor, senses: Tensor, weights=None) -> Tensor:
    """Weighted sense aggregation, B x n x d:
    out[b, i] = sum_l w_l sum_j alpha[b, l, i, j] senses[b, l, j].

    ``weights`` is an optional length-k positive per-sense multiplier applied
    outside alpha with no renormalization, so the all-ones weighting is
    bit-identical to the plain sum.
    """
    if alpha.ndim != 4 or senses.ndim != 4:
        raise DomainError("aggregate expects B x k x n x n weights and B x k x n x d senses")
    k = alpha.shape[1]
    ctx = nk.matmul(alpha, senses)
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (k,):
            raise DomainError(f"sense weights must have length {k}, got shape {w.shape}")
        if np.any(w <= 0.0):
            raise DomainError("sense weights must be strictly positive")
        ctx = nk.mul(ctx, Tensor(w.reshape(k, 1, 1)))
    return nk.tensor_sum(ctx, axis=1)


class Backpack:
    """The full model: sense table, contextualizer and relevance head."""

    def __init__(self, config: BackpackConfig, seed: int = 0):
        self.config = config
        rng = SplitMix64(seed)
        self.senses = SenseTable(config, rng)
        self.context = ContextEncoder(config, rng)
        self.head = RelevanceHead(config, rng)

    # ------------------------------------------------------------------
    # parameter registry

    def _components(self) -> dict[str, object]:
        comps: dict[str, object] = {
            "sense": self.senses,
            "ctx": self.context,
            "head": self.head,
        }
        for i, layer in enumerate(self.context.layers):
            comps[f"ctx.layer{i}"] = layer
        return comps

    def parameters(self) -> dict[str, Tensor]:
        """Stable name -> tensor mapping over every trainable parameter."""
        out: dict[str, Tensor] = {}
        for prefix, comp in self._components().items():
            for attr, value in vars(comp).items():
                if isinstance(value, Tensor):
                    out[f"{prefix}.{attr}"] = value
        return out

    def set_param(self, name: str, tensor: Tensor) -> None:
        """Replace a parameter tensor by registry name."""
        prefix, _, attr = name.rpartition(".")
        comp = self._components().get(prefix)
        if comp is None or not isinstance(getattr(comp, attr, None), Tensor):
            raise DomainError(f"unknown parameter {name!r}")
        if tensor.shape != getattr(comp, attr).shape:
            raise DomainError(f"parameter {name!r} expects shape "
                              f"{getattr(comp, attr).shape}, got {tensor.shape}")
        setattr(comp, attr, tensor)

    # ------------------------------------------------------------------
    # forward

    def _pad(self, seqs: Sequence[Sequence[int]]) -> np.ndarray:
        """Checked sequences as a B x n id matrix, right-padded with id 0."""
        rows = [[int(t) for t in seq] for seq in seqs]
        if not rows:
            raise DomainError("batch must hold at least one sequence")
        n = max(len(r) for r in rows)
        if min(len(r) for r in rows) == 0:
            raise DomainError("token sequence must be non-empty")
        if n > self.config.max_seq_len:
            raise DomainError(
                f"sequence length {n} exceeds max_seq_len {self.config.max_seq_len}")
        ids = np.zeros((len(rows), n), dtype=np.intp)
        for b, row in enumerate(rows):
            ids[b, :len(row)] = row
        bad = (ids < 0) | (ids >= self.config.vocab_size)
        if bad.any():
            raise DomainError(f"token index {ids[bad][0]} outside vocabulary")
        return ids

    def forward(self, seqs: Sequence[Sequence[int]], weights=None) -> Tensor:
        """Per-position output vectors, B x n x d, for B token sequences
        right-padded to the longest; ``weights`` scales whole senses."""
        ids = self._pad(seqs)
        return aggregate(self.context.alpha(ids), self.senses.senses_for(ids), weights)

    def pack_sequence(self, query_ids: Sequence[int], doc_ids: Sequence[int]) -> list[int]:
        """query ++ <sep> ++ document, truncating the document tail first."""
        q = [int(t) for t in query_ids]
        d = [int(t) for t in doc_ids]
        budget = self.config.max_seq_len
        room = budget - len(q) - 1
        if room < 0:
            q = q[:budget - 1]
            room = 0
        return q + [self.config.sep_index] + d[:room]

    def relevance_logits(self, query_ids: Sequence[int], docs: Sequence[Sequence[int]],
                         weight_sets: Sequence) -> list[Tensor]:
        """Pre-sigmoid relevance of each document to the query, one (B,)
        tensor per entry of ``weight_sets`` (each None or a per-sense weight
        vector).

        The encoder and the sense table run once for the whole list; only
        the weighted aggregation, the pooling and the head run per entry.
        Each row is pooled at its own last real position by a one-hot mask,
        which is exact: the padding after that position gets weight 0.
        """
        seqs = [self.pack_sequence(query_ids, d) for d in docs]
        ids = self._pad(seqs)
        alpha = self.context.alpha(ids)
        senses = self.senses.senses_for(ids)
        last = np.zeros(ids.shape + (1,))
        last[np.arange(len(seqs)), [len(s) - 1 for s in seqs]] = 1.0
        mask = Tensor(last)
        return [self.head.logit(nk.tensor_sum(nk.mul(aggregate(alpha, senses, w), mask), axis=1))
                for w in weight_sets]

    def relevance_logit(self, query_ids: Sequence[int], docs: Sequence[Sequence[int]],
                        weights=None) -> Tensor:
        """Pre-sigmoid relevance of each document to the query, shaped (B,)."""
        return self.relevance_logits(query_ids, docs, [weights])[0]

    def relevance_score(self, query_ids: Sequence[int], docs: Sequence[Sequence[int]],
                        weights=None) -> np.ndarray:
        """Sigmoid relevance in (0, 1) of each document, shaped (B,)."""
        return nk.sigmoid(self.relevance_logit(query_ids, docs, weights)).data


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, model: Backpack, vocab_tokens: Sequence[str],
                    meta: dict | None = None) -> None:
    """Binary checkpoint: magic, JSON header (config, vocab, meta), tensors."""
    header = {
        "format_version": CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "vocab": list(vocab_tokens),
        "meta": dict(meta or {}),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        nk.write_snapshot(fh, {n: t.data for n, t in model.parameters().items()})


def _read_header(fh, where: str) -> dict:
    (hlen,) = nk.read_struct(fh, "<I", "checkpoint header length")
    blob = nk.read_exact(fh, hlen, "checkpoint header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:
        raise ParseError(f"checkpoint header is not JSON: {exc}", path=where) from None
    if not isinstance(header, dict):
        raise ParseError("checkpoint header is not a JSON object", path=where)
    version = header.get("format_version")
    if version != CHECKPOINT_FORMAT:
        raise ParseError(f"checkpoint format {version} is not supported "
                         f"(this version reads format {CHECKPOINT_FORMAT})", path=where)
    for key, kind in (("config", dict), ("vocab", list), ("meta", dict)):
        if not isinstance(header.get(key), kind):
            raise ParseError(f"checkpoint header field {key!r} is missing or not a "
                             f"{kind.__name__}", path=where)
    return header


def load_checkpoint(path) -> tuple[Backpack, list[str], dict]:
    """Rebuild a model bit-identically from a checkpoint file."""
    where = str(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ParseError("not a checkpoint file (bad magic)", path=where)
        header = _read_header(fh, where)
        tensors = nk.read_snapshot(fh)
    try:
        config = BackpackConfig.from_dict(header["config"])
    except (TypeError, DomainError) as exc:
        raise ParseError(f"bad checkpoint config: {exc}", path=where) from None
    model = Backpack(config, seed=0)
    params = model.parameters()
    if set(tensors) != set(params):
        missing = sorted(set(params) - set(tensors))
        extra = sorted(set(tensors) - set(params))
        raise ParseError(f"checkpoint parameter mismatch: missing={missing} extra={extra}",
                         path=where)
    for name, arr in tensors.items():
        if arr.shape != params[name].shape:
            raise ParseError(f"checkpoint tensor {name!r} has shape {arr.shape}, "
                             f"expected {params[name].shape}", path=where)
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"checkpoint tensor {name!r} holds non-finite values", path=where)
        model.set_param(name, Tensor(arr, requires_grad=True))
    return model, list(header["vocab"]), dict(header["meta"])
