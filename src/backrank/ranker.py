"""Listwise training and inference-time ranking with sense suppression.

Training minimizes a listwise softmax cross-entropy: for one query and its
candidate list, -sum_j y_j log softmax(scores)_j, where y is the relevance
vector. Optimization is plain SGD on the pre-sigmoid relevance logits (the
sigmoid is monotone, so rankings are unchanged and the loss can actually
reach zero). Ranking sorts candidates by score, descending, with document-id
ascending as the tie-break so results are exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import numkernel as nk
from .errors import DomainError, ShapeError
from .metrics import DEFAULT_LEXICON, GenderLexicon, Qrels, bias_report, mean_metric
from .numkernel import Tape, Tensor, backward, reset_grads
from .rng import SplitMix64
from .senses import build_sense_map

SWEEP_COLUMNS = ("lambda", "mrr@10", "ndcg@10",
                 "rab_tf", "arab_tf", "rab_bool", "arab_bool", "cutoff")


@dataclass(frozen=True)
class TrainExample:
    """One query with a labeled candidate list (token indices, not strings)."""

    query_id: str
    query: tuple[int, ...]
    doc_ids: tuple[str, ...]
    docs: tuple[tuple[int, ...], ...]
    labels: tuple[float, ...]

    def __post_init__(self):
        m = len(self.docs)
        if m < 2:
            raise DomainError("a listwise example needs at least 2 candidates")
        if len(self.doc_ids) != m or len(self.labels) != m:
            raise DomainError("doc_ids, docs, and labels must align")
        if any(y < 0 for y in self.labels):
            raise DomainError("relevance labels must be >= 0")
        if not any(y > 0 for y in self.labels):
            raise DomainError("an example needs at least one positive label")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 4
    learning_rate: float = 1e-5
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise DomainError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise DomainError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")


@dataclass(frozen=True)
class RankedList:
    """Documents for one query, scores finite and non-increasing, ids unique."""

    query_id: str
    items: tuple[tuple[str, float], ...]

    def __post_init__(self):
        ids = [d for d, _ in self.items]
        if len(set(ids)) != len(ids):
            raise DomainError(f"duplicate doc ids in ranking for {self.query_id}")
        scores = [s for _, s in self.items]
        if not all(math.isfinite(s) for s in scores):
            raise DomainError(f"ranked scores for {self.query_id} must be finite")
        for a, b in zip(scores, scores[1:]):
            if b > a:
                raise DomainError("ranked scores must be non-increasing")

    @property
    def doc_ids(self) -> list[str]:
        return [d for d, _ in self.items]

    @property
    def scores(self) -> list[float]:
        return [s for _, s in self.items]

    def __len__(self) -> int:
        return len(self.items)


def listwise_loss(y, y_hat: Tensor) -> Tensor:
    """-sum_j y_j log softmax(y_hat)_j as a differentiable scalar."""
    target = y if isinstance(y, Tensor) else Tensor(np.asarray(y, dtype=np.float64))
    if target.ndim != 1 or y_hat.ndim != 1:
        raise ShapeError("listwise_loss expects 1-D score and label vectors")
    if target.shape != y_hat.shape:
        raise ShapeError(f"label/score length mismatch: {target.shape} vs {y_hat.shape}")
    if np.any(target.data < 0.0):
        raise DomainError("relevance labels must be >= 0")
    if not np.any(target.data > 0.0):
        raise DomainError("listwise loss undefined for an all-zero relevance vector")
    return nk.neg(nk.dot(target, nk.log_softmax(y_hat, axis=-1)))


def train(dataset: Sequence[TrainExample], cfg: TrainConfig, model) -> tuple[object, list[float]]:
    """SGD over listwise examples; returns (model, per-step loss history).

    Deterministic under cfg.seed: example order is reshuffled each epoch with
    the package PRNG. Token indices must already be in-vocabulary (string
    tokens are mapped to <unk> upstream by the vocabulary encoder). A diverged
    run (non-finite loss or parameters) raises DomainError naming the step.
    """
    if not dataset:
        raise DomainError("training dataset is empty")
    params = model.parameters()
    tensors = list(params.values())
    rng = SplitMix64(cfg.seed)
    history: list[float] = []
    # A diverging run overflows to inf and nan; it is reported below and by the
    # per-step loss check as a DomainError, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _epoch in range(cfg.epochs):
            order = list(range(len(dataset)))
            rng.shuffle(order)
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                acc: dict[str, np.ndarray] = {}
                for idx in batch:
                    ex = dataset[idx]
                    with Tape() as tape:
                        loss = listwise_loss(ex.labels, model.relevance_logit(ex.query, ex.docs))
                    history.append(loss.item())
                    if not math.isfinite(history[-1]):
                        raise DomainError(f"training diverged at step {len(history)}: "
                                          f"loss is {history[-1]}")
                    backward(tape, loss)
                    for name, p in params.items():
                        if p.grad is not None:
                            if name in acc:
                                acc[name] += p.grad
                            else:
                                acc[name] = p.grad.copy()
                    reset_grads(tensors)
                step = cfg.learning_rate / len(batch)
                for name, g in acc.items():
                    p = params[name]
                    p.data = p.data - step * g
    for name, p in params.items():
        if not np.all(np.isfinite(p.data)):
            raise DomainError(f"training diverged at step {len(history)}: "
                              f"parameter {name!r} is not finite")
    return model, history


def _ranked(query_id: str, doc_ids: Sequence[str], scores: np.ndarray) -> RankedList:
    """Score descending, doc id ascending on ties."""
    return RankedList(query_id, tuple(sorted(zip(doc_ids, scores.tolist()),
                                             key=lambda e: (-e[1], e[0]))))


def rank(model, query_id: str, query: Sequence[int],
         candidates: Sequence[tuple[str, Sequence[int]]], sense_map=None) -> RankedList:
    """Score candidates in one batch and sort: score descending, doc id
    ascending on ties. ``sense_map`` is a SenseMap or None."""
    if not candidates:
        raise DomainError(f"no candidates to rank for query {query_id}")
    weights = None if sense_map is None else sense_map.weights
    scores = model.relevance_score(query, [doc for _, doc in candidates], weights)
    return _ranked(query_id, [doc_id for doc_id, _ in candidates], scores)


@dataclass(frozen=True)
class EvalSet:
    """Everything the sweep needs: encoded queries and candidates, labels,
    and the string tokens of each document for the gender magnitudes."""

    queries: Mapping[str, Sequence[int]]
    candidates: Mapping[str, Sequence[tuple[str, Sequence[int]]]]
    qrels: Qrels
    doc_tokens: Mapping[str, Sequence[str]]

    def __post_init__(self):
        for qid in self.queries:
            if qid not in self.candidates:
                raise DomainError(f"query {qid} has no candidate list")


def rank_all(model, eval_set: EvalSet, sense_map=None) -> dict[str, RankedList]:
    """Rank every query in the eval set, iterating in sorted id order."""
    return {qid: rank(model, qid, eval_set.queries[qid],
                      eval_set.candidates[qid], sense_map)
            for qid in sorted(eval_set.queries)}


def sweep_lambda(
    model,
    eval_set: EvalSet,
    scores,
    lambdas: Sequence[float],
    cutoffs: Sequence[int] = (10, 20, 30, 40),
    m: int = 2,
    lexicon: GenderLexicon = DEFAULT_LEXICON,
) -> list[dict]:
    """Effectiveness/bias trade-off rows, one per (lambda, cutoff).

    ``scores`` are the per-sense attribute scores used to pick the m
    suppressed senses (the suppressed set is the same at every lambda). The
    lambda = 1.0 rows equal an unmitigated evaluation exactly.
    """
    if not lambdas:
        raise DomainError("sweep needs at least one lambda")
    for lam in lambdas:
        if not 0.0 < lam <= 1.0:
            raise DomainError(f"lambda {lam} outside (0, 1]")
    sense_maps = [build_sense_map(scores, lam, m) for lam in lambdas]
    # One encoder pass per query serves every lambda; only doc ids are kept
    # across queries.
    ranked_ids: list[dict[str, list[str]]] = [{} for _ in lambdas]
    for qid in sorted(eval_set.queries):
        candidates = eval_set.candidates[qid]
        if not candidates:
            raise DomainError(f"no candidates to rank for query {qid}")
        doc_ids = [doc_id for doc_id, _ in candidates]
        logits = model.relevance_logits(eval_set.queries[qid], [doc for _, doc in candidates],
                                        [sm.weights for sm in sense_maps])
        for per_lambda, z in zip(ranked_ids, logits):
            per_lambda[qid] = _ranked(qid, doc_ids, nk.sigmoid(z).data).doc_ids
    rows: list[dict] = []
    for lam, ranked in zip(lambdas, ranked_ids):
        mrr = mean_metric(ranked, eval_set.qrels, "mrr", 10)
        ndcg = mean_metric(ranked, eval_set.qrels, "ndcg", 10)
        report = bias_report(ranked, eval_set.doc_tokens, lexicon, cutoffs=cutoffs)
        for cutoff in report.cutoffs:
            rows.append({
                "lambda": lam,
                "mrr@10": mrr,
                "ndcg@10": ndcg,
                "rab_tf": report.mean_rab[("tf", cutoff)],
                "arab_tf": report.mean_arab[("tf", cutoff)],
                "rab_bool": report.mean_rab[("bool", cutoff)],
                "arab_bool": report.mean_arab[("bool", cutoff)],
                "cutoff": cutoff,
            })
    return rows
