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
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import numkernel as nk
from .corpus import EvalSet, RankedList, TrainExample, build_eval_set, report_retrieval
from .errors import DomainError, ShapeError
from .metrics import (bias_means, bias_per_query, check_cutoffs, effectiveness_means,
                      effectiveness_per_query)
from .parallel import run_forked, usable_cores
from .rng import SplitMix64

_CHUNK_ROWS = 32    # most pairs per relevance_logits call in rank_all

SWEEP_COLUMNS = ("lambda", "mrr@10", "ndcg@10",
                 "rab_tf", "arab_tf", "rab_bool", "arab_bool", "cutoff")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 4
    learning_rate: float = 0.015
    seed: int = 0

    def __post_init__(self):
        if type(self.epochs) is not int or self.epochs < 1:    # range() takes ints only
            raise DomainError(f"epochs must be an int >= 1, got {self.epochs!r}")
        lr = self.learning_rate    # an int or a float (numpy's float64 too), not a bool
        ok = isinstance(lr, (int, float)) and type(lr) is not bool
        if not (ok and math.isfinite(lr) and lr >= 0.0):
            raise DomainError(f"learning_rate must be a finite number >= 0, got {lr!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise DomainError(f"seed must be a non-negative int, got {self.seed!r}")


def listwise_loss(y: Sequence[float], z: np.ndarray) -> tuple[float, np.ndarray]:
    """-sum_j y_j log softmax(z)_j for labels y and scores z, and its
    gradient with respect to z. The labels are a ``TrainExample``'s: finite,
    >= 0, and at least one positive."""
    target = np.asarray(y, dtype=np.float64)
    if target.ndim != 1 or z.ndim != 1:
        raise ShapeError("listwise_loss expects 1-D score and label vectors")
    if target.shape != z.shape:
        raise ShapeError(f"label/score length mismatch: {target.shape} vs {z.shape}")
    shifted = z - z.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    gl = -target
    return (float(-np.einsum("i,i->", target, logp)),
            gl - np.exp(logp) * gl.sum(axis=-1, keepdims=True))


def train(dataset: Sequence[TrainExample], cfg: TrainConfig, model) -> tuple[object, list[float]]:
    """One SGD step per listwise example; returns (model, per-step loss history).

    Deterministic under cfg.seed: example order is reshuffled each epoch with
    the package PRNG. Token indices must already be in-vocabulary (string
    tokens are mapped to <unk> upstream by the vocabulary encoder). A diverged
    run (non-finite loss or parameters) raises DomainError naming the step.
    """
    if not dataset:
        raise DomainError("training dataset is empty")
    rng = SplitMix64(cfg.seed)
    history: list[float] = []
    ones = np.ones((1, model.config.num_senses))    # no sense is scaled in training
    # A diverging run overflows to inf and nan; it is reported below and by the
    # per-step loss check as a DomainError, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _epoch in range(cfg.epochs):
            order = list(range(len(dataset)))
            rng.shuffle(order)
            for idx in order:
                ex = dataset[idx]
                z, back = model.relevance_logits(
                    [model.pack_sequence(ex.query, d) for d in ex.docs], ones)
                loss, gz = listwise_loss(ex.labels, z[0])
                history.append(loss)
                if not math.isfinite(loss):
                    raise DomainError(f"training diverged at step {len(history)}: "
                                      f"loss is {loss}")
                grad = back(gz[None])
                del back    # free this step's intermediates before the next forward
                # every parameter is a view of model.flat: a step is one update
                model.flat -= np.multiply(grad, cfg.learning_rate, out=grad)
    for name, p in model.parameters().items():
        if not np.all(np.isfinite(p.data)):
            raise DomainError(f"training diverged at step {len(history)}: "
                              f"parameter {name!r} is not finite")
    return model, history


def rank_all(model, eval_set: EvalSet, weight_sets: Sequence[Sequence[float]]
             ) -> Iterator[tuple[str, list[RankedList]]]:
    """Rank every query of the eval set, in sorted id order, under each
    per-sense weight tuple of ``weight_sets`` (all ones: no sense scaled):
    yields (query id, one RankedList per tuple), with sigmoid scores. Every
    pair is scored first, in calls of at most ``_CHUNK_ROWS`` pairs of one
    packed length (``packed_length``, so each pair is packed once, when it is
    scored): no row is padded, so a pair's logit is bit-identical to it
    scored alone, whatever else the eval set holds. It runs in the calling
    process; ``rank`` and ``sweep`` run it once per block of queries."""
    if len(weight_sets) == 0:
        raise DomainError("rank_all needs at least one weight set")
    qids = sorted(eval_set.queries)
    counts = [len(eval_set.candidates[qid]) for qid in qids]
    query_of = np.repeat(np.arange(len(qids)), counts)
    docs = [doc for qid in qids for _, doc in eval_set.candidates[qid]]
    lengths = np.fromiter((model.packed_length(len(eval_set.queries[qids[q]]), len(d))
                           for q, d in zip(query_of.tolist(), docs)),
                          dtype=np.intp, count=len(docs))
    order = np.argsort(lengths, kind="stable")
    logits = np.empty((len(weight_sets), len(docs)))
    for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        for start in range(0, len(group), _CHUNK_ROWS):
            rows = group[start:start + _CHUNK_ROWS]
            logits[:, rows] = model.relevance_logits(
                [model.pack_sequence(eval_set.queries[qids[q]], docs[p])
                 for q, p in zip(query_of[rows].tolist(), rows.tolist())], weight_sets)[0]
    # an infinite logit has a finite sigmoid, so it is rejected here
    if not np.all(np.isfinite(logits)):
        raise DomainError("relevance logits must be finite")
    scores = nk.sigmoid(logits)
    for qid, block in zip(qids, np.split(scores, np.cumsum(counts)[:-1], axis=1)):
        doc_ids = [did for did, _ in eval_set.candidates[qid]]
        yield qid, [RankedList(qid, tuple(sorted(zip(doc_ids, s.tolist()),
                                                 key=lambda e: (-e[1], e[0]))))
                    for s in block]


def _in_query_blocks(coll, vocab, candidate_depth: int, task) -> list:
    """``task(eval_set)`` of each block of the collection's sorted query ids
    that retrieves something, in order: one contiguous block per usable core,
    of equal size (+-1), run by ``run_forked`` from retrieval on. The BM25
    index is built here, once, for helpers to read copy-on-write."""
    coll.bm25_index()
    qids = sorted(coll.queries)
    n = max(1, min(usable_cores(), len(qids)))

    def block(ids):
        eval_set = build_eval_set(coll, vocab, candidate_depth, ids)
        return len(eval_set.queries), (task(eval_set) if eval_set.queries else None)

    blocks = [qids[len(qids) * i // n:len(qids) * (i + 1) // n] for i in range(n)]
    done = run_forked([lambda ids=ids: block(ids) for ids in blocks])
    report_retrieval(len(qids), sum(kept for kept, _ in done))
    return [out for kept, out in done if kept]


def rank_collection(model, coll, vocab, weights: Sequence[float],
                    candidate_depth: int = 100) -> list[RankedList]:
    """``rank``: each query's BM25 candidates, in sorted id order, ranked by
    ``rank_all`` under one weight tuple, block by block."""
    blocks = _in_query_blocks(coll, vocab, candidate_depth, lambda eval_set: [
        ranked for _, (ranked,) in rank_all(model, eval_set, (weights,))])
    return [ranked for block in blocks for ranked in block]


def _sweep_pass(model, eval_set: EvalSet, maps, cutoffs: tuple[int, ...]) -> tuple:
    """A sweep's per-query values over a non-empty eval set, in sorted id order:
    list lengths, then per lambda MRR@10 and NDCG@10, then signed RaB/ARaB."""
    ranked_ids: list[dict[str, list[str]]] = [{} for _ in maps]    # only doc ids are kept
    for qid, lists in rank_all(model, eval_set, list(maps.values())):
        for per_lambda, ranked in zip(ranked_ids, lists):
            per_lambda[qid] = ranked.doc_ids
    return ({qid: len(eval_set.candidates[qid]) for qid in sorted(eval_set.queries)},
            effectiveness_per_query(ranked_ids, eval_set.qrels, (10,)),
            bias_per_query(ranked_ids, eval_set.doc_tokens, cutoffs))


def _sweep_rows(passes: Sequence[tuple], maps, cutoffs: tuple[int, ...], qrels) -> list[dict]:
    """The rows of the ``_sweep_pass`` values of consecutive query blocks,
    joined in sorted id order: each warning is logged once for the sweep."""
    lengths = {qid: n for block, _, _ in passes for qid, n in block.items()}

    def joined(blocks):    # each lambda's per-query values, block after block
        return [{key: [v for block in blocks for v in block[i][key]] for key in blocks[0][i]}
                for i in range(len(maps))]

    reports = bias_means(joined([bias for _, _, bias in passes]), cutoffs, list(lengths.values()))
    effs = effectiveness_means(joined([eff for _, eff, _ in passes]), list(lengths), qrels)
    return [{"lambda": lam, "mrr@10": means[("mrr", 10)], "ndcg@10": means[("ndcg", 10)],
             "rab_tf": report.mean_rab[("tf", cutoff)],
             "arab_tf": report.mean_arab[("tf", cutoff)],
             "rab_bool": report.mean_rab[("bool", cutoff)],
             "arab_bool": report.mean_arab[("bool", cutoff)], "cutoff": cutoff}
            for lam, means, report in zip(maps, effs, reports) for cutoff in cutoffs]


def sweep_lambda(model, eval_set: EvalSet, maps: Mapping[float, Sequence[float]],
                 cutoffs: Sequence[int] = (10, 20, 30, 40)) -> list[dict]:
    """Effectiveness/bias trade-off rows, one per (lambda, cutoff), for each
    lambda -> per-sense weights entry of ``maps`` (``build_sense_map``), in
    its order: ``sweep``'s per-query pass and reduction over one block. A
    lambda whose weights are all ones, as lambda = 1.0's are, gives rows
    equal to an unmitigated evaluation exactly."""
    cutoffs = check_cutoffs(cutoffs)
    if not eval_set.queries:
        raise DomainError("no queries to evaluate")
    return _sweep_rows([_sweep_pass(model, eval_set, maps, cutoffs)], maps, cutoffs,
                       eval_set.qrels)


def sweep_collection(model, coll, vocab, maps: Mapping[float, Sequence[float]],
                     cutoffs: Sequence[int], candidate_depth: int = 100) -> list[dict]:
    """``sweep``: ``sweep_lambda``'s rows of the collection's BM25 candidates,
    with the per-query pass run block by block."""
    cutoffs = check_cutoffs(cutoffs)
    passes = _in_query_blocks(coll, vocab, candidate_depth,
                              lambda eval_set: _sweep_pass(model, eval_set, maps, cutoffs))
    return _sweep_rows(passes, maps, cutoffs, coll.qrels)
