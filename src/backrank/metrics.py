"""Ranking effectiveness and gender-bias measurement.

Bias is scored from the gender vocabulary of the top-ranked documents: a
per-document magnitude (term-frequency or Boolean) for female and for male
term sets, their difference averaged over rank prefixes (RaB, ARaB), and
corpus-level aggregation per cutoff. Magnitudes are per document, so a
report computes each document's delta once per variant. Effectiveness is
MRR@k and NDCG@k.

All functions here are pure and operate on tokenized text; aggregation
iterates queries in sorted id order so results are reproducible bit for bit.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError

log = logging.getLogger(__name__)

VARIANTS = ("tf", "bool")
# The gender lexicon RaB/ARaB are defined over. Sorted, because
# generate_synthetic draws its gender words from them by index.
FEMALE_TERMS = ("her", "she", "woman")
MALE_TERMS = ("he", "him", "man")
# The largest grade: 2^1000 gain over up to 2^23 ranks keeps every DCG finite
MAX_GRADE = 1000


class Qrels:
    """Relevance grades keyed by (query_id, doc_id); ints in 0..MAX_GRADE."""

    def __init__(self, grades: Mapping[tuple[str, str], int]):
        self._grades: dict[tuple[str, str], int] = {}
        self._by_query: dict[str, dict[str, int]] = {}
        for (qid, did), rel in grades.items():
            try:    # an int or a numpy integer; a float is not truncated
                rel = int(operator.index(rel))
            except TypeError:
                raise DomainError(f"grade {rel!r} for ({qid}, {did}) is not an integer") from None
            if not 0 <= rel <= MAX_GRADE:
                raise DomainError(f"grade {rel} for ({qid}, {did}) is outside 0..{MAX_GRADE}")
            self._grades[(qid, did)] = rel
            self._by_query.setdefault(qid, {})[did] = rel

    def __len__(self) -> int:
        return len(self._grades)

    def __eq__(self, other) -> bool:
        return isinstance(other, Qrels) and self._grades == other._grades

    def items(self):
        return self._grades.items()

    def grade(self, query_id: str, doc_id: str) -> int:
        return self._grades.get((query_id, doc_id), 0)

    def has_query(self, query_id: str) -> bool:
        return query_id in self._by_query

    def relevant(self, query_id: str) -> dict[str, int]:
        """Docs with positive grade for the query."""
        return {d: g for d, g in self._by_query.get(query_id, {}).items() if g > 0}


# ---------------------------------------------------------------------------
# gender magnitudes


def _log_counts(doc_tokens: Sequence[str], terms: Sequence[str]) -> float:
    """The TF magnitude: the sum of natural-log counts of the distinct
    ``terms`` present in the document, in the given order; a single
    occurrence contributes log(1) = 0."""
    total = 0.0
    for term in terms:
        c = doc_tokens.count(term)
        if c > 0:
            total += math.log(c)
    return total


def mag_bool(doc_tokens: Sequence[str], terms: Iterable[str]) -> int:
    """1 iff any lexicon term occurs in the document."""
    return 0 if set(terms).isdisjoint(doc_tokens) else 1


def _gender_delta(doc_tokens: Sequence[str], variant: str) -> float:
    """Female minus male magnitude; ``variant`` is one of VARIANTS."""
    if variant == "tf":    # the lexicons are sorted and distinct: the definition's order
        return _log_counts(doc_tokens, FEMALE_TERMS) - _log_counts(doc_tokens, MALE_TERMS)
    return float(mag_bool(doc_tokens, FEMALE_TERMS) - mag_bool(doc_tokens, MALE_TERMS))


# ---------------------------------------------------------------------------
# effectiveness


def distinct(name: str, values: Iterable) -> tuple:
    """A non-empty tuple of distinct ``values``, as the CLI's list options
    take them: a repeated one would report, and write, its rows twice."""
    values = tuple(values)
    if not values:
        raise DomainError(f"{name} must list at least one value, got {values}")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise DomainError(f"{name} must list each value once, got {value} more than once")
    return values


def check_cutoffs(cutoffs: Sequence[int]) -> tuple[int, ...]:
    """A non-empty tuple of distinct int cutoffs >= 1, as --cutoffs takes them."""
    ks = []
    for c in cutoffs:
        try:    # an int or a numpy integer; a float or a string is not converted
            ks.append(operator.index(c))
        except TypeError:
            raise DomainError(f"cutoffs must be integers, got {c!r}") from None
        if ks[-1] < 1:
            raise DomainError(f"cutoffs must be >= 1, got {c}")
    return distinct("cutoffs", ks)


def _prefix_dcg(grades: Sequence[int]) -> list[float]:
    """0.0, then the DCG of each prefix of ``grades`` in rank order, summed
    left to right: gain 2^grade - 1 with a log2(rank + 1) discount."""
    gains = ((2.0 ** g - 1.0) / math.log2(i + 2) for i, g in enumerate(grades))
    return list(accumulate(gains, initial=0.0))


def mean(values: Sequence[float]) -> float:
    """The mean of ``values``, added left to right from 0.0."""
    return reduce(operator.add, values, 0.0) / len(values)


def effectiveness_per_query(rankings: Sequence[Mapping[str, Sequence[str]]], qrels: Qrels,
                            cutoffs: tuple[int, ...]) -> list[dict[tuple[str, int], list[float]]]:
    """Each ranking's MRR@k and NDCG@k of every query, keyed ("mrr", k) and
    ("ndcg", k), at every checked cutoff k, in sorted id order, from one walk
    of each list. MRR@k is 1/rank of the first relevant document in the top
    k, else 0; NDCG@k is the top k's DCG over that of the k best grades, 0
    for a query with no relevant document. The rankings rank one query set,
    so each query's relevant grades and ideal DCG are read once."""
    depth = max(cutoffs)
    per_ranking = [{(metric, k): [] for k in cutoffs for metric in ("mrr", "ndcg")}
                   for _ in rankings]
    for qid in sorted(rankings[0]):
        relevant = qrels.relevant(qid)
        ideal = _prefix_dcg(sorted(relevant.values(), reverse=True)[:depth])
        for ranked, columns in zip(rankings, per_ranking):
            grades = [relevant.get(did, 0) for did in ranked[qid][:depth]]
            first = next((i + 1 for i, g in enumerate(grades) if g > 0), depth + 1)
            dcg = _prefix_dcg(grades)
            for k in cutoffs:
                columns[("mrr", k)].append(1.0 / first if first <= k else 0.0)
                columns[("ndcg", k)].append(
                    dcg[min(k, len(dcg) - 1)] / ideal[min(k, len(ideal) - 1)] if relevant else 0.0)
    return per_ranking


def effectiveness_means(per_ranking: Sequence[Mapping], qids: Sequence[str],
                        qrels: Qrels) -> list[dict[tuple[str, int], float]]:
    """The column means of each ranking's ``effectiveness_per_query`` values,
    every ranking over the sorted ``qids``, each added in that order. The
    queries qrels lacks are one warning, naming how many and the first."""
    absent = [qid for qid in qids if not qrels.has_query(qid)]
    if absent:
        log.warning("%d of %d queries absent from qrels (first %s); scoring them 0",
                    len(absent), len(qids), absent[0])
    return [{key: mean(column) for key, column in columns.items()} for columns in per_ranking]


# ---------------------------------------------------------------------------
# corpus-level report


@dataclass(frozen=True)
class BiasReport:
    """RaB/ARaB per cutoff and each of VARIANTS over an evaluated query set.

    ``per_query`` holds each query's signed (RaB, ARaB), in sorted query-id
    order. The means sum their absolute values in that order, so a mean
    reads as "lower is less biased" regardless of the bias direction.
    """

    cutoffs: tuple[int, ...]
    num_queries: int
    mean_rab: dict = field(default_factory=dict)    # (variant, cutoff) -> float
    mean_arab: dict = field(default_factory=dict)   # (variant, cutoff) -> float
    per_query: dict = field(default_factory=dict)   # (variant, cutoff) -> [(rab, arab)]


def bias_per_query(rankings: Sequence[Mapping[str, Sequence[str]]],
                   doc_tokens: Mapping[str, Sequence[str]],
                   cutoffs: tuple[int, ...]) -> list[dict]:
    """``bias_report``'s per-query pass: each ranking's signed (RaB, ARaB) of
    every query, in sorted id order, keyed (variant, cutoff). Magnitudes are per document: each document within the largest cutoff of
    some list of some ranking gets its delta once per variant, reused by
    every list ranking it. Every cutoff of every list of a ranking is then
    read from two cumulative sums over its queries x depth matrix of deltas.
    """
    depth = max(cutoffs)
    qids = [sorted(ranked) for ranked in rankings]
    tops = [[ranked[qid][:depth] for qid in ids] for ranked, ids in zip(rankings, qids)]
    top_docs = dict.fromkeys(d for per_ranking in tops for top in per_ranking for d in top)
    deltas = {variant: {d: _gender_delta(doc_tokens[d], variant) for d in top_docs}
              for variant in VARIANTS}
    signed = []
    for ranked, ids, per_ranking in zip(rankings, qids, tops):
        lengths = [len(ranked[qid]) for qid in ids]
        if 0 in lengths:
            raise DomainError("bias metrics need at least one ranked document")
        width = max(map(len, per_ranking))
        # a cutoff past a list's end reads the whole list
        at = np.minimum(np.array(cutoffs, dtype=np.intp), np.array(lengths)[:, None]) - 1
        x = np.arange(1, width + 1)
        per_query = {}
        for variant, delta in deltas.items():
            # RaB@x and ARaB@x of every query and depth x, zero-padded past a
            # list's end; np.cumsum adds left to right, the definitions' order
            rab = np.cumsum([[delta[d] for d in top] + [0.0] * (width - len(top))
                             for top in per_ranking], axis=1) / x
            arab = np.cumsum(rab, axis=1) / x
            for cutoff, rabs, arabs in zip(cutoffs, np.take_along_axis(rab, at, 1).T.tolist(),
                                           np.take_along_axis(arab, at, 1).T.tolist()):
                per_query[(variant, cutoff)] = list(zip(rabs, arabs))
        signed.append(per_query)
    return signed


def bias_means(per_ranking: Sequence[dict], cutoffs: tuple[int, ...],
               lengths: Sequence[int]) -> list[BiasReport]:
    """``bias_report``'s reduction: a report per ranking, whose means sum the
    absolute per-query values in query order. Every ranking's lists have
    ``lengths``; a cutoff past the end of some of them is one warning."""
    reports = [BiasReport(
        cutoffs=cutoffs, num_queries=len(lengths), per_query=per_query,
        mean_rab={key: mean([abs(rab) for rab, _ in s]) for key, s in per_query.items()},
        mean_arab={key: mean([abs(arab) for _, arab in s]) for key, s in per_query.items()})
        for per_query in per_ranking]
    for cutoff in cutoffs:
        short = [n for n in lengths if n < cutoff]
        if short:
            log.warning("bias cutoff %d exceeds the length of %d of %d lists (shortest %d); "
                        "using their prefix", cutoff, len(short), len(lengths), min(short))
    return reports


def bias_report(
    rankings: Sequence[Mapping[str, Sequence[str]]],
    doc_tokens: Mapping[str, Sequence[str]],
    cutoffs: Sequence[int] = (10, 20, 30, 40),
) -> list[BiasReport]:
    """Aggregate RaB/ARaB over each of several runs, each ranked doc ids per
    query id: one report per ranking, in order. A cutoff past the end of some
    lists of a ranking is one warning for that ranking (``bias_means``).
    """
    if isinstance(rankings, Mapping):
        raise DomainError("bias_report takes a sequence of rankings, not one ranking")
    if not all(rankings):
        raise DomainError("no queries to evaluate")
    cutoffs = check_cutoffs(cutoffs)
    reports = []
    for ranked, per_query in zip(rankings, bias_per_query(rankings, doc_tokens, cutoffs)):
        reports += bias_means([per_query], cutoffs, list(map(len, ranked.values())))
    return reports
