"""Ranking effectiveness and gender-bias measurement.

Bias is scored from the gender vocabulary of the top-ranked documents: a
per-document magnitude (term-frequency or Boolean) for female and for male
term sets, their difference averaged over rank prefixes (RaB, ARaB), and
corpus-level aggregation per cutoff. Effectiveness is MRR@k and NDCG@k.

All functions here are pure and operate on tokenized text; aggregation
iterates queries in sorted id order so results are reproducible bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import DomainError

log = logging.getLogger(__name__)

VARIANTS = ("tf", "bool")


@dataclass(frozen=True)
class GenderLexicon:
    """Female- and male-associated term sets; must be disjoint and non-empty."""

    female: frozenset[str] = frozenset({"she", "woman", "her"})
    male: frozenset[str] = frozenset({"he", "man", "him"})

    def __post_init__(self):
        if not self.female or not self.male:
            raise DomainError("gender term sets must be non-empty")
        if self.female & self.male:
            raise DomainError("gender term sets must be disjoint")
        object.__setattr__(self, "female", frozenset(self.female))
        object.__setattr__(self, "male", frozenset(self.male))


DEFAULT_LEXICON = GenderLexicon()


class Qrels:
    """Relevance grades keyed by (query_id, doc_id); grades are >= 0 ints."""

    def __init__(self, grades: Mapping[tuple[str, str], int]):
        self._grades: dict[tuple[str, str], int] = {}
        self._by_query: dict[str, dict[str, int]] = {}
        for (qid, did), rel in grades.items():
            rel = int(rel)
            if rel < 0:
                raise DomainError(f"negative relevance grade for ({qid}, {did})")
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

    def query_ids(self) -> list[str]:
        return list(self._by_query)

    def relevant(self, query_id: str) -> dict[str, int]:
        """Docs with positive grade for the query."""
        return {d: g for d, g in self._by_query.get(query_id, {}).items() if g > 0}


# ---------------------------------------------------------------------------
# gender magnitudes


def mag_tf(doc_tokens: Sequence[str], terms: Iterable[str],
           log_one_plus: bool = False, base: float | None = None) -> float:
    """Sum of log term counts over the lexicon terms present in the document.

    With the verbatim form (default) a single occurrence contributes
    log(1) = 0; ``log_one_plus`` switches to log(1 + count). Natural log by
    default; ``base`` rescales uniformly.
    """
    counts: dict[str, int] = {}
    for tok in doc_tokens:
        counts[tok] = counts.get(tok, 0) + 1
    total = 0.0
    for term in sorted(set(terms)):
        c = counts.get(term, 0)
        if c > 0:
            total += math.log(1 + c) if log_one_plus else math.log(c)
    if base is not None:
        if base <= 0.0 or base == 1.0:
            raise DomainError("log base must be positive and != 1")
        total /= math.log(base)
    return total


def mag_bool(doc_tokens: Sequence[str], terms: Iterable[str]) -> int:
    """1 iff any lexicon term occurs in the document."""
    term_set = set(terms)
    return 1 if any(tok in term_set for tok in doc_tokens) else 0


def _gender_delta(doc_tokens: Sequence[str], lexicon: GenderLexicon,
                  variant: str, log_one_plus: bool) -> float:
    if variant == "tf":
        return (mag_tf(doc_tokens, lexicon.female, log_one_plus)
                - mag_tf(doc_tokens, lexicon.male, log_one_plus))
    if variant == "bool":
        return float(mag_bool(doc_tokens, lexicon.female)
                     - mag_bool(doc_tokens, lexicon.male))
    raise DomainError(f"unknown magnitude variant {variant!r}")


def _effective_cutoff(n_docs: int, t: int | None, what: str) -> int:
    if t is None:
        return n_docs
    if t < 1:
        raise DomainError(f"{what} cutoff must be >= 1")
    if t > n_docs:
        log.warning("%s cutoff %d exceeds list length %d; using the prefix",
                    what, t, n_docs)
        return n_docs
    return t


def rab(ranked_docs: Sequence[Sequence[str]], lexicon: GenderLexicon = DEFAULT_LEXICON,
        variant: str = "tf", t: int | None = None, log_one_plus: bool = False) -> float:
    """Mean female-minus-male magnitude over the top-t documents.

    ``ranked_docs`` are token sequences in rank order. Lists shorter than t
    are evaluated over the available prefix with a warning.
    """
    if not ranked_docs:
        raise DomainError("rab needs at least one ranked document")
    t = _effective_cutoff(len(ranked_docs), t, "rab")
    total = 0.0
    for doc in ranked_docs[:t]:
        total += _gender_delta(doc, lexicon, variant, log_one_plus)
    return total / t


def arab(ranked_docs: Sequence[Sequence[str]], lexicon: GenderLexicon = DEFAULT_LEXICON,
         variant: str = "tf", t: int | None = None, log_one_plus: bool = False) -> float:
    """Mean of RaB over all prefixes 1..t; weights the top ranks more."""
    if not ranked_docs:
        raise DomainError("arab needs at least one ranked document")
    t = _effective_cutoff(len(ranked_docs), t, "arab")
    total = 0.0
    for x in range(1, t + 1):
        total += rab(ranked_docs, lexicon, variant, x, log_one_plus)
    return total / t


# ---------------------------------------------------------------------------
# effectiveness


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
    """Mean MRR@k or NDCG@k over queries, iterated in sorted id order."""
    if metric not in ("mrr", "ndcg"):
        raise DomainError(f"unknown metric {metric!r}")
    if not ranked:
        raise DomainError("no queries to evaluate")
    fn = mrr_at_k if metric == "mrr" else ndcg_at_k
    total = 0.0
    for qid in sorted(ranked):
        total += fn(qid, ranked[qid], qrels, k)
    return total / len(ranked)


# ---------------------------------------------------------------------------
# corpus-level report


@dataclass(frozen=True)
class BiasReport:
    """Mean RaB/ARaB per cutoff and variant over an evaluated query set.

    With ``absolute`` (the default) each query contributes the absolute value
    of its RaB/ARaB, so the mean reads as "lower is less biased" regardless
    of the bias direction; per-query values stay signed.
    """

    cutoffs: tuple[int, ...]
    variants: tuple[str, ...]
    num_queries: int
    absolute: bool
    mean_rab: dict = field(default_factory=dict)    # (variant, cutoff) -> float
    mean_arab: dict = field(default_factory=dict)   # (variant, cutoff) -> float

    def rows(self) -> list[dict]:
        out = []
        for variant in self.variants:
            for cutoff in self.cutoffs:
                out.append({
                    "variant": variant,
                    "cutoff": cutoff,
                    "mean_rab": self.mean_rab[(variant, cutoff)],
                    "mean_arab": self.mean_arab[(variant, cutoff)],
                })
        return out


def bias_report(
    ranked: Mapping[str, Sequence[str]],
    doc_tokens: Mapping[str, Sequence[str]],
    lexicon: GenderLexicon = DEFAULT_LEXICON,
    cutoffs: Sequence[int] = (10, 20, 30, 40),
    variants: Sequence[str] = VARIANTS,
    absolute: bool = True,
    log_one_plus: bool = False,
) -> BiasReport:
    """Aggregate RaB/ARaB over a run: ranked doc ids per query id."""
    if not ranked:
        raise DomainError("no queries to evaluate")
    for v in variants:
        if v not in VARIANTS:
            raise DomainError(f"unknown magnitude variant {v!r}")
    cutoffs = tuple(int(c) for c in cutoffs)
    if any(c < 1 for c in cutoffs):
        raise DomainError("cutoffs must be >= 1")
    report = BiasReport(cutoffs=cutoffs, variants=tuple(variants),
                        num_queries=len(ranked), absolute=absolute)
    qids = sorted(ranked)
    for variant in variants:
        for cutoff in cutoffs:
            rab_sum = 0.0
            arab_sum = 0.0
            for qid in qids:
                docs = [doc_tokens[d] for d in ranked[qid]]
                r = rab(docs, lexicon, variant, cutoff, log_one_plus)
                a = arab(docs, lexicon, variant, cutoff, log_one_plus)
                if absolute:
                    r, a = abs(r), abs(a)
                rab_sum += r
                arab_sum += a
            report.mean_rab[(variant, cutoff)] = rab_sum / len(qids)
            report.mean_arab[(variant, cutoff)] = arab_sum / len(qids)
    return report
