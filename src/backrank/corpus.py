"""Data plumbing for the ranking pipeline.

Tokenization, the word-level vocabulary, TSV corpus/query files, TREC run and
qrels formats, a plain Okapi BM25 first stage, and a seeded synthetic corpus
generator whose gender skew is controllable.

File formats
------------
corpus/queries TSV    ``id<TAB>text`` (one record per line)
run file              ``qid Q0 docid rank score tag`` with 6-decimal scores
qrels                 ``qid 0 docid rel``
synthetic config      flat ``key=value`` lines, ``#`` comments allowed
"""

from __future__ import annotations

import dataclasses
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, ParseError, read_lines
from .metrics import DEFAULT_LEXICON, Qrels
from .ranker import EvalSet, RankedList, TrainExample
from .rng import SplitMix64

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumerics, dropping empty tokens.

    Only ASCII letters and digits survive; everything else separates.
    """
    return _TOKEN_RE.findall(text.lower())


class Vocab:
    """Token/index bijection with reserved padding, unknown, and separator ids."""

    PAD = 0
    UNK = 1
    SEP = 2
    PAD_TOKEN = "<pad>"
    UNK_TOKEN = "<unk>"
    SEP_TOKEN = "<sep>"
    _SPECIALS = (PAD_TOKEN, UNK_TOKEN, SEP_TOKEN)

    def __init__(self, tokens: Sequence[str]):
        tokens = list(tokens)
        if tuple(tokens[:3]) != self._SPECIALS:
            raise DomainError(f"vocab must start with the reserved tokens {self._SPECIALS}")
        if len(set(tokens)) != len(tokens):
            raise DomainError("vocab tokens must be unique")
        self._id2tok = tokens
        self._tok2id = {t: i for i, t in enumerate(tokens)}

    @classmethod
    def build(cls, token_seqs: Iterable[Sequence[str]]) -> "Vocab":
        """Vocabulary from token sequences, ordered by count desc then token."""
        counts: Counter[str] = Counter()
        for seq in token_seqs:
            counts.update(seq)
        for special in cls._SPECIALS:
            counts.pop(special, None)
        ordered = sorted(counts, key=lambda t: (-counts[t], t))
        return cls(list(cls._SPECIALS) + ordered)

    @property
    def tokens(self) -> list[str]:
        return list(self._id2tok)

    def __len__(self) -> int:
        return len(self._id2tok)

    def __contains__(self, token: str) -> bool:
        return token in self._tok2id

    def token_id(self, token: str) -> int:
        return self._tok2id.get(token, self.UNK)

    def id_token(self, index: int) -> str:
        if not 0 <= index < len(self._id2tok):
            raise DomainError(f"vocab index {index} out of range")
        return self._id2tok[index]

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self._tok2id.get(t, self.UNK) for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.id_token(i) for i in ids]


class Collection:
    """Immutable bundle of tokenized documents, queries, and relevance labels."""

    def __init__(
        self,
        docs: Mapping[str, Sequence[str]],
        queries: Mapping[str, Sequence[str]],
        qrels: Qrels | None = None,
    ):
        self.docs: dict[str, list[str]] = {d: list(t) for d, t in docs.items()}
        self.queries: dict[str, list[str]] = {q: list(t) for q, t in queries.items()}
        self.qrels = qrels if qrels is not None else Qrels({})
        for (qid, did), _grade in self.qrels.items():
            if qid not in self.queries:
                raise DomainError(f"qrels references unknown query {qid!r}")
            if did not in self.docs:
                raise DomainError(f"qrels references unknown document {did!r}")
        self._bm25: _Bm25Index | None = None

    def bm25_index(self) -> "_Bm25Index":
        if self._bm25 is None:
            self._bm25 = _Bm25Index(self.docs)
        return self._bm25


class _Bm25Index:
    """Document frequencies, postings, and length statistics for BM25.

    Documents are numbered in sorted doc-id order, so ascending row order is
    ascending doc-id order. Each term's postings are parallel (row, tf)
    arrays, rows ascending.
    """

    def __init__(self, docs: Mapping[str, Sequence[str]]):
        self.doc_ids = sorted(docs)
        self.num_docs = len(self.doc_ids)
        self.doc_len = np.array([len(docs[did]) for did in self.doc_ids], dtype=np.int64)
        rows: dict[str, list[int]] = {}
        tfs: dict[str, list[int]] = {}
        for row, did in enumerate(self.doc_ids):
            for term, tf in Counter(docs[did]).items():
                rows.setdefault(term, []).append(row)
                tfs.setdefault(term, []).append(tf)
        self.postings: dict[str, tuple[np.ndarray, np.ndarray]] = {
            term: (np.array(r, dtype=np.intp), np.array(tfs[term], dtype=np.int64))
            for term, r in rows.items()}
        self.avgdl = int(self.doc_len.sum()) / self.num_docs if self.num_docs else 0.0


def bm25_retrieve(
    query: str | Sequence[str],
    collection: Collection,
    top_n: int = 100,
    k1: float = 0.9,
    b: float = 0.4,
    query_id: str = "q",
) -> RankedList:
    """Okapi BM25 over the collection, descending score, doc-id tie-break.

    IDF is floored at zero, so terms in more than half the documents
    contribute nothing; documents with total score 0 are omitted. A fully
    out-of-vocabulary query yields an empty list.
    """
    if top_n < 1:
        raise DomainError("top_n must be >= 1")
    if k1 < 0.0:
        raise DomainError("k1 must be >= 0")
    if not 0.0 <= b <= 1.0:
        raise DomainError("b must be in [0, 1]")
    tokens = tokenize(query) if isinstance(query, str) else list(query)
    idx = collection.bm25_index()
    n = idx.num_docs
    scores = np.zeros(n)
    for term in tokens:
        plist = idx.postings.get(term)
        if plist is None:
            continue
        rows, tf = plist
        df = len(rows)
        idf = max(0.0, math.log((n - df + 0.5) / (df + 0.5)))
        if idf == 0.0:
            continue
        norm = k1 * (1.0 - b + b * idx.doc_len[rows] / idx.avgdl)
        scores[rows] += idf * tf * (k1 + 1.0) / (tf + norm)
    kept = np.flatnonzero(scores > 0.0)
    # stable over ascending rows: ties stay in doc-id order
    order = kept[np.argsort(-scores[kept], kind="stable")[:top_n]]
    return RankedList(query_id, tuple(zip([idx.doc_ids[r] for r in order.tolist()],
                                          scores[order].tolist())))


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic gender-skewed collection.

    ``skew`` is the probability that a relevant document carries
    male-lexicon terms and that a non-relevant one carries female-lexicon
    terms; 0.5 decorrelates gender from relevance. ``gender_rate`` is the
    probability a document carries any gender term at all.
    ``gender_mix_rate`` is the probability that a gendered document also
    carries terms of the opposite side; without it the primary side alone
    separates the corpus into two disjoint gender classes, which a ranker
    exploits to a saturated margin no moderate reweighting can undo.
    """

    seed: int = 13
    num_queries: int = 500
    docs_per_query: int = 20
    relevant_per_query: int = 2
    vocab_size: int = 200
    query_len: int = 3
    doc_len: int = 12
    skew: float = 0.5
    gender_rate: float = 1.0
    overlap_rate: float = 0.9
    gender_min_repeat: int = 2
    gender_max_repeat: int = 4
    gender_mix_rate: float = 0.45
    gendered_query_rate: float = 0.0

    def __post_init__(self):
        for name in ("num_queries", "docs_per_query", "relevant_per_query",
                     "vocab_size", "query_len", "doc_len",
                     "gender_min_repeat", "gender_max_repeat"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive")
        for name in ("skew", "gender_rate", "overlap_rate", "gender_mix_rate",
                     "gendered_query_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} must be in [0, 1]")
        if self.relevant_per_query >= self.docs_per_query:
            raise DomainError("relevant_per_query must be below docs_per_query")
        if self.query_len > self.vocab_size:
            raise DomainError("query_len cannot exceed vocab_size")
        if self.query_len > self.doc_len:
            raise DomainError("query_len cannot exceed doc_len")
        if self.gender_min_repeat > self.gender_max_repeat:
            raise DomainError("gender_min_repeat must be <= gender_max_repeat")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")

    @classmethod
    def from_file(cls, path) -> "SynthConfig":
        """Parse a flat key=value file; unknown keys are an error."""
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        values: dict[str, object] = {}
        for lineno, raw in read_lines(path):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected key=value", path=str(path), line=lineno)
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in types:
                raise ParseError(f"unknown key {key!r}", path=str(path), line=lineno)
            caster = float if types[key] in ("float", float) else int
            try:
                values[key] = caster(val)
            except ValueError:
                raise ParseError(f"bad value for {key!r}: {val!r}",
                                 path=str(path), line=lineno) from None
        return cls(**values)

    def to_file(self, path) -> None:
        lines = [f"{f.name}={getattr(self, f.name)}" for f in dataclasses.fields(self)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate_synthetic(cfg: SynthConfig) -> Collection:
    """Deterministic topical collection with spurious gender injection.

    Relevant documents contain every query term; non-relevant ones overlap on
    at most one. Each gendered document carries one primary gender word,
    repeated 2-4 times by default, whose side follows ``skew``: relevant docs
    draw male terms with probability skew, non-relevant docs draw female
    terms with the same probability. With probability ``gender_mix_rate`` a
    document additionally carries an opposite-side word, so the two gender
    vocabularies overlap across documents instead of splitting the corpus.
    """
    rng = SplitMix64(cfg.seed)
    topic = [f"t{i:04d}" for i in range(cfg.vocab_size)]
    female = sorted(DEFAULT_LEXICON.female)
    male = sorted(DEFAULT_LEXICON.male)

    docs: dict[str, list[str]] = {}
    queries: dict[str, list[str]] = {}
    grades: dict[tuple[str, str], int] = {}
    doc_no = 0
    for qi in range(cfg.num_queries):
        qid = f"q{qi + 1:04d}"
        qwords = rng.sample(topic, cfg.query_len)
        qtokens = list(qwords)
        if rng.uniform() < cfg.gendered_query_rate:
            side = male if rng.uniform() < 0.5 else female
            qtokens.append(side[rng.randint(len(side))])
        queries[qid] = qtokens

        for slot in range(cfg.docs_per_query):
            doc_no += 1
            did = f"d{doc_no:06d}"
            relevant = slot < cfg.relevant_per_query
            if relevant:
                content = list(qwords)
                grades[(qid, did)] = 1
            else:
                content = []
                if rng.uniform() < cfg.overlap_rate:
                    content.append(qwords[rng.randint(cfg.query_len)])
            while len(content) < cfg.doc_len:
                content.append(topic[rng.randint(cfg.vocab_size)])
            if rng.uniform() < cfg.gender_rate:
                hit = rng.uniform() < cfg.skew
                wants_male = hit if relevant else not hit
                span = cfg.gender_max_repeat - cfg.gender_min_repeat + 1
                sides = [male if wants_male else female]
                if rng.uniform() < cfg.gender_mix_rate:
                    sides.append(female if wants_male else male)
                for side in sides:
                    word = side[rng.randint(len(side))]
                    content.extend([word] * (cfg.gender_min_repeat + rng.randint(span)))
            rng.shuffle(content)
            docs[did] = content
    return Collection(docs, queries, Qrels(grades))


# ---------------------------------------------------------------------------
# file IO


def read_tsv(path) -> dict[str, list[str]]:
    """``id<TAB>text`` records (corpus or queries), tokenized."""
    out: dict[str, list[str]] = {}
    for lineno, raw in read_lines(path):
        if not raw.strip():
            continue
        if "\t" not in raw:
            raise ParseError("expected id<TAB>text", path=str(path), line=lineno)
        rid, _, text = raw.partition("\t")
        rid = rid.strip()
        if not rid:
            raise ParseError("empty id", path=str(path), line=lineno)
        if rid in out:
            raise ParseError(f"duplicate id {rid!r}", path=str(path), line=lineno)
        out[rid] = tokenize(text)
    return out


def _write_tsv(path, records: Mapping[str, Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rid, tokens in records.items():
            fh.write(f"{rid}\t{' '.join(tokens)}\n")


def write_collection(coll: Collection, outdir) -> dict[str, Path]:
    """Write corpus.tsv, queries.tsv, and qrels.txt under outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": outdir / "corpus.tsv",
        "queries": outdir / "queries.tsv",
        "qrels": outdir / "qrels.txt",
    }
    _write_tsv(paths["corpus"], coll.docs)
    _write_tsv(paths["queries"], coll.queries)
    write_qrels(paths["qrels"], coll.qrels)
    return paths


def load_collection(corpus_path, queries_path, qrels_path=None) -> Collection:
    docs = read_tsv(corpus_path)
    queries = read_tsv(queries_path)
    qrels = read_qrels(qrels_path) if qrels_path is not None else None
    return Collection(docs, queries, qrels)


@dataclass(frozen=True)
class RunRecord:
    """One line of a TREC-format run file."""

    query_id: str
    doc_id: str
    rank: int
    score: float
    tag: str = "backrank"


def write_run(path, records: Iterable[RunRecord | tuple]) -> None:
    """Write run lines ``qid Q0 docid rank score tag`` with %.6f scores."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            if not isinstance(rec, RunRecord):
                rec = RunRecord(*rec)
            fh.write(f"{rec.query_id} Q0 {rec.doc_id} {rec.rank} {rec.score:.6f} {rec.tag}\n")


def read_run(path) -> list[RunRecord]:
    """Parse a run file; ranks need not be contiguous and are preserved."""
    records: list[RunRecord] = []
    for lineno, raw in read_lines(path):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 6:
            raise ParseError(f"expected 6 fields, got {len(parts)}",
                             path=str(path), line=lineno)
        qid, _q0, did, rank_s, score_s, tag = parts
        try:
            rank = int(rank_s)
        except ValueError:
            raise ParseError(f"bad rank {rank_s!r}", path=str(path), line=lineno) from None
        try:
            score = float(score_s)
        except ValueError:
            raise ParseError(f"bad score {score_s!r}", path=str(path), line=lineno) from None
        if not math.isfinite(score):
            raise ParseError(f"non-finite score {score_s!r}", path=str(path), line=lineno)
        records.append(RunRecord(qid, did, rank, score, tag))
    return records


def group_run(records: Iterable[RunRecord]) -> dict[str, list[str]]:
    """Per-query doc ids ordered by rank (stable on ties)."""
    grouped: dict[str, list[tuple[int, str]]] = {}
    for rec in records:
        grouped.setdefault(rec.query_id, []).append((rec.rank, rec.doc_id))
    out: dict[str, list[str]] = {}
    for qid, entries in grouped.items():
        entries.sort(key=lambda e: e[0])
        out[qid] = [did for _, did in entries]
    return out


def records_from_ranking(ranked: RankedList, tag: str = "backrank") -> list[RunRecord]:
    return [
        RunRecord(ranked.query_id, did, i + 1, score, tag)
        for i, (did, score) in enumerate(ranked.items)
    ]


def build_train_examples(
    coll: Collection,
    vocab: Vocab,
    num_negatives: int = 7,
    seed: int = 0,
    candidate_depth: int = 100,
) -> list[TrainExample]:
    """Listwise training data: one list per labeled positive.

    Negatives are sampled (seeded) from the query's BM25 candidates that
    carry no positive label. Queries without positives, or whose candidates
    yield no negatives, are skipped with a warning.
    """
    if num_negatives < 1:
        raise DomainError("num_negatives must be >= 1")
    rng = SplitMix64(seed)
    examples: list[TrainExample] = []
    skipped = 0
    for qid, qtokens in coll.queries.items():
        positives = coll.qrels.relevant(qid)
        if not positives:
            skipped += 1
            continue
        retrieved = bm25_retrieve(qtokens, coll, candidate_depth, query_id=qid)
        pool = [d for d in retrieved.doc_ids if coll.qrels.grade(qid, d) == 0]
        if not pool:
            skipped += 1
            continue
        query_ids = tuple(vocab.encode(qtokens))
        for pos in sorted(positives):
            negs = rng.sample(pool, min(num_negatives, len(pool)))
            doc_ids = (pos, *negs)
            examples.append(TrainExample(
                query_id=qid,
                query=query_ids,
                doc_ids=doc_ids,
                docs=tuple(tuple(vocab.encode(coll.docs[d])) for d in doc_ids),
                labels=(1.0,) + (0.0,) * len(negs),
            ))
    if skipped:
        log.warning("skipped %d queries without usable training lists", skipped)
    if not examples:
        raise DomainError("no training examples could be built from the collection")
    return examples


def build_eval_set(
    coll: Collection,
    vocab: Vocab,
    query_ids: Sequence[str] | None = None,
    candidate_depth: int = 100,
) -> EvalSet:
    """First-stage candidates plus everything the reranker sweep consumes.

    Queries whose BM25 retrieval comes back empty are dropped with a warning.
    """
    qids = list(query_ids) if query_ids is not None else list(coll.queries)
    for qid in qids:
        if qid not in coll.queries:
            raise DomainError(f"unknown query id {qid!r}")
    queries: dict[str, tuple[int, ...]] = {}
    candidates: dict[str, list[tuple[str, tuple[int, ...]]]] = {}
    doc_tokens: dict[str, list[str]] = {}
    empty = 0
    for qid in qids:
        qtokens = coll.queries[qid]
        retrieved = bm25_retrieve(qtokens, coll, candidate_depth, query_id=qid)
        if not retrieved.items:
            empty += 1
            continue
        queries[qid] = tuple(vocab.encode(qtokens))
        cand = []
        for did in retrieved.doc_ids:
            cand.append((did, tuple(vocab.encode(coll.docs[did]))))
            doc_tokens[did] = list(coll.docs[did])
        candidates[qid] = cand
    if empty:
        log.warning("dropped %d queries with no retrievable candidates", empty)
    if not queries:
        raise DomainError("no queries with candidates to evaluate")
    return EvalSet(queries=queries, candidates=candidates,
                   qrels=coll.qrels, doc_tokens=doc_tokens)


def read_qrels(path) -> Qrels:
    """Parse ``qid 0 docid rel`` lines; on duplicates the last value wins."""
    grades: dict[tuple[str, str], int] = {}
    dupes = 0
    for lineno, raw in read_lines(path):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}",
                             path=str(path), line=lineno)
        qid, _iter, did, rel_s = parts
        try:
            rel = int(rel_s)
        except ValueError:
            raise ParseError(f"bad relevance {rel_s!r}", path=str(path), line=lineno) from None
        if (qid, did) in grades:
            dupes += 1
        grades[(qid, did)] = rel
    if dupes:
        log.warning("qrels %s: %d duplicate entries, last value kept", path, dupes)
    return Qrels(grades)


def write_qrels(path, qrels: Qrels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for (qid, did), rel in qrels.items():
            fh.write(f"{qid} 0 {did} {rel}\n")
