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
import gc
import itertools
import logging
import math
import re
import string
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, ParseError, read_lines
from .metrics import FEMALE_TERMS, MALE_TERMS, MAX_GRADE, Qrels
from .rng import SplitMix64

log = logging.getLogger(__name__)

BM25_K1 = 0.9
BM25_B = 0.4
# the end of a run line whose next line (if any) names another query id, or of the data
RUN_QUERY_END = re.compile(rb"(?m)^[ \t]*(\S+)[ \t][^\n]*\n(?![ \t]*\1[ \t])|\Z")


class _Separators(dict):
    """A ``str.translate`` table that keeps ASCII lowercase letters and
    digits and turns every other character, non-ASCII included, into a space."""

    def __missing__(self, _char: int) -> str:
        return " "


# every ASCII character is listed, so __missing__ runs only for non-ASCII text
_SEPARATORS = _Separators.fromkeys(range(128), " ")
_SEPARATORS.update((ord(c), c) for c in string.ascii_lowercase + string.digits)
_GENDER_LEXICON = frozenset(FEMALE_TERMS + MALE_TERMS)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumerics, dropping empty tokens.

    Only ASCII letters and digits survive; everything else separates, so the
    tokens are those of ``[a-z0-9]+`` over the lowercased text. Tokens are
    interned, so every occurrence of a word is one string object.
    """
    return list(map(sys.intern, text.lower().translate(_SEPARATORS).split()))


def _gender_tokens(text: str) -> list[str]:
    """The gender-lexicon tokens of ``text``, in order: its tokenize tokens,
    filtered, without interning the rest."""
    return list(map(sys.intern, filter(_GENDER_LEXICON.__contains__,
                                       text.lower().translate(_SEPARATORS).split())))


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

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self._tok2id.get(t, self.UNK) for t in tokens]


class Collection:
    """Tokenized documents and queries, kept as given (not copied), and their qrels."""

    def __init__(
        self,
        docs: Mapping[str, list[str]],
        queries: Mapping[str, list[str]],
        qrels: Qrels | None = None,
    ):
        self.docs: dict[str, list[str]] = dict(docs)
        self.queries: dict[str, list[str]] = dict(queries)
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
    """Per-term BM25 impacts.

    Documents are numbered in sorted doc-id order, so ascending row order is
    ascending doc-id order. Each term's postings are parallel (row, impact)
    arrays, rows ascending, where the impact idf * tf * (k1 + 1) / (tf + norm)
    is the term's whole contribution to that document's score. A term whose
    idf is floored at zero contributes nothing and has no postings. Terms
    are keyed in the order they first occur, reading documents by row.
    """

    def __init__(self, docs: Mapping[str, Sequence[str]]):
        self.doc_ids = sorted(docs)
        n = len(self.doc_ids)
        doc_len = np.array([len(docs[did]) for did in self.doc_ids], dtype=np.int64)
        avgdl = int(doc_len.sum()) / n if n else 0.0
        # one pass numbers the terms in first-occurrence order; a stable sort by
        # term (a radix sort on ids of the smallest type) keeps rows in order
        tokens = [docs[did] for did in self.doc_ids]
        terms = {t: i for i, t in enumerate(dict.fromkeys(itertools.chain.from_iterable(tokens)))}
        term_ids = np.fromiter(map(terms.__getitem__, itertools.chain.from_iterable(tokens)),
                               dtype=np.min_scalar_type(len(terms)), count=int(doc_len.sum()))
        order = np.argsort(term_ids, kind="stable")
        term_ids = term_ids[order]
        rows = np.repeat(np.arange(n, dtype=np.int32), doc_len)[order]
        del order
        # each run of one (term, row) is a posting; its length is the tf
        first = np.ones(term_ids.size, dtype=bool)
        np.not_equal(term_ids[1:], term_ids[:-1], out=first[1:])
        first[1:] |= rows[1:] != rows[:-1]
        starts = np.flatnonzero(first)
        del first
        df = np.bincount(term_ids[starts], minlength=len(terms))
        rows = rows[starts]
        tf = np.diff(starts, append=term_ids.size)
        del term_ids, starts
        idf = np.array([max(0.0, math.log((n - c + 0.5) / (c + 0.5))) for c in df.tolist()])
        keep = idf > 0.0
        posted = np.repeat(keep, df)
        impact = tf[posted].astype(np.float64)
        del tf
        rows = rows[posted].astype(np.intp)
        # avgdl is 0 only when no document holds a term; then nothing reads norm
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * doc_len / (avgdl or 1.0))
        denom = norm[rows]
        denom += impact
        cuts = np.cumsum(df[keep])[:-1]
        # views into the two arrays: a term's impacts scale by its idf in place
        self.postings: dict[str, tuple[np.ndarray, np.ndarray]] = dict(zip(
            itertools.compress(terms, keep),
            zip(np.split(rows, cuts), np.split(impact, cuts))))
        for (_, term_impact), v in zip(self.postings.values(), idf[keep]):
            term_impact *= v
        impact *= BM25_K1 + 1.0
        impact /= denom


@dataclass(frozen=True)
class RankedList:
    """(doc id, score) pairs for one query in its producer's sort order: each
    document once, by finite score descending, then doc id ascending."""

    query_id: str
    items: tuple[tuple[str, float], ...]

    @property
    def doc_ids(self) -> list[str]:
        return [d for d, _ in self.items]


def bm25_retrieve(query: Sequence[str], collection: Collection, top_n: int = 100,
                  query_id: str = "q") -> RankedList:
    """Okapi BM25 (k1 = 0.9, b = 0.4) of a token sequence over the
    collection, descending score, doc-id tie-break.

    IDF is floored at zero, so terms in more than half the documents
    contribute nothing; documents with total score 0 are omitted. A fully
    out-of-vocabulary query yields an empty list.
    """
    if top_n < 1:
        raise DomainError("top_n must be >= 1")
    idx = collection.bm25_index()
    scores = np.zeros(len(idx.doc_ids))
    for term in query:
        plist = idx.postings.get(term)
        if plist is not None:
            scores[plist[0]] += plist[1]
    kept = np.flatnonzero(scores > 0.0)
    if kept.size > top_n:
        # only rows scoring at least the top_n-th score can be returned
        cut = np.partition(scores[kept], kept.size - top_n)[kept.size - top_n]
        kept = kept[scores[kept] >= cut]
    # stable over ascending rows: ties stay in doc-id order
    order = kept[np.argsort(-scores[kept], kind="stable")[:top_n]]
    return RankedList(query_id, tuple(zip([idx.doc_ids[r] for r in order.tolist()],
                                          scores[order].tolist())))


# ---------------------------------------------------------------------------
# synthetic corpus

_UNIT_FIELDS = ("skew", "gender_rate", "overlap_rate", "gender_mix_rate",
                "gendered_query_rate")


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

    @staticmethod
    def _check_value(name: str, value) -> None:
        """The checks on a single field; DomainError names the field. A unit
        field takes an int or a float, every other field an int."""
        if name in _UNIT_FIELDS:
            if type(value) not in (int, float):
                raise DomainError(f"{name} must be a number, got {value!r}")
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must be in [0, 1]")
        elif type(value) is not int:
            raise DomainError(f"{name} must be an int, got {value!r}")
        elif name == "seed":
            if value < 0:
                raise DomainError("seed must be non-negative")
        elif value < 1:
            raise DomainError(f"{name} must be positive")

    def __post_init__(self):
        for f in dataclasses.fields(self):
            self._check_value(f.name, getattr(self, f.name))
        if self.relevant_per_query >= self.docs_per_query:
            raise DomainError("relevant_per_query must be below docs_per_query")
        if self.query_len > self.vocab_size:
            raise DomainError("query_len cannot exceed vocab_size")
        if self.query_len > self.doc_len:
            raise DomainError("query_len cannot exceed doc_len")
        if self.gender_min_repeat > self.gender_max_repeat:
            raise DomainError("gender_min_repeat must be <= gender_max_repeat")

    @classmethod
    def from_file(cls, path) -> "SynthConfig":
        """Parse a flat key=value file; a bad key or value is a ParseError."""
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
                cls._check_value(key, values[key])
            except DomainError as exc:
                raise ParseError(str(exc), path=str(path), line=lineno) from None
            except ValueError:
                raise ParseError(f"bad value for {key!r}: {val!r}",
                                 path=str(path), line=lineno) from None
        try:
            return cls(**values)
        except DomainError as exc:
            raise ParseError(str(exc), path=str(path)) from None

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
    female, male = FEMALE_TERMS, MALE_TERMS

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


@contextmanager
def _gc_paused():
    """Cyclic collection off for a parse, which only allocates records that
    stay alive; the prior state is restored however the parse ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def _read_records(path, parse) -> dict[str, list[str]]:
    """``id<TAB>text`` records, each text as ``parse`` returns it."""
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
        if len(rid.split()) > 1:
            raise ParseError(f"id {rid!r} contains whitespace", path=str(path), line=lineno)
        if rid in out:
            raise ParseError(f"duplicate id {rid!r}", path=str(path), line=lineno)
        out[sys.intern(rid)] = parse(text)
    return out


def read_tsv(path) -> dict[str, list[str]]:
    """``id<TAB>text`` records (corpus or queries), tokenized."""
    return _read_records(path, tokenize)


def read_gender_tokens(path) -> dict[str, list[str]]:
    """A corpus TSV's records, each text as only its gender-lexicon tokens in
    order: all RaB/ARaB read of a document. Checks each line as read_tsv does."""
    return _read_records(path, _gender_tokens)


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
    """A collection from its files; a qrels line naming an unknown query or
    document is a ParseError at that line."""
    docs = read_tsv(corpus_path)
    queries = read_tsv(queries_path)
    if qrels_path is None:
        return Collection(docs, queries)
    try:
        return Collection(docs, queries, read_qrels(qrels_path))
    except DomainError as exc:
        # Qrels keeps each pair where it first appears, so the pair Collection
        # rejects is on the first line that names an unknown id.
        for lineno, raw in read_lines(qrels_path):
            parts = raw.split()
            if parts and (parts[0] not in queries or parts[2] not in docs):
                raise ParseError(str(exc), path=str(qrels_path), line=lineno) from None
        raise


def write_run(path, records: Iterable[tuple[str, str, int, float, str]]) -> None:
    """Write ``(qid, docid, rank, score, tag)`` records as run lines
    ``qid Q0 docid rank score tag`` with %.6f scores."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid, did, rank, score, tag in records:
            fh.write(f"{qid} Q0 {did} {rank} {score:.6f} {tag}\n")


@_gc_paused()
def read_ranking(path) -> dict[str, list[str]]:
    """``parse_ranking`` of a run file's lines."""
    return parse_ranking(read_lines(path), path)


@_gc_paused()
def parse_ranking(lines: Iterable[tuple[int, str]], path) -> dict[str, list[str]]:
    """Each query's document ids in rank order, ties in file order, from
    numbered run lines: the one run parser. Each line must hold 6 fields, an
    ASCII ``-?[0-9]+`` rank and a finite score, and no query may list a document
    twice; the first faulty line is named. Ranks need not be contiguous; ids are interned."""
    ranked: dict[str, dict[str, int]] = {}    # query id -> doc id -> rank, in file order
    value_of: dict[str, int] = {}    # rank field -> rank: each distinct field checked once
    last_qid = None    # a query's lines come in runs: look its map up once per run
    for lineno, raw in lines:
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise ParseError(f"expected 6 fields, got {len(parts)}", path=str(path), line=lineno)
        qid, _q0, did, rank, score, _tag = parts
        if rank not in value_of:    # -?[0-9]+ as a qrels grade: int() also reads "1_0", "+3"
            if not (rank.isascii() and rank.removeprefix("-").isdigit()):
                raise ParseError(f"bad rank {rank!r}", path=str(path), line=lineno)
            value_of[rank] = int(rank)
        try:
            finite = math.isfinite(float(score))
        except ValueError:
            raise ParseError(f"bad score {score!r}", path=str(path), line=lineno) from None
        if not finite:
            raise ParseError(f"non-finite score {score!r}", path=str(path), line=lineno)
        if qid != last_qid:
            last_qid = sys.intern(qid)
            try:
                ranks = ranked[last_qid]
            except KeyError:
                ranks = ranked[last_qid] = {}
        if did in ranks:
            raise ParseError(f"query {qid} lists document {did!r} twice",
                             path=str(path), line=lineno)
        ranks[sys.intern(did)] = value_of[rank]
    # a stable sort: tied ranks keep file order
    return {qid: sorted(ranks, key=ranks.__getitem__) for qid, ranks in ranked.items()}


def records_from_ranking(ranked: RankedList,
                         tag: str = "backrank") -> list[tuple[str, str, int, float, str]]:
    """The ``write_run`` records of a ranked list, ranked from 1."""
    return [(ranked.query_id, did, i + 1, score, tag)
            for i, (did, score) in enumerate(ranked.items)]


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
        if not all(0.0 <= y < math.inf for y in self.labels):
            raise DomainError(f"relevance labels of query {self.query_id} must be finite and >= 0")
        if not any(y > 0 for y in self.labels):
            raise DomainError("an example needs at least one positive label")


@dataclass(frozen=True)
class EvalSet:
    """Everything the sweep needs: encoded queries with non-empty candidate
    lists, labels, and each document's string tokens for the gender magnitudes."""

    queries: Mapping[str, Sequence[int]]
    candidates: Mapping[str, Sequence[tuple[str, Sequence[int]]]]
    qrels: Qrels
    doc_tokens: Mapping[str, Sequence[str]]

    def __post_init__(self):
        for qid in self.queries:
            cands = self.candidates.get(qid)
            if not cands:
                raise DomainError(f"no candidates to rank for query {qid}")
            if len({did for did, _ in cands}) != len(cands):
                raise DomainError(f"query {qid} lists a candidate document twice")


def build_train_examples(
    coll: Collection,
    vocab: Vocab,
    num_negatives: int = 7,
    seed: int = 0,
    candidate_depth: int = 100,
) -> list[TrainExample]:
    """Listwise training data: one list per labeled positive.

    Queries are taken in sorted id order, so the lists and the seeded draw of
    negatives do not depend on line order. Negatives come from the query's
    ``build_eval_set`` candidates that carry no positive label. Queries
    without positives, or whose candidates yield no negatives, are skipped
    with a warning. Every list naming a document shares one encoded tuple.
    """
    if num_negatives < 1:
        raise DomainError("num_negatives must be >= 1")
    eval_set = build_eval_set(coll, vocab, candidate_depth)
    report_retrieval(len(coll.queries), len(eval_set.queries))
    encoded = {did: ids for cands in eval_set.candidates.values() for did, ids in cands}
    rng = SplitMix64(seed)
    examples: list[TrainExample] = []
    skipped = 0
    for qid in sorted(coll.queries):
        positives = coll.qrels.relevant(qid)
        pool = [d for d, _ in eval_set.candidates.get(qid, ()) if coll.qrels.grade(qid, d) == 0]
        if not positives or not pool:
            skipped += 1
            continue
        for pos in sorted(positives):
            if pos not in encoded:    # a positive BM25 did not retrieve
                encoded[pos] = tuple(vocab.encode(coll.docs[pos]))
            negs = rng.sample(pool, min(num_negatives, len(pool)))
            doc_ids = (pos, *negs)
            examples.append(TrainExample(
                query_id=qid,
                query=eval_set.queries[qid],
                doc_ids=doc_ids,
                docs=tuple(encoded[d] for d in doc_ids),
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
    candidate_depth: int = 100,
    query_ids: Iterable[str] | None = None,
) -> EvalSet:
    """First-stage candidates of each of ``query_ids`` (default: every query
    of the collection) plus everything the reranker sweep consumes. A query
    BM25 retrieves nothing for is left out silently (``report_retrieval``
    warns of it). Each distinct candidate document is encoded once, and every
    list naming it shares that tuple."""
    queries: dict[str, tuple[int, ...]] = {}
    candidates: dict[str, list[tuple[str, tuple[int, ...]]]] = {}
    encoded: dict[str, tuple[int, ...]] = {}
    for qid in coll.queries if query_ids is None else query_ids:
        retrieved = bm25_retrieve(coll.queries[qid], coll, candidate_depth, query_id=qid)
        if not retrieved.items:
            continue
        queries[qid] = tuple(vocab.encode(coll.queries[qid]))
        for did in retrieved.doc_ids:
            if did not in encoded:
                encoded[did] = tuple(vocab.encode(coll.docs[did]))
        candidates[qid] = [(did, encoded[did]) for did in retrieved.doc_ids]
    doc_tokens = {did: coll.docs[did] for did in encoded}  # not copied
    return EvalSet(queries=queries, candidates=candidates,
                   qrels=coll.qrels, doc_tokens=doc_tokens)


def report_retrieval(asked: int, kept: int) -> None:
    """One warning for the ``asked - kept`` queries that retrieved nothing;
    a DomainError when no query kept a candidate."""
    if kept < asked:
        log.warning("dropped %d queries with no retrievable candidates", asked - kept)
    if not kept:
        raise DomainError("no queries with candidates to evaluate")


@_gc_paused()
def read_qrels(path) -> Qrels:
    """Parse ``qid 0 docid rel`` lines, rel -?[0-9]+ in 0..MAX_GRADE; the last duplicate wins."""
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
        if not (rel_s.isascii() and rel_s.removeprefix("-").isdigit()):    # -?[0-9]+
            raise ParseError(f"bad relevance {rel_s!r}", path=str(path), line=lineno)
        rel = int(rel_s)
        if not 0 <= rel <= MAX_GRADE:
            raise ParseError(f"{'negative' if rel < 0 else 'too large a'} relevance grade "
                             f"{rel_s!r} (grades are 0..{MAX_GRADE})", path=str(path), line=lineno)
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
