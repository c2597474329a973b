"""Collections: tokenization, vocab, BM25, synthesis, and the file formats."""

import gc
import json
import math
import os
import random
import re
import string
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from backrank import (Collection, DomainError, ParseError, Qrels, SplitMix64,
                      SynthConfig, Vocab, bm25_retrieve, build_eval_set,
                      build_train_examples, generate_synthetic, load_collection,
                      read_qrels, read_ranking, tokenize,
                      write_collection, write_qrels, write_run)
from backrank import corpus
from backrank.corpus import read_gender_tokens, read_tsv, records_from_ranking
from backrank.metrics import FEMALE_TERMS, MALE_TERMS
from helpers import (CounterBm25Index, ScalarSplitMix64, assert_ranking_invariants,
                     build_train_examples_reference, group_run, read_run, regex_tokenize)


@pytest.fixture
def tiny_coll():
    # enough filler docs that the query terms stay under the BM25 idf floor
    docs = {
        "d1": ["black", "cat", "sat"],
        "d2": ["black", "dog", "ran", "ran"],
        "d3": ["white", "cat", "cat", "slept"],
        "d4": ["totally", "unrelated", "words"],
        "d5": ["more", "filler", "text"],
        "d6": ["yet", "another", "document"],
    }
    queries = {"q1": ["black", "cat"], "q2": ["white", "cat"]}
    qrels = Qrels({("q1", "d1"): 1, ("q2", "d3"): 1})
    return Collection(docs, queries, qrels)


# ---------------------------------------------------------------------------
# tokenize / vocab


def test_tokenize_lowercases_and_splits():
    assert tokenize("The Black  CAT, sat!") == ["the", "black", "cat", "sat"]
    assert tokenize("") == []


def test_vocab_build_order_and_specials():
    v = Vocab.build([["b", "a", "b"], ["c", "b"]])
    # counts: b=3, a=1, c=1; ties alphabetical
    assert v.tokens[:3] == ["<pad>", "<unk>", "<sep>"]
    assert v.tokens[3:] == ["b", "a", "c"]
    assert v.token_id("b") == 3
    assert v.token_id("zzz") == Vocab.UNK
    assert v.encode(["a", "zzz", "b"]) == [4, Vocab.UNK, 3]


def test_vocab_rejects_bad_layouts():
    with pytest.raises(DomainError):
        Vocab(["a", "b", "c"])
    with pytest.raises(DomainError):
        Vocab(["<pad>", "<unk>", "<sep>", "x", "x"])


# ---------------------------------------------------------------------------
# BM25


def test_bm25_prefers_matching_doc(tiny_coll):
    ranked = bm25_retrieve(["white", "slept"], tiny_coll, top_n=4)
    assert ranked.doc_ids[0] == "d3"


def direct_bm25(docs, query, k1=0.9, b=0.4):
    """doc id -> Okapi BM25 score > 0, straight from the definition (idf
    floored at zero), adding the query terms in their order."""
    n = len(docs)
    avgdl = sum(len(t) for t in docs.values()) / n
    expected = {}
    for did, toks in docs.items():
        score = 0.0
        for term in query:
            df = sum(1 for t in docs.values() if term in t)
            if df == 0:
                continue
            idf = max(0.0, math.log((n - df + 0.5) / (df + 0.5)))
            tf = toks.count(term)
            if tf == 0 or idf == 0.0:
                continue
            score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(toks) / avgdl))
        if score > 0.0:
            expected[did] = score
    return expected


def test_bm25_matches_direct_formula(tiny_coll):
    """Every returned score equals the Okapi formula computed straight from
    the definition (k1=0.9, b=0.4, idf floored at zero)."""
    query = ["black", "cat"]
    expected = direct_bm25(tiny_coll.docs, query)

    ranked = bm25_retrieve(query, tiny_coll, top_n=10)
    assert dict(ranked.items) == pytest.approx(expected, abs=1e-12)
    # sorted by score desc, id asc
    scores = [s for _, s in ranked.items]
    assert scores == sorted(scores, reverse=True)


def random_bm25_cases():
    """150 seeded (docs, query, top_n) cases: collections with duplicate
    documents (tied scores), repeated query terms, a term in more than half
    of the documents, and ids whose string order differs from their
    insertion order (d10 < d9)."""
    rng = SplitMix64(21)
    words = [f"w{i}" for i in range(8)]
    for _ in range(150):
        n = 4 + rng.randint(20)
        numbers = list(range(1, n + 1))
        rng.shuffle(numbers)
        docs = {}
        for i in numbers:
            if docs and rng.uniform() < 0.3:
                docs[f"d{i}"] = list(docs[rng.sample(sorted(docs), 1)[0]])
            else:
                docs[f"d{i}"] = [words[rng.randint(len(words))]
                                 for _ in range(1 + rng.randint(6))]
                if rng.uniform() < 0.8:
                    docs[f"d{i}"].append("common")
        query = [words[rng.randint(len(words))] for _ in range(1 + rng.randint(4))]
        query += ["common"] * rng.randint(2) + ["oov"] * rng.randint(2)
        rng.uniform(), rng.uniform()    # formerly k1 and b; drawn to keep the collections
        yield docs, query, 1 + rng.randint(n)


def test_bm25_matches_direct_formula_on_random_collections():
    """Scores and order equal the direct formula exactly, sorted by score
    descending then doc id ascending, on random_bm25_cases: tied scores
    also across the top_n cut, repeated query terms and floored terms."""
    seen = {"tie_at_cut": 0, "repeated_term": 0, "floored_term": 0}
    for docs, query, top_n in random_bm25_cases():
        n = len(docs)
        expected = direct_bm25(docs, query)
        ordered = sorted(expected.items(), key=lambda e: (-e[1], e[0]))
        ranked = bm25_retrieve(query, Collection(docs, {}), top_n=top_n)
        assert ranked.items == tuple(ordered[:top_n])

        if 0 < top_n < len(ordered) and ordered[top_n - 1][1] == ordered[top_n][1]:
            seen["tie_at_cut"] += 1
        seen["repeated_term"] += len(set(query)) < len(query)
        seen["floored_term"] += ("common" in query
                                 and 2 * sum("common" in t for t in docs.values()) > n)
    assert all(count >= 5 for count in seen.values()), seen


def test_bm25_lists_hold_the_ranking_invariants():
    """On random_bm25_cases and every query of the seed-1 synthetic
    collection, each list names a document once, by positive finite score
    descending, ties in ascending doc id."""
    synth = generate_synthetic(SynthConfig(seed=1))
    cases = [(Collection(docs, {}), query, top_n) for docs, query, top_n in random_bm25_cases()]
    cases += [(synth, query, 100) for _, query in sorted(synth.queries.items())]
    for coll, query, top_n in cases:
        ranked = bm25_retrieve(query, coll, top_n=top_n)
        assert_ranking_invariants(ranked)
        assert len(ranked.items) <= top_n and all(s > 0.0 for _, s in ranked.items)


def assert_same_index(got, want):
    assert got.doc_ids == want.doc_ids
    assert list(got.postings) == list(want.postings)
    for term, (rows, impacts) in want.postings.items():
        got_rows, got_impacts = got.postings[term]
        assert got_rows.dtype == rows.dtype == np.intp, term
        assert got_impacts.dtype == impacts.dtype == np.float64, term
        assert np.array_equal(got_rows, rows), term
        assert np.array_equal(got_impacts, impacts), term


def test_bm25_index_equals_the_counter_build():
    """Doc ids, posting key order, rows (intp) and impacts are bit-equal to
    the per-document Counter build, on the seed-1 and seed-4 synthetic
    collections (206 terms: uint8 term ids), one of 400 terms (uint16 ids),
    random_bm25_cases and the edge cases: no documents, one empty document,
    only empty documents, and a term in every document (its idf floors to 0,
    so it has no postings)."""
    collections = [generate_synthetic(SynthConfig(seed=seed, skew=0.9)).docs
                   for seed in (1, 4)]
    collections.append({f"d{i:03d}": [f"w{(i * 7 + j * j) % 400}" for j in range(1 + i % 9)]
                        for i in range(300)})
    assert len({t for doc in collections[-1].values() for t in doc}) > 256
    collections += [docs for docs, _query, _top_n in random_bm25_cases()]
    collections += [{}, {"d1": []}, {"d1": ["a", "b"], "d2": [], "d3": ["b", "c", "b"]},
                    {"d1": [], "d2": [], "d3": []},
                    {"d1": ["x", "y", "x"], "d2": ["x"], "d3": ["z", "x"]}]
    for docs in collections:
        assert_same_index(corpus._Bm25Index(docs), CounterBm25Index(docs))
    assert "x" not in corpus._Bm25Index(collections[-1]).postings
    assert corpus._Bm25Index({}).postings == {}


def test_bm25_index_peaks_no_higher_than_the_counter_build():
    """Building the seed-1 synthetic index allocates at its peak no more than
    the per-document Counter build does."""
    docs = generate_synthetic(SynthConfig(seed=1, skew=0.9)).docs
    peaks = []
    for build in (CounterBm25Index, corpus._Bm25Index):
        _index, _retained, peak = retained_bytes(build, docs)
        peaks.append(peak)
    assert peaks[1] <= peaks[0], peaks


def test_bm25_oov_query_is_empty(tiny_coll):
    assert bm25_retrieve(["qqqq"], tiny_coll).items == ()


def test_bm25_common_term_contributes_nothing():
    # "cat" appears in 2 of 4 docs -> idf ln(2.5/2.5)=0 -> floored out;
    # a cat-only query therefore retrieves nothing
    coll = Collection(
        {"d1": ["cat", "a"], "d2": ["cat", "b"], "d3": ["c"], "d4": ["d"]},
        {"q": ["cat"]})
    assert bm25_retrieve(["cat"], coll).items == ()


def test_bm25_validates_parameters(tiny_coll):
    with pytest.raises(DomainError):
        bm25_retrieve(["x"], tiny_coll, top_n=0)


# ---------------------------------------------------------------------------
# synthesis


def test_synthetic_shape_and_determinism():
    cfg = SynthConfig(seed=3, num_queries=8, docs_per_query=6,
                      relevant_per_query=2, vocab_size=50)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert a.docs == b.docs and a.queries == b.queries and a.qrels == b.qrels
    assert len(a.queries) == 8
    assert len(a.docs) == 48
    assert len(a.qrels) == 16
    other = generate_synthetic(SynthConfig(seed=4, num_queries=8, docs_per_query=6,
                                           relevant_per_query=2, vocab_size=50))
    assert other.docs != a.docs


def test_synthetic_relevant_docs_contain_query_terms():
    cfg = SynthConfig(seed=5, num_queries=10, docs_per_query=5,
                      relevant_per_query=1, vocab_size=60)
    coll = generate_synthetic(cfg)
    for (qid, did), g in coll.qrels.items():
        assert g == 1
        for term in coll.queries[qid]:
            assert term in coll.docs[did]


def test_synthetic_skew_statistics():
    """With full skew, relevant docs carry male terms and non-relevant female
    ones far more often than chance; at 0.5 the two sides are balanced."""
    male = {"he", "man", "him"}
    female = {"she", "woman", "her"}

    def side_rates(coll):
        rel_male = rel_tot = non_fem = non_tot = 0
        rel_pairs = {pair for pair, _ in coll.qrels.items()}
        for qi, (did, toks) in enumerate(coll.docs.items()):
            qid = f"q{qi // 20 + 1:04d}"
            primary_male = sum(toks.count(t) for t in male) > sum(toks.count(t) for t in female)
            if (qid, did) in rel_pairs:
                rel_tot += 1
                rel_male += primary_male
            else:
                non_tot += 1
                non_fem += not primary_male
        return rel_male / rel_tot, non_fem / non_tot

    skewed = generate_synthetic(SynthConfig(seed=9, num_queries=50, docs_per_query=20,
                                            relevant_per_query=2, vocab_size=100,
                                            skew=1.0, gender_mix_rate=0.0))
    r, nr = side_rates(skewed)
    assert r > 0.95 and nr > 0.95

    fair = generate_synthetic(SynthConfig(seed=9, num_queries=50, docs_per_query=20,
                                          relevant_per_query=2, vocab_size=100,
                                          skew=0.5, gender_mix_rate=0.0))
    r, nr = side_rates(fair)
    assert 0.35 < r < 0.65 and 0.35 < nr < 0.65


def test_synthetic_mix_rate_adds_opposite_side():
    cfg = SynthConfig(seed=11, num_queries=40, docs_per_query=10,
                      relevant_per_query=1, vocab_size=80,
                      skew=1.0, gender_mix_rate=1.0)
    coll = generate_synthetic(cfg)
    male = {"he", "man", "him"}
    female = {"she", "woman", "her"}
    for toks in coll.docs.values():
        has_m = any(t in male for t in toks)
        has_f = any(t in female for t in toks)
        assert has_m and has_f    # mix rate 1: every gendered doc carries both


# the bench collection, and one where every rate is strictly inside (0, 1)
ORACLE_CONFIGS = (
    SynthConfig(seed=1, skew=0.9, num_queries=500, docs_per_query=20,
                relevant_per_query=2, vocab_size=200),
    SynthConfig(seed=6, num_queries=60, skew=0.7, gender_rate=0.8, overlap_rate=0.6,
                gender_mix_rate=0.3, gendered_query_rate=0.4),
)


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=["bench", "open-rates"])
def test_synthetic_collection_equals_the_scalar_oracle_stream(cfg, monkeypatch):
    got = generate_synthetic(cfg)
    monkeypatch.setattr(corpus, "SplitMix64", ScalarSplitMix64)
    want = generate_synthetic(cfg)
    assert (got.docs, got.queries, got.qrels) == (want.docs, want.queries, want.qrels)


def test_synth_config_validation():
    with pytest.raises(DomainError):
        SynthConfig(skew=1.2)
    with pytest.raises(DomainError):
        SynthConfig(relevant_per_query=5, docs_per_query=5)
    with pytest.raises(DomainError):
        SynthConfig(query_len=20, doc_len=10)
    with pytest.raises(DomainError):
        SynthConfig(gender_min_repeat=4, gender_max_repeat=2)
    # an int field takes only an int, a unit field an int or a float
    for field, bad, needle in (("num_queries", 2.5, "num_queries must be an int, got 2.5"),
                               ("seed", 1.5, "seed must be an int, got 1.5"),
                               ("seed", True, "seed must be an int, got True"),
                               ("skew", "0.5", "skew must be a number, got '0.5'"),
                               ("gender_rate", None, "gender_rate must be a number, got None")):
        with pytest.raises(DomainError, match=f"^{re.escape(needle)}$"):
            SynthConfig(**{field: bad})
    assert SynthConfig(skew=1, gender_rate=0).skew == 1


def test_synth_config_file_round_trip(tmp_path):
    cfg = SynthConfig(seed=2, num_queries=5, docs_per_query=4, relevant_per_query=1,
                      vocab_size=30, skew=0.75)
    p = tmp_path / "synth.cfg"
    cfg.to_file(p)
    assert SynthConfig.from_file(p) == cfg


def test_synth_config_file_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("mystery_knob=3\n")
    with pytest.raises(ParseError):
        SynthConfig.from_file(p)
    p.write_text("skew 0.5\n")
    with pytest.raises(ParseError):
        SynthConfig.from_file(p)
    # a bad value names its line; a bad combination of keys names the file
    for text, where, message in (
            ("seed = 1\nskew = 1.5\n", ":2: ", "skew must be in [0, 1]"),
            ("# comment\nseed = -2\n", ":2: ", "seed must be non-negative"),
            ("num_queries = 0\n", ":1: ", "num_queries must be positive"),
            ("docs_per_query = 20\nrelevant_per_query = 30\n", ": ",
             "relevant_per_query must be below docs_per_query")):
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            SynthConfig.from_file(p)
        assert str(err.value) == f"{p}{where}{message}"


# ---------------------------------------------------------------------------
# collection and run file I/O


def test_collection_rejects_dangling_qrels():
    with pytest.raises(DomainError):
        Collection({"d1": ["x"]}, {"q1": ["x"]}, Qrels({("q1", "ghost"): 1}))
    with pytest.raises(DomainError):
        Collection({"d1": ["x"]}, {"q1": ["x"]}, Qrels({("ghost", "d1"): 1}))


def test_collection_files_round_trip(tmp_path, tiny_coll):
    paths = write_collection(tiny_coll, tmp_path)
    back = load_collection(paths["corpus"], paths["queries"], paths["qrels"])
    assert back.docs == tiny_coll.docs
    assert back.queries == tiny_coll.queries
    assert back.qrels == tiny_coll.qrels


@pytest.mark.parametrize("parse", [read_tsv, read_gender_tokens], ids=lambda f: f.__name__)
def test_corpus_tsv_errors(tmp_path, parse):
    """Both TSV readers give each malformed file the same path:line message."""
    cases = [("d1 no tab here\n", "1: expected id<TAB>text"),
             ("ok\tfine\n \ttext\n", "2: empty id"),
             ("d1\tok words\nd1\tagain\n", "2: duplicate id 'd1'"),
             # an id with whitespace would add a field to every run line naming it
             ("ok\tfine\nd 1\ttext\n", "2: id 'd 1' contains whitespace"),
             ("ok\tfine\nq\u00a01\ttext\n", "2: id 'q\\xa01' contains whitespace")]
    p = tmp_path / "corpus.tsv"
    for text, message in cases:
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse(p)
        assert str(err.value) == f"{p}:{message}"


def test_run_file_round_trip(tmp_path):
    records = [("q1", "d2", 1, 0.75, "sys"), ("q1", "d1", 2, 0.5, "sys"),
               ("q2", "d9", 1, 1.25, "sys")]
    p = tmp_path / "run.txt"
    write_run(p, records)
    text = p.read_text()
    assert text.splitlines()[0] == "q1 Q0 d2 1 0.750000 sys"
    assert read_run(p) == records
    # byte-identical on the write -> read -> write cycle
    p2 = tmp_path / "run2.txt"
    write_run(p2, read_run(p))
    assert p2.read_bytes() == p.read_bytes()


@pytest.mark.parametrize("parse", [read_run, read_ranking], ids=lambda f: f.__name__)
def test_read_run_rejects_malformed(tmp_path, parse):
    """read_ranking and its oracle give each malformed file the same
    path:line message. A rank is ASCII ``-?[0-9]+``, as a qrels grade is:
    the other forms Python's int() reads (an underscore, a plus sign,
    surrounding text, non-ASCII digits) are a bad rank; "-3" and "007" are
    ranks."""
    p = tmp_path / "run.txt"
    p.write_text("q1 Q0 d1 007 2.0 t\nq1 Q0 d2 -3 1.0 t\nq1 Q0 d3 -0 0.5 t\n")
    assert parse(p) == ([("q1", "d1", 7, 2.0, "t"), ("q1", "d2", -3, 1.0, "t"),
                         ("q1", "d3", 0, 0.5, "t")] if parse is read_run else
                        {"q1": ["d2", "d3", "d1"]})
    cases = [("q1 Q0 d1 first 0.5 sys\n", "1: bad rank 'first'"),
             # "1_0" would read as rank 10 and "+3" as rank 3, ranking d1 last
             ("q1 Q0 d1 1_0 2.0 t\nq1 Q0 d2 2 1.0 t\nq1 Q0 d3 +3 0.5 t\n", "1: bad rank '1_0'"),
             *((f"q1 Q0 d1 1 0.5 sys\nq1 Q0 d2 {bad} 0.4 sys\n", f"2: bad rank {bad!r}")
               for bad in ("+3", "-", "--1", "\u0663", "1.0", "0x1", "1e2", "\uff11")),
             ("q1 Q0 d1 1 0.5\n", "1: expected 6 fields, got 5"),
             ("q1 Q0 d1 1 0.5 sys\n\nq1 Q0 d2 2 high sys\n", "3: bad score 'high'"),
             *((f"q1 Q0 d1 1 0.5 sys\nq1 Q0 d2 2 {bad} sys\n", f"2: non-finite score '{bad}'")
               for bad in ("nan", "inf", "-inf")),
             ("q1 Q0 d1 1 0.5 sys\nq2 Q0 d1 1 0.5 sys\nq1 Q0 d1 2 0.4 sys\n",
              "3: query q1 lists document 'd1' twice"),
             # after blank lines: numbered as the file's lines, not its records
             ("\nq1 Q0 d1 1 0.5 sys\n\n\nq1 Q0 d1 2 0.4 sys\n",
              "5: query q1 lists document 'd1' twice"),
             # queries interleaved: the first repeat in file order, whichever query
             ("q1 Q0 d1 1 0.9 s\nq2 Q0 d2 1 0.9 s\nq2 Q0 d1 2 0.8 s\n"
              "q1 Q0 d2 2 0.8 s\nq2 Q0 d3 3 0.7 s\nq1 Q0 d3 3 0.7 s\n"
              "q2 Q0 d1 4 0.6 s\nq1 Q0 d1 4 0.6 s\n",
              "7: query q2 lists document 'd1' twice"),
             # two faults: the first faulty line in file order is named
             ("q1 Q0 d1 1 0.5 sys\nq1 Q0 d1 2 0.4 sys\nq1 Q0 d2 3 high sys\n",
              "2: query q1 lists document 'd1' twice"),
             ("q1 Q0 d1 1 0.5 sys\nq1 Q0 d2 2 high sys\nq1 Q0 d1 3 0.4 sys\n",
              "2: bad score 'high'")]
    for text, message in cases:
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse(p)
        assert str(err.value) == f"{p}:{message}"


def retained_bytes(parse, path):
    """What parse(path) returns, the bytes its allocations still hold, and
    their peak while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        result = parse(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


_TRACED_READ = ("import gc, json, sys, tracemalloc; from backrank import corpus; "
                "gc.collect(); tracemalloc.start(); "
                "result = getattr(corpus, sys.argv[1])(sys.argv[2]); "
                "print(json.dumps(tracemalloc.get_traced_memory()))")


def traced_read(parse, path):
    """``retained_bytes`` of a file reader of ``corpus``, traced in a fresh
    interpreter. Interning ids may grow the interpreter's interned-string
    table, and when that growth falls in a traced call depends on what was
    interned before it: in a fresh interpreter that is the same whatever
    tests ran earlier in this one. Warming up with an untraced call does not
    do this; the strings it drops leave the table less room, not more."""
    import_root = str(Path(corpus.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _TRACED_READ, parse.__name__, str(path)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": import_root})
    retained, peak = json.loads(proc.stdout)
    return parse(path), retained, peak


def _bm25_like_run(tmp_path):
    """A depth-100 run of 200 queries over a shared pool of documents."""
    rng = SplitMix64(5)
    pool = [f"d{i:06d}" for i in range(2000)]
    lines = [f"q{q:04d} Q0 {did} {r + 1} {1.0 / (r + 1):.6f} bm25\n"
             for q in range(200) for r, did in enumerate(rng.sample(pool, 100))]
    p = tmp_path / "run.txt"
    p.write_text("".join(lines))
    return p


def test_read_ranking_retains_at_most_17_bytes_per_line(tmp_path):
    """Only the ranked id lists and the distinct ids survive: no record per
    line (a tuple per line would retain over 100 bytes per line)."""
    ranked, retained, _peak = traced_read(read_ranking, _bm25_like_run(tmp_path))
    assert sum(map(len, ranked.values())) == 20_000
    assert retained / 20_000 <= 17


def test_read_ranking_peaks_at_most_5_file_sizes_above_what_it_returns(tmp_path):
    """Its transient peak is the file's lines plus one doc id -> rank dict
    per query; parsing records and then grouping them peaks at over 6 times
    the file's size."""
    p = _bm25_like_run(tmp_path)
    ranked, retained, peak = traced_read(read_ranking, p)
    assert sum(map(len, ranked.values())) == 20_000
    assert peak - retained <= 5 * p.stat().st_size


def test_read_tsv_retains_at_most_35_bytes_per_token(tmp_path):
    rng = SplitMix64(6)
    words = [f"w{i:03d}" for i in range(200)]
    p = tmp_path / "corpus.tsv"
    p.write_text("".join(f"d{i:06d}\t{' '.join(words[rng.randint(200)] for _ in range(15))}\n"
                         for i in range(2000)))
    docs, retained, _peak = traced_read(read_tsv, p)
    assert sum(map(len, docs.values())) == 30_000
    assert retained / 30_000 <= 35


def test_parsed_tokens_and_ids_are_shared_objects(tmp_path):
    corpus_path = tmp_path / "corpus.tsv"
    corpus_path.write_text("d1\tThe cat sat\nd2\tthe CAT ran\n")
    docs = read_tsv(corpus_path)
    assert docs["d1"][0] is docs["d2"][0] and docs["d1"][1] is docs["d2"][1]
    assert tokenize("cat".upper())[0] is docs["d1"][1]
    run_path = tmp_path / "run.txt"
    run_path.write_text("q1 Q0 d2 1 0.5 sys\nq2 Q0 d2 1 0.5 sys\nq1 Q0 d1 2 0.4 sys\n")
    corpus_ids = {did: did for did in docs}
    ranked = read_ranking(run_path)
    assert ranked["q1"][0] is ranked["q2"][0] is corpus_ids["d2"]
    assert next(iter(ranked)) is sys.intern("q1")


PARSERS = {    # parser, a good file, a file it rejects
    "read_tsv": (read_tsv, "d1\tsome text\n", "d1\tsome text\nd1\tagain\n"),
    "read_gender_tokens": (read_gender_tokens, "d1\tshe said\n", "d1\tshe said\nd1\the\n"),
    "read_ranking": (read_ranking, "q1 Q0 d1 1 0.5 s\n",
                     "q1 Q0 d1 1 0.5 s\nq1 Q0 d1 2 0.4 s\n"),
    "read_qrels": (read_qrels, "q1 0 d1 1\n", "q1 0 d1 1\nq1 0 d2 x\n"),
}


@pytest.mark.parametrize("name", PARSERS)
def test_parsers_pause_the_collector_and_restore_it(tmp_path, monkeypatch, name):
    parse, good, bad = PARSERS[name]
    states = []
    read_lines = corpus.read_lines

    def recording_read_lines(path):
        states.append(gc.isenabled())
        return read_lines(path)

    monkeypatch.setattr(corpus, "read_lines", recording_read_lines)
    good_path, bad_path = tmp_path / "good", tmp_path / "bad"
    good_path.write_text(good)
    bad_path.write_text(bad)
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            parse(good_path)
            assert gc.isenabled() is enabled
            with pytest.raises(ParseError):
                parse(bad_path)
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert states == [False] * 4


def test_read_ranking_orders_by_rank(tmp_path):
    p = tmp_path / "run.txt"
    write_run(p, [("q1", "b", 2, 0.1, "s"), ("q1", "a", 1, 0.2, "s"),
                  ("q2", "z", 1, 0.9, "s")])
    assert read_ranking(p) == {"q1": ["a", "b"], "q2": ["z"]}


def _random_run_text(rng):
    """Run lines of up to 5 interleaved queries, each listing distinct
    documents at ranks drawn from 1-6 (tied, gapped, out of order), with
    blank and whitespace-only lines among them."""
    queries = [f"q{i}" for i in range(1 + rng.randint(5))]
    lines = []
    for qid in queries:
        lines += [(qid, did) for did in rng.sample([f"d{i}" for i in range(12)],
                                                   1 + rng.randint(12))]
    rng.shuffle(lines)
    text = [f"{qid} Q0 {did} {1 + rng.randint(6)} {rng.uniform():.6f} s\n"
            for qid, did in lines]
    for _ in range(rng.randint(4)):
        text.insert(rng.randint(len(text) + 1), ("\n", "  \n", "\t \n")[rng.randint(3)])
    return "".join(text)


def test_read_ranking_equals_grouped_read_run(tmp_path):
    """Tied ranks keep file order; blank lines, interleaved queries and
    ranks with gaps or out of order change nothing else."""
    p = tmp_path / "run.txt"
    p.write_text("q2 Q0 d5 7 0.1 s\n\nq1 Q0 d1 3 0.5 s\nq2 Q0 d4 1 0.9 s\n"
                 "q1 Q0 d3 1 0.9 s\n   \nq1 Q0 d2 3 0.5 s\nq2 Q0 d1 7 0.1 s\n"
                 "q1 Q0 d9 10 0.2 s\nq3 Q0 d1 1 1.0 s\nq1 Q0 d4 3 0.4 s\n\n")
    ranked = read_ranking(p)
    assert ranked == group_run(read_run(p))
    assert ranked == {"q2": ["d4", "d5", "d1"], "q1": ["d3", "d1", "d2", "d4", "d9"],
                      "q3": ["d1"]}
    assert list(ranked) == ["q2", "q1", "q3"]
    # a depth-100 run written in rank order
    p = _bm25_like_run(tmp_path)
    assert read_ranking(p) == group_run(read_run(p))
    # random runs: queries keep the order they first appear in
    rng = SplitMix64(24)
    p = tmp_path / "random.txt"
    for _ in range(100):
        p.write_text(_random_run_text(rng))
        ranked, records = read_ranking(p), read_run(p)
        assert ranked == group_run(records)
        assert list(ranked) == list(dict.fromkeys(qid for qid, *_rest in records))


def test_qrels_file_round_trip(tmp_path):
    qr = Qrels({("q1", "d1"): 1, ("q2", "d4"): 2})
    p = tmp_path / "qrels.txt"
    write_qrels(p, qr)
    assert read_qrels(p) == qr
    p2 = tmp_path / "qrels2.txt"
    write_qrels(p2, read_qrels(p))
    assert p2.read_bytes() == p.read_bytes()


def test_read_qrels_duplicate_last_wins(tmp_path):
    p = tmp_path / "qrels.txt"
    p.write_text("q1 0 d1 1\nq1 0 d1 0\n")
    assert read_qrels(p).grade("q1", "d1") == 0


def test_read_qrels_rejects_a_negative_grade_at_its_line(tmp_path):
    p = tmp_path / "qrels.txt"
    p.write_text("q1 0 d1 1\nq1 0 d2 -2\n")
    with pytest.raises(ParseError) as err:
        read_qrels(p)
    assert f"{p}:2:" in str(err.value) and "-2" in str(err.value)


# ---------------------------------------------------------------------------
# pipeline builders


def test_build_train_examples_structure(tiny_coll):
    v = Vocab.build(list(tiny_coll.docs.values()) + list(tiny_coll.queries.values()))
    examples = build_train_examples(tiny_coll, v, num_negatives=2, seed=0,
                                    candidate_depth=10)
    assert examples    # q1 has a positive and BM25 negatives
    for ex in examples:
        assert ex.labels[0] == 1.0
        assert all(y == 0.0 for y in ex.labels[1:])
        pos = ex.doc_ids[0]
        assert tiny_coll.qrels.grade(ex.query_id, pos) == 1
        for neg in ex.doc_ids[1:]:
            assert tiny_coll.qrels.grade(ex.query_id, neg) == 0


def test_build_train_examples_deterministic(tiny_coll):
    v = Vocab.build(list(tiny_coll.docs.values()) + list(tiny_coll.queries.values()))
    a = build_train_examples(tiny_coll, v, num_negatives=2, seed=5)
    b = build_train_examples(tiny_coll, v, num_negatives=2, seed=5)
    assert a == b


def test_build_train_examples_negatives_equal_the_scalar_oracle_stream(monkeypatch):
    coll = generate_synthetic(ORACLE_CONFIGS[1])
    vocab = Vocab.build(list(coll.docs.values()) + list(coll.queries.values()))
    got = build_train_examples(coll, vocab, num_negatives=7, seed=3)
    monkeypatch.setattr(corpus, "SplitMix64", ScalarSplitMix64)
    assert build_train_examples(coll, vocab, num_negatives=7, seed=3) == got


def test_build_train_examples_encodes_each_document_once(monkeypatch):
    """Examples that name one document share one encoded tuple, and the
    vocabulary encodes exactly once each query BM25 retrieves for, each
    distinct candidate and each positive that no query retrieved."""
    coll = generate_synthetic(SynthConfig(seed=3, num_queries=30, docs_per_query=6,
                                          relevant_per_query=2, vocab_size=40))
    vocab = Vocab.build(list(coll.docs.values()) + list(coll.queries.values()))
    retrieved = {qid: bm25_retrieve(q, coll, 3).doc_ids for qid, q in coll.queries.items()}
    calls = []
    real = Vocab.encode
    monkeypatch.setattr(Vocab, "encode", lambda self, t: calls.append(t) or real(self, t))
    examples = build_train_examples(coll, vocab, num_negatives=3, seed=2, candidate_depth=3)
    first = {}
    for ex in examples:
        assert ex.query == tuple(real(vocab, coll.queries[ex.query_id]))
        assert ex.docs == tuple(tuple(real(vocab, coll.docs[d])) for d in ex.doc_ids)
        for did, enc in zip(ex.doc_ids, ex.docs):
            assert enc is first.setdefault(did, enc)
    assert len(first) < sum(len(ex.doc_ids) for ex in examples)
    candidates = {d for ids in retrieved.values() for d in ids}
    unretrieved = {ex.doc_ids[0] for ex in examples} - candidates
    assert unretrieved    # at depth 3 some positives are retrieved for no query
    want = ([coll.queries[qid] for qid, ids in retrieved.items() if ids]
            + [coll.docs[d] for d in candidates | unretrieved])
    assert sorted(map(id, calls)) == sorted(map(id, want))


@pytest.mark.parametrize("depth", [6, 20, 100])
@pytest.mark.parametrize("seed", [1, 3])
def test_build_train_examples_equal_the_reference(seed, depth):
    """The lists drawn from ``build_eval_set``'s candidates equal those of
    a retrieval of their own: same queries, pools and draws."""
    coll = generate_synthetic(SynthConfig(seed=seed, num_queries=40, docs_per_query=8,
                                          relevant_per_query=2, vocab_size=60))
    vocab = Vocab.build(list(coll.docs.values()) + list(coll.queries.values()))
    got = build_train_examples(coll, vocab, num_negatives=5, seed=seed, candidate_depth=depth)
    assert got == build_train_examples_reference(coll, vocab, num_negatives=5, seed=seed,
                                                 candidate_depth=depth)
    first = {}
    for ex in got:
        for did, enc in zip(ex.doc_ids, ex.docs):
            assert enc is first.setdefault(did, enc)


def test_build_train_examples_warn_of_a_missed_positive_and_an_empty_query(caplog):
    """A positive outside the candidates is still listed first; a query that
    retrieves nothing is dropped by the eval set and skipped by training."""
    docs = {"d1": ["cat", "cat", "dog"], "d2": ["cat", "fish"], "d3": ["bird"],
            "d4": ["tree"], "d5": ["sun"], "d6": ["moon"]}
    queries = {"q1": ["cat"], "q2": ["zebra"]}
    coll = Collection(docs, queries, Qrels({("q1", "d2"): 1, ("q2", "d3"): 1}))
    vocab = Vocab.build(list(docs.values()) + list(queries.values()))
    assert bm25_retrieve(["cat"], coll, 1).doc_ids == ["d1"]
    with caplog.at_level("WARNING", logger="backrank.corpus"):
        got = build_train_examples(coll, vocab, num_negatives=3, candidate_depth=1)
    assert [(ex.query_id, ex.doc_ids) for ex in got] == [("q1", ("d2", "d1"))]
    assert got == build_train_examples_reference(coll, vocab, num_negatives=3, candidate_depth=1)
    assert [r.getMessage() for r in caplog.records] == [
        "dropped 1 queries with no retrievable candidates",
        "skipped 1 queries without usable training lists"]


def test_build_train_examples_needs_some_labels():
    docs = {"d1": ["a", "b"]}
    queries = {"q1": ["a"]}
    coll = Collection(docs, queries, Qrels({}))
    v = Vocab.build([["a", "b"]])
    with pytest.raises(DomainError):
        build_train_examples(coll, v)


def test_build_eval_set(tiny_coll):
    v = Vocab.build(list(tiny_coll.docs.values()) + list(tiny_coll.queries.values()))
    es = build_eval_set(tiny_coll, v, candidate_depth=10)
    assert set(es.queries) <= set(tiny_coll.queries)
    for qid, cand in es.candidates.items():
        assert cand
        for did, enc in cand:
            assert es.doc_tokens[did] == tiny_coll.docs[did]
            assert list(enc) == v.encode(tiny_coll.docs[did])


def test_build_eval_set_encodes_each_document_once(monkeypatch):
    """Lists that name one document share one encoded tuple, and the
    vocabulary encodes each query and each distinct candidate once."""
    coll = generate_synthetic(SynthConfig(seed=3, num_queries=30, docs_per_query=6,
                                          relevant_per_query=1, vocab_size=40))
    vocab = Vocab.build(list(coll.docs.values()) + list(coll.queries.values()))
    calls = []
    real = Vocab.encode
    monkeypatch.setattr(Vocab, "encode", lambda self, t: calls.append(1) or real(self, t))
    es = build_eval_set(coll, vocab, candidate_depth=20)
    first = {}
    pairs = 0
    for cand in es.candidates.values():
        for did, enc in cand:
            pairs += 1
            assert enc is first.setdefault(did, enc)
            assert list(enc) == real(vocab, coll.docs[did])
    assert len(first) < pairs
    assert len(calls) == len(es.queries) + len(first)
    assert list(es.doc_tokens) == list(first)


def test_build_eval_set_shares_document_tokens(tiny_coll):
    """The eval set holds the collection's token lists, not copies of them."""
    v = Vocab.build(list(tiny_coll.docs.values()) + list(tiny_coll.queries.values()))
    es = build_eval_set(tiny_coll, v, candidate_depth=10)
    assert es.doc_tokens
    for did in es.doc_tokens:
        assert es.doc_tokens[did] is tiny_coll.docs[did]


def test_records_from_ranking_tags_and_ranks(tiny_coll):
    ranked = bm25_retrieve(["black", "dog"], tiny_coll, top_n=5, query_id="q9")
    records = records_from_ranking(ranked, tag="mytag")
    assert records == [("q9", did, i + 1, score, "mytag")
                       for i, (did, score) in enumerate(ranked.items)]
    assert len(records) > 1


# ---------------------------------------------------------------------------
# the tokenizer oracle and the gender-token reader over whole corpora


@pytest.fixture(scope="module", params=[1, 4])
def synth_files(request, tmp_path_factory):
    """corpus.tsv and queries.tsv of the default synthetic collection."""
    paths = write_collection(generate_synthetic(SynthConfig(seed=request.param)),
                             tmp_path_factory.mktemp(f"synth{request.param}"))
    return paths["corpus"], paths["queries"]


def test_tokenize_equals_the_regex_oracle_on_random_text():
    """Characters whose case mapping is unusual, Unicode spaces and word
    characters that are not alphanumeric all separate as the regex does."""
    alphabet = ("\u0130\u01c5\u1e9e\u03a3\u212a\u00a0\u2003_\t\n"
                + string.digits + string.punctuation + string.ascii_letters)
    rng = random.Random(20)
    for _ in range(50_000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 24)))
        assert tokenize(text) == regex_tokenize(text), repr(text)


def test_tokenize_equals_the_regex_oracle_on_synthetic_files(synth_files):
    for path in synth_files:
        for line in path.read_text(encoding="utf-8").splitlines():
            text = line.partition("\t")[2]
            assert tokenize(text) == regex_tokenize(text)


def test_read_gender_tokens_equals_the_filtered_read_tsv(tmp_path, synth_files):
    """Each record's gender-lexicon tokens of read_tsv, in order and interned."""
    hand = tmp_path / "corpus.tsv"
    hand.write_text("d1\tHE said he's here\nd2\tshe-he he2 hers\n\n"
                    "d3\tHim! woman_ manhood\nd4\tno gender words\n")
    assert read_gender_tokens(hand) == {"d1": ["he", "he"], "d2": ["she", "he"],
                                        "d3": ["him", "woman"], "d4": []}
    lexicon = set(FEMALE_TERMS + MALE_TERMS)
    for path in (hand, synth_files[0]):
        full, gendered = read_tsv(path), read_gender_tokens(path)
        assert list(gendered) == list(full)
        for did, tokens in full.items():
            assert gendered[did] == [t for t in tokens if t in lexicon]
            assert all(t is sys.intern(t) for t in gendered[did])
