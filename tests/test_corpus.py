"""Collections: tokenization, vocab, BM25, synthesis, and the file formats."""

import math

import pytest

from backrank import (Collection, DomainError, ParseError, Qrels, RunRecord,
                      SplitMix64, SynthConfig, Vocab, bm25_retrieve, build_eval_set,
                      build_train_examples, generate_synthetic, group_run,
                      load_collection, read_qrels, read_run, tokenize,
                      write_collection, write_qrels, write_run)
from backrank.corpus import read_tsv, records_from_ranking


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
    assert v.decode(v.encode(["a", "zzz"])) == ["a", "<unk>"]


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
    k1, b = 0.9, 0.4
    query = ["black", "cat"]
    expected = direct_bm25(tiny_coll.docs, query, k1, b)

    ranked = bm25_retrieve(query, tiny_coll, top_n=10, k1=k1, b=b)
    assert dict(ranked.items) == pytest.approx(expected, abs=1e-12)
    # sorted by score desc, id asc
    scores = ranked.scores
    assert scores == sorted(scores, reverse=True)


def test_bm25_matches_direct_formula_on_random_collections():
    """Scores and order equal the direct formula exactly, sorted by score
    descending then doc id ascending, on seeded collections with duplicate
    documents (tied scores, also across the top_n cut), repeated query
    terms, a term in more than half of the documents, and ids whose string
    order differs from their insertion order (d10 < d9)."""
    rng = SplitMix64(21)
    words = [f"w{i}" for i in range(8)]
    seen = {"tie_at_cut": 0, "repeated_term": 0, "floored_term": 0}
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
        k1, b = 0.5 + rng.uniform(), rng.uniform()
        top_n = 1 + rng.randint(n)

        expected = direct_bm25(docs, query, k1, b)
        ordered = sorted(expected.items(), key=lambda e: (-e[1], e[0]))
        ranked = bm25_retrieve(query, Collection(docs, {}), top_n=top_n, k1=k1, b=b)
        assert ranked.items == tuple(ordered[:top_n])

        if 0 < top_n < len(ordered) and ordered[top_n - 1][1] == ordered[top_n][1]:
            seen["tie_at_cut"] += 1
        seen["repeated_term"] += len(set(query)) < len(query)
        seen["floored_term"] += ("common" in query
                                 and 2 * sum("common" in t for t in docs.values()) > n)
    assert all(count >= 5 for count in seen.values()), seen


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
    with pytest.raises(DomainError):
        bm25_retrieve(["x"], tiny_coll, k1=-1.0)
    with pytest.raises(DomainError):
        bm25_retrieve(["x"], tiny_coll, b=1.5)


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


def test_synth_config_validation():
    with pytest.raises(DomainError):
        SynthConfig(skew=1.2)
    with pytest.raises(DomainError):
        SynthConfig(relevant_per_query=5, docs_per_query=5)
    with pytest.raises(DomainError):
        SynthConfig(query_len=20, doc_len=10)
    with pytest.raises(DomainError):
        SynthConfig(gender_min_repeat=4, gender_max_repeat=2)


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


def test_corpus_tsv_errors(tmp_path):
    p = tmp_path / "corpus.tsv"
    p.write_text("d1 no tab here\n")
    with pytest.raises(ParseError):
        read_tsv(p)
    p.write_text("d1\tok words\nd1\tagain\n")
    with pytest.raises(ParseError) as err:
        read_tsv(p)
    assert "duplicate" in str(err.value)


def test_run_file_round_trip(tmp_path):
    records = [
        RunRecord("q1", "d2", 1, 0.75, "sys"),
        RunRecord("q1", "d1", 2, 0.5, "sys"),
        RunRecord("q2", "d9", 1, 1.25, "sys"),
    ]
    p = tmp_path / "run.txt"
    write_run(p, records)
    text = p.read_text()
    assert text.splitlines()[0] == "q1 Q0 d2 1 0.750000 sys"
    assert read_run(p) == records
    # byte-identical on the write -> read -> write cycle
    p2 = tmp_path / "run2.txt"
    write_run(p2, read_run(p))
    assert p2.read_bytes() == p.read_bytes()


def test_read_run_rejects_malformed(tmp_path):
    p = tmp_path / "run.txt"
    p.write_text("q1 Q0 d1 first 0.5 sys\n")
    with pytest.raises(ParseError):
        read_run(p)
    p.write_text("q1 Q0 d1 1 0.5\n")
    with pytest.raises(ParseError):
        read_run(p)
    for bad in ("nan", "inf", "-inf"):
        p.write_text(f"q1 Q0 d1 1 0.5 sys\nq1 Q0 d2 2 {bad} sys\n")
        with pytest.raises(ParseError) as err:
            read_run(p)
        assert f"{p}:2:" in str(err.value)


def test_group_run_orders_by_rank():
    records = [RunRecord("q1", "b", 2, 0.1), RunRecord("q1", "a", 1, 0.2),
               RunRecord("q2", "z", 1, 0.9)]
    assert group_run(records) == {"q1": ["a", "b"], "q2": ["z"]}


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
    with pytest.raises(DomainError):
        build_eval_set(tiny_coll, v, query_ids=["ghost"])


def test_records_from_ranking_tags_and_ranks(tiny_coll):
    ranked = bm25_retrieve(["black", "dog"], tiny_coll, top_n=5, query_id="q9")
    records = records_from_ranking(ranked, tag="mytag")
    assert [r.rank for r in records] == list(range(1, len(records) + 1))
    assert all(r.tag == "mytag" and r.query_id == "q9" for r in records)
